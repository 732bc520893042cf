import math

import numpy as np
import numpy.testing as npt
import pytest

from concepthead import metrics as mt
from concepthead.errors import DomainError, MetricError


class TestClassAccuracy:
    def test_all_correct(self):
        logits = [np.array([0.1, 0.9]), np.array([2.0, 1.0])]
        assert mt.class_accuracy(logits, [1, 0]) == 1.0

    def test_ties_break_to_lowest_index(self):
        logits = [np.zeros(3), np.zeros(3)]
        assert mt.class_accuracy(logits, [1, 2]) == 0.0
        assert mt.class_accuracy(logits, [0, 0]) == 1.0

    def test_three_of_four(self):
        logits = [np.array([1.0, 0.0])] * 4
        assert mt.class_accuracy(logits, [0, 0, 0, 1]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            mt.class_accuracy([], [])


class TestConceptTop1Accuracy:
    def test_global_onehot_match(self):
        maps = [np.array([[0.1, 0.8, 0.1]])] * 3
        targets = [np.array([[0.0, 1.0, 0.0]])] * 3
        assert mt.concept_top1_accuracy(maps, targets) == 1.0

    def test_uniform_attention_tie_break(self):
        maps = [np.full((1, 4), 0.25), np.full((1, 4), 0.25)]
        targets = [np.array([[1.0, 0, 0, 0]]), np.array([[0, 1.0, 0, 0]])]
        # argmax of the uniform map is concept 0, so only the first matches
        assert mt.concept_top1_accuracy(maps, targets) == 0.5

    def test_mixed_batch_fraction(self):
        hit = (np.array([[0.9, 0.1]]), np.array([[1.0, 0.0]]))
        miss = (np.array([[0.9, 0.1]]), np.array([[0.0, 1.0]]))
        pairs = [hit] * 9 + [miss]
        maps, targets = zip(*pairs)
        assert mt.concept_top1_accuracy(list(maps), list(targets)) == pytest.approx(0.9)

    def test_spatial_mode_averages_carrier_rows(self):
        attn = np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
        target = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])  # last row non-carrier
        # carrier rows: row0 argmax 0 == 0 (hit), row1 argmax 1 != 0 (miss)
        assert mt.concept_top1_accuracy([attn], [target]) == 0.5

    def test_skips_samples_without_targets(self):
        maps = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
        targets = [None, np.array([[0.0, 1.0]])]
        assert mt.concept_top1_accuracy(maps, targets) == 1.0

    def test_no_targets_rejected(self):
        with pytest.raises(MetricError):
            mt.concept_top1_accuracy([np.ones((1, 2))], [None])

    def test_perfect_explanation_match_gives_perfect_accuracy(self):
        # attention equal to a one-hot target (explanation loss exactly 0)
        # always yields concept accuracy 1.0
        rng = np.random.default_rng(0)
        for _ in range(20):
            target = np.zeros((4, 3))
            target[np.arange(4), rng.integers(3, size=4)] = 1.0
            assert mt.concept_top1_accuracy([target.copy()], [target]) == 1.0


class TestAttentionEntropy:
    def test_onehot_zero(self):
        assert mt.attention_entropy(np.array([[1.0, 0.0], [0.0, 1.0]])) == 0.0

    def test_uniform(self):
        assert mt.attention_entropy(np.full((3, 4), 0.25)) == pytest.approx(
            math.log(4) / 4, abs=1e-12)


class TestHeatmapExport:
    def test_two_pixel_map(self, tmp_path):
        path = tmp_path / "map.pgm"
        mt.export_heatmap(np.array([[0.0, 1.0]]), str(path))
        blob = path.read_bytes()
        assert blob == b"P5\n2 1\n255\n" + bytes([0, 255])

    def test_constant_nonzero_map(self, tmp_path):
        path = tmp_path / "map.pgm"
        mt.export_heatmap(np.full((2, 2), 0.7), str(path))
        assert path.read_bytes().endswith(bytes([255, 255, 255, 255]))

    def test_hand_scaled_values(self, tmp_path):
        path = tmp_path / "map.pgm"
        mt.export_heatmap(np.array([[0.0, 0.5], [0.25, 1.0]]), str(path))
        # 255*0.5 = 127.5 rounds away from zero to 128; 255*0.25 = 63.75 -> 64
        assert path.read_bytes()[-4:] == bytes([0, 128, 64, 255])

    def test_zero_map_all_black(self, tmp_path):
        path = tmp_path / "map.pgm"
        mt.export_heatmap(np.zeros((1, 3)), str(path))
        assert path.read_bytes()[-3:] == bytes([0, 0, 0])

    def test_csv_sibling_full_precision(self, tmp_path):
        path = tmp_path / "map.pgm"
        values = np.array([[1 / 3, 2 / 7]])
        mt.export_heatmap(values, str(path))
        text = (tmp_path / "map.csv").read_text()
        parsed = np.array([[float(v) for v in line.split(",")]
                           for line in text.strip().splitlines()])
        npt.assert_array_equal(parsed, values)

    def test_bytes_match_per_value_writer(self, tmp_path):
        def per_value_writer(a, path):
            peak = a.max()
            scaled = np.zeros_like(a) if peak == 0 else a * (255.0 / peak)
            pixels = np.floor(scaled + 0.5).astype(np.uint8)
            with open(path + ".pgm", "wb") as fh:
                fh.write(f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode("ascii"))
                fh.write(pixels.tobytes())
            with open(path + ".csv", "w", encoding="ascii") as fh:
                for row in a:
                    fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

        rng = np.random.default_rng(11)
        for rows in (1, 8, 32):
            a = rng.dirichlet(np.ones(12) * 0.3, size=rows)
            a[0, :3] = [0.0, 5e-324, 0.0]    # exact zeros and a subnormal
            a[-1] = 0.0
            a[-1, 4] = 1.0                   # a lone 1.0
            mt.export_heatmap(a, str(tmp_path / "new.pgm"))
            per_value_writer(a, str(tmp_path / "old"))
            for ext in ("pgm", "csv"):
                assert ((tmp_path / f"new.{ext}").read_bytes()
                        == (tmp_path / f"old.{ext}").read_bytes())

    def test_negative_values_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            mt.export_heatmap(np.array([[-0.1, 0.5]]), str(tmp_path / "x.pgm"))


class TestMetricsCsv:
    def test_row_roundtrip(self):
        record = mt.Metrics(epoch=3, loss_cls=1 / 3, loss_expl=2 / 7, loss_sparse=0.25,
                            loss_total=1.0, class_acc=0.875, concept_top1_acc=0.5,
                            mean_entropy=math.log(4) / 4)
        text = mt.METRICS_HEADER + "\n" + mt.format_metrics_row(record) + "\n"
        parsed = mt.parse_metrics_csv(text)
        assert len(parsed) == 1
        assert mt.metrics_equal(parsed[0], record)

    def test_nan_concept_accuracy_roundtrips(self):
        record = mt.Metrics(epoch=1, loss_cls=0.0, loss_expl=0.0, loss_sparse=0.0,
                            loss_total=0.0, class_acc=1.0,
                            concept_top1_acc=float("nan"), mean_entropy=0.0)
        parsed = mt.parse_metrics_csv(mt.METRICS_HEADER + "\n"
                                      + mt.format_metrics_row(record) + "\n")
        assert math.isnan(parsed[0].concept_top1_acc)

    def test_header_required(self):
        with pytest.raises(MetricError):
            mt.parse_metrics_csv("nope\n1,2,3\n")

    def test_wall_seconds_deterministic_zero(self):
        record = mt.Metrics(epoch=1, loss_cls=0.0, loss_expl=0.0, loss_sparse=0.0,
                            loss_total=0.0, class_acc=0.0, concept_top1_acc=0.0,
                            mean_entropy=0.0)
        assert mt.format_metrics_row(record).endswith(",0")


class TestTopkCsv:
    def test_writes_ranked_rows(self, tmp_path):
        path = tmp_path / "topk.csv"
        mt.write_topk_csv([(0, 1, 5, 0.625), (0, 2, 2, 0.25)], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_index,rank,concept_index,gamma_value"
        assert lines[1] == "0,1,5,0.625"
        assert lines[2] == "0,2,2,0.25"
