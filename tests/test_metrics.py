import math

import numpy as np
import numpy.testing as npt
import pytest

from concepthead import autodiff as ad
from concepthead import data as dat
from concepthead import head as hd
from concepthead import losses
from concepthead import metrics as mt
from concepthead import trainer as tr
from concepthead.autodiff import Tensor
from concepthead.errors import ConfigError, DomainError, MetricError


def labelled_dataset(labels, seed=0, targets=False):
    """Random (3, 4) features with the given labels; one-hot spatial and global
    targets at concept label + 1 when asked."""
    rng = np.random.default_rng(seed)
    samples = []
    for y in labels:
        h_spatial = h_global = None
        if targets:
            h_spatial, h_global = dat.build_explanations(np.array([0, 2]), y + 1, 3, 4)
        samples.append(dat.Sample(features=rng.normal(size=(3, 4)), label=y,
                                  h_spatial=h_spatial, h_global=h_global))
    return dat.Dataset(samples=samples, n_classes=3, n_concepts=4, n_inputs=3, input_dim=4)


def eval_config(pathway="spatial"):
    head = hd.HeadConfig(concepts=4, slot_dim=4, input_dim=4, n_inputs=3, n_classes=3,
                         pathway=pathway)
    return tr.TrainConfig(head=head, batch_size=4, seed=2)


def reference_forward(ds, params, cfg, seed):
    """The maps and logits evaluate sees: per-sample values do not depend on
    the chunking, so one forward over the whole set with evaluate's seed."""
    with ad.no_grad():
        return hd.head_forward(Tensor(np.stack([s.features for s in ds.samples])),
                               params, cfg.head, np.random.default_rng(seed))


class TestClassAccuracy:
    """class_acc as trainer.evaluate reports it."""

    @staticmethod
    def predicted_dataset(n, params, cfg, seed):
        """n samples labelled with the classes a forward with seed predicts."""
        ds = labelled_dataset([0] * n)
        predicted = np.argmax(reference_forward(ds, params, cfg, seed).logits.data, axis=-1)
        for s, y in zip(ds.samples, predicted.tolist()):
            s.label = y
        return ds

    def test_all_correct(self):
        cfg = eval_config()
        params = tr.init_train_state(cfg).params
        ds = self.predicted_dataset(6, params, cfg, 4)
        assert tr.evaluate(ds, params, cfg, seed=4).class_acc == 1.0

    def test_ties_break_to_lowest_index(self):
        ds = labelled_dataset([1, 2, 0, 0, 1])
        for pathway in ("spatial", "dual"):
            cfg = eval_config(pathway)
            params = tr.init_train_state(cfg).params
            for p in (params.spatial, params.global_):
                if p is not None:
                    p.cross.out.data[...] = 0.0  # every logit ties
            assert tr.evaluate(ds, params, cfg).class_acc == 2 / 5  # class 0 predicted

    def test_three_of_four(self):
        cfg = eval_config()
        params = tr.init_train_state(cfg).params
        ds = self.predicted_dataset(4, params, cfg, 0)
        ds.samples[2].label = (ds.samples[2].label + 1) % 3
        assert tr.evaluate(ds, params, cfg).class_acc == 0.75

    def test_empty_rejected(self):
        cfg = eval_config()
        with pytest.raises(ConfigError, match="empty"):
            tr.evaluate(dat.Dataset(), tr.init_train_state(cfg).params, cfg)


def top1(attn, target):
    """concept_top1_scores of one map: a stack of one sample."""
    return mt.concept_top1_scores(np.asarray(attn)[None], np.asarray(target)[None])[0]


class TestConceptTop1Accuracy:
    """Per-sample scores (concept_top1_scores) and their mean as
    trainer.evaluate reports it."""

    def test_global_onehot_match(self):
        assert top1([[0.1, 0.8, 0.1]], [[0.0, 1.0, 0.0]]) == 1.0
        # a one-row map always scores, also against an all-zero target (argmax 0)
        assert top1([[0.1, 0.8, 0.1]], [[0.0, 0.0, 0.0]]) == 0.0
        assert top1([[0.8, 0.1, 0.1]], [[0.0, 0.0, 0.0]]) == 1.0

    def test_uniform_attention_tie_break(self):
        uniform = np.full((1, 4), 0.25)
        # argmax of the uniform map is concept 0
        assert top1(uniform, [[1.0, 0, 0, 0]]) == 1.0
        assert top1(uniform, [[0, 1.0, 0, 0]]) == 0.0

    def test_mixed_batch_fraction(self):
        ds = labelled_dataset([0, 1, 2, 0, 1, 2, 0], targets=True)
        cfg = eval_config("global")
        params = tr.init_train_state(cfg).params
        attn = reference_forward(ds, params, cfg, 1).attn_global.data
        scores = mt.concept_top1_scores(attn, np.stack([s.h_global for s in ds.samples]))
        assert scores == [top1(a, s.h_global) for a, s in zip(attn, ds.samples)]
        assert 0.0 < sum(scores) < 7  # some hits and some misses
        assert tr.evaluate(ds, params, cfg, seed=1).concept_top1_acc == sum(scores) / 7

    def test_spatial_mode_averages_carrier_rows(self):
        attn = np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
        target = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])  # last row non-carrier
        # carrier rows: row0 argmax 0 == 0 (hit), row1 argmax 1 != 0 (miss)
        assert top1(attn, target) == 0.5
        # a stack scores each sample on its own carrier rows
        misses = np.array([[0.3, 0.7], [0.2, 0.8], [0.5, 0.5]])
        assert mt.concept_top1_scores(np.stack([attn, misses, attn]),
                                      np.stack([target, target, np.zeros((3, 2))])) == [
            0.5, 0.0, None]

    def test_skips_samples_without_targets(self):
        assert top1(np.full((3, 2), 0.5), np.zeros((3, 2))) is None
        ds = labelled_dataset([0, 1, 2, 0, 1, 2, 0], targets=True)
        for s in ds.samples[1::3]:
            s.h_spatial = s.h_global = None
        cfg = eval_config()
        params = tr.init_train_state(cfg).params
        attn = reference_forward(ds, params, cfg, 1).attn_spatial.data
        scores = [top1(a, s.h_spatial)
                  for a, s in zip(attn, ds.samples) if s.h_spatial is not None]
        assert len(scores) == 5
        assert tr.evaluate(ds, params, cfg, seed=1).concept_top1_acc == sum(scores) / 5

    def test_no_targets_gives_nan(self):
        cfg = eval_config()
        record = tr.evaluate(labelled_dataset([0, 1]), tr.init_train_state(cfg).params, cfg)
        assert math.isnan(record.concept_top1_acc)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricError, match="does not match"):
            top1(np.ones((2, 3)), np.ones((1, 3)))
        with pytest.raises(MetricError, match="does not match"):
            mt.concept_top1_scores(np.ones((2, 3)), np.ones((2, 3)))  # not a stack

    def test_perfect_explanation_match_gives_perfect_accuracy(self):
        # attention equal to a one-hot target (explanation loss exactly 0)
        # always yields concept accuracy 1.0
        rng = np.random.default_rng(0)
        targets = np.zeros((20, 4, 3))
        for target in targets:
            target[np.arange(4), rng.integers(3, size=4)] = 1.0
        assert mt.concept_top1_scores(targets.copy(), targets) == [1.0] * 20


class TestAttentionEntropy:
    """mean_entropy and loss_sparse report the sparsity loss value."""

    def test_onehot_zero(self):
        assert float(losses.sparsity_loss(Tensor([[1.0, 0.0], [0.0, 1.0]])).data) == 0.0

    def test_uniform(self):
        assert float(losses.sparsity_loss(Tensor(np.full((3, 4), 0.25))).data) == pytest.approx(
            math.log(4) / 4, abs=1e-12)

    @pytest.mark.parametrize("rows", [1, 8, 32])
    def test_stack_matches_numpy_entropy_per_map(self, rows):
        rng = np.random.default_rng(rows)
        maps = rng.dirichlet(np.ones(12) * 0.3, size=(5, rows))
        maps[0, 0] = np.eye(12)[3]  # exact zeros and a one
        values = losses.sparsity_loss(Tensor(maps)).data
        for value, a in zip(values.tolist(), maps):
            assert value == float((a * np.log(np.maximum(a, 1e-9))).sum() * (-1.0 / a.size))


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
        row = mt.format_metrics_row(record)
        assert row == ("3,0.33333333333333331,0.2857142857142857,0.25,1,0.875,0.5,"
                       "0.34657359027997264,0")
        fields = row.split(",")
        assert int(fields[0]) == record.epoch
        assert [float(v) for v in fields[1:8]] == [
            record.loss_cls, record.loss_expl, record.loss_sparse, record.loss_total,
            record.class_acc, record.concept_top1_acc, record.mean_entropy]

    def test_nan_concept_accuracy_roundtrips(self):
        record = mt.Metrics(epoch=1, loss_cls=0.0, loss_expl=0.0, loss_sparse=0.0,
                            loss_total=0.0, class_acc=1.0,
                            concept_top1_acc=float("nan"), mean_entropy=0.0)
        field = mt.format_metrics_row(record).split(",")[6]
        assert field == "nan" and math.isnan(float(field))

    def test_header_required(self):
        # the header names one column per field of a row, wall_seconds last
        record = mt.Metrics(epoch=1, loss_cls=0.0, loss_expl=0.0, loss_sparse=0.0,
                            loss_total=0.0, class_acc=0.0, concept_top1_acc=0.0,
                            mean_entropy=0.0)
        columns = mt.METRICS_HEADER.split(",")
        assert len(columns) == len(mt.format_metrics_row(record).split(",")) == 9
        assert columns[0] == "epoch" and columns[-1] == "wall_seconds"

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
