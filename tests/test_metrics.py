import math
import os

import numpy as np
import numpy.testing as npt
import pytest

import composed
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
    features = np.random.default_rng(seed).normal(size=(len(labels), 3, 4))
    h_spatial = h_global = None
    if targets:
        h_spatial, h_global = (np.stack(column) for column in zip(*(
            dat.build_explanations(np.array([0, 2]), y + 1, 3, 4) for y in labels)))
    return dat.Dataset(features, np.array(labels), h_spatial, h_global, n_classes=3,
                       n_concepts=4)


def eval_config(pathway="spatial"):
    head = hd.HeadConfig(concepts=4, slot_dim=4, input_dim=4, n_inputs=3, n_classes=3,
                         pathway=pathway)
    return tr.TrainConfig(head=head, batch_size=4, seed=2)


def reference_forward(ds, params, cfg, seed):
    """The maps and logits evaluate sees: per-sample values do not depend on
    the chunking, so one forward over the whole set with evaluate's seed."""
    with ad.no_grad():
        return hd.head_forward(Tensor(ds.features), params, cfg.head,
                               np.random.default_rng(seed))


class TestClassAccuracy:
    """class_acc as trainer.evaluate reports it."""

    @staticmethod
    def predicted_dataset(n, params, cfg, seed):
        """n samples labelled with the classes a forward with seed predicts."""
        ds = labelled_dataset([0] * n)
        ds.labels[:] = np.argmax(reference_forward(ds, params, cfg, seed).logits.data, axis=-1)
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
        ds.labels[2] = (ds.labels[2] + 1) % 3
        assert tr.evaluate(ds, params, cfg).class_acc == 0.75

    def test_empty_rejected(self):
        cfg = eval_config()
        with pytest.raises(ConfigError, match="empty"):
            tr.evaluate(dat.Dataset(np.zeros((0, 3, 4)), np.zeros(0, dtype=np.int64)),
                        tr.init_train_state(cfg).params, cfg)


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
        scores = mt.concept_top1_scores(attn, ds.h_global)
        npt.assert_array_equal(scores, [top1(a, h) for a, h in zip(attn, ds.h_global)])
        assert 0.0 < sum(scores) < 7  # some hits and some misses
        assert tr.evaluate(ds, params, cfg, seed=1).concept_top1_acc == sum(scores) / 7

    def test_spatial_mode_averages_carrier_rows(self):
        attn = np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
        target = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])  # last row non-carrier
        # carrier rows: row0 argmax 0 == 0 (hit), row1 argmax 1 != 0 (miss)
        assert top1(attn, target) == 0.5
        # a stack scores each sample on its own carrier rows
        misses = np.array([[0.3, 0.7], [0.2, 0.8], [0.5, 0.5]])
        scores = mt.concept_top1_scores(np.stack([attn, misses, attn]),
                                        np.stack([target, target, np.zeros((3, 2))]))
        npt.assert_array_equal(scores, [0.5, 0.0, np.nan])

    def test_skips_samples_without_targets(self):
        assert math.isnan(top1(np.full((3, 2), 0.5), np.zeros((3, 2))))
        ds = labelled_dataset([0, 1, 2, 0, 1, 2, 0], targets=True)
        ds.h_spatial[1::3] = 0.0  # no carrier rows, as a file can hold
        cfg = eval_config()
        params = tr.init_train_state(cfg).params
        attn = reference_forward(ds, params, cfg, 1).attn_spatial.data
        scores = [top1(a, h) for a, h in zip(attn, ds.h_spatial) if h.any()]
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
        npt.assert_array_equal(mt.concept_top1_scores(targets.copy(), targets), np.ones(20))


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


def per_value_writer(a, path):
    """The export as it was first written: one value at a time, "%.17g" text."""
    peak = a.max()
    scaled = np.zeros_like(a) if peak == 0 else a * (255.0 / peak)
    pixels = np.floor(scaled + 0.5).astype(np.uint8)
    with open(path + ".pgm", "wb") as fh:
        fh.write(f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
    with open(path + ".csv", "w", encoding="ascii") as fh:
        for row in a:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


class TestHeatmapExport:
    def test_two_pixel_map(self, tmp_path):
        path = tmp_path / "map.pgm"
        mt.export_heatmaps(np.array([[0.0, 1.0]])[None], [str(path)])
        blob = path.read_bytes()
        assert blob == b"P5\n2 1\n255\n" + bytes([0, 255])

    def test_constant_nonzero_map(self, tmp_path):
        path = tmp_path / "map.pgm"
        mt.export_heatmaps(np.full((2, 2), 0.7)[None], [str(path)])
        assert path.read_bytes().endswith(bytes([255, 255, 255, 255]))

    def test_hand_scaled_values(self, tmp_path):
        path = tmp_path / "map.pgm"
        mt.export_heatmaps(np.array([[0.0, 0.5], [0.25, 1.0]])[None], [str(path)])
        # 255*0.5 = 127.5 rounds away from zero to 128; 255*0.25 = 63.75 -> 64
        assert path.read_bytes()[-4:] == bytes([0, 128, 64, 255])

    def test_zero_map_all_black(self, tmp_path):
        path = tmp_path / "map.pgm"
        mt.export_heatmaps(np.zeros((1, 3))[None], [str(path)])
        assert path.read_bytes()[-3:] == bytes([0, 0, 0])

    def test_csv_sibling_full_precision(self, tmp_path):
        path = tmp_path / "map.pgm"
        values = np.array([[1 / 3, 2 / 7]])
        mt.export_heatmaps(values[None], [str(path)])
        text = (tmp_path / "map.csv").read_text()
        parsed = np.array([[float(v) for v in line.split(",")]
                           for line in text.strip().splitlines()])
        npt.assert_array_equal(parsed, values)

    def test_bytes_match_per_value_writer(self, tmp_path):
        rng = np.random.default_rng(11)
        for rows in (1, 8, 32):
            planted = rng.dirichlet(np.ones(12) * 0.3, size=rows)
            planted[0, :3] = [0.0, 5e-324, 0.0]    # exact zeros and a subnormal
            planted[-1] = 0.0
            planted[-1, 4] = 1.0                   # a lone 1.0
            in_range = rng.dirichlet(np.ones(12) * 5, size=rows)  # every entry in [1e-4, 1)
            assert in_range.min() >= 1e-4
            for a in (planted, in_range):
                mt.export_heatmaps(a[None], [str(tmp_path / "new.pgm")])
                per_value_writer(a, str(tmp_path / "old"))
                for ext in ("pgm", "csv"):
                    assert ((tmp_path / f"new.{ext}").read_bytes()
                            == (tmp_path / f"old.{ext}").read_bytes())

    def test_mixed_chunk_matches_per_value_writer(self, tmp_path, monkeypatch):
        """One stack of in-range maps and maps holding a value outside [1e-4, 1):
        every file holds the per-value writer's bytes, and only the in-range
        maps go through the kernel."""
        kernel, kernel_maps = mt._f17_csv, []

        def spy(maps):
            kernel_maps.extend(maps.copy())
            return kernel(maps)

        monkeypatch.setattr(mt, "_f17_csv", spy)
        maps = np.random.default_rng(12).dirichlet(np.ones(12) * 5, size=(7, 8))
        outside = {1: 0.0, 3: 5e-324, 4: 5e-5, 6: 1.0}
        for i, value in outside.items():
            maps[i, 2, 3] = value
        paths = [str(tmp_path / f"new{i}.pgm") for i in range(len(maps))]
        mt.export_heatmaps(maps, paths)
        for i, a in enumerate(maps):
            per_value_writer(a, str(tmp_path / f"old{i}"))
            for ext in ("pgm", "csv"):
                assert ((tmp_path / f"new{i}.{ext}").read_bytes()
                        == (tmp_path / f"old{i}.{ext}").read_bytes())
        npt.assert_array_equal(kernel_maps, maps[[i for i in range(7) if i not in outside]])

    def test_whole_stack_checked_before_any_write(self, tmp_path):
        maps = np.full((3, 2, 2), 0.25)
        maps[2, 1, 1] = np.nan
        paths = [str(tmp_path / f"m{i}.pgm") for i in range(3)]
        with pytest.raises(DomainError, match="finite non-negative"):
            mt.export_heatmaps(maps, paths)
        with pytest.raises(DomainError, match="got 2 paths for 3 maps"):
            mt.export_heatmaps(np.full((3, 2, 2), 0.25), paths[:2])
        with pytest.raises(DomainError, match=r"expects a 2-D map, got shape \(3,\)"):
            mt.export_heatmaps(np.full(3, 0.25)[None], [paths[0]])
        assert list(tmp_path.iterdir()) == []

    def test_negative_values_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            mt.export_heatmaps(np.array([[-0.1, 0.5]])[None], [str(tmp_path / "x.pgm")])


class TestF17Kernel:
    """The heatmap CSV kernel against CPython's "%.17g", byte for byte."""

    def test_matches_percent_on_boundary_and_random_values(self, f17_sweep):
        boundary = f17_sweep.boundary_values()
        values = np.concatenate([boundary, f17_sweep.random_values(np.random.default_rng(5),
                                                                   60000)])
        assert values.size >= 200000
        # the 16 ulps around each decade edge and below 1.0; an exact tie at the
        # 17th digit (131071 / 2**18 * 10**17 = 131071 * 5**17 / 2); a value whose
        # log10 rounds up a decade
        for edge in (1e-4, 1e-3, 1e-2, 0.1):
            assert np.isin(np.float64(edge).view(np.int64) + np.arange(17),
                           boundary.view(np.int64)).all()
        assert np.isin([np.nextafter(1.0, 0.0), 131071 / 2 ** 18, np.nextafter(0.1, 0.0)],
                       boundary).all()
        assert np.floor(np.log10(np.nextafter(0.1, 0.0))) == -1.0
        assert f17_sweep.first_mismatch(values) is None

    def test_stack_layout_matches_percent(self):
        """Rows, separators and map ends: stacks of several shapes, one text per map."""
        rng = np.random.default_rng(6)
        for shape in [(1, 1, 1), (3, 1, 12), (2, 32, 12), (5, 6, 1), (4, 3, 7)]:
            maps = 10.0 ** rng.uniform(-4, 0, shape)
            maps = np.clip(maps, 1e-4, np.nextafter(1.0, 0.0))
            assert mt._f17_csv(maps) == [mt._percent_csv(a) for a in maps]
        assert mt._f17_csv(np.zeros((0, 1, 4))) == []


PREFILLS = {"longer": b"#" * 5000, "shorter": b"P5\n", "empty": b""}


class TestOverwrite:
    """An existing output file ends up with exactly the bytes a fresh one gets."""

    @staticmethod
    def topk_rows():
        """write_topk_csv's (samples, order, gamma) for 40 samples of 3 ranks."""
        i, r = np.arange(40)[:, None], np.arange(1, 4)
        return np.arange(40), (3 * i + r) % 7, 1 / (i + r + 2)

    @pytest.mark.parametrize("prefill", PREFILLS)
    @pytest.mark.parametrize("rows", [1, 32])
    def test_heatmap_over_existing_file(self, tmp_path, prefill, rows):
        a = np.random.default_rng(rows).dirichlet(np.ones(12), size=rows)
        mt.export_heatmaps(a[None], [str(tmp_path / "fresh.pgm")])
        for ext in ("pgm", "csv"):
            (tmp_path / f"old.{ext}").write_bytes(PREFILLS[prefill])
        mt.export_heatmaps(a[None], [str(tmp_path / "old.pgm")])
        for ext in ("pgm", "csv"):
            assert ((tmp_path / f"old.{ext}").read_bytes()
                    == (tmp_path / f"fresh.{ext}").read_bytes())

    @pytest.mark.parametrize("prefill", PREFILLS)
    def test_topk_over_existing_file(self, tmp_path, prefill):
        fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
        mt.write_topk_csv(*self.topk_rows(), str(fresh))
        old.write_bytes(PREFILLS[prefill])
        mt.write_topk_csv(*self.topk_rows(), str(old))
        assert old.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_matches_open(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "ref", "wb"):
                pass
            mt.write_topk_csv(*self.topk_rows(), str(tmp_path / "topk.csv"))
            mt.export_heatmaps(np.eye(3)[None], [str(tmp_path / "map.pgm")])
        finally:
            os.umask(previous)
        want = os.stat(tmp_path / "ref").st_mode
        assert want & 0o777 == 0o666 & ~umask
        for name in ("topk.csv", "map.pgm", "map.csv"):
            assert os.stat(tmp_path / name).st_mode == want

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_topk_to_null_device(self):
        mt.write_topk_csv(*self.topk_rows(), os.devnull)

    def test_directory_at_target_rejected(self, tmp_path):
        (tmp_path / "topk.csv").mkdir()
        with pytest.raises(IsADirectoryError):
            mt.write_topk_csv(*self.topk_rows(), str(tmp_path / "topk.csv"))
        (tmp_path / "map.csv").mkdir()
        with pytest.raises(IsADirectoryError):
            mt.export_heatmaps(np.eye(2)[None], [str(tmp_path / "map.pgm")])


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
        mt.write_topk_csv(np.array([0]), np.array([[5, 2]]), np.array([[0.625, 0.25]]),
                          str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_index,rank,concept_index,gamma_value"
        assert lines[1] == "0,1,5,0.625"
        assert lines[2] == "0,2,2,0.25"

    @pytest.mark.parametrize("samples,k", [(0, 3), (1, 1), (5, 4), (37, 12)])
    def test_bytes_match_per_row_writer(self, tmp_path, samples, k):
        """One format over the arrays gives the per-row f-string writer's
        bytes: for gammas below 1e-4 (exponent form), exact and signed
        zeros, subnormals, ties, 1 and values of every magnitude, and
        sample indices that start past 0 as a --limit or a later chunk
        leaves them."""
        rng = np.random.default_rng(samples + k)
        gamma = 10.0 ** rng.uniform(-12, 0, (samples, k))
        special = [0.0, -0.0, 5e-324, 1e-4, np.nextafter(1e-4, 0.0), 1.0, 1 / 3, 2.5e-7]
        gamma.ravel()[:len(special)] = special[:gamma.size]
        if samples > 2:
            gamma[2] = gamma[2, 0]  # a sample whose k gammas tie
        order = np.argsort(rng.uniform(size=(samples, 12)), axis=-1)[:, :k]
        index = np.arange(samples) + 1000
        mt.write_topk_csv(index, order, gamma, str(tmp_path / "topk.csv"))
        rows = [(int(i), rank + 1, int(c), float(g)) for i, top, gammas in
                zip(index, order, gamma) for rank, (c, g) in enumerate(zip(top, gammas))]
        assert (tmp_path / "topk.csv").read_bytes() == composed.per_row_topk_csv(rows)
