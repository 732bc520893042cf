import dataclasses
import math
import struct
import tracemalloc

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
from concepthead.errors import ConfigError, FormatError, NumericError
from concepthead.losses import LossWeights


class ParamSet:
    """Duck-typed stand-in for HeadParams in optimizer unit tests."""

    def __init__(self, **tensors):
        self.tensors = tensors

    def named(self):
        return iter(self.tensors.items())


def tiny_dataset(samples_per_class=6, seed=0, n_inputs=3, input_dim=4):
    cfg = dat.SynthConfig(n_classes=2, n_concepts=4,
                          concepts_per_class=dat.block_concept_map(2, 4),
                          n_inputs=n_inputs, input_dim=input_dim, noise_std=0.1,
                          samples_per_class=samples_per_class)
    return dat.gen_synthetic(cfg, seed)


def tiny_config(**overrides):
    head = overrides.pop("head", None) or hd.HeadConfig(
        concepts=4, slot_dim=4, input_dim=4, n_inputs=3, n_classes=2,
        variant=overrides.pop("variant", "sa"), pathway="spatial")
    kwargs = dict(head=head, epochs=2, batch_size=4, lr=1e-3, warmup_iters=2,
                  weight_decay=1e-3, seed=7)
    kwargs.update(overrides)
    return tr.TrainConfig(**kwargs)


def store_views(opt, k):
    """Each parameter's slice of the store's array k (0: values, 1: first
    moments, 2: second moments), reshaped to its shape and keyed by name."""
    return {name: opt.flat[k][start:stop].reshape(p.shape) for name, p, start, stop in opt.table}


GRID = [(variant, pathway, heads) for variant in hd.VARIANTS for pathway in hd.PATHWAYS
        for heads in (1, 4)]


class TestAdamW:
    def test_zero_grad_zero_decay_leaves_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        params = ParamSet(w=p)
        opt = tr.OptimizerState.for_params(params)
        cfg = tiny_config(weight_decay=0.0)
        tr.adamw_step(opt, cfg, lr_t=0.1)
        npt.assert_array_equal(p.data, [1.0, -2.0])

    def test_zero_grad_pure_decay(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.zeros(1)
        params = ParamSet(w=p)
        opt = tr.OptimizerState.for_params(params)
        cfg = tiny_config(weight_decay=0.5)
        tr.adamw_step(opt, cfg, lr_t=0.1)
        npt.assert_allclose(p.data, [2.0 * (1 - 0.1 * 0.5)], atol=1e-15)

    def test_one_step_hand_value(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.ones(1)
        params = ParamSet(w=p)
        opt = tr.OptimizerState.for_params(params)
        cfg = tiny_config(weight_decay=0.0)
        tr.adamw_step(opt, cfg, lr_t=1e-3)
        # bias-corrected m = v = 1 -> theta - 1e-3 / (1 + 1e-8)
        assert p.data[0] == pytest.approx(1.0 - 1e-3 / (1.0 + 1e-8), abs=1e-15)
        assert opt.t == 1

    def test_zero_lr_keeps_params_exactly(self):
        p = Tensor(np.array([0.5, -0.25]), requires_grad=True)
        p.grad = np.array([1.0, 2.0])
        params = ParamSet(w=p)
        opt = tr.OptimizerState.for_params(params)
        tr.adamw_step(opt, tiny_config(), lr_t=0.0)
        npt.assert_array_equal(p.data, [0.5, -0.25])

    def test_nonfinite_gradient_aborts(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        params = ParamSet(w=p)
        opt = tr.OptimizerState.for_params(params)
        with pytest.raises(NumericError, match="w"):
            tr.adamw_step(opt, tiny_config(), lr_t=0.1)

    @staticmethod
    def three_params():
        params = ParamSet(a=Tensor(np.ones((2, 3)), requires_grad=True),
                          b=Tensor(np.ones((1, 4)), requires_grad=True),
                          c=Tensor(np.ones((3, 2)), requires_grad=True))
        for _, p in params.named():
            p.grad = np.full(p.shape, 0.5)
        return params, tr.OptimizerState.for_params(params)

    @pytest.mark.parametrize("bad", [{"b": (0, 2, np.nan), "c": (1, 0, np.inf)},
                                     {"b": (0, 0, np.nan)}, {"c": (2, 1, -np.inf)}])
    def test_nonfinite_gradient_names_first_parameter_and_changes_nothing(self, bad):
        params, opt = self.three_params()
        for name, (i, j, value) in bad.items():
            params.tensors[name].grad[i, j] = value
        before = [a.copy() for a in opt.flat]
        want = "'b'" if "b" in bad else "'c'"
        with pytest.raises(NumericError) as err:
            tr.adamw_step(opt, tiny_config(), lr_t=0.1)
        assert str(err.value) == f"non-finite gradient for parameter {want} at optimizer step 1"
        assert opt.t == 0
        for a, b in zip(opt.flat, before):
            npt.assert_array_equal(a, b)

    @pytest.mark.parametrize("case,want", [
        ("value", "value for parameter 'a'"), ("second moment", "second moment for parameter 'b'"),
        ("first moment", "value for parameter 'c'"), ("both", "gradient for parameter 'c'")])
    def test_overflowing_step_names_parameter_and_changes_nothing(self, case, want):
        """A step whose new values or second moments are not finite raises
        the NumericError that names the first parameter that holds one and
        the step, and leaves the store, opt.t and the parameters' views as
        they were; the next finite step then runs as if the failed one had
        not been tried. A non-finite first moment shows in the values it
        makes, and a non-finite gradient is named before an overflow."""
        params, opt = self.three_params()
        cfg, lr_t = tiny_config(), 0.1
        if case == "value":  # lr_t wd theta overflows once theta is 1e200
            lr_t = 1e200
        elif case == "second moment":  # g * g overflows; the update is then 0
            params.tensors["b"].grad[0, 1] = 1e200
        elif case == "first moment":  # set by hand: a store the API never makes
            opt.flat[1][12] = np.inf  # in c, the third parameter
        else:  # an overflowing gradient in b, a NaN one in c
            params.tensors["b"].grad[0, 1] = 1e200
            params.tensors["c"].grad[1, 1] = np.nan
        flat, before = opt.flat, [a.copy() for a in opt.flat]
        views = [p.data for _, p in params.named()]
        with pytest.raises(NumericError) as err:
            tr.adamw_step(opt, cfg, lr_t=lr_t)
        assert str(err.value) == f"non-finite {want} at optimizer step 1"
        assert opt.t == 0 and all(a is b for a, b in zip(opt.flat, flat))
        for a, b in zip(opt.flat, before):
            npt.assert_array_equal(a, b)
        assert all(p.data is view for (_, p), view in zip(params.named(), views))
        if case != "first moment":
            for _, p in params.named():
                p.grad = np.full(p.shape, 0.5)
            tr.adamw_step(opt, cfg, lr_t=0.1)
            fresh_params, fresh = self.three_params()
            tr.adamw_step(fresh, cfg, lr_t=0.1)
            assert opt.t == fresh.t == 1
            for a, b in zip(opt.flat, fresh.flat):
                npt.assert_array_equal(a, b)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_matches_per_tensor_reference(self, weight_decay):
        """Five steps over a real parameter tree (boqsa, dual pathway), the
        first three in warmup, one tensor without a grad: the flat store's
        parameters and moments equal the per-tensor loop's bit for bit."""
        head = hd.HeadConfig(concepts=4, slot_dim=8, input_dim=4, n_inputs=3, n_classes=2,
                             variant="boqsa", pathway="dual", heads=2)
        cfg = tiny_config(head=head, weight_decay=weight_decay, warmup_iters=3, lr=1e-2)
        state = tr.init_train_state(cfg)
        ref = hd.init_head_params(head, np.random.default_rng(cfg.seed))
        assert {"spatial.slot.init_queries", "global.slot.init_queries"} <= dict(ref.named()).keys()
        m = {name: np.zeros(p.shape) for name, p in ref.named()}
        v = {name: np.zeros(p.shape) for name, p in ref.named()}
        rng = np.random.default_rng(5)
        for step in range(5):
            for (name, p), (_, q) in zip(state.params.named(), ref.named()):
                if name == "global.cross.wk":
                    p.grad = q.grad = None
                else:
                    p.grad = rng.normal(size=p.shape) * 10.0 ** rng.uniform(-6, 1)
                    q.grad = p.grad.copy()
            lr_t = tr.lr_at(state.opt.t, cfg)
            tr.adamw_step(state.opt, cfg, lr_t)
            composed.adamw_step(ref.named(), m, v, step + 1, weight_decay, lr_t)
        assert state.opt.t == 5
        got = dict(state.params.named())
        got_m, got_v = store_views(state.opt, 1), store_views(state.opt, 2)
        for name, p in ref.named():
            npt.assert_array_equal(got[name].data, p.data)
            npt.assert_array_equal(got_m[name], m[name])
            npt.assert_array_equal(got_v[name], v[name])
        # the tensor without a grad took zeros: its moments stayed zero
        assert not got_m["global.cross.wk"].any()
        assert not got_v["global.cross.wk"].any()


class TestFlatStore:
    @staticmethod
    def assert_store(state):
        """The table lays the parameters out back to back in named() order,
        every parameter's data and moments are views into the store's three
        arrays at the table's offsets, and no two views of one array overlap."""
        opt = state.opt
        assert [(name, p) for name, p, _, _ in opt.table] == list(state.params.named())
        size = opt.table[-1][3]
        assert [start for _, _, start, _ in opt.table] == [0] + [s for *_, s in opt.table[:-1]]
        for flat, views in zip(opt.flat, ({name: p.data for name, p in state.params.named()},
                                          store_views(opt, 1), store_views(opt, 2))):
            assert flat.shape == (size,) and flat.dtype == np.float64 and flat.dtype.isnative
            assert flat.flags.c_contiguous and flat.flags.writeable
            arrays = [views[name] for name, _, _, _ in opt.table]
            for (name, p, start, stop), view in zip(opt.table, arrays):
                assert view.shape == p.shape
                assert np.shares_memory(view, flat)
                assert view.ctypes.data == flat[start:].ctypes.data
                assert view.size == stop - start
            for i, a in enumerate(arrays):
                for b in arrays[i + 1:]:
                    assert not np.shares_memory(a, b)

    @pytest.fixture
    def cfg(self):
        head = hd.HeadConfig(concepts=4, slot_dim=8, input_dim=4, n_inputs=3, n_classes=2,
                             variant="boqsa", pathway="dual", heads=2)
        return tiny_config(head=head)

    def test_fresh_state(self, cfg):
        state = tr.init_train_state(cfg)
        self.assert_store(state)
        # the store copied the drawn values in, bit for bit
        ref = hd.init_head_params(cfg.head, np.random.default_rng(cfg.seed))
        for (_, p), (_, q) in zip(state.params.named(), ref.named()):
            npt.assert_array_equal(p.data, q.data)
        assert not state.opt.flat[1].any() and not state.opt.flat[2].any()

    def test_loaded_state(self, cfg):
        state, _ = tr.fit(tiny_dataset(), cfg, epochs=1)
        blob = tr.checkpoint_bytes(state, cfg)
        loaded, _ = tr.parse_checkpoint(blob)
        self.assert_store(loaded)
        # the store holds copies, not views of the file's bytes
        assert not any(np.shares_memory(a, np.frombuffer(blob, np.uint8)) for a in loaded.opt.flat)
        for a, b in zip(loaded.opt.flat, state.opt.flat):
            npt.assert_array_equal(a, b)

    def test_after_fit(self, cfg):
        state = tr.init_train_state(cfg)
        flat = state.opt.flat
        tr.fit(tiny_dataset(), cfg, state, epochs=1)
        self.assert_store(state)
        assert all(a is b for a, b in zip(state.opt.flat, flat))
        assert state.opt.flat[1].any()
        state.params.reset_grads()
        assert all(p.grad is None for _, p in state.params.named())

    def test_gradient_check_perturbs_through_views(self):
        """grad_check writes each perturbation into a view, so the flat array
        sees it; criterion 1's end-to-end check (its head, batch and losses)
        still passes at its tolerance on a store's parameters."""
        head = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=4, n_inputs=2, n_classes=2,
                             variant="boqsa", iters=3, heads=2, pathway="dual")
        rng = np.random.default_rng(137)
        params = hd.init_head_params(head, rng)
        flat = tr.OptimizerState.for_params(params).flat[0]
        start = flat.copy()
        batch = [(rng.normal(size=(2, 4)), 0), (rng.normal(size=(2, 4)), 1)]
        targets = []
        for e, _ in batch:
            out = hd.head_forward(Tensor(e), params, head, np.random.default_rng(1))
            targets.append((np.maximum(out.attn_spatial.data - 0.01, 0.0),
                            np.maximum(out.attn_global.data - 0.01, 0.0)))
        weights = LossWeights(lambda_expl=100.0, lambda_sparse=0.5)
        moved = []

        def batch_loss():
            moved.append(np.count_nonzero(flat != start))
            total = None
            for (e, label), (h_sp, h_gl) in zip(batch, targets):
                out = hd.head_forward(Tensor(e), params, head, np.random.default_rng(1))
                expl = ad.add(losses.explanation_loss(out.attn_spatial, h_sp),
                              losses.explanation_loss(out.attn_global, h_gl))
                sparse = ad.scale(ad.add(losses.sparsity_loss(out.attn_spatial),
                                         losses.sparsity_loss(out.attn_global)), 0.5)
                loss = losses.total_loss(losses.cross_entropy(out.logits, label),
                                         expl, sparse, weights)
                total = loss if total is None else ad.add(total, loss)
            return ad.scale(total, 0.5)

        report = composed.grad_check(batch_loss, list(params.named()), h=1e-6, tol=1e-6)
        assert not report.failures, report.failures
        assert report.max_rel_error < 1e-6, (report.max_rel_error, report.worst)
        assert moved[0] == 0 and set(moved[1:]) == {1}
        assert len(moved) == 1 + 2 * flat.size
        npt.assert_array_equal(flat, start)


class TestLrSchedule:
    def test_first_warmup_step(self):
        cfg = tiny_config(lr=5e-5, warmup_iters=10)
        assert tr.lr_at(0, cfg) == pytest.approx(5e-6, abs=1e-20)

    def test_after_warmup_constant(self):
        cfg = tiny_config(lr=5e-5, warmup_iters=10)
        assert tr.lr_at(10, cfg) == 5e-5
        assert tr.lr_at(1000, cfg) == 5e-5

    def test_no_warmup(self):
        cfg = tiny_config(lr=3e-4, warmup_iters=0)
        assert tr.lr_at(0, cfg) == 3e-4

    def test_linear_ramp(self):
        cfg = tiny_config(lr=1.0, warmup_iters=4)
        assert [tr.lr_at(i, cfg) for i in range(5)] == [0.25, 0.5, 0.75, 1.0, 1.0]


class TestConfigValidation:
    def test_lr_positive(self):
        with pytest.raises(ConfigError):
            tiny_config(lr=0.0)

    def test_warmup_nonnegative(self):
        with pytest.raises(ConfigError):
            tiny_config(warmup_iters=-1)

    @pytest.mark.parametrize("name,value,message", [
        ("lr", math.nan, "lr must be positive and finite"),
        ("lr", math.inf, "lr must be positive and finite"),
        ("weight_decay", math.nan, "weight_decay must be finite"),
        ("weight_decay", -math.inf, "weight_decay must be finite"),
        ("weight_decay", -0.5, "weight_decay must be >= 0, got -0.5"),
        ("seed", -1, "seed must be >= 0")])
    def test_non_finite_or_out_of_range_rejected(self, name, value, message):
        with pytest.raises(ConfigError, match=message):
            tiny_config(**{name: value})


class TestFit:
    def test_same_seed_same_metrics(self):
        ds = tiny_dataset()
        _, rec_a = tr.fit(ds, tiny_config())
        _, rec_b = tr.fit(ds, tiny_config())
        assert len(rec_a) == len(rec_b) == 2
        for a, b in zip(rec_a, rec_b):
            assert mt.format_metrics_row(a) == mt.format_metrics_row(b)

    def test_different_seed_differs(self):
        ds = tiny_dataset()
        _, rec_a = tr.fit(ds, tiny_config(seed=1))
        _, rec_b = tr.fit(ds, tiny_config(seed=2))
        assert rec_a[-1].loss_total != rec_b[-1].loss_total

    def test_overfits_single_sample(self):
        ds = tiny_dataset(samples_per_class=1)
        ds = dataclasses.replace(ds, features=ds.features[:1], labels=ds.labels[:1],
                                 h_spatial=ds.h_spatial[:1], h_global=ds.h_global[:1])
        cfg = tiny_config(epochs=300, batch_size=1, lr=5e-3, warmup_iters=0,
                          weight_decay=0.0, variant="boqsa",
                          weights=LossWeights(lambda_expl=0.0, lambda_sparse=0.0))
        _, records = tr.fit(ds, cfg)
        assert records[-1].loss_cls < 1e-3  # memorized: near the attainable minimum
        assert records[-1].class_acc == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            tr.fit(dat.Dataset(np.zeros((0, 3, 4)), np.zeros(0, dtype=np.int64)),
                   tiny_config())

    def test_shuffle_is_seeded_permutation(self):
        a = tr.shuffled_indices(10, 42)
        b = tr.shuffled_indices(10, 42)
        c = tr.shuffled_indices(10, 43)
        assert np.array_equal(a, b)
        assert sorted(a.tolist()) == list(range(10))
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 256, 2000, 5001])
    def test_shuffle_matches_one_draw_per_swap(self, n):
        def reference(n, seed):  # Fisher-Yates with one integers() call per swap
            rng = np.random.default_rng(seed)
            idx = np.arange(n)
            for i in range(n - 1, 0, -1):
                j = int(rng.integers(i + 1))
                idx[i], idx[j] = idx[j], idx[i]
            return idx

        for seed in range(8):
            got = tr.shuffled_indices(n, seed)
            assert got.dtype == np.int64 and np.array_equal(got, reference(n, seed)), seed

    def test_metrics_fields_in_range(self):
        ds = tiny_dataset()
        _, records = tr.fit(ds, tiny_config())
        for r in records:
            assert 0.0 <= r.class_acc <= 1.0
            assert 0.0 <= r.concept_top1_acc <= 1.0
            assert r.mean_entropy >= 0.0
            assert r.loss_total >= r.loss_cls or r.loss_total == pytest.approx(r.loss_cls)

    def test_concept_accuracy_nan_without_targets(self):
        ds = dataclasses.replace(tiny_dataset(), h_spatial=None, h_global=None)
        cfg = tiny_config(weights=LossWeights(lambda_expl=0.0, lambda_sparse=0.5))
        _, records = tr.fit(ds, cfg)
        assert math.isnan(records[-1].concept_top1_acc)

    def test_samples_without_targets_contribute_zero_explanation(self):
        ds = dataclasses.replace(tiny_dataset(), h_spatial=None, h_global=None)
        _, records = tr.fit(ds, tiny_config())  # lambda_expl = 1 weighs nothing
        for r in records:
            assert r.loss_expl == 0.0
            assert r.loss_total > r.loss_cls
        # an EMB1 file's flags give every sample the same kinds of target, and
        # so do the columns: a dataset where only some samples carry them
        # cannot be built
        full = tiny_dataset()
        with pytest.raises(ConfigError,
                           match=r"^h_spatial must be float32 or float64 of shape .*, got list$"):
            dataclasses.replace(full, h_spatial=without_rows(full.h_spatial, range(0, 12, 2)),
                                h_global=without_rows(full.h_global, range(0, 12, 2)))

    def test_explanation_loss_non_increasing_after_warmup(self):
        cfg_data = dat.SynthConfig(n_classes=2, n_concepts=4,
                                   concepts_per_class=dat.block_concept_map(2, 4),
                                   n_inputs=4, input_dim=8, noise_std=0.1,
                                   samples_per_class=40)
        ds = dat.gen_synthetic(cfg_data, seed=0, prototype_seed=1)
        head = hd.HeadConfig(concepts=4, slot_dim=8, input_dim=8, n_inputs=4,
                             n_classes=2, variant="sa", pathway="spatial")
        cfg = tr.TrainConfig(head=head, epochs=8, batch_size=16, lr=2e-3,
                             warmup_iters=2, weight_decay=1e-3, seed=0)
        _, records = tr.fit(ds, cfg)
        # one optimizer epoch covers warmup here; allow 5% jitter afterwards
        for prev, cur in zip(records[1:], records[2:]):
            assert cur.loss_expl <= prev.loss_expl * 1.05

    def test_nonfinite_loss_aborts_with_location(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        state = tr.init_train_state(cfg)
        state.params.spatial.cross.wv.data[...] = 1e200
        state.params.spatial.cross.out.data[...] = 1e200  # product overflows
        with pytest.raises(NumericError, match=r"epoch 1, batch 0"):
            tr.train_epoch(state, ds, cfg)


class TestEvaluate:
    def test_deterministic(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        state, _ = tr.fit(ds, cfg)
        a = tr.evaluate(ds, state.params, cfg, seed=0)
        b = tr.evaluate(ds, state.params, cfg, seed=0)
        assert mt.format_metrics_row(a) == mt.format_metrics_row(b)

    def test_empty_dataset_rejected(self):
        cfg = tiny_config()
        state = tr.init_train_state(cfg)
        with pytest.raises(ConfigError):
            tr.evaluate(dat.Dataset(np.zeros((0, 3, 4)), np.zeros(0, dtype=np.int64)),
                        state.params, cfg)

    # the grid, and two heads, which the grid leaves out
    @pytest.mark.parametrize("variant,pathway,heads", GRID + [("isa", "dual", 2)])
    def test_untaped_pass_matches_taped_pass(self, variant, pathway, heads):
        ds = tiny_dataset()
        head = hd.HeadConfig(concepts=4, slot_dim=4, input_dim=4, n_inputs=3, n_classes=2,
                             variant=variant, heads=heads, pathway=pathway)
        cfg = tiny_config(head=head)
        state, _ = tr.fit(ds, cfg, epochs=1)
        taped = tr._run_pass(ds, state.params, cfg, np.random.default_rng(3),
                             [np.arange(len(ds))], 0)
        untaped = tr.evaluate(ds, state.params, cfg, seed=3)
        assert mt.format_metrics_row(untaped) == mt.format_metrics_row(taped)


def numpy_entropy(attn):
    """Mean elementwise -a*ln(a) of one map, floored as the sparsity loss is."""
    return float((attn * np.log(np.maximum(attn, 1e-9))).sum() * (-1.0 / attn.size))


class TestEntropyMetric:
    """mean_entropy and loss_sparse are the mean over samples of each sample's
    numpy entropy averaged over its maps, whatever lambda_sparse is."""

    @pytest.mark.parametrize("lambda_sparse", [0.0, 0.5])
    @pytest.mark.parametrize("pathway", ["spatial", "dual"])
    def test_fit_and_evaluate_rows(self, monkeypatch, lambda_sparse, pathway):
        forward, seen = hd.head_forward, []

        def recording_forward(*args):
            out = forward(*args)
            seen.append([a.data.copy() for a in out.maps()])
            return out

        def expected():
            total = 0.0
            for maps in seen:
                for j in range(len(maps[0])):
                    total += sum(numpy_entropy(m[j]) for m in maps) / len(maps)
            seen.clear()
            return total / len(ds)

        monkeypatch.setattr(hd, "head_forward", recording_forward)
        ds = tiny_dataset()
        head = hd.HeadConfig(concepts=4, slot_dim=4, input_dim=4, n_inputs=3, n_classes=2,
                             variant="isa", pathway=pathway)
        cfg = tiny_config(head=head, weights=LossWeights(lambda_sparse=lambda_sparse))
        state, records = tr.fit(ds, cfg, epochs=1)
        want = expected()
        assert records[0].mean_entropy == records[0].loss_sparse == want
        record = tr.evaluate(ds, state.params, cfg, seed=3)
        want = expected()
        assert record.mean_entropy == record.loss_sparse == want


def without_rows(column, rows):
    """A per-sample list of the column's rows with None at `rows`."""
    return [None if i in rows else h for i, h in enumerate(column)]


def largest_chunk(monkeypatch, cfg, samples):
    """Set the record budget to `samples` samples' estimated record under cfg."""
    monkeypatch.setattr(tr, "RECORD_BUDGET", samples * tr.record_bytes_per_sample(cfg.head))


def forwarded_chunks(monkeypatch):
    """A list that collects the sample indices of every chunk the pass forwards."""
    chunks, forward = [], tr._forward_losses

    def recording(dataset, chunk, *args):
        chunks.append(chunk)
        return forward(dataset, chunk, *args)

    monkeypatch.setattr(tr, "_forward_losses", recording)
    return chunks


def fit_outputs(ds, cfg, chunk, monkeypatch):
    """Metric rows and checkpoint bytes after fitting with training chunks of
    at most `chunk` samples, and the chunk sizes the fit ran."""
    with monkeypatch.context() as m:
        largest_chunk(m, cfg, chunk)
        chunks = forwarded_chunks(m)
        state, records = tr.fit(ds, cfg)
    return ([mt.format_metrics_row(r) for r in records], tr.checkpoint_bytes(state, cfg),
            {len(c) for c in chunks})


def record_bytes(ds, chunk, params, cfg):
    """tracemalloc bytes a training chunk holds when its walk would start."""
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = tr._forward_losses(ds, chunk, params, cfg, rng)  # alive while measured
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestChunkedPass:
    @pytest.mark.parametrize("variant,pathway,heads", GRID)
    def test_chunks_of_five_match_one_at_a_time(self, variant, pathway, heads):
        ds = tiny_dataset()  # 12 samples: chunks of 5, 5 and 2
        head = hd.HeadConfig(concepts=4, slot_dim=8, input_dim=4, n_inputs=3, n_classes=2,
                             variant=variant, heads=heads, pathway=pathway)
        state, _ = tr.fit(ds, tiny_config(head=head, batch_size=4), epochs=1)
        rows = [mt.format_metrics_row(tr.evaluate(ds, state.params,
                                                  tiny_config(head=head, batch_size=size),
                                                  seed=3))
                for size in (5, 1)]
        assert rows[0] == rows[1]

    def test_chunk_splits_where_target_kinds_change(self):
        # a chunk is a plain slice of its batch, gathered from the columns: a
        # dataset whose target kinds change between samples cannot be built
        ds = tiny_dataset()
        with pytest.raises(ConfigError,
                           match=r"^h_spatial must be float32 or float64 of shape .*, got list$"):
            dataclasses.replace(ds, h_spatial=without_rows(ds.h_spatial, (3, 4)))

    def test_numeric_error_in_a_chunk_names_the_sample(self):
        ds = tiny_dataset()
        ds.features[6] = 1e308  # the row sum in layer_norm overflows
        messages = []
        for size in (5, 1):
            cfg = tiny_config(batch_size=size)
            with pytest.raises(NumericError) as err:
                tr.evaluate(ds, tr.init_train_state(cfg).params, cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("non-finite loss at epoch 0, batch 0, sample 6: ")

    def test_saturated_overflow_in_a_chunk_names_the_sample(self):
        # every row of sample 6 normalizes to a first value of sqrt(3); in the
        # other samples it stays below 1.72, so only sample 6's readout @ wz
        # overflows, and only a screen sees it: the update gate saturates at 1
        ds = tiny_dataset()
        ds.features[6] = [1.0, 0.0, 0.0, 0.0]
        messages = []
        for size in (64, 1):
            cfg = tiny_config(batch_size=size)
            params = tr.init_train_state(cfg).params
            slot = params.spatial.slot
            slot.wv.data[:, 0] = [1.0, 0.0, 0.0, 0.0]  # the values' first column
            slot.wz.data[0] = np.finfo(np.float64).max / 1.72
            with pytest.raises(NumericError) as err:
                tr.evaluate(ds, params, cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == ("non-finite loss at epoch 0, batch 0, sample 6: "
                                              "matmul produced non-finite values")

    @pytest.mark.parametrize("variant,pathway,heads", GRID)
    def test_fit_is_bit_identical_across_chunk_sizes(self, variant, pathway, heads,
                                                     monkeypatch):
        ds = tiny_dataset(samples_per_class=36)  # batches of 64 and 8
        head = hd.HeadConfig(concepts=4, slot_dim=8, input_dim=4, n_inputs=3, n_classes=2,
                             variant=variant, heads=heads, pathway=pathway)
        cfg = tiny_config(head=head, batch_size=64, lr=1e-2)
        *want, sizes = fit_outputs(ds, cfg, 1, monkeypatch)
        assert sizes == {1}
        for chunk, ran in ((5, {5, 4}), (16, {16, 8}), (64, {64, 8})):
            *got, sizes = fit_outputs(ds, cfg, chunk, monkeypatch)
            assert got == want and sizes == ran, chunk

    def test_fit_splits_where_target_kinds_change(self, monkeypatch):
        # every sample carries a global target only
        ds = dataclasses.replace(tiny_dataset(samples_per_class=10), h_spatial=None)
        head = hd.HeadConfig(concepts=4, slot_dim=4, input_dim=4, n_inputs=3, n_classes=2,
                             variant="sa", pathway="dual")
        cfg = tiny_config(head=head, batch_size=20)
        want = fit_outputs(ds, cfg, 1, monkeypatch)[:2]
        assert fit_outputs(ds, cfg, 16, monkeypatch)[:2] == want
        # kinds that change at sample 12 cannot be built
        with pytest.raises(ConfigError,
                           match=r"^h_global must be float32 or float64 of shape .*, got list$"):
            dataclasses.replace(ds, h_global=without_rows(ds.h_global, (12, 13)))

    def test_numeric_error_mid_chunk_names_the_sample(self, monkeypatch):
        ds = tiny_dataset()
        ds.features[6] = 1e308  # the row sum in layer_norm overflows
        cfg = tiny_config(batch_size=12)
        messages = []
        for chunk in (16, 1):
            largest_chunk(monkeypatch, cfg, chunk)
            with pytest.raises(NumericError) as err:
                tr.train_epoch(tr.init_train_state(cfg), ds, cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("non-finite loss at epoch 1, batch 0, sample 6: ")

    def test_batch_splits_into_near_equal_slices_in_order(self, monkeypatch):
        ds = tiny_dataset(samples_per_class=36)  # 72 samples: batches of 64 and 8
        cfg = tiny_config(batch_size=64)
        largest_chunk(monkeypatch, cfg, 23)
        chunks = forwarded_chunks(monkeypatch)
        tr.train_epoch(tr.init_train_state(cfg), ds, cfg)
        assert [len(c) for c in chunks] == [22, 21, 21, 8]
        assert np.concatenate(chunks).tolist() == tr.shuffled_indices(72, cfg.seed).tolist()

    @pytest.mark.parametrize("name,sizes", [("recovery", [64]), ("refine_dual", [64]),
                                            ("explain", [32, 32])])
    def test_benchmark_chunk_plans(self, workloads, monkeypatch, name, sizes):
        """The record budget splits each benchmark workload's 64-sample batch
        into these chunks (explain's boqsa zeros constant included)."""
        cfg = workloads.WORKLOADS[name].train_config(seed=0)
        head = cfg.head
        ds = dat.gen_synthetic(dat.SynthConfig(
            n_classes=head.n_classes, n_concepts=head.concepts,
            concepts_per_class=dat.block_concept_map(head.n_classes, head.concepts),
            n_inputs=head.n_inputs, input_dim=head.input_dim, noise_std=0.3,
            samples_per_class=64 // head.n_classes), 0)
        chunks = forwarded_chunks(monkeypatch)
        tr.train_epoch(tr.init_train_state(cfg), ds, cfg)
        assert [len(c) for c in chunks] == sizes

    @pytest.mark.parametrize("variant,pathway,heads", GRID)
    def test_record_estimate_matches_traced_record(self, variant, pathway, heads):
        for rows in (8, 32):
            ds = dat.gen_synthetic(dat.SynthConfig(
                n_classes=4, n_concepts=12, concepts_per_class=dat.block_concept_map(4, 12),
                n_inputs=rows, input_dim=32, noise_std=0.1, samples_per_class=6), 0)
            head = hd.HeadConfig(concepts=12, slot_dim=32, input_dim=32, n_inputs=rows,
                                 n_classes=4, variant=variant, heads=heads, pathway=pathway)
            cfg = tiny_config(head=head)
            params = tr.init_train_state(cfg).params
            # per sample: the difference of two chunk sizes, so the
            # per-chunk Python objects of the nodes cancel
            measured = (record_bytes(ds, np.arange(20), params, cfg)
                        - record_bytes(ds, np.arange(4), params, cfg)) / 16
            assert tr.record_bytes_per_sample(head) == pytest.approx(measured, rel=0.2), rows


def replace_config(blob, old, new):
    """The checkpoint with one text of its config block replaced and the
    block's length prefix updated."""
    start = blob.rindex(b"epoch=")  # the first config line
    assert old in blob[start:]
    config = blob[start:].replace(old, new)
    return blob[:start - 4] + struct.pack("<I", len(config)) + config


def checkpoint_fields(blob):
    """(kind, start, stop) of each field of a checkpoint, in file order,
    walked from the format's description alone."""
    fields, pos = [], 0

    def field(kind, size):
        nonlocal pos
        fields.append((kind, pos, pos + size))
        pos += size
        return blob[pos - size:pos]

    field("magic", 4)
    field("version", 4)
    for _ in range(2):
        for _ in range(struct.unpack("<I", field("count", 4))[0]):
            field("name", struct.unpack("<I", field("name length", 4))[0])
            rank = struct.unpack("<I", field("rank", 4))[0]
            dims = struct.unpack(f"<{rank}I", field("dims", 4 * rank))
            field("payload", 8 * math.prod(dims))
    field("config", struct.unpack("<I", field("config length", 4))[0])
    return fields


class TestCheckpoint:
    def test_roundtrip_bytes_identical(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config()
        state, _ = tr.fit(ds, cfg)
        path = tmp_path / "model.cctk"
        tr.save_checkpoint(state, cfg, str(path))
        state2, cfg2 = tr.load_checkpoint(str(path))
        assert tr.checkpoint_bytes(state2, cfg2) == path.read_bytes()

    @pytest.mark.parametrize("variant,pathway", [(variant, pathway) for variant in hd.VARIANTS
                                                 for pathway in ("spatial", "dual")])
    def test_loading_draws_no_parameters(self, monkeypatch, variant, pathway):
        head = hd.HeadConfig(concepts=4, slot_dim=8, input_dim=4, n_inputs=3, n_classes=2,
                             variant=variant, pathway=pathway, heads=2)
        cfg = tiny_config(head=head)
        state, _ = tr.fit(tiny_dataset(), cfg, epochs=1)
        blob = tr.checkpoint_bytes(state, cfg)
        made, real = [], np.random.default_rng

        def recording(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording)
        others = np.random.default_rng(7), np.random.get_state()
        before = others[0].bit_generator.state
        loaded, cfg2 = tr.parse_checkpoint(blob)
        # the one generator made while loading is the loaded state's own
        assert made[1:] == [loaded.rng]
        assert others[0].bit_generator.state == before
        assert np.array_equal(np.random.get_state()[1], others[1][1])
        assert tr.checkpoint_bytes(loaded, cfg2) == blob

    def test_roundtrip_restores_tensors_exactly(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config(variant="boqsa")
        state, _ = tr.fit(ds, cfg)
        path = tmp_path / "model.cctk"
        tr.save_checkpoint(state, cfg, str(path))
        state2, cfg2 = tr.load_checkpoint(str(path))
        for (name_a, t_a), (name_b, t_b) in zip(state.params.named(),
                                                state2.params.named()):
            assert name_a == name_b
            assert np.array_equal(t_a.data, t_b.data)
        assert ([name for name, *_ in state.opt.table]
                == [name for name, *_ in state2.opt.table])
        for k in (1, 2):
            assert np.array_equal(state.opt.flat[k], state2.opt.flat[k])
        assert state2.opt.t == state.opt.t
        assert state2.epoch == state.epoch
        assert state2.rng.bit_generator.state == state.rng.bit_generator.state
        assert cfg2 == cfg

    def test_resume_matches_uninterrupted(self, tmp_path):
        ds = tiny_dataset(samples_per_class=8)
        cfg = tiny_config(epochs=4)

        state_full, records_full = tr.fit(ds, cfg)

        state_half, records_head = tr.fit(ds, cfg, epochs=2)
        path = tmp_path / "mid.cctk"
        tr.save_checkpoint(state_half, cfg, str(path))
        state_resumed, cfg_loaded = tr.load_checkpoint(str(path))
        _, records_tail = tr.fit(ds, cfg_loaded, state=state_resumed)

        assert len(records_head) == 2 and len(records_tail) == 2
        for a, b in zip(records_full, records_head + records_tail):
            assert mt.format_metrics_row(a) == mt.format_metrics_row(b)

    def test_corrupted_magic_rejected(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config()
        state, _ = tr.fit(ds, cfg)
        blob = bytearray(tr.checkpoint_bytes(state, cfg))
        blob[:4] = b"XXXX"
        with pytest.raises(FormatError, match="magic"):
            tr.parse_checkpoint(bytes(blob))

    def test_truncation_reports_offset(self):
        """A checkpoint cut at every length raises "truncated checkpoint" at
        the start of the field the cut falls in: magic, version, a section's
        count, a tensor's name length, name, rank, dims or payload, the
        config's length or the config block. With a wrong rank the rank is
        named first, wherever its dims are cut."""
        ds = tiny_dataset()
        cfg = tiny_config()
        state, _ = tr.fit(ds, cfg)
        blob = tr.checkpoint_bytes(state, cfg)
        fields = checkpoint_fields(blob)
        assert [kind for kind, _, _ in fields].count("payload") == 3 * len(state.opt.table)
        assert fields[-1][2] == len(blob)
        for cut in range(len(blob)):
            kind, start, _ = next(field for field in fields if field[2] > cut)
            with pytest.raises(FormatError) as err:
                tr.parse_checkpoint(blob[:cut])
            assert (str(err.value), err.value.offset) == (
                f"truncated checkpoint (at byte offset {start})", start), (cut, kind)
        # each rank's field follows its name's
        ranks = [(blob[name[1]:name[2]].decode(), rank[1])
                 for name, rank in zip(fields, fields[1:]) if rank[0] == "rank"]
        for name, at in ranks[:2] + ranks[-1:]:
            bad = blob[:at] + struct.pack("<I", 3) + blob[at + 4:]
            for cut in range(at + 4, at + 12):
                with pytest.raises(FormatError) as err:
                    tr.parse_checkpoint(bad[:cut])
                assert (str(err.value), err.value.offset) == (
                    f"checkpoint tensor {name!r} has rank 3, expected 2 "
                    f"(at byte offset {at})", at)

    def test_non_numeric_config_value_names_key(self):
        cfg = tiny_config()
        blob = tr.checkpoint_bytes(tr.init_train_state(cfg), cfg)
        assert b"\nconcepts=4\n" in blob
        with pytest.raises(FormatError, match="'concepts'"):
            tr.parse_checkpoint(blob.replace(b"\nconcepts=4\n", b"\nconcepts=x\n"))

    def test_tensor_shape_disagreeing_with_config_rejected(self):
        cfg = tiny_config()
        blob = tr.checkpoint_bytes(tr.init_train_state(cfg), cfg)
        # the config now asks for 3 concepts while the tensors hold 4
        with pytest.raises(FormatError,
                           match=r"'spatial\.slot\.positions' has shape \(4, 4\), "
                                 r"config expects \(3, 4\)"):
            tr.parse_checkpoint(blob.replace(b"\nconcepts=4\n", b"\nconcepts=3\n"))

    def test_config_dimension_checked_before_any_array_is_made(self):
        cfg = tiny_config()
        blob = replace_config(tr.checkpoint_bytes(tr.init_train_state(cfg), cfg),
                              b"\nslot_dim=4\n", b"\nslot_dim=16777216\n")
        # the (slot_dim, slot_dim) weights would take 2 PiB, and each (1, slot_dim)
        # row 128 MiB: none is made before the shapes are compared
        tracemalloc.start()
        try:
            with pytest.raises(FormatError,
                               match=r"'spatial\.slot\.wq' has shape \(4, 4\), "
                                     r"config expects \(16777216, 16777216\)"):
                tr.parse_checkpoint(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("prefix,section,second", [("", "parameter", 171),
                                                        ("m:", "moment", 2967)],
                             ids=["parameter", "moment"])
    def test_repeated_tensor_name_rejected(self, prefix, section, second):
        cfg = tiny_config()
        state = tr.init_train_state(cfg)
        blob = tr.checkpoint_bytes(state, cfg)
        # the second entry of the section, spatial.slot.wk, renamed as the first
        first, name = (f"{prefix}spatial.slot.{w}".encode() for w in ("wq", "wk"))
        assert second == blob.index(struct.pack("<I", len(first)) + first) + len(
            tr._pack_tensor(first.decode(), state.params.spatial.slot.wq.data))
        assert blob[second + 4:second + 4 + len(name)] == name
        blob = blob.replace(name, first, 1)
        with pytest.raises(FormatError) as err:
            tr.parse_checkpoint(blob)
        assert str(err.value) == (f"checkpoint {section} entry 2: found tensor "
                                  f"'{prefix}spatial.slot.wq', expected tensor "
                                  f"'{prefix}spatial.slot.wk' (at byte offset {second})")

    def test_swapped_tensor_entries_rejected(self):
        # wq is (slot_dim, slot_dim) and wk (input_dim, slot_dim): with
        # input_dim == slot_dim the two entries swap without changing a shape
        cfg = tiny_config()
        state = tr.init_train_state(cfg)
        blob = tr.checkpoint_bytes(state, cfg)
        wq, wk = (tr._pack_tensor(f"spatial.slot.{w}", getattr(state.params.spatial.slot, w).data)
                  for w in ("wq", "wk"))
        assert blob[12:12 + len(wq) + len(wk)] == wq + wk
        with pytest.raises(FormatError) as err:
            tr.parse_checkpoint(blob[:12] + wk + wq + blob[12 + len(wq) + len(wk):])
        assert str(err.value) == ("checkpoint parameter entry 1: found tensor 'spatial.slot.wk', "
                                  "expected tensor 'spatial.slot.wq' (at byte offset 12)")

    def test_non_finite_tensor_rejected(self):
        cfg = tiny_config()
        state = tr.init_train_state(cfg)
        state.params.spatial.cross.out.data[0, 0] = np.nan
        with pytest.raises(FormatError,
                           match=r"tensor 'spatial\.cross\.out' holds non-finite values"):
            tr.parse_checkpoint(composed.unchecked_checkpoint_bytes(state, cfg))

    @pytest.mark.parametrize("k,prefix", [(1, "m:"), (2, "v:")])
    def test_non_finite_moment_rejected(self, k, prefix):
        cfg = tiny_config()
        state = tr.init_train_state(cfg)
        moments = store_views(state.opt, k)
        moments["spatial.cross.wv"][1, 2] = np.inf
        moments["spatial.cross.out"][0, 0] = np.nan
        with pytest.raises(FormatError) as err:
            tr.parse_checkpoint(composed.unchecked_checkpoint_bytes(state, cfg))
        # the first tensor in the table's order that holds one is named
        assert str(err.value) == (f"checkpoint tensor '{prefix}spatial.cross.wv' "
                                  f"holds non-finite values")

    @pytest.mark.parametrize("k,prefix", [(0, ""), (1, "m:"), (2, "v:")])
    def test_writer_refuses_non_finite_store(self, k, prefix, tmp_path):
        """checkpoint_bytes raises the reader's text for the first non-finite
        entry in the table's order, and save_checkpoint leaves the file at its
        path as it was."""
        cfg = tiny_config()
        state = tr.init_train_state(cfg)
        views = store_views(state.opt, k)
        views["spatial.cross.wv"][1, 2] = np.inf
        views["spatial.cross.out"][0, 0] = np.nan
        path = tmp_path / "m.cctk"
        path.write_bytes(b"kept")
        with pytest.raises(NumericError) as err:
            tr.save_checkpoint(state, cfg, str(path))
        assert str(err.value) == (f"checkpoint tensor '{prefix}spatial.cross.wv' "
                                  f"holds non-finite values")
        assert path.read_bytes() == b"kept"

    def test_non_utf8_tensor_name_rejected_with_offset(self):
        cfg = tiny_config()
        blob = bytearray(tr.checkpoint_bytes(tr.init_train_state(cfg), cfg))
        assert blob[16:31] == b"spatial.slot.wq"  # magic, version, count, name length
        blob[20] = 0xFF
        with pytest.raises(FormatError, match="tensor name is not valid UTF-8") as err:
            tr.parse_checkpoint(bytes(blob))
        assert err.value.offset == 20

    def test_non_utf8_config_rejected_with_offset(self):
        cfg = tiny_config()
        blob = bytearray(tr.checkpoint_bytes(tr.init_train_state(cfg), cfg))
        at = blob.index(b"\nvariant=sa\n") + len(b"\nvariant=")
        blob[at] = 0xC3  # a lead byte without its continuation
        with pytest.raises(FormatError, match="config block is not valid UTF-8") as err:
            tr.parse_checkpoint(bytes(blob))
        assert err.value.offset == at

    def test_tensor_rank_other_than_two_rejected(self):
        cfg = tiny_config()
        blob = bytearray(tr.checkpoint_bytes(tr.init_train_state(cfg), cfg))
        assert blob[31:35] == struct.pack("<I", 2)  # the first tensor's rank
        blob[31:35] = struct.pack("<I", 600)
        with pytest.raises(FormatError, match="'spatial.slot.wq' has rank 600, expected 2"):
            tr.parse_checkpoint(bytes(blob))

    def test_optimizer_buffer_shape_checked(self):
        cfg = tiny_config()
        state = tr.init_train_state(cfg)
        blob = tr.checkpoint_bytes(state, cfg)
        entry = tr._pack_tensor("v:spatial.slot.mu", np.zeros((1, 4)))
        assert blob.count(entry) == 1
        blob = blob.replace(entry, tr._pack_tensor("v:spatial.slot.mu", np.zeros((2, 4))))
        with pytest.raises(FormatError,
                           match=r"'v:spatial\.slot\.mu' has shape \(2, 4\), "
                                 r"config expects \(1, 4\)"):
            tr.parse_checkpoint(blob)

    def test_optimizer_tensor_the_model_does_not_use_rejected(self):
        cfg = tiny_config()
        state = tr.init_train_state(cfg)
        blob = tr.checkpoint_bytes(state, cfg)
        at = 12 + sum(len(tr._pack_tensor(name, p.data)) for name, p in state.params.named())
        (n_opt,) = struct.unpack_from("<I", blob, at)
        end = blob.rindex(b"epoch=") - 4  # the config length, after the last entry
        blob = (blob[:at] + struct.pack("<I", n_opt + 1) + blob[at + 4:end]
                + tr._pack_tensor("m:bogus", np.zeros((2, 2))) + blob[end:])
        with pytest.raises(FormatError) as err:
            tr.parse_checkpoint(blob)
        assert str(err.value) == (f"checkpoint moment entry {n_opt + 1}: found tensor 'm:bogus', "
                                  f"expected the end of the section (at byte offset {end})")

    def test_missing_tensor_entry_rejected(self):
        cfg = tiny_config()
        state = tr.init_train_state(cfg)
        blob = tr.checkpoint_bytes(state, cfg)
        # the parameter section without its last entry, spatial.cross.out
        named = list(state.params.named())
        end = 12 + sum(len(tr._pack_tensor(name, p.data)) for name, p in named)
        at = end - len(tr._pack_tensor("spatial.cross.out", state.params.spatial.cross.out.data))
        assert named[-1][0] == "spatial.cross.out"
        blob = blob[:8] + struct.pack("<I", len(named) - 1) + blob[12:at] + blob[end:]
        with pytest.raises(FormatError) as err:
            tr.parse_checkpoint(blob)
        assert str(err.value) == (f"checkpoint parameter entry {len(named)}: found the end of "
                                  f"the section, expected tensor 'spatial.cross.out' "
                                  f"(at byte offset {at})")

    def test_int_in_float_field_round_trips_byte_stable(self):
        cfg = tiny_config(lr=1, weights=LossWeights(0.25, 1))
        blob = tr.checkpoint_bytes(tr.init_train_state(cfg), cfg)
        assert b"\nlr=1.0\n" in blob and b"\nlambda_sparse=1.0\n" in blob
        assert tr.checkpoint_bytes(*tr.parse_checkpoint(blob)) == blob

    def test_generator_state_out_of_range_rejected(self):
        cfg = tiny_config()
        state = tr.init_train_state(cfg)
        blob = tr.checkpoint_bytes(state, cfg)
        old = f"\nrng_state={state.rng.bit_generator.state['state']['state']}\n".encode()
        with pytest.raises(FormatError, match="generator state is out of range"):
            tr.parse_checkpoint(replace_config(blob, old, f"\nrng_state={2**130}\n".encode()))

    @pytest.mark.parametrize("key,bad", [
        ("rng_has_uint32", -1), ("rng_has_uint32", 2),
        ("rng_uinteger", -1), ("rng_uinteger", 2 ** 32)])
    def test_generator_flag_and_buffer_out_of_range_name_key(self, key, bad):
        cfg = tiny_config()
        state = tr.init_train_state(cfg)
        blob = tr.checkpoint_bytes(state, cfg)
        field = key.removeprefix("rng_")
        old = f"\n{key}={state.rng.bit_generator.state[field]}\n".encode()
        with pytest.raises(FormatError, match=f"'{key}' is {bad}, expected"):
            tr.parse_checkpoint(replace_config(blob, old, f"\n{key}={bad}\n".encode()))

    @pytest.mark.parametrize("old,new", [
        (b"\nbeta1=0.9\n", b"\nbeta1=0.8\n"),
        (b"\nbeta2=0.999\n", b"\nbeta2=0.99\n"),
        (b"\neps_opt=1e-08\n", b"\neps_opt=0\n")], ids=["beta1", "beta2", "eps_opt"])
    def test_adam_constant_other_than_fixed_value_rejected(self, old, new):
        cfg = tiny_config()
        blob = tr.checkpoint_bytes(tr.init_train_state(cfg), cfg)
        key, _, value = new.strip().decode().partition("=")
        with pytest.raises(FormatError, match=f"key '{key}' is '{value}', expected"):
            tr.parse_checkpoint(replace_config(blob, old, new))

    @pytest.mark.parametrize("key,new", [("epoch", b"epoch=-1\nstep=0\n"),
                                         ("step", b"epoch=0\nstep=-1\n")],
                             ids=["epoch", "step"])
    def test_negative_epoch_or_step_rejected(self, key, new):
        # fit would end in a bare ValueError (epoch) or NaN parameters (step)
        cfg = tiny_config()
        blob = tr.checkpoint_bytes(tr.init_train_state(cfg), cfg)
        with pytest.raises(FormatError, match=f"key '{key}' is -1, expected a value >= 0"):
            tr.parse_checkpoint(replace_config(blob, b"epoch=0\nstep=0\n", new))

    @pytest.mark.parametrize("old,new,message", [
        (b"\nlr=0.001\n", b"\n", "line 6: found key 'warmup_iters', expected key 'lr'"),
        (b"\nrng_uinteger=", b"\nfoo=1\nrng_uinteger=",
         "line 28: found key 'foo', expected key 'rng_uinteger'"),
        (b"\nlr=0.001\n", b"\nlr=0.001\nlr=0.001\n",
         "line 7: found key 'lr', expected key 'warmup_iters'"),
        (b"\nepochs=2\nbatch_size=4\n", b"\nbatch_size=4\nepochs=2\n",
         "line 4: found key 'batch_size', expected key 'epochs'")],
        ids=["missing", "extra", "repeated", "swapped"])
    def test_config_keys_out_of_place_rejected(self, old, new, message):
        cfg = tiny_config()
        blob = tr.checkpoint_bytes(tr.init_train_state(cfg), cfg)
        with pytest.raises(FormatError, match=message):
            tr.parse_checkpoint(replace_config(blob, old, new))

    def test_config_ending_early_or_late_rejected(self):
        cfg = tiny_config()
        state = tr.init_train_state(cfg)
        blob = tr.checkpoint_bytes(state, cfg)
        last = f"rng_uinteger={state.rng.bit_generator.state['uinteger']}\n".encode()
        with pytest.raises(FormatError, match="line 28: found the end of the block, "
                                              "expected key 'rng_uinteger'"):
            tr.parse_checkpoint(replace_config(blob, last, b""))
        with pytest.raises(FormatError, match="line 29: found key 'foo', "
                                              "expected the end of the block"):
            tr.parse_checkpoint(replace_config(blob, last, last + b"foo=1\n"))

    def test_tensor_and_config_layout_pinned(self):
        # a reader takes a .cctk file's tensor entries by position in this named()
        # order and its config lines in this key order: older files stay
        # loadable only while both hold
        head = hd.HeadConfig(concepts=4, slot_dim=4, input_dim=4, n_inputs=3,
                             n_classes=2, variant="boqsa", pathway="dual")
        cfg = tiny_config(head=head)
        state = tr.init_train_state(cfg)
        slot = ["wq", "wk", "wv", "mu", "log_sigma", "init_queries", "wz", "uz", "bz",
                "wr", "ur", "br", "wh", "uh", "bh", "ln_input_gain", "ln_input_bias",
                "ln_slot_gain", "ln_slot_bias", "positions"]
        cross = ["wq", "wk", "wv", "out"]
        want = [f"{pathway}.{group}.{name}"
                for pathway in ("spatial", "global")
                for group, names in (("slot", slot), ("cross", cross))
                for name in names]
        assert [name for name, _ in state.params.named()] == want
        keys = [line.partition("=")[0]
                for line in tr._config_lines(cfg, state).splitlines()]
        assert keys == ["epoch", "step", "seed", "epochs", "batch_size", "lr",
                        "warmup_iters", "weight_decay", "beta1", "beta2", "eps_opt",
                        "lambda_expl", "lambda_sparse", "concepts", "slot_dim",
                        "input_dim", "n_inputs", "n_classes", "iters", "variant",
                        "heads", "pathway", "identity_mode", "rng_algo", "rng_state",
                        "rng_inc", "rng_has_uint32", "rng_uinteger"]

    def test_heads_below_one_rejected(self):
        cfg = tiny_config()
        blob = tr.checkpoint_bytes(tr.init_train_state(cfg), cfg)
        assert b"\nheads=1\n" in blob
        with pytest.raises(ConfigError, match="heads must be >= 1"):
            tr.parse_checkpoint(blob.replace(b"\nheads=1\n", b"\nheads=0\n"))

    @pytest.mark.parametrize("value", [b"1", b"7"])  # one byte: the config length holds
    def test_identity_mode_other_than_zero_rejected(self, value):
        cfg = tiny_config()
        blob = tr.checkpoint_bytes(tr.init_train_state(cfg), cfg)
        assert b"\nidentity_mode=0\n" in blob
        with pytest.raises(FormatError, match="'identity_mode' is '.*', expected 0"):
            tr.parse_checkpoint(blob.replace(b"\nidentity_mode=0\n",
                                             b"\nidentity_mode=" + value + b"\n"))

    def test_unknown_rng_algo_names_key(self):
        cfg = tiny_config()
        blob = tr.checkpoint_bytes(tr.init_train_state(cfg), cfg)
        assert b"\nrng_algo=PCG64\n" in blob
        with pytest.raises(FormatError, match="'rng_algo' is 'PCG6X'"):
            tr.parse_checkpoint(blob.replace(b"\nrng_algo=PCG64\n", b"\nrng_algo=PCG6X\n"))
