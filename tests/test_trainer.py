import math
import struct

import numpy as np
import numpy.testing as npt
import pytest

from concepthead import data as dat
from concepthead import head as hd
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


class TestAdamW:
    def test_zero_grad_zero_decay_leaves_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        params = ParamSet(w=p)
        opt = tr.OptimizerState(m={"w": np.zeros(2)}, v={"w": np.zeros(2)})
        cfg = tiny_config(weight_decay=0.0)
        tr.adamw_step(params, opt, cfg, lr_t=0.1)
        npt.assert_array_equal(p.data, [1.0, -2.0])

    def test_zero_grad_pure_decay(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.zeros(1)
        params = ParamSet(w=p)
        opt = tr.OptimizerState(m={"w": np.zeros(1)}, v={"w": np.zeros(1)})
        cfg = tiny_config(weight_decay=0.5)
        tr.adamw_step(params, opt, cfg, lr_t=0.1)
        npt.assert_allclose(p.data, [2.0 * (1 - 0.1 * 0.5)], atol=1e-15)

    def test_one_step_hand_value(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.ones(1)
        params = ParamSet(w=p)
        opt = tr.OptimizerState(m={"w": np.zeros(1)}, v={"w": np.zeros(1)})
        cfg = tiny_config(weight_decay=0.0, betas=(0.9, 0.999), eps_opt=1e-8)
        tr.adamw_step(params, opt, cfg, lr_t=1e-3)
        # bias-corrected m = v = 1 -> theta - 1e-3 / (1 + 1e-8)
        assert p.data[0] == pytest.approx(1.0 - 1e-3 / (1.0 + 1e-8), abs=1e-15)
        assert opt.t == 1

    def test_zero_lr_keeps_params_exactly(self):
        p = Tensor(np.array([0.5, -0.25]), requires_grad=True)
        p.grad = np.array([1.0, 2.0])
        params = ParamSet(w=p)
        opt = tr.OptimizerState(m={"w": np.zeros(2)}, v={"w": np.zeros(2)})
        tr.adamw_step(params, opt, tiny_config(), lr_t=0.0)
        npt.assert_array_equal(p.data, [0.5, -0.25])

    def test_nonfinite_gradient_aborts(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        params = ParamSet(w=p)
        opt = tr.OptimizerState(m={"w": np.zeros(1)}, v={"w": np.zeros(1)})
        with pytest.raises(NumericError, match="w"):
            tr.adamw_step(params, opt, tiny_config(), lr_t=0.1)


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

    def test_beta_range(self):
        with pytest.raises(ConfigError):
            tiny_config(betas=(1.0, 0.999))

    def test_warmup_nonnegative(self):
        with pytest.raises(ConfigError):
            tiny_config(warmup_iters=-1)

    @pytest.mark.parametrize("name,value,message", [
        ("lr", math.nan, "lr must be positive and finite"),
        ("lr", math.inf, "lr must be positive and finite"),
        ("weight_decay", math.nan, "weight_decay must be finite"),
        ("weight_decay", -math.inf, "weight_decay must be finite"),
        ("weight_decay", -0.5, "weight_decay must be >= 0, got -0.5"),
        ("eps_opt", 0.0, "eps_opt must be positive and finite"),
        ("eps_opt", math.nan, "eps_opt must be positive and finite"),
        ("eps_opt", math.inf, "eps_opt must be positive and finite"),
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
        ds.samples = ds.samples[:1]
        cfg = tiny_config(epochs=300, batch_size=1, lr=5e-3, warmup_iters=0,
                          weight_decay=0.0, variant="boqsa",
                          weights=LossWeights(lambda_expl=0.0, lambda_sparse=0.0))
        _, records = tr.fit(ds, cfg)
        assert records[-1].loss_cls < 1e-3  # memorized: near the attainable minimum
        assert records[-1].class_acc == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            tr.fit(dat.Dataset(), tiny_config())

    def test_shuffle_is_seeded_permutation(self):
        a = tr.shuffled_indices(10, 42)
        b = tr.shuffled_indices(10, 42)
        c = tr.shuffled_indices(10, 43)
        assert np.array_equal(a, b)
        assert sorted(a.tolist()) == list(range(10))
        assert not np.array_equal(a, c)

    def test_metrics_fields_in_range(self):
        ds = tiny_dataset()
        _, records = tr.fit(ds, tiny_config())
        for r in records:
            assert 0.0 <= r.class_acc <= 1.0
            assert 0.0 <= r.concept_top1_acc <= 1.0
            assert r.mean_entropy >= 0.0
            assert r.loss_total >= r.loss_cls or r.loss_total == pytest.approx(r.loss_cls)

    def test_concept_accuracy_nan_without_targets(self):
        ds = tiny_dataset()
        for s in ds.samples:
            s.h_spatial = None
            s.h_global = None
        cfg = tiny_config(weights=LossWeights(lambda_expl=0.0, lambda_sparse=0.5))
        _, records = tr.fit(ds, cfg)
        assert math.isnan(records[-1].concept_top1_acc)

    def test_samples_without_targets_contribute_zero_explanation(self):
        ds = tiny_dataset()
        for s in ds.samples[::2]:
            s.h_spatial = None
            s.h_global = None
        _, records = tr.fit(ds, tiny_config())  # mixed batch trains fine
        assert records[-1].loss_expl > 0.0
        assert 0.0 <= records[-1].concept_top1_acc <= 1.0

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
            tr.evaluate(dat.Dataset(), state.params, cfg)

    @pytest.mark.parametrize("heads,pathway", [(1, "spatial"), (2, "dual")])
    def test_untaped_pass_matches_taped_pass(self, heads, pathway):
        ds = tiny_dataset()
        head = hd.HeadConfig(concepts=4, slot_dim=4, input_dim=4, n_inputs=3, n_classes=2,
                             variant="isa", heads=heads, pathway=pathway)
        cfg = tiny_config(head=head)
        state, _ = tr.fit(ds, cfg, epochs=1)
        taped = tr._run_pass(ds, state.params, cfg, np.random.default_rng(3),
                             [np.arange(len(ds.samples))], 0)
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
            return total / len(ds.samples)

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


GRID = [(variant, pathway, heads) for variant in hd.VARIANTS for pathway in hd.PATHWAYS
        for heads in (1, 4)]


def fit_outputs(ds, cfg, chunk, monkeypatch):
    """Metric rows and checkpoint bytes after fitting with training chunks of `chunk`."""
    monkeypatch.setattr(tr, "TRAIN_CHUNK", chunk)
    state, records = tr.fit(ds, cfg)
    return [mt.format_metrics_row(r) for r in records], tr.checkpoint_bytes(state, cfg)


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
        ds = tiny_dataset()
        for s in ds.samples[3:5]:
            s.h_spatial = None
        chunks = tr._chunks(ds.samples, np.arange(12), 5)
        assert chunks == [[0, 1, 2], [3, 4], [5, 6, 7, 8, 9], [10, 11]]
        rows = [mt.format_metrics_row(tr.evaluate(ds, tr.init_train_state(cfg).params, cfg))
                for cfg in (tiny_config(batch_size=5), tiny_config(batch_size=1))]
        assert rows[0] == rows[1]

    def test_numeric_error_in_a_chunk_names_the_sample(self):
        ds = tiny_dataset()
        ds.samples[6].features[...] = 1e308  # the row sum in layer_norm overflows
        messages = []
        for size in (5, 1):
            cfg = tiny_config(batch_size=size)
            with pytest.raises(NumericError) as err:
                tr.evaluate(ds, tr.init_train_state(cfg).params, cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("non-finite loss at epoch 0, batch 0, sample 6: ")

    @pytest.mark.parametrize("variant,pathway,heads", GRID)
    def test_fit_is_bit_identical_across_chunk_sizes(self, variant, pathway, heads,
                                                     monkeypatch):
        ds = tiny_dataset(samples_per_class=36)  # batches of 70 and 2
        head = hd.HeadConfig(concepts=4, slot_dim=8, input_dim=4, n_inputs=3, n_classes=2,
                             variant=variant, heads=heads, pathway=pathway)
        cfg = tiny_config(head=head, batch_size=70, lr=1e-2)
        want = fit_outputs(ds, cfg, 1, monkeypatch)
        for chunk in (5, 16, 64):
            assert fit_outputs(ds, cfg, chunk, monkeypatch) == want, chunk

    def test_fit_splits_where_target_kinds_change(self, monkeypatch):
        ds = tiny_dataset(samples_per_class=10)
        for s in ds.samples[3:9]:
            s.h_spatial = None
        for s in ds.samples[12:14]:
            s.h_spatial = s.h_global = None
        head = hd.HeadConfig(concepts=4, slot_dim=4, input_dim=4, n_inputs=3, n_classes=2,
                             variant="sa", pathway="dual")
        cfg = tiny_config(head=head, batch_size=20)
        order = tr.shuffled_indices(20, cfg.seed)
        assert len(tr._chunks(ds.samples, order, 16)) > 2  # kinds split the batch
        want = fit_outputs(ds, cfg, 1, monkeypatch)
        assert fit_outputs(ds, cfg, 16, monkeypatch) == want

    def test_numeric_error_mid_chunk_names_the_sample(self, monkeypatch):
        ds = tiny_dataset()
        ds.samples[6].features[...] = 1e308  # the row sum in layer_norm overflows
        cfg = tiny_config(batch_size=12)
        messages = []
        for chunk in (16, 1):
            monkeypatch.setattr(tr, "TRAIN_CHUNK", chunk)
            with pytest.raises(NumericError) as err:
                tr.train_epoch(tr.init_train_state(cfg), ds, cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("non-finite loss at epoch 1, batch 0, sample 6: ")


def replace_config(blob, old, new):
    """The checkpoint with one text of its config block replaced and the
    block's length prefix updated."""
    start = blob.rindex(b"epoch=")  # the first config line
    assert old in blob[start:]
    config = blob[start:].replace(old, new)
    return blob[:start - 4] + struct.pack("<I", len(config)) + config


class TestCheckpoint:
    def test_roundtrip_bytes_identical(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config()
        state, _ = tr.fit(ds, cfg)
        path = tmp_path / "model.cctk"
        tr.save_checkpoint(state, cfg, str(path))
        state2, cfg2 = tr.load_checkpoint(str(path))
        assert tr.checkpoint_bytes(state2, cfg2) == path.read_bytes()

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
        for name in state.opt.m:
            assert np.array_equal(state.opt.m[name], state2.opt.m[name])
            assert np.array_equal(state.opt.v[name], state2.opt.v[name])
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
        ds = tiny_dataset()
        cfg = tiny_config()
        state, _ = tr.fit(ds, cfg)
        blob = tr.checkpoint_bytes(state, cfg)
        with pytest.raises(FormatError) as err:
            tr.parse_checkpoint(blob[:100])
        assert err.value.offset is not None

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

    def test_non_finite_tensor_rejected(self):
        cfg = tiny_config()
        state = tr.init_train_state(cfg)
        state.params.spatial.cross.out.data[0, 0] = np.nan
        with pytest.raises(FormatError,
                           match=r"tensor 'spatial\.cross\.out' holds non-finite values"):
            tr.parse_checkpoint(tr.checkpoint_bytes(state, cfg))

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
        state.opt.v["spatial.slot.mu"] = np.zeros((2, 4))
        with pytest.raises(FormatError,
                           match=r"'v:spatial\.slot\.mu' has shape \(2, 4\), "
                                 r"config expects \(1, 4\)"):
            tr.parse_checkpoint(tr.checkpoint_bytes(state, cfg))

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

    def test_zero_eps_opt_rejected(self):
        cfg = tiny_config()
        blob = tr.checkpoint_bytes(tr.init_train_state(cfg), cfg)
        with pytest.raises(ConfigError, match="eps_opt must be positive"):
            tr.parse_checkpoint(replace_config(blob, b"\neps_opt=1e-08\n", b"\neps_opt=0\n"))

    def test_tensor_and_config_layout_pinned(self):
        # older .cctk files stay loadable only while these names and orders hold
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

    def test_unknown_rng_algo_names_key(self):
        cfg = tiny_config()
        blob = tr.checkpoint_bytes(tr.init_train_state(cfg), cfg)
        assert b"\nrng_algo=PCG64\n" in blob
        with pytest.raises(FormatError, match="'rng_algo' is 'PCG6X'"):
            tr.parse_checkpoint(blob.replace(b"\nrng_algo=PCG64\n", b"\nrng_algo=PCG6X\n"))
