import contextlib
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import composed
from concepthead import autodiff as ad
from concepthead import head as hd
from concepthead import losses
from concepthead.autodiff import Tensor
from concepthead.errors import ConfigError, NumericError, ShapeError


# --- straight-line oracles (no shared code with the implementation) ---------

def oracle_slot_attention(e, s, d):
    scores = s @ e.T / math.sqrt(d)                      # (C, L)
    ex = np.exp(scores - scores.max(axis=0, keepdims=True))
    soft = ex / ex.sum(axis=0, keepdims=True)            # compete across slots
    attn = soft / soft.sum(axis=1, keepdims=True)        # weighted mean over inputs
    return attn, attn @ e


def oracle_cross_attention(e, s, out_matrix, d):
    scores = e @ s.T / math.sqrt(d)                      # (L, C)
    ex = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = ex / ex.sum(axis=1, keepdims=True)
    logits = (attn @ s @ out_matrix).mean(axis=0)
    return attn, logits


def oracle_gru(s, u, wz, uz, bz, wr, ur, br, wh, uh, bh):
    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))
    z = sig(u @ wz + s @ uz + bz)
    r = sig(u @ wr + s @ ur + br)
    cand = np.tanh(u @ wh + (r * s) @ uh + bh)
    return (1.0 - z) * s + z * cand


# --- helpers -----------------------------------------------------------------

def toy_config(concepts=2, dim=1, n_inputs=2, n_classes=2, variant="boqsa", iters=1,
               heads=1, pathway="spatial"):
    return hd.HeadConfig(concepts=concepts, slot_dim=dim, input_dim=dim,
                         n_inputs=n_inputs, n_classes=n_classes, iters=iters,
                         variant=variant, heads=heads, pathway=pathway)


def toy_slot_params(cfg, init_queries=None, gru_scale=0.0, seed=0):
    """Slot params with identity q/k/v projections (x @ I is exact), zero GRU
    (unless scaled) and zero positions."""
    rng = np.random.default_rng(seed)
    p = hd.init_slot_params(cfg, rng)
    for tensor in (p.wq, p.wk, p.wv):
        tensor.data[...] = np.eye(cfg.slot_dim)
    for name in ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh"):
        tensor = getattr(p, name)
        tensor.data[...] = gru_scale * rng.normal(size=tensor.shape)
    p.positions.data[...] = 0.0
    if init_queries is not None:
        p.init_queries.data[...] = np.asarray(init_queries, dtype=np.float64)
    return p


def eye_cross(cfg, rng):
    """Readback params with identity q/k/v projections; out as drawn."""
    p = hd.init_cross_params(cfg, rng)
    for tensor in (p.wq, p.wk, p.wv):
        tensor.data[...] = np.eye(cfg.slot_dim)
    return p


def oracle_layer_norm(x):
    """Row-wise (x - mean) / sqrt(var + 1e-5) with unit gain and zero bias."""
    centered = x - x.mean(axis=1, keepdims=True)
    return centered / np.sqrt((centered ** 2).mean(axis=1, keepdims=True) + 1e-5)


def random_head(cfg, seed):
    rng = np.random.default_rng(seed)
    params = hd.init_head_params(cfg, rng)
    e = rng.normal(size=(cfg.n_inputs, cfg.input_dim))
    return params, e, rng


TOY_E = np.array([[1.0], [0.0]])
TOY_S = np.array([[1.0], [0.0]])
TOY_E2 = np.array([[1.0, 0.0], [-0.5, 2.0]])  # dim-2 inputs for the layer-normed paths
TOY_Q2 = np.array([[1.0, 0.0], [0.5, 3.0]])   # dim-2 boqsa init queries


class TestInitSlots:
    def test_sigma_to_zero_limit(self):
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=4, n_inputs=2,
                            n_classes=2, variant="sa")
        p = hd.init_slot_params(cfg, np.random.default_rng(0))
        p.log_sigma.data[...] = math.log(1e-12)
        slots = hd.init_slots(p, cfg, np.random.default_rng(1))
        npt.assert_allclose(slots.data, np.broadcast_to(p.mu.data, (3, 4)), atol=1e-10)

    def test_boqsa_deterministic(self):
        cfg = toy_config(variant="boqsa")
        p = toy_slot_params(cfg, init_queries=[[1.0], [2.0]])
        a = hd.init_slots(p, cfg, np.random.default_rng(0)).data
        b = hd.init_slots(p, cfg, np.random.default_rng(99)).data
        npt.assert_array_equal(a, [[1.0], [2.0]])
        assert np.array_equal(a, b)

    def test_boqsa_slots_carry_the_sample_axis(self):
        cfg = toy_config(variant="boqsa")
        p = toy_slot_params(cfg, init_queries=[[1.0], [2.0]])
        slots = hd.init_slots(p, cfg, np.random.default_rng(0), (3,))
        assert slots.shape == (3, 2, 1) and slots.requires_grad and not slots.shared
        npt.assert_array_equal(slots.data, np.broadcast_to([[1.0], [2.0]], (3, 2, 1)))

    def test_sa_same_seed_bitwise(self):
        cfg = hd.HeadConfig(concepts=2, slot_dim=2, input_dim=2, n_inputs=2,
                            n_classes=2, variant="sa")
        p = hd.init_slot_params(cfg, np.random.default_rng(0))
        p.mu.data[...] = 0.0
        p.log_sigma.data[...] = 0.0  # sigma = 1
        a = hd.init_slots(p, cfg, np.random.default_rng(42)).data
        b = hd.init_slots(p, cfg, np.random.default_rng(42)).data
        assert np.array_equal(a, b)

    def test_nonpositive_sigma_rejected(self):
        cfg = toy_config(variant="sa")
        p = hd.init_slot_params(cfg, np.random.default_rng(0))
        for log_sigma in (-800.0, -np.inf):  # exp is exactly 0
            p.log_sigma.data[...] = log_sigma
            with pytest.raises(ConfigError):
                hd.init_slots(p, cfg, np.random.default_rng(0))

    def test_gradients_flow_to_mu_and_sigma(self):
        cfg = hd.HeadConfig(concepts=2, slot_dim=3, input_dim=3, n_inputs=2,
                            n_classes=2, variant="sa")
        p = hd.init_slot_params(cfg, np.random.default_rng(0))
        slots = hd.init_slots(p, cfg, np.random.default_rng(3))
        ad.backward(ad.reduce_sum(ad.mul(slots, slots)))
        assert p.mu.grad is not None and np.any(p.mu.grad != 0)
        assert p.log_sigma.grad is not None and np.any(p.log_sigma.grad != 0)


class TestSlotAttention:
    def test_toy_oracle(self):
        cfg = toy_config()
        p = toy_slot_params(cfg)
        attn, readout = composed.slot_attention(Tensor(TOY_E), Tensor(TOY_S), p, cfg)
        want_attn, want_readout = oracle_slot_attention(TOY_E, TOY_S, 1)
        npt.assert_allclose(attn.data, want_attn, atol=1e-12)
        npt.assert_allclose(readout.data, want_readout, atol=1e-12)
        # spot values from the hand derivation
        npt.assert_allclose(attn.data[:, 0], [0.59384548, 0.34975541], atol=1e-8)
        npt.assert_allclose(readout.data[:, 0], [0.59384548, 0.34975541], atol=1e-8)

    def test_single_slot_uniform(self):
        cfg = toy_config(concepts=1, dim=1, n_inputs=4)
        p = toy_slot_params(cfg)
        e = np.array([[1.0], [2.0], [3.0], [4.0]])
        attn, readout = composed.slot_attention(Tensor(e), Tensor([[0.5]]), p, cfg)
        npt.assert_allclose(attn.data, np.full((1, 4), 0.25), atol=1e-15)
        npt.assert_allclose(readout.data, [[2.5]], atol=1e-15)

    def test_input_permutation_equivariance(self):
        cfg = toy_config(concepts=3, dim=2, n_inputs=5)
        p = toy_slot_params(cfg, seed=1)
        rng = np.random.default_rng(8)
        e = rng.normal(size=(5, 2))
        s = rng.normal(size=(3, 2))
        perm = rng.permutation(5)
        attn, readout = composed.slot_attention(Tensor(e), Tensor(s), p, cfg)
        attn_p, readout_p = composed.slot_attention(Tensor(e[perm]), Tensor(s), p, cfg)
        npt.assert_allclose(attn_p.data, attn.data[:, perm], atol=1e-12)
        npt.assert_allclose(readout_p.data, readout.data, atol=1e-12)

    def test_rows_sum_to_one(self):
        cfg = hd.HeadConfig(concepts=4, slot_dim=3, input_dim=6, n_inputs=7,
                            n_classes=2, variant="sa")
        rng = np.random.default_rng(0)
        p = hd.init_slot_params(cfg, rng)
        attn, _ = composed.slot_attention(Tensor(rng.normal(size=(7, 6))),
                                          Tensor(rng.normal(size=(4, 3))), p, cfg)
        npt.assert_allclose(attn.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(attn.data > 0)


class TestGruUpdate:
    def test_zero_weights_halve_state(self):
        cfg = toy_config(concepts=2, dim=3)
        p = toy_slot_params(cfg)
        s = np.random.default_rng(0).normal(size=(2, 3))
        u = np.random.default_rng(1).normal(size=(2, 3))
        out = composed.gru_update(Tensor(s), Tensor(u), p)
        npt.assert_allclose(out.data, 0.5 * s, atol=1e-15)

    def test_closed_update_gate_freezes_state(self):
        cfg = toy_config(concepts=2, dim=3)
        p = toy_slot_params(cfg)
        p.bz.data[...] = -40.0  # z -> 0
        s = np.random.default_rng(2).normal(size=(2, 3))
        out = composed.gru_update(Tensor(s), Tensor(np.ones((2, 3))), p)
        npt.assert_allclose(out.data, s, atol=1e-15)

    def test_scalar_hand_case(self):
        cfg = toy_config(concepts=1, dim=1)
        p = toy_slot_params(cfg)
        p.wh.data[...] = 1.0
        out = composed.gru_update(Tensor([[2.0]]), Tensor([[1.0]]), p)
        # z = 0.5, cand = tanh(1), next = 1 + 0.5*tanh(1)
        assert out.data[0, 0] == pytest.approx(1.3807970779778824, abs=1e-12)

    def test_matches_oracle_random(self):
        cfg = toy_config(concepts=3, dim=4)
        p = toy_slot_params(cfg, gru_scale=0.7, seed=5)
        rng = np.random.default_rng(6)
        s, u = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        out = composed.gru_update(Tensor(s), Tensor(u), p)
        want = oracle_gru(s, u, p.wz.data, p.uz.data, p.bz.data, p.wr.data,
                          p.ur.data, p.br.data, p.wh.data, p.uh.data, p.bh.data)
        npt.assert_allclose(out.data, want, atol=1e-12)


def probe(x, deltas):
    """x unchanged, recorded as an identity op that appends each delta the
    walk hands it to `deltas`."""
    def vjp(g):
        deltas.append(g)
        return (g,)

    return ad.record(x.data, (x,), vjp, "probe")


def stepped_refine(step, e, p, cfg, rng, deltas):
    """refine_slots with `step` (inputs, slots) -> (slots, map) per iteration
    and probes on the layer-normed inputs and on each step's input slots."""
    inputs = probe(ad.layer_norm(Tensor(e), p.ln_input_gain, p.ln_input_bias), deltas["inputs"])
    with ad.no_grad() if cfg.variant == "isa" else contextlib.nullcontext():
        slots = hd.init_slots(p, cfg, rng, e.shape[:-2])
        for _ in range(cfg.iters - 1):
            slots, _ = step(inputs, probe(slots, deltas["slots"]))
    slots, attn = step(inputs, probe(slots, deltas["slots"]))
    return ad.add(slots, p.positions), attn


def scaled(t, largest):
    """t's values scaled so that the largest magnitude is `largest`."""
    t.data /= np.abs(t.data).max()
    t.data *= largest


def both_gates_huge(p):
    # normed inputs and slots whose rows sum to 4; constant wv, wz and uz
    # make readout @ wz and slots @ uz each 1e308: their sum overflows
    p.ln_input_bias.data[...] = 1.0
    p.ln_slot_bias.data[...] = 1.0
    p.wv.data[...] = 0.25
    p.wz.data[...] = 0.25e308
    p.uz.data[...] = 0.25e308


def gate_overflows(w, b, sign):
    """Pokes that overflow one gate's or the candidate's pre-activation to
    sign * inf in its bias add, which the sigmoid or tanh then saturates:
    slots @ w (or readout @ w) and the bias are each sign * 1e308."""
    def poke(p):
        if w.startswith("u"):  # every normed slot row is ones
            p.ln_slot_gain.data[...] = 0.0
            p.ln_slot_bias.data[...] = 1.0
        else:  # the normed inputs, so every value and the readout, are ones
            p.ln_input_gain.data[...] = 0.0
            p.ln_input_bias.data[...] = 1.0
            p.wv.data[...] = 0.25
        getattr(p, w).data[...] = sign * 0.25e308
        getattr(p, b).data[...] = sign * 1e308
    return poke


def slot_norm_and_keys_overflow(p):
    """The normed slots and the keys both overflow; the slots come first."""
    p.ln_slot_gain.data.fill(1.5e308)
    scaled(p.wk, 1.5e308)


def q_and_keys_overflow(p):
    """q and the keys both overflow; q comes first."""
    scaled(p.wq, 1.5e308)
    scaled(p.wk, 1.5e308)


SCREEN_POKES = {f"{gate}{'+' if sign > 0 else '-'}inf": gate_overflows(w, b, sign)
                for gate, w, b in (("z", "uz", "bz"), ("r", "ur", "br"), ("candidate", "wh", "bh"))
                for sign in (1.0, -1.0)}


def scores_to_minus_inf(cfg):
    """boqsa params and inputs whose score of slot 2 and input 0 overflows to
    -inf while every other score stays finite, so that the softmax turns it
    into a 0: the last column of q and of the keys is 2**600 * (the first
    normed value - the second), which is exactly 0 for slots 0 and 1 and for
    inputs 1-4 (products with 2**600 are exact)."""
    p = hd.init_slot_params(cfg, np.random.default_rng(0))
    p.init_queries.data[...] = [[0.0, 0.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0],
                                [1.0, -1.0, 0.5, -0.5]]
    big = 2.0 ** 600
    p.wq.data[:, 3] = p.wk.data[:, 3] = [big, -big, 0.0, 0.0]
    e = np.random.default_rng(1).normal(size=(5, 4))
    e[1:, 1] = e[1:, 0]
    e[0, :2] = [-1.0, 1.0]
    return p, e


class TestSlotStep:
    """The fused step against the chain of ops it replaces (tests/composed.py)."""

    @pytest.mark.parametrize("variant", hd.VARIANTS)
    @pytest.mark.parametrize("iters", [1, 3])
    @pytest.mark.parametrize("lead", [1, 5])
    @pytest.mark.parametrize("per_sample", [False, True])
    def test_bit_identical_to_composed_reference(self, variant, iters, lead, per_sample):
        cfg = hd.HeadConfig(concepts=5, slot_dim=8, input_dim=6, n_inputs=7, n_classes=3,
                            variant=variant, iters=iters)
        p = hd.init_slot_params(cfg, np.random.default_rng(0))
        e = np.random.default_rng(1).normal(size=(lead, 7, 6))
        weight = ad.Tensor(np.random.default_rng(2).normal(size=(lead, 5, 8)))

        def fused():
            run = {"kv": None}  # the keys and values the run's first step returns

            def step(inputs, slots):
                slots, attn, run["kv"] = hd.slot_step(slots, inputs, p, cfg, run["kv"])
                return slots, attn
            return step

        def reference():
            def step(inputs, slots):
                slots, attn = composed.iterate(inputs, slots, p, cfg)
                return slots, attn.data
            return step

        runs = []
        for make_step in (fused, reference):
            step = make_step()
            for _, t in p.named():
                t.reset_grad()
            deltas = {"inputs": [], "slots": []}
            out, attn = stepped_refine(step, e, p, cfg, np.random.default_rng(3), deltas)
            loss = ad.reduce_sum(ad.mul(out, weight), keep=1)
            ad.backward(loss if per_sample else ad.reduce_sum(loss), per_sample=per_sample)
            runs.append((out.data, attn, deltas, {name: t.grad for name, t in p.named()}))
        (out, attn, deltas, grads), (want_out, want_attn, want_deltas, want_grads) = runs
        assert np.array_equal(out, want_out) and np.array_equal(attn, want_attn)
        for key in ("inputs", "slots"):
            assert len(deltas[key]) == len(want_deltas[key])
            for got, want in zip(deltas[key], want_deltas[key]):
                assert np.array_equal(got, want), key
        # isa's input slots are constants: no delta reaches them
        assert len(deltas["slots"]) == (0 if variant == "isa" else iters)
        for name, grad in grads.items():
            want = want_grads[name]
            assert (grad is None) == (want is None), name
            assert grad is None or np.array_equal(grad, want), name

    def test_keys_and_values_made_once_per_call(self):
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=5, n_inputs=6, n_classes=2,
                            variant="boqsa", iters=3)
        p = hd.init_slot_params(cfg, np.random.default_rng(0))
        normed = ad.layer_norm(Tensor(np.random.default_rng(1).normal(size=(2, 6, 5))),
                               p.ln_input_gain, p.ln_input_bias)
        slots, _, kv = hd.slot_step(hd.init_slots(p, cfg, None, (2,)), normed, p, cfg, None)
        keys_t, values = kv
        assert np.array_equal(keys_t, np.swapaxes(normed.data @ p.wk.data, -1, -2))
        assert np.array_equal(values, normed.data @ p.wv.data)
        _, _, kv = hd.slot_step(slots, normed, p, cfg, kv)
        assert kv[0] is keys_t and kv[1] is values

    @pytest.mark.parametrize("variant", ["sa", "boqsa"])
    def test_gradient_check(self, variant):
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=4, n_inputs=3, n_classes=2,
                            variant=variant, iters=3)
        p = hd.init_slot_params(cfg, np.random.default_rng(0))
        e = Tensor(np.random.default_rng(1).normal(size=(3, 4)), requires_grad=True)
        weight = ad.Tensor(np.random.default_rng(2).normal(size=(3, 4)))

        def f():
            slots = hd.refine_slots(e, p, cfg, np.random.default_rng(3))
            return ad.reduce_sum(ad.mul(slots, weight))

        report = ad.grad_check(f, [("e", e), *p.named()], h=1e-6, tol=1e-6)
        assert report.passed, (report.max_rel_error, report.worst)

    @pytest.mark.parametrize("op,poke", [
        ("layer_norm", lambda p: p.ln_slot_gain.data.fill(1.5e308)),
        ("matmul", lambda p: scaled(p.wk, 1.5e308)),       # the keys
        ("matmul", lambda p: scaled(p.uz, 1.5e308)),       # slots @ uz
        ("row_normalize", lambda p: scaled(p.wq, 1e300)),  # softmax rows of zeros
        ("add", both_gates_huge),
        ("layer_norm", slot_norm_and_keys_overflow),
        ("matmul", q_and_keys_overflow),
    ])
    def test_nonfinite_intermediate_names_the_composed_op(self, op, poke):
        """The error and the floating-point warnings are the composed
        chain's, also when a later op of the chain would overflow too."""
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=4, n_inputs=5, n_classes=2,
                            variant="sa", iters=2)
        p = hd.init_slot_params(cfg, np.random.default_rng(0))
        poke(p)
        e = Tensor(np.random.default_rng(1).normal(size=(5, 4)))
        messages, warned = [], []
        for refine in (hd.refine_slots, composed.refine_slots):
            with warnings.catch_warnings(record=True) as seen, \
                    pytest.raises(NumericError) as err:
                warnings.simplefilter("always")
                refine(e, p, cfg, np.random.default_rng(2))
            messages.append(str(err.value))
            warned.append([str(w.message) for w in seen])
        assert messages[0] == messages[1] == f"{op} produced non-finite values"
        assert warned[0] == warned[1]

    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("case", SCREEN_POKES)
    def test_saturated_gate_or_candidate_overflow_names_the_composed_op(self, case, grad):
        """Each pre-activation screen is the only check that sees its poke's
        overflow: the sigmoid or tanh after it gives a finite value."""
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=4, n_inputs=5, n_classes=2,
                            variant="sa", iters=2)
        p = hd.init_slot_params(cfg, np.random.default_rng(0))
        SCREEN_POKES[case](p)
        e = Tensor(np.random.default_rng(1).normal(size=(5, 4)))
        messages = []
        with np.errstate(all="ignore"), contextlib.nullcontext() if grad else ad.no_grad():
            for refine in (hd.refine_slots, composed.refine_slots):
                with pytest.raises(NumericError) as err:
                    refine(e, p, cfg, np.random.default_rng(2))
                messages.append(str(err.value))
        assert messages[0] == messages[1] == "add produced non-finite values"

    @pytest.mark.parametrize("case", SCREEN_POKES)
    def test_failing_step_warns_as_the_composed_chain(self, case):
        """The screened run is silent: the floating-point warnings are those
        of the replay, which are the composed chain's, each once."""
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=4, n_inputs=5, n_classes=2,
                            variant="sa", iters=2)
        p = hd.init_slot_params(cfg, np.random.default_rng(0))
        SCREEN_POKES[case](p)
        e = Tensor(np.random.default_rng(1).normal(size=(5, 4)))
        messages = []
        for refine in (hd.refine_slots, composed.refine_slots):
            with warnings.catch_warnings(record=True) as seen, pytest.raises(NumericError):
                warnings.simplefilter("always")
                refine(e, p, cfg, np.random.default_rng(2))
            messages.append([str(w.message) for w in seen])
        assert messages[0] == messages[1] == ["overflow encountered in add"]

    @pytest.mark.parametrize("grad", [True, False])
    def test_score_at_minus_inf_names_the_composed_op(self, grad):
        """The scores screen is the only check that sees a -inf score: the
        softmax turns it into a 0 and every later value is finite."""
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=4, n_inputs=5, n_classes=2,
                            variant="boqsa", iters=1)
        p, e = scores_to_minus_inf(cfg)
        with np.errstate(all="ignore"):
            normed = ad.layer_norm(Tensor(e), p.ln_input_gain, p.ln_input_bias).data
            s = hd.init_slots(p, cfg, None).data
            s = ad.normalize_rows(s)[0]
            scores = (s @ p.wq.data) @ (normed @ p.wk.data).T
        assert np.isneginf(scores[2, 0]) and np.isfinite(np.delete(scores.ravel(), 10)).all()
        messages = []
        with np.errstate(all="ignore"), contextlib.nullcontext() if grad else ad.no_grad():
            for refine in (hd.refine_slots, composed.refine_slots):
                with pytest.raises(NumericError) as err:
                    refine(Tensor(e), p, cfg, np.random.default_rng(2))
                messages.append(str(err.value))
        assert messages[0] == messages[1] == "matmul produced non-finite values"

    @pytest.mark.parametrize("grad", [True, False])
    def test_finite_step_checks_four_values(self, grad, monkeypatch):
        """The screened run checks the scaled scores and the three
        pre-activations, also when it makes the keys and values, records its
        output unchecked and does not replay."""
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=4, n_inputs=5, n_classes=2,
                            variant="sa", iters=2)
        p = hd.init_slot_params(cfg, np.random.default_rng(0))
        normed = ad.layer_norm(Tensor(np.random.default_rng(1).normal(size=(5, 4))),
                               p.ln_input_gain, p.ln_input_bias)
        slots, kv = hd.init_slots(p, cfg, np.random.default_rng(2)), None
        checks, checked = [], ad.checked

        def spy(data, op):
            checks.append(op)
            return checked(data, op)

        monkeypatch.setattr(ad, "checked", spy)
        with contextlib.nullcontext() if grad else ad.no_grad():
            for made_keys in (True, False):
                assert (kv is None) == made_keys
                slots, _, kv = hd.slot_step(slots, normed, p, cfg, kv)
                assert checks == ["scale", "add", "add", "add"], made_keys
                checks.clear()

    def test_replay_checks_the_keys_only_when_the_step_made_them(self, monkeypatch):
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=4, n_inputs=5, n_classes=2,
                            variant="sa", iters=2)
        p = hd.init_slot_params(cfg, np.random.default_rng(0))
        normed = ad.layer_norm(Tensor(np.random.default_rng(1).normal(size=(5, 4))),
                               p.ln_input_gain, p.ln_input_bias)
        slots = hd.init_slots(p, cfg, np.random.default_rng(2))
        checks, checked = [], ad.checked

        def spy(data, op):
            checks.append((op, data.shape))
            return checked(data, op)

        monkeypatch.setattr(ad, "checked", spy)
        # keys that overflow: the scores screen fails and the replay finds the keys' matmul
        saved = p.wk.data.copy()
        scaled(p.wk, 1.5e308)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="^matmul produced"):
            hd.slot_step(slots, normed, p, cfg, None)
        assert checks == [("scale", (3, 5)), ("layer_norm", (3, 4)), ("matmul", (3, 4)),
                          ("matmul", (5, 4))]
        # keys made by an earlier step are not made again
        p.wk.data[...] = saved
        slots, _, kv = hd.slot_step(slots, normed, p, cfg, None)
        keys_t, values = (a.copy() for a in kv)
        gate_overflows("uz", "bz", 1.0)(p)
        checks.clear()
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="^add produced"):
            hd.slot_step(slots, normed, p, cfg, kv)
        # the screened run fails at the z gate's screen; then the replay
        assert checks[:2] == [("scale", (3, 5)), ("add", (3, 4))]
        assert ("matmul", (5, 4)) not in checks
        # neither run wrote into the keys and values it was given
        assert np.array_equal(kv[0], keys_t) and np.array_equal(kv[1], values)

    def test_untaped_slots_get_no_gradient_work(self):
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=4, n_inputs=5, n_classes=2)
        p = hd.init_slot_params(cfg, np.random.default_rng(0))
        x = ad.Tensor(np.random.default_rng(1).normal(size=(5, 4)))
        out, _, _ = hd.slot_step(ad.Tensor(np.ones((3, 4))), x, p, cfg, None)
        contributions = list(out._node._vjp(np.ones((3, 4))))
        # the constant slots, and the constant inputs for their keys and values
        assert [i for i, c in enumerate(contributions) if c is None] == [0, 4, 6]

    def test_slot_shape_checked(self):
        cfg = toy_config()
        p = toy_slot_params(cfg)
        with pytest.raises(ShapeError, match=r"expected slots \(\*, 2, 1\)"):
            hd.slot_step(Tensor(np.zeros((3, 1))), Tensor(TOY_E), p, cfg, None)


class TestRefineSlots:
    def test_sa_isa_forward_equal_bitwise(self):
        for iters in (1, 2, 3):
            cfg_sa = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=5, n_inputs=4,
                                   n_classes=2, variant="sa", iters=iters)
            cfg_isa = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=5, n_inputs=4,
                                    n_classes=2, variant="isa", iters=iters)
            p = hd.init_slot_params(cfg_sa, np.random.default_rng(0))
            e = np.random.default_rng(1).normal(size=(4, 5))
            out_sa = hd.refine_slots(Tensor(e), p, cfg_sa, np.random.default_rng(2))
            out_isa = hd.refine_slots(Tensor(e), p, cfg_isa, np.random.default_rng(2))
            assert np.array_equal(out_sa.data, out_isa.data)

    def test_zero_positions_passthrough(self):
        cfg = toy_config(dim=2, variant="boqsa", iters=1)
        p = toy_slot_params(cfg, init_queries=TOY_Q2)
        out = hd.refine_slots(Tensor(TOY_E2), p, cfg, np.random.default_rng(0))
        # zero GRU halves the layer-normed init slots; positions are zero
        npt.assert_allclose(out.data, 0.5 * oracle_layer_norm(TOY_Q2), atol=1e-15)

    def test_positions_added(self):
        cfg = toy_config(dim=2, variant="boqsa", iters=1)
        p = toy_slot_params(cfg, init_queries=TOY_Q2)
        positions = np.array([[0.25, -0.5], [0.75, 0.125]])
        p.positions.data[...] = positions
        out = hd.refine_slots(Tensor(TOY_E2), p, cfg, np.random.default_rng(0))
        npt.assert_allclose(out.data, 0.5 * oracle_layer_norm(TOY_Q2) + positions, atol=1e-15)

    def test_iters_below_one_rejected(self):
        with pytest.raises(ConfigError):
            hd.HeadConfig(concepts=2, slot_dim=2, input_dim=2, n_inputs=2,
                          n_classes=2, iters=0)

    def test_default_iters_per_variant(self):
        assert hd.default_iters("sa") == 1
        assert hd.default_iters("isa") == 3
        assert hd.default_iters("boqsa") == 3

    def test_isa_mu_gradient_differs_from_sa_at_t3(self):
        cfg_kwargs = dict(concepts=3, slot_dim=4, input_dim=4, n_inputs=3,
                          n_classes=2, iters=3)
        e = np.random.default_rng(4).normal(size=(3, 4))
        grads = {}
        for variant in ("sa", "isa"):
            cfg = hd.HeadConfig(variant=variant, **cfg_kwargs)
            p = hd.init_slot_params(cfg, np.random.default_rng(0))
            slots = hd.refine_slots(Tensor(e), p, cfg, np.random.default_rng(7))
            ad.backward(ad.reduce_sum(ad.mul(slots, slots)))
            grads[variant] = np.zeros_like(p.mu.data) if p.mu.grad is None else p.mu.grad.copy()
        assert np.max(np.abs(grads["sa"] - grads["isa"])) > 1e-12

    def test_input_shape_checked(self):
        cfg = toy_config()
        p = toy_slot_params(cfg)
        with pytest.raises(ShapeError):
            hd.refine_slots(Tensor(np.zeros((2, 3))), p, cfg, np.random.default_rng(0))

    @pytest.mark.parametrize("iters", [1, 3])
    @pytest.mark.parametrize("pathway", ["spatial", "dual"])
    def test_isa_gradients_equal_a_detached_reference(self, monkeypatch, iters, pathway):
        def detached_refine(e_raw, p, cfg, rng, eps=None):
            # every iteration on the tape, the slots cut loose before the last
            inputs = ad.layer_norm(e_raw, p.ln_input_gain, p.ln_input_bias)
            slots = hd.init_slots(p, cfg, rng, e_raw.shape[:-2], eps)
            for it in range(cfg.iters):
                if it == cfg.iters - 1:
                    slots = Tensor(slots.data)
                slots, _ = composed.iterate(inputs, slots, p, cfg)
            return ad.add(slots, p.positions)

        cfg = hd.HeadConfig(concepts=3, slot_dim=8, input_dim=6, n_inputs=4, n_classes=3,
                            variant="isa", iters=iters, heads=2, pathway=pathway)
        params = hd.init_head_params(cfg, np.random.default_rng(0))
        e = np.random.default_rng(1).normal(size=(1, 4, 6))
        runs = []
        for refine in (hd.refine_slots, detached_refine):
            monkeypatch.setattr(hd, "refine_slots", refine)
            params.reset_grads()
            out = hd.head_forward(Tensor(e), params, cfg, np.random.default_rng(2))
            loss = ad.add(losses.cross_entropy(out.logits, [1]),
                          losses.sparsity_loss(out.attn_spatial))
            ad.backward(ad.reduce_sum(loss))
            runs.append((out.logits.data, {name: p.grad for name, p in params.named()}))
        (logits, grads), (want_logits, want_grads) = runs
        assert np.array_equal(logits, want_logits)
        for name, grad in grads.items():
            if name.endswith((".mu", ".log_sigma")):
                assert grad is None and want_grads[name] is None, name
            else:
                assert np.array_equal(grad, want_grads[name]), name


class TestCrossAttention:
    def test_toy_oracle(self):
        cfg = toy_config()
        p = eye_cross(cfg, np.random.default_rng(0))
        p.out.data[...] = [[1.0, -1.0]]
        attn, logits = hd.multi_head_cross_attention(Tensor(TOY_E), Tensor(TOY_S), p, cfg)
        want_attn, want_logits = oracle_cross_attention(TOY_E, TOY_S, p.out.data, 1)
        npt.assert_allclose(attn.data, want_attn, atol=1e-12)
        npt.assert_allclose(logits.data, want_logits, atol=1e-12)
        npt.assert_allclose(attn.data[0], [0.73105858, 0.26894142], atol=1e-8)
        npt.assert_allclose(logits.data, [0.61552929, -0.61552929], atol=1e-8)

    def test_identical_slots_give_uniform_attention(self):
        cfg = toy_config(concepts=3, dim=2, n_inputs=4, n_classes=3)
        p = eye_cross(cfg, np.random.default_rng(1))
        slots = np.tile([[0.3, -0.7]], (3, 1))
        e = np.random.default_rng(2).normal(size=(4, 2))
        attn, logits = hd.multi_head_cross_attention(Tensor(e), Tensor(slots), p, cfg)
        npt.assert_allclose(attn.data, np.full((4, 3), 1 / 3), atol=1e-12)
        want = (slots @ p.out.data).mean(axis=0)
        npt.assert_allclose(logits.data, want, atol=1e-12)

    def test_input_row_permutation_leaves_logits_unchanged(self):
        cfg = toy_config(concepts=3, dim=2, n_inputs=5, n_classes=4)
        p = hd.init_cross_params(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        e = rng.normal(size=(5, 2))
        slots = rng.normal(size=(3, 2))
        perm = rng.permutation(5)
        attn, logits = hd.multi_head_cross_attention(Tensor(e), Tensor(slots), p, cfg)
        attn_p, logits_p = hd.multi_head_cross_attention(Tensor(e[perm]), Tensor(slots), p, cfg)
        npt.assert_allclose(logits_p.data, logits.data, atol=1e-12)
        npt.assert_allclose(attn_p.data, attn.data[perm], atol=1e-12)


class TestRelevanceAndDecomposition:
    def test_uniform_map(self):
        rel = hd.relevance(Tensor(np.full((6, 4), 0.25)))
        npt.assert_allclose(rel.data, np.full(4, 0.25), atol=1e-15)

    def test_derived_map(self):
        rel = hd.relevance(Tensor([[0.7311, 0.2689], [0.5, 0.5]]))
        npt.assert_allclose(rel.data, [0.61555, 0.38445], atol=1e-15)

    def test_onehot_rows(self):
        attn = np.zeros((3, 4))
        attn[:, 0] = 1.0
        npt.assert_allclose(hd.relevance(Tensor(attn)).data, [1, 0, 0, 0], atol=1e-15)

    def test_matches_eq1_path(self):
        cfg = toy_config()
        p = eye_cross(cfg, np.random.default_rng(0))
        p.out.data[...] = [[1.0, -1.0]]
        attn, logits = hd.multi_head_cross_attention(Tensor(TOY_E), Tensor(TOY_S), p, cfg)
        dec = hd.decomposed_logits(Tensor(TOY_S), p, hd.relevance(attn), cfg)
        npt.assert_allclose(dec.data, logits.data, atol=1e-12)
        npt.assert_allclose(dec.data, [0.61552929, -0.61552929], atol=1e-8)

    def test_onehot_relevance_selects_beta_row(self):
        cfg = toy_config(concepts=3, dim=2, n_classes=4)
        p = eye_cross(cfg, np.random.default_rng(5))
        slots = np.random.default_rng(6).normal(size=(3, 2))
        beta = slots @ p.out.data
        for c in range(3):
            rel = np.zeros(3)
            rel[c] = 1.0
            out = hd.decomposed_logits(Tensor(slots), p, Tensor(rel), cfg)
            npt.assert_allclose(out.data, beta[c], atol=1e-12)

    def test_zero_output_matrix(self):
        cfg = toy_config(concepts=2, dim=2, n_classes=3)
        p = hd.init_cross_params(cfg, np.random.default_rng(7))
        p.out.data[...] = 0.0
        out = hd.decomposed_logits(Tensor(np.ones((2, 2))), p,
                                   Tensor([0.25, 0.75]), cfg)
        npt.assert_array_equal(out.data, np.zeros(3))


class TestMultiHead:
    def test_duplicated_head_blocks_average_to_either(self):
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=5, n_inputs=4,
                            n_classes=2, heads=2)
        rng = np.random.default_rng(1)
        p = hd.init_cross_params(cfg, rng)
        # make both d/2 blocks of every projection identical
        for tensor in (p.wq, p.wk, p.wv):
            tensor.data[:, 2:] = tensor.data[:, :2]
        e, slots = rng.normal(size=(4, 5)), rng.normal(size=(3, 4))
        attn, _ = hd.multi_head_cross_attention(Tensor(e), Tensor(slots), p, cfg)
        # mean of two identical per-head maps equals the single-head map
        half_cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=5, n_inputs=4,
                                 n_classes=2, heads=1)
        q = e @ p.wq.data[:, :2]
        k = slots @ p.wk.data[:, :2]
        scores = q @ k.T / math.sqrt(2)
        ex = np.exp(scores - scores.max(axis=1, keepdims=True))
        want = ex / ex.sum(axis=1, keepdims=True)
        npt.assert_allclose(attn.data, want, atol=1e-12)

    def test_two_heads_match_bruteforce(self):
        cfg = hd.HeadConfig(concepts=4, slot_dim=6, input_dim=5, n_inputs=3,
                            n_classes=3, heads=2)
        rng = np.random.default_rng(2)
        p = hd.init_cross_params(cfg, rng)
        e, slots = rng.normal(size=(3, 5)), rng.normal(size=(4, 6))
        attn, logits = hd.multi_head_cross_attention(Tensor(e), Tensor(slots), p, cfg)

        # brute force without the head-splitting abstraction
        q, k, v = e @ p.wq.data, slots @ p.wk.data, slots @ p.wv.data
        merged = np.zeros((3, 6))
        maps = []
        for j, (lo, hi) in enumerate([(0, 3), (3, 6)]):
            scores = q[:, lo:hi] @ k[:, lo:hi].T / math.sqrt(3)
            ex = np.exp(scores - scores.max(axis=1, keepdims=True))
            a = ex / ex.sum(axis=1, keepdims=True)
            maps.append(a)
            merged[:, lo:hi] = a @ v[:, lo:hi]
        want_logits = (merged @ p.out.data).mean(axis=0)
        npt.assert_allclose(logits.data, want_logits, atol=1e-12)
        npt.assert_allclose(attn.data, (maps[0] + maps[1]) / 2, atol=1e-12)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            hd.HeadConfig(concepts=2, slot_dim=5, input_dim=4, n_inputs=2,
                          n_classes=2, heads=2)


    def test_heads_below_one_rejected(self):
        for heads in (0, -1):
            with pytest.raises(ConfigError, match="heads must be >= 1"):
                hd.HeadConfig(concepts=2, slot_dim=4, input_dim=4, n_inputs=2,
                              n_classes=2, heads=heads)


# --- the per-head readback loop that the stacked readback replaced ----------

def _slice_cols(a, lo, hi):
    def vjp(g):
        out = np.zeros(a.shape)
        out[:, lo:hi] = g
        return (out,)

    return ad._make(a.data[:, lo:hi], (a,), vjp, "slice_cols")


def _concat_cols(parts):
    splits = np.cumsum([p.shape[1] for p in parts])[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=1))

    return ad._make(np.concatenate([p.data for p in parts], axis=1), tuple(parts), vjp,
                    "concat_cols")


def reference_readback(e_raw, slots, p, cfg):
    """One 2-D attention per head on column slices, maps added head by head."""
    h = cfg.heads
    q_full, k_full, v_full = (ad.matmul(e_raw, p.wq), ad.matmul(slots, p.wk),
                              ad.matmul(slots, p.wv))
    dh = cfg.slot_dim // h
    outs, attns = [], []
    for j in range(h):
        lo, hi = j * dh, (j + 1) * dh
        q, k, v = (_slice_cols(x, lo, hi) for x in (q_full, k_full, v_full))
        scores = ad.scale(ad.matmul(q, composed.transpose(k)), 1.0 / np.sqrt(dh))
        attn = composed.softmax_axis(scores, axis=1)
        attns.append(attn)
        outs.append(ad.matmul(attn, v))
    merged = outs[0] if h == 1 else _concat_cols(outs)
    logits = ad.reduce_mean_axis(ad.matmul(merged, p.out), axis=0)
    mean_attn = attns[0]
    for attn in attns[1:]:
        mean_attn = ad.add(mean_attn, attn)
    if h > 1:
        mean_attn = ad.scale(mean_attn, 1.0 / h)
    return mean_attn, logits


class TestStackedReadback:
    @pytest.mark.parametrize("heads", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("n_inputs", [1, 8])
    def test_bit_identical_to_per_head_loop(self, heads, n_inputs):
        cfg = hd.HeadConfig(concepts=5, slot_dim=24, input_dim=7, n_inputs=n_inputs,
                            n_classes=3, heads=heads)
        rng = np.random.default_rng(10 * heads + n_inputs)
        p = hd.init_cross_params(cfg, rng)
        e_np, slots_np = rng.normal(size=(n_inputs, 7)), rng.normal(size=(5, 24))
        target = rng.dirichlet(np.ones(5), size=n_inputs)
        results = []
        for readback in (hd.multi_head_cross_attention, reference_readback):
            e, slots = Tensor(e_np, requires_grad=True), Tensor(slots_np, requires_grad=True)
            for _, param in p.named():
                param.reset_grad()
            attn, logits = readback(e, slots, p, cfg)
            # the map feeds the readback product and three loss terms, as in training
            loss = ad.add(ad.add(losses.cross_entropy(logits, 1),
                                 losses.explanation_loss(attn, target)),
                          losses.sparsity_loss(attn))
            ad.backward(loss)
            results.append([attn.data, logits.data, e.grad, slots.grad]
                           + [param.grad.copy() for _, param in p.named()])
        for got, want in zip(*results):
            assert np.array_equal(got, want)


class TestDualPathway:
    def make(self, seed=0):
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=5, n_inputs=4,
                            n_classes=3, variant="boqsa", pathway="dual")
        rng = np.random.default_rng(seed)
        params = hd.init_head_params(cfg, rng)
        e = rng.normal(size=(4, 5))
        return cfg, params, e

    def test_zeroed_global_pathway_halves_spatial_logits(self):
        cfg, params, e = self.make()
        params.global_.cross.out.data[...] = 0.0
        logits = hd.head_forward(Tensor(e), params, cfg, np.random.default_rng(1)).logits
        slots = hd.refine_slots(Tensor(e), params.spatial.slot, cfg, np.random.default_rng(1))
        _, spatial_logits = hd.multi_head_cross_attention(Tensor(e), slots,
                                                          params.spatial.cross, cfg)
        npt.assert_allclose(logits.data, spatial_logits.data / 2, atol=1e-12)

    def test_averaging_contract(self):
        cfg, params, e = self.make(seed=3)
        out = hd.head_forward(Tensor(e), params, cfg, np.random.default_rng(5))
        logits, attn_s, attn_g = out.logits, out.attn_spatial, out.attn_global
        slots_s = hd.refine_slots(Tensor(e), params.spatial.slot, cfg,
                                  np.random.default_rng(5))
        _, ls = hd.multi_head_cross_attention(Tensor(e), slots_s, params.spatial.cross, cfg)
        e_cls = hd.class_token(Tensor(e))
        slots_g = hd.refine_slots(e_cls, params.global_.slot, cfg, np.random.default_rng(5))
        _, lg = hd.multi_head_cross_attention(e_cls, slots_g, params.global_.cross, cfg)
        npt.assert_allclose(logits.data, (ls.data + lg.data) / 2, atol=1e-12)
        assert attn_s.data.shape == (4, 3)
        assert attn_g.data.shape == (1, 3)
        npt.assert_allclose(attn_g.data.sum(axis=1), 1.0, atol=1e-12)

    def test_slot_noise_draws_spatial_then_global(self):
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=5, n_inputs=4,
                            n_classes=3, variant="sa", pathway="dual")
        params = hd.init_head_params(cfg, np.random.default_rng(0))
        e = np.random.default_rng(1).normal(size=(4, 5))
        out = hd.head_forward(Tensor(e), params, cfg, np.random.default_rng(5))
        rng = np.random.default_rng(5)  # one generator, spatial draw first
        logits = []
        for p, inputs in ((params.spatial, Tensor(e)), (params.global_, hd.class_token(Tensor(e)))):
            slots = hd.refine_slots(inputs, p.slot, cfg, rng)
            logits.append(hd.multi_head_cross_attention(inputs, slots, p.cross, cfg)[1])
        assert np.array_equal(out.logits.data, ad.scale(ad.add(*logits), 0.5).data)

    def test_toy_composition(self):
        # dual run with identity projections on hand-checkable inputs
        cfg = toy_config(dim=2, variant="boqsa", pathway="dual", iters=1)
        rng = np.random.default_rng(0)
        out_matrix = np.array([[1.0, -1.0], [0.5, 2.0]])
        spatial = hd.PathwayParams(toy_slot_params(cfg, init_queries=TOY_Q2),
                                   eye_cross(cfg, rng))
        global_ = hd.PathwayParams(toy_slot_params(cfg, init_queries=TOY_Q2),
                                   eye_cross(cfg, rng))
        spatial.cross.out.data[...] = out_matrix
        global_.cross.out.data[...] = out_matrix
        logits = hd.head_forward(Tensor(TOY_E2), hd.HeadParams(spatial, global_), cfg,
                                 np.random.default_rng(0)).logits
        # each pathway halves its layer-normed init slots, then reads them back
        slots = 0.5 * oracle_layer_norm(TOY_Q2)
        _, want_s = oracle_cross_attention(TOY_E2, slots, out_matrix, 2)
        _, want_g = oracle_cross_attention(TOY_E2.mean(axis=0, keepdims=True), slots,
                                           out_matrix, 2)
        npt.assert_allclose(logits.data, (want_s + want_g) / 2, atol=1e-12)


class TestExplanationMap:
    @pytest.mark.parametrize("variant", hd.VARIANTS)
    @pytest.mark.parametrize("pathway", hd.PATHWAYS)
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_equals_head_forward_map_chunk_after_chunk(self, variant, pathway, heads):
        """The exported map of head_forward (spatial, or global when that is
        the only pathway) bit for bit, over chunks that share one generator,
        the last an unstacked sample; each call leaves the generator as
        head_forward does."""
        cfg = hd.HeadConfig(concepts=5, slot_dim=8, input_dim=6, n_inputs=4, n_classes=3,
                            variant=variant, heads=heads, pathway=pathway)
        params = hd.init_head_params(cfg, np.random.default_rng(0))
        features = np.random.default_rng(1).normal(size=(7, 4, 6))
        forward_rng, map_rng = np.random.default_rng(2), np.random.default_rng(2)
        with ad.no_grad():
            for chunk in (features[:3], features[3:6], features[6]):
                out = hd.head_forward(Tensor(chunk), params, cfg, forward_rng)
                got = hd.explanation_map(Tensor(chunk), params, cfg, map_rng)
                want = out.attn_global if pathway == "global" else out.attn_spatial
                assert got.shape == want.shape
                assert np.array_equal(got.data, want.data)
                assert forward_rng.bit_generator.state == map_rng.bit_generator.state

    def test_dual_skips_the_global_pathway(self):
        """A non-finite value made only in the global pathway of a dual head
        stops head_forward but not the spatial map."""
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=5, n_inputs=4, n_classes=3,
                            variant="sa", pathway="dual")
        params = hd.init_head_params(cfg, np.random.default_rng(0))
        params.global_.cross.out.data[...] = np.finfo(np.float64).max
        e = Tensor(np.random.default_rng(1).normal(size=(2, 4, 5)))
        with ad.no_grad(), np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                hd.head_forward(e, params, cfg, np.random.default_rng(2))
            got = hd.explanation_map(e, params, cfg, np.random.default_rng(2))
            params.global_.cross.out.data[...] = 0.0
            want = hd.head_forward(e, params, cfg, np.random.default_rng(2)).attn_spatial
        assert np.array_equal(got.data, want.data)


    @pytest.mark.parametrize("pathway", hd.PATHWAYS)
    @pytest.mark.parametrize("tensor", ["wv", "out"])
    def test_readback_logits_are_not_made(self, pathway, tensor):
        """An exported pathway's cross.wv or cross.out that makes its readback
        logits overflow stops head_forward but not explanation_map, which
        gives the map of a head with that tensor at zero."""
        cfg = hd.HeadConfig(concepts=3, slot_dim=8, input_dim=5, n_inputs=4, n_classes=3,
                            variant="boqsa", heads=4, pathway=pathway)
        params = hd.init_head_params(cfg, np.random.default_rng(0))
        cross = (params.global_ if pathway == "global" else params.spatial).cross
        getattr(cross, tensor).data[...] = np.finfo(np.float64).max
        e = Tensor(np.random.default_rng(1).normal(size=(2, 4, 5)))
        with ad.no_grad(), np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="^matmul produced non-finite values$"):
                hd.head_forward(e, params, cfg, np.random.default_rng(2))
            got = hd.explanation_map(e, params, cfg, np.random.default_rng(2))
            getattr(cross, tensor).data[...] = 0.0
            out = hd.head_forward(e, params, cfg, np.random.default_rng(2))
        want = out.attn_global if pathway == "global" else out.attn_spatial
        assert np.array_equal(got.data, want.data)


def readback_losses(out, labels, targets):
    """Per-sample losses that read every map more than once, as training's do:
    cross-entropy of the logits, plus each map's explanation loss against
    targets and its sparsity term."""
    loss = losses.cross_entropy(out.logits, labels)
    for attn in out.maps():
        want = targets if attn.shape[-2] == targets.shape[-2] else targets[..., :1, :]
        loss = ad.add(loss, ad.add(losses.explanation_loss(attn, want),
                                   losses.sparsity_loss(attn)))
    return loss


class TestFusedReadback:
    """The three recorded readback ops against the chain of ops they
    replace (tests/composed.py)."""

    @pytest.mark.parametrize("variant", hd.VARIANTS)
    @pytest.mark.parametrize("pathway", hd.PATHWAYS)
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_bit_identical_to_composed_reference(self, variant, pathway, heads, monkeypatch):
        """Maps, logits, every leaf's .grad after per-sample walks over
        chunks of 5, 5 and 2 samples, and the generator state."""
        cfg = hd.HeadConfig(concepts=5, slot_dim=8, input_dim=6, n_inputs=7, n_classes=3,
                            variant=variant, heads=heads, pathway=pathway)
        params = hd.init_head_params(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        features = rng.normal(size=(12, 7, 6))
        labels = rng.integers(3, size=12)
        targets = rng.dirichlet(np.ones(5), size=(12, 7))
        runs = []
        for readback in (hd.multi_head_cross_attention, composed.multi_head_cross_attention):
            monkeypatch.setattr(hd, "multi_head_cross_attention", readback)
            params.reset_grads()
            forward_rng, outputs = np.random.default_rng(2), []
            for chunk in (slice(0, 5), slice(5, 10), slice(10, 12)):
                out = hd.head_forward(Tensor(features[chunk]), params, cfg, forward_rng)
                loss = readback_losses(out, labels[chunk], targets[chunk])
                ad.backward(loss, per_sample=True)
                outputs += [out.logits.data] + [a.data for a in out.maps()]
            runs.append((outputs, [t.grad for _, t in params.named()],
                         forward_rng.bit_generator.state))
        (outputs, grads, state), (want_outputs, want_grads, want_state) = runs
        assert len(outputs) == len(want_outputs)
        for got, want in zip(outputs, want_outputs):
            assert got.shape == want.shape and np.array_equal(got, want)
        for (name, _), got, want in zip(params.named(), grads, want_grads):
            assert (got is None) == (want is None), name
            assert got is None or np.array_equal(got, want), name
        assert state == want_state

    @pytest.mark.parametrize("heads", [1, 4])
    def test_sliced_rows_bit_identical_to_composed_reference(self, heads):
        """A stack as large as the explain workload's, whose softmax and
        softmax VJP reduce their rows by slices: the map, the logits and
        every gradient equal the chain's."""
        cfg = hd.HeadConfig(concepts=12, slot_dim=32, input_dim=32, n_inputs=32, n_classes=4,
                            heads=heads)
        rng = np.random.default_rng(3)
        p = hd.init_cross_params(cfg, rng)
        e, slots_np = rng.normal(size=(64, 32, 32)), rng.normal(size=(64, 12, 32))
        assert 64 * 32 * heads >= hd.SLICED_SUM_ROWS
        weight = Tensor(rng.normal(size=(64, 32, 12)))
        positions = Tensor(rng.normal(size=(12, 32)), requires_grad=True)
        results = []
        for readback in (hd.multi_head_cross_attention, composed.multi_head_cross_attention):
            for param in [positions] + [param for _, param in p.named()]:
                param.reset_grad()
            slots = ad.add(Tensor(slots_np), positions)  # per-sample slots that take a delta
            attn, logits = readback(Tensor(e), slots, p, cfg)
            loss = ad.add(losses.cross_entropy(logits, np.arange(64) % 4),
                          ad.reduce_sum(ad.mul(attn, weight), keep=1))
            ad.backward(loss, per_sample=True)
            results.append([attn.data, logits.data, positions.grad]
                           + [param.grad for _, param in p.named()])
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    @staticmethod
    def overflowing(poke, heads):
        """A readback whose values overflow where poke says: one of its
        cross-attention tensors scaled past the float range, or ("mean")
        per-row class scores near 1e308 whose row sum overflows."""
        cfg = hd.HeadConfig(concepts=3, slot_dim=8, input_dim=5, n_inputs=4, n_classes=2,
                            heads=heads)
        rng = np.random.default_rng(0)
        p = hd.init_cross_params(cfg, rng)
        e = rng.normal(size=(2, 4, 5))
        slots = rng.normal(size=(2, 3, 8))
        if poke == "mean":
            slots[...] = slots[:, :1]  # equal slot rows: every merged row is v's row
            v = slots[0, 0] @ p.wv.data
            p.out.data[:, 0] = v * (1e308 / (v @ v))
        else:
            scaled(getattr(p, poke), 1.5e308)
        return cfg, p, Tensor(e), Tensor(slots, requires_grad=True)

    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("poke,op", [("wq", "matmul"), ("wk", "matmul"), ("wv", "matmul"),
                                         ("out", "matmul"), ("mean", "reduce_mean_axis")])
    def test_overflow_names_the_composed_op(self, poke, op, grad, heads):
        cfg, p, e, slots = self.overflowing(poke, heads)
        messages = []
        with np.errstate(all="ignore"), contextlib.nullcontext() if grad else ad.no_grad():
            for readback in (hd.multi_head_cross_attention, composed.multi_head_cross_attention):
                with pytest.raises(NumericError) as err:
                    readback(e, slots, p, cfg)
                messages.append(str(err.value))
        assert messages[0] == messages[1] == f"{op} produced non-finite values"

    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("grad", [True, False])
    def test_finite_pass_screens_scores_and_logits(self, grad, heads, monkeypatch):
        """A finite readback checks the scaled scores and the logits only,
        records its outputs unchecked and does not replay."""
        cfg, p, e, slots = self.overflowing("mean", heads)
        p.out.data[...] = 1.0
        checks, checked = [], ad.checked

        def spy(data, op):
            checks.append((op, data.shape))
            return checked(data, op)

        monkeypatch.setattr(ad, "checked", spy)
        with contextlib.nullcontext() if grad else ad.no_grad():
            hd.multi_head_cross_attention(e, slots, p, cfg)
        scores = (2, heads, 4, 3) if heads > 1 else (2, 4, 3)
        assert checks == [("scale", scores), ("reduce_mean_axis", (2, 2))]

    @pytest.mark.parametrize("n", range(1, 20))
    def test_row_sum_and_max_equal_numpy(self, n):
        """_row_sum is np.sum over the last axis bit for bit and _row_max its
        max, by slices and by reduce: rows of 1 to 19 entries, on both sides
        of SLICED_ROW and of eight entries, and row counts on both sides of
        SLICED_SUM_ROWS and SLICED_MAX_ROWS, with rows of signed zeros and
        of sums that round differently in another order."""
        rng = np.random.default_rng(n)
        shape = (2, hd.SLICED_SUM_ROWS // 2 + 1, n)
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        x[0, 0] = -0.0
        x[0, 1] = 0.0
        x[0, 2, ::2] = -0.0
        for rows in (x, x[0], x[1, :hd.SLICED_MAX_ROWS - 1], x[1, :5]):
            got = hd._row_sum(rows)
            want = rows.sum(axis=-1, keepdims=True)
            assert got.shape == want.shape
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(hd._row_max(rows), rows.max(axis=-1, keepdims=True))


class TestHeadInvariants:
    def test_faithfulness_random_draws(self):
        for seed in range(20):
            cfg = hd.HeadConfig(concepts=4, slot_dim=3, input_dim=5, n_inputs=6,
                                n_classes=4, variant="boqsa")
            params, e, rng = random_head(cfg, seed)
            slots = hd.refine_slots(Tensor(e), params.spatial.slot, cfg, rng)
            attn, logits = hd.multi_head_cross_attention(Tensor(e), slots,
                                                         params.spatial.cross, cfg)
            dec = hd.decomposed_logits(slots, params.spatial.cross, hd.relevance(attn), cfg)
            assert np.max(np.abs(dec.data - logits.data)) <= 1e-9

    def test_gamma_probability_vector(self):
        for seed in range(20):
            cfg = hd.HeadConfig(concepts=5, slot_dim=4, input_dim=3, n_inputs=4,
                                n_classes=2, variant="sa")
            params, e, rng = random_head(cfg, seed)
            slots = hd.refine_slots(Tensor(e), params.spatial.slot, cfg, rng)
            attn, _ = hd.multi_head_cross_attention(Tensor(e), slots, params.spatial.cross, cfg)
            rel = hd.relevance(attn).data
            assert np.all(rel >= 0)
            assert abs(rel.sum() - 1.0) <= 1e-12

    def test_full_forward_input_permutation(self):
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=5, n_inputs=6,
                            n_classes=3, variant="sa")
        params, e, _ = random_head(cfg, seed=9)
        perm = np.random.default_rng(1).permutation(6)
        slots_a = hd.refine_slots(Tensor(e), params.spatial.slot, cfg,
                                  np.random.default_rng(2))
        slots_b = hd.refine_slots(Tensor(e[perm]), params.spatial.slot, cfg,
                                  np.random.default_rng(2))
        npt.assert_allclose(slots_b.data, slots_a.data, atol=1e-12)
        attn_a, logits_a = hd.multi_head_cross_attention(Tensor(e), slots_a,
                                                         params.spatial.cross, cfg)
        attn_b, logits_b = hd.multi_head_cross_attention(Tensor(e[perm]), slots_b,
                                                         params.spatial.cross, cfg)
        npt.assert_allclose(logits_b.data, logits_a.data, atol=1e-12)
        npt.assert_allclose(attn_b.data, attn_a.data[perm], atol=1e-12)

    def test_slot_permutation_equivariance(self):
        # sa-style loop run on a permuted initial slot matrix, positions zero
        cfg = hd.HeadConfig(concepts=4, slot_dim=3, input_dim=5, n_inputs=6,
                            n_classes=3, variant="sa", iters=2)
        rng = np.random.default_rng(3)
        p = hd.init_slot_params(cfg, rng)
        p.positions.data[...] = 0.0
        cross = hd.init_cross_params(cfg, rng)
        e = rng.normal(size=(6, 5))
        s0 = rng.normal(size=(4, 3))
        perm = np.array([2, 0, 3, 1])

        def run(start):
            inputs = ad.layer_norm(Tensor(e), p.ln_input_gain, p.ln_input_bias)
            slots, kv = Tensor(start), None
            for _ in range(cfg.iters):
                slots, attn, kv = hd.slot_step(slots, inputs, p, cfg, kv)
            slots = ad.add(slots, p.positions)
            attn_ca, logits = hd.multi_head_cross_attention(Tensor(e), slots, cross, cfg)
            return slots.data, attn, attn_ca.data, logits.data

        slots_a, attn_a, ca_a, logits_a = run(s0)
        slots_b, attn_b, ca_b, logits_b = run(s0[perm])
        npt.assert_allclose(slots_b, slots_a[perm], atol=1e-12)
        npt.assert_allclose(attn_b, attn_a[perm], atol=1e-12)
        npt.assert_allclose(ca_b, ca_a[:, perm], atol=1e-12)
        npt.assert_allclose(logits_b, logits_a, atol=1e-12)

    def test_argmax_invariant_to_logit_shift(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            logits = rng.normal(size=5)
            assert np.argmax(logits) == np.argmax(logits + rng.normal())

    def test_end_to_end_gradient_check_small(self):
        from concepthead import losses
        cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=4, n_inputs=3,
                            n_classes=3, variant="boqsa", iters=2, heads=2,
                            pathway="spatial")
        rng = np.random.default_rng(0)
        params = hd.init_head_params(cfg, rng)
        e = rng.normal(size=(3, 4))
        target = np.zeros((3, 3))
        target[:, 1] = 1.0
        w = losses.LossWeights(lambda_expl=1.0, lambda_sparse=0.5)

        def f():
            out = hd.head_forward(Tensor(e), params, cfg, np.random.default_rng(0))
            return losses.total_loss(losses.cross_entropy(out.logits, 1),
                                     losses.explanation_loss(out.attn_spatial, target),
                                     losses.sparsity_loss(out.attn_spatial), w)

        report = ad.grad_check(f, list(params.named()), h=1e-6, tol=1e-6)
        assert report.passed, (report.max_rel_error, report.worst)


class TestBatchedForward:
    @pytest.mark.parametrize("variant", hd.VARIANTS)
    @pytest.mark.parametrize("pathway", hd.PATHWAYS)
    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("n_inputs", [1, 8, 16, 32])
    def test_stack_equals_per_sample_calls(self, variant, pathway, heads, n_inputs):
        # the benchmark's shapes: D = d = 32, C = 12, 4 classes
        cfg = hd.HeadConfig(concepts=12, slot_dim=32, input_dim=32, n_inputs=n_inputs,
                            n_classes=4, variant=variant, heads=heads, pathway=pathway)
        rng = np.random.default_rng(n_inputs + 100 * heads)
        params = hd.init_head_params(cfg, rng)
        stack = rng.normal(size=(5, n_inputs, 32))
        batched = hd.head_forward(Tensor(stack), params, cfg, np.random.default_rng(9))
        per_sample_rng = np.random.default_rng(9)
        for i in range(5):
            one = hd.head_forward(Tensor(stack[i]), params, cfg, per_sample_rng)
            assert np.array_equal(batched.logits.data[i], one.logits.data)
            for got, want in zip(batched.maps(), one.maps()):
                assert np.array_equal(got.data[i], want.data)

    def test_one_sample_stack_gives_per_sample_gradients(self):
        cfg = hd.HeadConfig(concepts=3, slot_dim=8, input_dim=6, n_inputs=4, n_classes=3,
                            variant="boqsa", heads=2, pathway="dual")
        params = hd.init_head_params(cfg, np.random.default_rng(0))
        e = np.random.default_rng(1).normal(size=(4, 6))
        grads = []
        for x, label in ((e, 2), (e[None], [2])):
            params.reset_grads()
            out = hd.head_forward(Tensor(x), params, cfg, np.random.default_rng(2))
            loss = ad.add(losses.cross_entropy(out.logits, label),
                          losses.sparsity_loss(out.attn_spatial))
            ad.backward(loss)
            grads.append([None if p.grad is None else p.grad.copy()
                          for _, p in params.named()])
        for got, want in zip(*grads):
            assert (got is None and want is None) or np.array_equal(got, want)
