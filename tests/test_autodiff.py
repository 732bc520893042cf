import math
import weakref

import numpy as np
import numpy.testing as npt
import pytest

import composed
from concepthead import autodiff as ad
from concepthead.errors import NumericError, RecordConsumedError, ShapeError


def t(values, grad=True):
    return ad.Tensor(np.asarray(values, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(t(np.eye(2)), t([[3, 4], [5, 6]]))
        npt.assert_array_equal(out.data, [[3, 4], [5, 6]])

    def test_selector_row(self):
        out = ad.matmul(t([[1, 0]]), t([[2], [7]]))
        npt.assert_array_equal(out.data, [[2]])

    def test_hand_product(self):
        out = ad.matmul(t([[1, 2], [3, 4]]), t([[5, 6], [7, 8]]))
        npt.assert_array_equal(out.data, [[19, 22], [43, 50]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 2))))


class TestSoftmax:
    def test_symmetric(self):
        npt.assert_allclose(composed.softmax_axis(t([0.0, 0.0]), 0).data, [0.5, 0.5], atol=1e-15)

    def test_analytic(self):
        npt.assert_allclose(composed.softmax_axis(t([0.0, math.log(2)]), 0).data,
                            [1 / 3, 2 / 3], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5))
        for c in (0.5, -3.0, 1234.5):
            a = composed.softmax_axis(t(x), 1).data
            b = composed.softmax_axis(t(x + c), 1).data
            npt.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=(3, 6)) * 10
            out = composed.softmax_axis(t(x), 1).data
            assert np.all(out >= 0)
            npt.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
            out0 = composed.softmax_axis(t(x), 0).data
            npt.assert_allclose(out0.sum(axis=0), 1.0, atol=1e-12)

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            composed.softmax_axis(t([[1.0]]), 2)

    @staticmethod
    def tied_rows(shape, axis, seed):
        """Values from a few levels, so most rows tie for their max, with
        -0.0 and +0.0 in every row along axis and rows of signed zeros only."""
        rng = np.random.default_rng(seed)
        x = rng.choice([-2.5, -1.0, -0.0, 0.0, 0.75, 3.0], size=shape)
        x = np.moveaxis(x, axis, -1)
        if x.shape[-1] > 1:
            x[..., 0], x[..., -1] = -0.0, 0.0
        x[:2] = rng.choice([-0.0, 0.0], size=x[:2].shape)
        return np.moveaxis(x, -1, axis)

    @pytest.mark.parametrize("axis", [-1, 0])
    @pytest.mark.parametrize("n", range(1, 18))
    def test_axis_max_equals_numpy_max(self, axis, n):
        """axis_max gives x.max(axis, keepdims=True) for axis lengths on both
        sides of MAX_BY_SLICES, with ties and signed zeros, along the last
        axis and the first, of 2-D and 3-D arrays."""
        assert composed.MAX_BY_SLICES == 16
        for shape in ((5, n), (3, 4, n)):
            shape = shape if axis == -1 else shape[::-1]
            x = self.tied_rows(shape, axis, n)
            got, want = composed.axis_max(x, axis), x.max(axis=axis, keepdims=True)
            assert got.shape == want.shape and np.array_equal(got, want)
            x = np.random.default_rng(n).normal(size=shape) * 1e300
            assert np.array_equal(composed.axis_max(x, axis), x.max(axis=axis, keepdims=True))

    @pytest.mark.parametrize("axis", [-1, 0, 1])
    @pytest.mark.parametrize("n", [2, 12, composed.MAX_BY_SLICES, composed.MAX_BY_SLICES + 1, 32])
    def test_softmax_bits_on_both_sides_of_threshold(self, axis, n):
        """softmax_axis is exp(x - x.max) / sum bit for bit whichever way its
        row max is taken, also on rows that hold both -0.0 and +0.0."""
        shape = [6, 5, 7]
        shape[axis] = n
        rng = np.random.default_rng(n)
        for x in (self.tied_rows(tuple(shape), axis, n), rng.normal(size=shape) * 30.0):
            e = np.exp(x - x.max(axis=axis, keepdims=True))
            want = e / e.sum(axis=axis, keepdims=True)
            got = composed.softmax_axis(t(x), axis).data
            assert got.tobytes() == want.tobytes()


class TestLayerNorm:
    def test_constant_row(self):
        out = ad.layer_norm(t([[5.0, 5.0, 5.0]]), t(np.ones((1, 3))),
                            t(np.zeros((1, 3))))
        npt.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_already_normalized(self):
        # population variance 1, so the 1e-5 in the denominator is all that moves it
        out = ad.layer_norm(t([[1.0, -1.0]]), t(np.ones((1, 2))), t(np.zeros((1, 2))))
        npt.assert_allclose(out.data, [[1.0, -1.0]] / np.sqrt(1.0 + 1e-5), atol=1e-15)

    def test_affine(self):
        # row [0, 2]: mean 1, population std 1 -> normalized [-1, 1] / sqrt(1 + 1e-5),
        # then *3 + 1
        out = ad.layer_norm(t([[0.0, 2.0]]), t([[3.0, 3.0]]), t([[1.0, 1.0]]))
        npt.assert_allclose(out.data, 3.0 * np.array([[-1.0, 1.0]]) / np.sqrt(1.0 + 1e-5) + 1.0,
                            atol=1e-15)


class TestElementwise:
    def test_sigmoid_zero(self):
        assert composed.sigmoid(t([0.0])).data[0] == 0.5

    def test_tanh_zero(self):
        assert composed.tanh(t([0.0])).data[0] == 0.0

    def test_log_e(self):
        npt.assert_allclose(ad.clamped_log(t([math.e])).data, [1.0], atol=1e-15)

    def test_clamped_log_floors_non_positive_entries(self):
        x = t([-1.0, 0.0, 1e-9, 2.0])
        out = ad.clamped_log(x)
        npt.assert_array_equal(out.data[:3], math.log(1e-9))
        ad.backward(ad.reduce_sum(out))
        npt.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 0.5])  # no slope at the floor

    def test_broadcast_restricted_to_row_vectors(self):
        with pytest.raises(ShapeError):
            ad.add(t(np.zeros((2, 3))), t(np.zeros((3, 2))))
        with pytest.raises(ShapeError):
            ad.mul(t(np.zeros((2, 3))), t(np.zeros((2, 1))))  # column vector


class TestReduceMean:
    def test_over_rows(self):
        npt.assert_array_equal(ad.reduce_mean_axis(t([[1, 3], [5, 7]]), 0).data, [3, 5])

    def test_length_one_axis_is_identity(self):
        npt.assert_array_equal(ad.reduce_mean_axis(t([[1.5, 2.5]]), 0).data, [1.5, 2.5])

    def test_column_means(self):
        out = ad.reduce_mean_axis(t([[0.7311, 0.2689], [0.5, 0.5]]), 0)
        npt.assert_allclose(out.data, [0.61555, 0.38445], atol=1e-15)

    def test_zero_length_axis(self):
        with pytest.raises(ShapeError):
            ad.reduce_mean_axis(t(np.zeros((0, 2))), 0)


class TestBackward:
    def test_sum_gives_ones(self):
        x = t(np.arange(6.0).reshape(2, 3))
        ad.backward(ad.reduce_sum(x))
        npt.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_scalar_product(self):
        x, y = t(np.asarray(3.0)), t(np.asarray(4.0))
        ad.backward(ad.mul(x, y))
        assert x.grad == 4.0 and y.grad == 3.0

    def test_softmax_ce_identity(self):
        # d(lse(z) - z_y)/dz = softmax(z) - onehot(y), checked against finite differences
        logits = t([0.7, -0.4])
        loss = ad.sub(ad.log_sum_exp(logits), ad.pick(logits, 0))
        ad.backward(loss)
        p = np.exp(logits.data) / np.exp(logits.data).sum()
        npt.assert_allclose(logits.grad, p - np.array([1.0, 0.0]), atol=1e-12)

        def f():
            return ad.sub(ad.log_sum_exp(logits), ad.pick(logits, 0))

        report = ad.grad_check(f, [("logits", logits)], h=1e-6, tol=1e-6)
        assert report.passed

    def test_two_backwards_double_gradients(self):
        # the walk consumes the record: a second walk raises instead of adding
        x = t([[1.0, 2.0], [3.0, 4.0]])
        w = t([[0.5], [0.25]])
        hidden = ad.matmul(x, w)
        loss = ad.reduce_sum(composed.tanh(hidden))
        ad.backward(loss)
        gx, gw = x.grad.copy(), w.grad.copy()
        with pytest.raises(RecordConsumedError, match="already walked"):
            ad.backward(loss)
        with pytest.raises(RecordConsumedError, match="already walked"):
            ad.backward(ad.reduce_sum(hidden))  # a new loss over the walked record
        npt.assert_array_equal(x.grad, gx)
        npt.assert_array_equal(w.grad, gw)

    def test_reset_restores_idempotence(self):
        x = t([1.0, 2.0])

        def forward():
            return ad.reduce_sum(ad.mul(x, x))

        ad.backward(forward())
        first = x.grad.copy()
        x.reset_grad()
        ad.backward(forward())
        npt.assert_array_equal(x.grad, first)

    def test_fanout_accumulates(self):
        x = t(np.asarray(2.0))
        loss = ad.add(ad.mul(x, x), ad.scale(x, 3.0))  # x^2 + 3x -> 2x + 3 = 7
        ad.backward(loss)
        assert x.grad == pytest.approx(7.0, abs=1e-12)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            ad.backward(t([1.0, 2.0]))


class TestLeanTape:
    def test_only_leaves_get_grad(self):
        x, w = t(np.ones((2, 3))), t(np.full((3, 2), 0.5))
        hidden = ad.matmul(x, w)
        out = composed.tanh(hidden)
        loss = ad.reduce_sum(out)
        ad.backward(loss)
        assert x.grad is not None and w.grad is not None
        assert hidden.grad is None and out.grad is None and loss.grad is None

    def test_add_to_itself_is_exact(self):
        x = t([[0.1, -2.5, 3.0]])
        ad.backward(ad.reduce_sum(ad.add(x, x)))
        npt.assert_array_equal(x.grad, [[2.0, 2.0, 2.0]])
        y = t([[0.3, 0.7]])
        doubled = ad.add(y, y)
        ad.backward(ad.reduce_sum(ad.mul(doubled, doubled)))  # d/dy (2y)^2 = 8y
        npt.assert_array_equal(y.grad, 8.0 * y.data)

    def test_fanout_sums_in_walk_order(self):
        x = t([[0.25, -1.5]])

        def forward():
            h = ad.scale(x, 3.0)
            return h, ad.reduce_sum(ad.add(ad.add(ad.mul(h, h), h), composed.tanh(h)))

        h, loss = forward()
        ad.backward(loss)
        g = 2.0 * h.data + 1.0 + (1.0 - np.tanh(h.data) ** 2)
        npt.assert_allclose(x.grad, 3.0 * g, rtol=0, atol=1e-14)
        first = x.grad.copy()
        x.reset_grad()
        ad.backward(forward()[1])
        npt.assert_array_equal(x.grad, first)

    def test_walk_frees_each_node_as_it_passes(self):
        x = t(np.ones((2, 2)))
        inner = composed.tanh(x)
        outer = ad.scale(inner, 2.0)
        loss = ad.reduce_sum(outer)
        node, seen = inner._node, []
        # an op output's entry is its node; the leaf is its own entry
        assert outer._node._parents == (node,) and node._parents == (x,)
        walk_inner = node._vjp

        def spy(g):
            seen.append((outer._node._vjp, outer._node._parents,
                         loss._node._vjp, loss._node._parents))
            return walk_inner(g)

        node._vjp = spy
        ad.backward(loss)
        assert seen == [(None, None, None, None)]  # consumers freed before inner ran
        assert node._vjp is None and node._parents is None
        # the leaf keeps no node and takes a new forward
        assert x._node is None and x.grad is not None
        ad.backward(ad.reduce_sum(composed.tanh(x)))

    def test_record_keeps_only_what_vjps_read(self):
        x, w = t(np.ones((2, 3))), t(np.full((3, 2), 0.5))
        product = ad.matmul(x, w)
        summed = ad.add(product, product)  # add's VJP reads neither input
        out = composed.tanh(summed)  # tanh's VJP reads its output
        loss = ad.reduce_sum(ad.mul(out, out))
        unread = [weakref.ref(product.data), weakref.ref(summed.data)]
        read = weakref.ref(out.data)
        del product, summed, out
        assert [ref() for ref in unread] == [None, None]  # freed, the record alive
        assert read() is not None
        ad.backward(loss)
        assert read() is None  # the walk dropped the last VJP that read it


SHARED_CASES = {
    "matmul_shared_right": lambda x, p: ad.matmul(x, p["w"]),
    "matmul_shared_left": lambda x, p: ad.matmul(p["square"], x),
    "matmul_stacked": lambda x, p: ad.matmul(ad.matmul(x, p["w"]),
                                             composed.transpose(ad.matmul(x, p["w"]))),
    "matmul_of_shared": lambda x, p: ad.matmul(x, ad.matmul(composed.transpose(p["trailing"]),
                                                            p["square"])),
    "add_row": lambda x, p: ad.add(x, p["row"]),
    "add_trailing": lambda x, p: ad.add(x, p["trailing"]),
    "mul_row": lambda x, p: ad.mul(x, p["row"]),
    "mul_trailing": lambda x, p: ad.mul(x, p["trailing"]),
    "add_row_to_vectors": lambda x, p: ad.add(ad.reduce_mean_axis(x, -2), p["row"]),
    "layer_norm": lambda x, p: ad.layer_norm(x, p["gain"], p["bias"]),
    # a shared tensor made per-sample by a constant, as boqsa's slot init does
    "zeros_plus_shared": lambda x, p: ad.mul(
        ad.add(ad.Tensor(np.zeros(x.shape[:1] + p["trailing"].shape)), p["trailing"]), x),
    "exp_log_sigma": lambda x, p: ad.add(ad.mul(x, ad.exp(p["log_sigma"])), p["row"]),
    "fan_out": lambda x, p: ad.add(ad.layer_norm(ad.add(x, p["row"]), p["gain"], p["bias"]),
                                   ad.mul(x, p["row"])),
}
# a (1, 4) row broadcasts over one-row maps too (the global pathway's shape)
ONE_ROW_CASES = {"matmul_shared_right", "matmul_stacked", "add_row", "mul_row",
                 "add_row_to_vectors", "layer_norm", "exp_log_sigma", "fan_out"}


class TestPerSampleWalk:
    """One per-sample walk over a (B, ...) stack gives every shared leaf the
    gradient of B one-sample walks run in sample order, bit for bit."""

    rng = np.random.default_rng(11)
    w = rng.normal(size=(4, 3))
    square = rng.normal(size=(3, 3))
    row = rng.normal(size=(1, 4))
    trailing = rng.normal(size=(3, 4))
    gain, bias = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
    log_sigma = rng.normal(size=(1, 4)) * 0.1

    def params(self):
        return {name: t(getattr(self, name).copy())
                for name in ("w", "square", "row", "trailing", "gain", "bias", "log_sigma")}

    @staticmethod
    def loss(y):
        return ad.reduce_sum(composed.tanh(y), keep=1)

    @pytest.mark.parametrize("case,rows,samples", [
        (case, rows, samples) for case in sorted(SHARED_CASES)
        for rows in ((3, 1) if case in ONE_ROW_CASES else (3,)) for samples in (1, 5)])
    def test_matches_one_sample_walks(self, case, rows, samples):
        stack = np.random.default_rng(12).normal(size=(samples, rows, 4))
        build = SHARED_CASES[case]
        batched = self.params()
        ad.backward(ad.scale(self.loss(build(ad.Tensor(stack), batched)), 0.25),
                    per_sample=True)
        single = self.params()
        for i in range(samples):
            ad.backward(ad.scale(self.loss(build(ad.Tensor(stack[i:i + 1]), single)), 0.25))
        reached = 0
        for name, p in batched.items():
            assert (p.grad is None) == (single[name].grad is None), name
            if p.grad is not None:
                reached += 1
                assert np.array_equal(p.grad, single[name].grad), name
        assert reached > 0

    def test_adds_into_existing_grads_in_sample_order(self):
        stack = np.random.default_rng(13).normal(size=(4, 3, 4))
        batched, single = self.params(), self.params()
        for p in (batched, single):
            p["w"].grad = np.full((4, 3), 0.1)
        ad.backward(self.loss(ad.matmul(ad.Tensor(stack), batched["w"])), per_sample=True)
        for i in range(4):
            ad.backward(self.loss(ad.matmul(ad.Tensor(stack[i:i + 1]), single["w"])))
        assert np.array_equal(batched["w"].grad, single["w"].grad)

    def test_loss_must_be_a_vector_over_constant_samples(self):
        with pytest.raises(ShapeError, match=r"\(B,\) loss"):
            ad.backward(ad.reduce_sum(t(np.ones((2, 3)))), per_sample=True)
        stack = t(np.ones((3, 2, 4)))  # a stack that requires grad is not shared
        with pytest.raises(ShapeError, match="sample axis comes from a constant"):
            ad.backward(ad.reduce_sum(ad.matmul(stack, t(np.ones((4, 2)))), keep=1),
                        per_sample=True)


class TestFirstFold:
    """A leaf's first fold, into a .grad of None, gives the bits of adding its
    slices to zeros in sample order."""

    @staticmethod
    def concatenating_fold(slices):
        zeros = np.zeros_like(slices[0])
        return np.add.reduce(np.concatenate([zeros[None], slices]), axis=0)

    @pytest.mark.parametrize("samples", [1, 2, 5])
    def test_signed_zero_deltas(self, samples):
        # per sample, the delta to w is that sample's constant: every sign of
        # zero, alone and mixed with values that cancel to zero
        rng = np.random.default_rng(samples)
        stack = rng.choice([-0.0, 0.0, 1.5, -1.5, 1e-300], size=(samples, 1, 6))
        stack[:, 0, :2] = -0.0
        stack[:, 0, 2] = 0.0
        w = t(np.ones((1, 6)))
        ad.backward(ad.reduce_sum(ad.mul(ad.Tensor(stack), w), keep=1), per_sample=True)
        want = self.concatenating_fold(stack)
        assert w.grad.tobytes() == want.tobytes()
        assert not np.signbit(w.grad[0, :3]).any()

    def test_scalar_walk(self):
        w = t(np.ones((1, 3)))
        ad.backward(ad.reduce_sum(ad.mul(ad.Tensor([[-0.0, 2.0, -0.0]]), w)))
        want = self.concatenating_fold(np.array([[[-0.0, 2.0, -0.0]]]))
        assert w.grad.tobytes() == want.tobytes()


class TestNoGradientForConstants:
    """An input that takes no gradient gets None from its op's VJP, decided
    when the op is recorded."""

    def test_matmul_mul_and_layer_norm(self):
        rng = np.random.default_rng(0)
        constant, w = ad.Tensor(rng.normal(size=(2, 3, 4))), t(rng.normal(size=(4, 4)))
        row = t(rng.normal(size=(1, 4)))
        cases = [(ad.matmul(constant, w), [None, "grad"]),
                 (ad.matmul(w, ad.Tensor(rng.normal(size=(4, 2)))), ["grad", None]),
                 (ad.mul(constant, row), [None, "grad"]),
                 (ad.mul(row, ad.Tensor(rng.normal(size=(1, 4)))), ["grad", None]),
                 (ad.layer_norm(constant, row, row), [None, "grad", "grad"]),
                 (ad.layer_norm(ad.matmul(constant, w), ad.Tensor(np.ones((1, 4))), row),
                  ["grad", None, "grad"])]
        for out, want in cases:
            got = out._node._vjp(np.ones(out.shape))
            assert ["grad" if c is not None else None for c in got] == want

    def test_constant_operand_gradient_unchanged(self):
        rng = np.random.default_rng(1)
        x, w = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        grads = []
        for x_grad in (True, False):
            wt = t(w)
            ad.backward(ad.reduce_sum(composed.tanh(ad.matmul(t(x, grad=x_grad), wt))))
            grads.append(wt.grad)
        assert np.array_equal(*grads)


class TestSharedAtRecord:
    """A record entry is shared (carries no sample axis) or not from the
    moment its op is recorded."""

    def test_op_over_parameters_only_is_shared(self):
        log_sigma = t(np.zeros((1, 4)))
        assert log_sigma.shared and ad.exp(log_sigma).shared

    def test_op_over_a_constant_is_not_shared(self):
        constant = ad.Tensor(np.ones((2, 1, 4)))
        assert not constant.shared
        product = ad.mul(constant, ad.exp(t(np.zeros((1, 4)))))
        assert product.requires_grad and not product.shared
        assert not ad.add(ad.Tensor(np.zeros((2, 3, 4))), t(np.ones((3, 4)))).shared

    def test_per_sample_loss_of_parameters_only_is_refused_before_any_grad(self):
        w, v = t(np.ones((3, 4))), t(np.ones(3))
        w.grad = np.full((3, 4), 0.5)
        for loss in (ad.reduce_sum(ad.mul(w, w), keep=1), ad.add(v, v), v):
            with pytest.raises(ShapeError, match="sample axis comes from a constant"):
                ad.backward(loss, per_sample=True)
            assert np.array_equal(w.grad, np.full((3, 4), 0.5)) and v.grad is None


class TestLeadingAxis:
    def test_stack_matches_per_sample_calls(self):
        rng = np.random.default_rng(4)
        xs, w = rng.normal(size=(5, 8, 32)), rng.normal(size=(32, 32))
        gain, bias = rng.normal(size=(1, 32)), rng.normal(size=(1, 32))
        row = rng.normal(size=(1, 32))

        def chain(x):
            y = ad.layer_norm(ad.matmul(t(x), t(w)), t(gain), t(bias))
            y = composed.row_normalize(composed.softmax_axis(ad.mul(ad.add(y, t(row)), t(row)), -2))
            return ad.reduce_sum(y, keep=y.data.ndim - 2), ad.log_sum_exp(y)

        stacked = chain(xs)
        for i in range(5):
            for got, want in zip(stacked, chain(xs[i])):
                assert np.array_equal(got.data[i], want.data)

    def test_broadcast_rules(self):
        stack = t(np.ones((2, 3, 4)))
        assert ad.add(stack, t(np.ones((3, 4)))).shape == (2, 3, 4)
        assert ad.mul(stack, t(np.ones((1, 4)))).shape == (2, 3, 4)
        with pytest.raises(ShapeError):
            ad.add(stack, t(np.ones((2, 1, 4))))
        with pytest.raises(ShapeError):
            ad.mul(stack, t(np.ones((3, 1))))
        with pytest.raises(ShapeError):
            ad.matmul(stack, t(np.ones((3, 4, 2))))

    def test_shared_weight_gradient_is_the_lone_slice_for_one_sample(self):
        rng = np.random.default_rng(2)
        x, g = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
        w = t(rng.normal(size=(4, 3)))
        ad.backward(ad.reduce_sum(ad.mul(ad.matmul(t(x[None]), w), ad.Tensor(g[None]))))
        assert np.array_equal(w.grad, x.T @ g)

    def test_pick_and_log_sum_exp_rows(self):
        a = t([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        npt.assert_array_equal(ad.pick(a, np.array([2, 0])).data, [3.0, 0.0])
        npt.assert_allclose(ad.log_sum_exp(a).data,
                            [math.log(math.e + math.e ** 2 + math.e ** 3), math.log(3.0)],
                            rtol=0, atol=1e-15)
        with pytest.raises(IndexError):
            ad.pick(a, np.array([3, 0]))
        with pytest.raises(ShapeError):
            ad.pick(a, 1)


class TestGradCheck:
    def test_quadratic(self):
        theta = t(np.asarray([3.0]))

        def f():
            return ad.reduce_sum(ad.mul(theta, theta))

        report = ad.grad_check(f, [("theta", theta)], h=1e-5, tol=1e-6)
        assert report.passed
        theta.reset_grad()
        ad.backward(f())
        assert theta.grad[0] == pytest.approx(6.0, abs=1e-12)

    def test_constant(self):
        theta = t(np.asarray([1.0]))
        c = ad.Tensor(np.asarray(5.0))

        def f():
            return ad.add(ad.scale(ad.reduce_sum(theta), 0.0), c)

        report = ad.grad_check(f, [("theta", theta)], h=1e-6, tol=1e-6)
        assert report.passed and report.max_rel_error == 0.0

    def test_every_op_random_inputs(self):
        rng = np.random.default_rng(7)
        x = t(rng.normal(size=(3, 4)))
        w = t(rng.normal(size=(4, 3)))
        row = t(rng.normal(size=(1, 4)))
        gain = t(rng.normal(size=(1, 4)))
        bias = t(rng.normal(size=(1, 4)))
        pos = t(rng.uniform(0.5, 2.0, size=(3, 4)))
        vec = t(rng.normal(size=(4,)))
        mat = t(rng.normal(size=(4, 2)))
        weight = ad.Tensor(rng.normal(size=(3, 4)))
        square = ad.Tensor(rng.normal(size=(3, 3)))

        cases = {
            "matmul": lambda: ad.reduce_sum(composed.tanh(ad.matmul(x, w))),
            "transpose": lambda: ad.reduce_sum(ad.mul(composed.transpose(x), composed.transpose(weight))),
            "add_rowvec": lambda: ad.reduce_sum(ad.mul(ad.add(x, row), weight)),
            "sub_mul": lambda: ad.reduce_sum(ad.mul(ad.sub(x, ad.mul(x, x)), weight)),
            "mul_rowvec": lambda: ad.reduce_sum(ad.mul(ad.mul(x, row), weight)),
            "scale": lambda: ad.reduce_sum(ad.scale(x, -1.7)),
            "sigmoid": lambda: ad.reduce_sum(ad.mul(composed.sigmoid(x), weight)),
            "tanh": lambda: ad.reduce_sum(ad.mul(composed.tanh(x), weight)),
            "exp": lambda: ad.reduce_sum(ad.mul(ad.exp(x), weight)),
            "clamped_log_linear": lambda: ad.reduce_sum(ad.mul(ad.clamped_log(pos), weight)),
            "clamped_log": lambda: ad.reduce_sum(ad.mul(pos, ad.clamped_log(pos))),
            "softmax0": lambda: ad.reduce_sum(ad.mul(composed.softmax_axis(x, 0), weight)),
            "softmax1": lambda: ad.reduce_sum(ad.mul(composed.softmax_axis(x, 1), weight)),
            "layer_norm": lambda: ad.reduce_sum(ad.mul(ad.layer_norm(x, gain, bias), weight)),
            "row_normalize": lambda: ad.reduce_sum(ad.mul(composed.row_normalize(pos), weight)),
            "reduce_mean0": lambda: ad.reduce_sum(ad.mul(ad.reduce_mean_axis(x, 0),
                                                         ad.Tensor(weight.data[0]))),
            "reduce_mean1": lambda: ad.reduce_sum(ad.mul(ad.reduce_mean_axis(x, 1),
                                                         ad.Tensor(weight.data[:, 0]))),
            "log_sum_exp": lambda: ad.log_sum_exp(vec),
            "pick": lambda: ad.mul(ad.pick(vec, 1), ad.pick(vec, 3)),
            "vecmat": lambda: ad.reduce_sum(ad.mul(ad.vecmat(vec, mat),
                                                   ad.Tensor(weight.data[0, :2]))),
            "split_merge_matmul3d": lambda: ad.add(
                ad.reduce_sum(ad.mul(composed.merge_heads(ad.matmul(
                    ad.matmul(composed.split_heads(x, 2), composed.transpose(composed.split_heads(pos, 2))),
                    composed.split_heads(x, 2)), 2), weight)),
                ad.reduce_sum(ad.mul(composed.sum_heads(ad.matmul(
                    composed.split_heads(pos, 2), composed.transpose(composed.split_heads(x, 2))), 2), square))),
        }
        params = [("x", x), ("w", w), ("row", row), ("gain", gain), ("bias", bias),
                  ("pos", pos), ("vec", vec), ("mat", mat)]
        for name, f in cases.items():
            report = ad.grad_check(f, params, h=1e-6, tol=1e-6)
            assert report.passed, f"{name}: max rel error {report.max_rel_error:.3e}"

    def test_every_op_with_leading_axis(self):
        # Magnitudes stay away from zero, so that no coordinate's gradient
        # falls to the rounding floor of central differences at h=1e-6.
        rng = np.random.default_rng(8)

        def away(*shape):
            return rng.uniform(0.5, 2.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)

        x = t(away(2, 3, 4))                        # a stack of two samples
        w = t(away(4, 3))                           # shared by both samples
        row = t(away(1, 4))
        trailing = t(away(3, 4))
        gain = t(away(1, 4))
        bias = t(away(1, 4))
        pos = t(rng.uniform(0.5, 2.0, size=(2, 3, 4)))
        logits = t(away(2, 5))
        weight = ad.Tensor(rng.uniform(0.5, 2.0, size=(2, 3, 4)))
        per_sample = ad.Tensor(away(2))

        def total(y):
            return ad.reduce_sum(ad.mul(y, weight))

        cases = {
            "matmul_shared_right": lambda: ad.reduce_sum(composed.tanh(ad.matmul(x, w))),
            "matmul_shared_left": lambda: ad.reduce_sum(composed.tanh(ad.matmul(
                trailing, composed.transpose(x)))),
            "matmul_stacked": lambda: total(ad.matmul(ad.matmul(x, composed.transpose(pos)), x)),
            "add_row": lambda: total(ad.add(x, row)),
            "add_trailing": lambda: total(ad.add(x, trailing)),
            "mul_row": lambda: total(ad.mul(x, row)),
            "mul_trailing": lambda: total(ad.mul(x, trailing)),
            "layer_norm": lambda: total(ad.layer_norm(x, gain, bias)),
            "row_normalize": lambda: total(composed.row_normalize(pos)),
            "softmax_rows": lambda: total(composed.softmax_axis(x, -2)),
            "zeros_plus_shared": lambda: total(ad.add(ad.Tensor(np.zeros((2, 3, 4))), trailing)),
            "split_merge_heads": lambda: total(composed.merge_heads(ad.matmul(
                ad.matmul(composed.split_heads(x, 2), composed.transpose(composed.split_heads(pos, 2))),
                composed.split_heads(x, 2)), 2)),
            "sum_heads": lambda: ad.reduce_sum(ad.mul(composed.sum_heads(ad.matmul(
                composed.split_heads(pos, 2), composed.transpose(composed.split_heads(x, 2))), 2),
                ad.Tensor(weight.data[..., :3]))),
            "row_log_sum_exp": lambda: ad.reduce_sum(ad.mul(ad.log_sum_exp(logits),
                                                            per_sample)),
            "row_pick": lambda: ad.reduce_sum(ad.mul(ad.pick(logits, np.array([3, 0])),
                                                     per_sample)),
            "per_sample_sum": lambda: ad.reduce_sum(ad.mul(
                ad.reduce_sum(ad.mul(x, pos), keep=1), per_sample)),
        }
        params = [("x", x), ("w", w), ("row", row), ("trailing", trailing), ("gain", gain),
                  ("bias", bias), ("pos", pos), ("logits", logits)]
        for name, f in cases.items():
            report = ad.grad_check(f, params, h=1e-6, tol=1e-6)
            assert report.passed, f"{name}: max rel error {report.max_rel_error:.3e}"

    def test_no_grad_blocks_gradient(self):
        x = t([1.0, 2.0])
        with ad.no_grad():
            constant = ad.scale(x, 1.0)
        assert not constant.requires_grad
        loss = ad.reduce_sum(ad.mul(constant, x))
        ad.backward(loss)
        npt.assert_array_equal(x.grad, x.data)  # only the factor made outside no_grad


class TestInvariants:
    def test_deterministic_outputs(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 5))
        a = composed.softmax_axis(ad.matmul(t(x), t(x)), 1).data
        b = composed.softmax_axis(ad.matmul(t(x), t(x)), 1).data
        assert np.array_equal(a, b)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NumericError):
            ad.Tensor(np.array([1.0, np.inf]))
        with pytest.raises(NumericError):
            ad.Tensor(np.array([np.nan]))

    def test_overflow_detected(self):
        with pytest.raises(NumericError):
            ad.exp(t([1000.0]))

    def test_grad_buffer_matches_shape(self):
        x = t(np.zeros((2, 3)))
        ad.backward(ad.reduce_sum(x))
        assert x.grad.shape == x.data.shape


BIG, TINY = np.finfo(np.float64).max, 5e-324
# rows of one extreme value and rows mixing them
EXTREMES = np.array([[BIG, -BIG, TINY, -TINY], [BIG, BIG, BIG, BIG], [-BIG, -BIG, -BIG, -BIG],
                     [0.0, TINY, -TINY, BIG], [TINY, TINY, TINY, TINY], [0.0, 0.0, 0.0, 0.0],
                     [-BIG, 0.0, -TINY, TINY], [TINY, -BIG, BIG, 0.0]])
UNCHECKED_OPS = {
    "transpose": lambda x: composed.transpose(x),
    "split_heads": lambda x: composed.split_heads(x, 2),
    "merge_heads": lambda x: composed.merge_heads(t(x.data.reshape(2, 4, 4)), 2),
    "pick": lambda x: ad.pick(x, np.arange(8) % 4),
    "softmax_rows": lambda x: composed.softmax_axis(x, -1),
    "softmax_columns": lambda x: composed.softmax_axis(x, 0),
    "clamped_log": lambda x: ad.clamped_log(x),
    "log_sum_exp": lambda x: ad.log_sum_exp(x),
}


@pytest.mark.parametrize("op", UNCHECKED_OPS)
def test_op_without_output_check_is_finite_on_extreme_inputs(op):
    """These ops skip their output check: every finite input gives finite
    outputs, here ±max double, ±5e-324 and 0, alone and mixed in a row."""
    with np.errstate(all="ignore"):  # the softmax's shift overflows to -inf
        for data in (EXTREMES, -EXTREMES, EXTREMES[::-1].copy()):
            out = UNCHECKED_OPS[op](t(data))
            assert np.isfinite(out.data).all()


class TestHeadAxis:
    def test_split_merge_roundtrip_and_layout(self):
        x = t(np.arange(24.0).reshape(3, 8))
        split = composed.split_heads(x, 4)
        assert split.shape == (4, 3, 2) and split.data.flags.c_contiguous
        npt.assert_array_equal(split.data[1], x.data[:, 2:4])
        npt.assert_array_equal(composed.merge_heads(split, 4).data, x.data)

    def test_one_head_adds_no_node(self):
        x = t(np.ones((3, 4)))
        assert composed.split_heads(x, 1) is x
        assert composed.merge_heads(x, 1) is x
        assert composed.sum_heads(x, 1) is x

    def test_stacked_matmul_matches_per_head_products(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 2, 5))
        out = ad.matmul(t(a), t(b)).data
        for j in range(3):
            assert np.array_equal(out[j], a[j] @ b[j])

    def test_sum_heads_adds_in_head_order(self):
        a = np.random.default_rng(6).normal(size=(4, 2, 3))
        want = ((a[0] + a[1]) + a[2]) + a[3]
        assert np.array_equal(composed.sum_heads(t(a), 4).data, want)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ShapeError):
            composed.split_heads(t(np.ones((3, 5))), 2)
        with pytest.raises(ShapeError):
            ad.matmul(t(np.ones((2, 3, 4))), t(np.ones((3, 4, 2))))
        with pytest.raises(ShapeError):
            ad.matmul(t(np.ones((2, 3, 4))), t(np.ones((3, 2))))


class TestNoGrad:
    def test_outputs_keep_no_record(self):
        x, w = t(np.ones((2, 3))), t(np.full((3, 2), 0.5))
        with ad.no_grad():
            out = composed.softmax_axis(ad.matmul(x, w), 1)
        assert out._node is None and not out.requires_grad
        npt.assert_array_equal(out.data, composed.softmax_axis(ad.matmul(x, w), 1).data)
        assert ad.matmul(x, w).requires_grad

    def test_finite_check_still_runs(self):
        with ad.no_grad(), pytest.raises(NumericError, match="exp produced non-finite"):
            ad.exp(t([1000.0]))

    def test_state_restored_after_exception_and_when_nested(self):
        x = t([1.0, 2.0])
        with pytest.raises(ShapeError):
            with ad.no_grad():
                ad.pick(x, 0)
                ad.matmul(x, x)
        assert ad.scale(x, 2.0).requires_grad
        with ad.no_grad():
            with ad.no_grad():
                assert not ad.scale(x, 2.0).requires_grad
            assert not ad.scale(x, 2.0).requires_grad
        assert ad.scale(x, 2.0).requires_grad
