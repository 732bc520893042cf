import math

import numpy as np
import numpy.testing as npt
import pytest

from concepthead import autodiff as ad
from concepthead.errors import DomainError, NumericError, ShapeError


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
        npt.assert_allclose(ad.softmax_axis(t([0.0, 0.0]), 0).data, [0.5, 0.5], atol=1e-15)

    def test_analytic(self):
        npt.assert_allclose(ad.softmax_axis(t([0.0, math.log(2)]), 0).data,
                            [1 / 3, 2 / 3], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5))
        for c in (0.5, -3.0, 1234.5):
            a = ad.softmax_axis(t(x), 1).data
            b = ad.softmax_axis(t(x + c), 1).data
            npt.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=(3, 6)) * 10
            out = ad.softmax_axis(t(x), 1).data
            assert np.all(out >= 0)
            npt.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
            out0 = ad.softmax_axis(t(x), 0).data
            npt.assert_allclose(out0.sum(axis=0), 1.0, atol=1e-12)

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            ad.softmax_axis(t([[1.0]]), 2)


class TestLayerNorm:
    def test_constant_row(self):
        out = ad.layer_norm(t([[5.0, 5.0, 5.0]]), t(np.ones((1, 3))),
                            t(np.zeros((1, 3))), eps=1e-5)
        npt.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_already_normalized(self):
        out = ad.layer_norm(t([[1.0, -1.0]]), t(np.ones((1, 2))),
                            t(np.zeros((1, 2))), eps=0.0)
        npt.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-15)

    def test_affine(self):
        # row [0, 2]: mean 1, population std 1 -> normalized [-1, 1], then *3 + 1
        out = ad.layer_norm(t([[0.0, 2.0]]), t([[3.0, 3.0]]), t([[1.0, 1.0]]), eps=0.0)
        npt.assert_allclose(out.data, [[-2.0, 4.0]], atol=1e-15)


class TestElementwise:
    def test_sigmoid_zero(self):
        assert ad.sigmoid(t([0.0])).data[0] == 0.5

    def test_tanh_zero(self):
        assert ad.tanh(t([0.0])).data[0] == 0.0

    def test_log_e(self):
        npt.assert_allclose(ad.log(t([math.e])).data, [1.0], atol=1e-15)

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            ad.log(t([-1.0]))
        with pytest.raises(DomainError):
            ad.log(t([0.0]))

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
        x = t([[1.0, 2.0], [3.0, 4.0]])
        w = t([[0.5], [0.25]])
        loss = ad.reduce_sum(ad.tanh(ad.matmul(x, w)))
        ad.backward(loss)
        gx, gw = x.grad.copy(), w.grad.copy()
        ad.backward(loss)
        npt.assert_array_equal(x.grad, 2 * gx)
        npt.assert_array_equal(w.grad, 2 * gw)

    def test_reset_restores_idempotence(self):
        x = t([1.0, 2.0])
        loss = ad.reduce_sum(ad.mul(x, x))
        ad.backward(loss)
        first = x.grad.copy()
        x.reset_grad()
        ad.backward(loss)
        npt.assert_array_equal(x.grad, first)

    def test_fanout_accumulates(self):
        x = t(np.asarray(2.0))
        loss = ad.add(ad.mul(x, x), ad.scale(x, 3.0))  # x^2 + 3x -> 2x + 3 = 7
        ad.backward(loss)
        assert x.grad == pytest.approx(7.0, abs=1e-12)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            ad.backward(t([1.0, 2.0]))


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
            "matmul": lambda: ad.reduce_sum(ad.tanh(ad.matmul(x, w))),
            "transpose": lambda: ad.reduce_sum(ad.mul(ad.transpose(x), ad.transpose(weight))),
            "add_rowvec": lambda: ad.reduce_sum(ad.mul(ad.add(x, row), weight)),
            "sub_mul": lambda: ad.reduce_sum(ad.mul(ad.sub(x, ad.mul(x, x)), weight)),
            "mul_rowvec": lambda: ad.reduce_sum(ad.mul(ad.mul(x, row), weight)),
            "scale": lambda: ad.reduce_sum(ad.scale(x, -1.7)),
            "sigmoid": lambda: ad.reduce_sum(ad.mul(ad.sigmoid(x), weight)),
            "tanh": lambda: ad.reduce_sum(ad.mul(ad.tanh(x), weight)),
            "exp": lambda: ad.reduce_sum(ad.mul(ad.exp(x), weight)),
            "log": lambda: ad.reduce_sum(ad.mul(ad.log(pos), ad.Tensor(weight.data[:, :4]))),
            "clamped_log": lambda: ad.reduce_sum(ad.mul(pos, ad.clamped_log(pos))),
            "softmax0": lambda: ad.reduce_sum(ad.mul(ad.softmax_axis(x, 0), weight)),
            "softmax1": lambda: ad.reduce_sum(ad.mul(ad.softmax_axis(x, 1), weight)),
            "layer_norm": lambda: ad.reduce_sum(ad.mul(ad.layer_norm(x, gain, bias), weight)),
            "row_normalize": lambda: ad.reduce_sum(ad.mul(ad.row_normalize(pos), weight)),
            "reduce_mean0": lambda: ad.reduce_sum(ad.mul(ad.reduce_mean_axis(x, 0),
                                                         ad.Tensor(weight.data[0]))),
            "reduce_mean1": lambda: ad.reduce_sum(ad.mul(ad.reduce_mean_axis(x, 1),
                                                         ad.Tensor(weight.data[:, 0]))),
            "log_sum_exp": lambda: ad.log_sum_exp(vec),
            "pick": lambda: ad.mul(ad.pick(vec, 1), ad.pick(vec, 3)),
            "vecmat": lambda: ad.reduce_sum(ad.mul(ad.vecmat(vec, mat),
                                                   ad.Tensor(weight.data[0, :2]))),
            "split_merge_matmul3d": lambda: ad.add(
                ad.reduce_sum(ad.mul(ad.merge_heads(ad.matmul(
                    ad.matmul(ad.split_heads(x, 2), ad.transpose(ad.split_heads(pos, 2))),
                    ad.split_heads(x, 2))), weight)),
                ad.reduce_sum(ad.mul(ad.sum_heads(ad.matmul(
                    ad.split_heads(pos, 2), ad.transpose(ad.split_heads(x, 2)))), square))),
        }
        params = [("x", x), ("w", w), ("row", row), ("gain", gain), ("bias", bias),
                  ("pos", pos), ("vec", vec), ("mat", mat)]
        for name, f in cases.items():
            report = ad.grad_check(f, params, h=1e-6, tol=1e-6)
            assert report.passed, f"{name}: max rel error {report.max_rel_error:.3e}"

    def test_detach_blocks_gradient(self):
        x = t([1.0, 2.0])
        loss = ad.reduce_sum(ad.mul(ad.detach(x), x))
        ad.backward(loss)
        npt.assert_array_equal(x.grad, x.data)  # only the non-detached factor


class TestInvariants:
    def test_deterministic_outputs(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 5))
        a = ad.softmax_axis(ad.matmul(t(x), t(x)), 1).data
        b = ad.softmax_axis(ad.matmul(t(x), t(x)), 1).data
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


class TestHeadAxis:
    def test_split_merge_roundtrip_and_layout(self):
        x = t(np.arange(24.0).reshape(3, 8))
        split = ad.split_heads(x, 4)
        assert split.shape == (4, 3, 2) and split.data.flags.c_contiguous
        npt.assert_array_equal(split.data[1], x.data[:, 2:4])
        npt.assert_array_equal(ad.merge_heads(split).data, x.data)

    def test_one_head_adds_no_node(self):
        x = t(np.ones((3, 4)))
        assert ad.split_heads(x, 1) is x
        assert ad.merge_heads(x) is x
        assert ad.sum_heads(x) is x

    def test_stacked_matmul_matches_per_head_products(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 2, 5))
        out = ad.matmul(t(a), t(b)).data
        for j in range(3):
            assert np.array_equal(out[j], a[j] @ b[j])

    def test_sum_heads_adds_in_head_order(self):
        a = np.random.default_rng(6).normal(size=(4, 2, 3))
        want = ((a[0] + a[1]) + a[2]) + a[3]
        assert np.array_equal(ad.sum_heads(t(a)).data, want)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ShapeError):
            ad.split_heads(t(np.ones((3, 5))), 2)
        with pytest.raises(ShapeError):
            ad.matmul(t(np.ones((2, 3, 4))), t(np.ones((3, 4, 2))))
        with pytest.raises(ShapeError):
            ad.matmul(t(np.ones((2, 3, 4))), t(np.ones((4, 2))))


class TestNoGrad:
    def test_outputs_keep_no_record(self):
        x, w = t(np.ones((2, 3))), t(np.full((3, 2), 0.5))
        with ad.no_grad():
            out = ad.softmax_axis(ad.matmul(x, w), 1)
        assert out._parents == () and out._vjp is None and not out.requires_grad
        npt.assert_array_equal(out.data, ad.softmax_axis(ad.matmul(x, w), 1).data)
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
