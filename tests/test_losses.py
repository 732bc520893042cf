import math

import numpy as np
import numpy.testing as npt
import pytest

from concepthead import autodiff as ad
from concepthead import losses
from concepthead.autodiff import Tensor
from concepthead.errors import ConfigError, DomainError, ShapeError


def t(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestCrossEntropy:
    def test_two_equal_logits(self):
        out = losses.cross_entropy(t([0.0, 0.0]), 0)
        assert float(out.data) == pytest.approx(math.log(2), abs=1e-12)

    def test_large_logit_no_overflow(self):
        out = losses.cross_entropy(t([1000.0, 0.0]), 0)
        assert 0 <= float(out.data) < 1e-300

    def test_hand_log_sum_exp(self):
        expected = math.log(math.e + math.e**2 + math.e**3) - 3  # 0.407606
        out = losses.cross_entropy(t([1.0, 2.0, 3.0]), 2)
        assert float(out.data) == pytest.approx(expected, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            losses.cross_entropy(t([0.0, 1.0]), 2)
        with pytest.raises(IndexError):
            losses.cross_entropy(t([0.0, 1.0]), -1)


class TestExplanationLoss:
    def test_zero_at_match(self):
        a = t([[0.25, 0.75], [0.5, 0.5]])
        assert float(losses.explanation_loss(a, a.data.copy()).data) == 0.0

    def test_opposite_onehots(self):
        out = losses.explanation_loss(t([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert float(out.data) == 2.0

    def test_hand_sum(self):
        out = losses.explanation_loss(t([[0.5, 0.5], [1.0, 0.0]]),
                                      np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert float(out.data) == pytest.approx(0.5, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            losses.explanation_loss(t([[1.0, 0.0]]), np.zeros((2, 2)))

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.uniform(size=(3, 4))
            b = rng.uniform(size=(3, 4))
            v = float(losses.explanation_loss(t(a), b).data)
            assert v >= 0
            assert (v == 0) == np.array_equal(a, b)


class TestSparsityLoss:
    def test_onehot_rows_zero(self):
        out = losses.sparsity_loss(t([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        assert float(out.data) == 0.0

    def test_two_entry_half(self):
        out = losses.sparsity_loss(t([[0.5, 0.5]]))
        assert float(out.data) == pytest.approx(math.log(2) / 2, abs=1e-12)

    def test_uniform_map(self):
        # every entry 1/C -> mean entropy ln(C)/C, independent of row count
        for rows, c in [(1, 4), (5, 4), (3, 7)]:
            out = losses.sparsity_loss(t(np.full((rows, c), 1.0 / c)))
            assert float(out.data) == pytest.approx(math.log(c) / c, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            losses.sparsity_loss(t([[1.2, 0.0]]))
        with pytest.raises(DomainError):
            losses.sparsity_loss(t([[-0.1, 0.5]]))

    def test_uniform_maximizes_over_row_stochastic_maps(self):
        rng = np.random.default_rng(11)
        shape = (5, 4)
        uniform_value = float(losses.sparsity_loss(t(np.full(shape, 0.25))).data)
        for _ in range(1000):
            raw = rng.uniform(size=shape)
            rows = raw / raw.sum(axis=1, keepdims=True)
            assert float(losses.sparsity_loss(t(rows)).data) <= uniform_value + 1e-12

    def test_binary_maps_exactly_zero(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = (rng.uniform(size=(4, 6)) > 0.5).astype(float)
            assert float(losses.sparsity_loss(t(a)).data) == 0.0


class TestTotalLoss:
    def test_paper_default_weights(self):
        w = losses.LossWeights(lambda_expl=1.0, lambda_sparse=0.5)
        out = losses.total_loss(t(np.asarray(1.0)), t(np.asarray(2.0)),
                                t(np.asarray(4.0)), w)
        assert float(out.data) == pytest.approx(5.0, abs=1e-15)

    def test_zero_expl_weight_ignores_target_term(self):
        w = losses.LossWeights(lambda_expl=0.0, lambda_sparse=0.5)
        cls, sparse = t(np.asarray(1.0)), t(np.asarray(4.0))
        a = losses.total_loss(cls, t(np.asarray(100.0)), sparse, w)
        b = losses.total_loss(cls, None, sparse, w)
        assert float(a.data) == float(b.data) == 3.0

    def test_all_weights_zero(self):
        w = losses.LossWeights(lambda_expl=0.0, lambda_sparse=0.0)
        cls = t(np.asarray(1.25))
        out = losses.total_loss(cls, t(np.asarray(9.0)), t(np.asarray(9.0)), w)
        assert float(out.data) == 1.25

    def test_linear_in_each_component(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c, e, s = rng.uniform(size=3)
            le, ls = rng.uniform(size=2)
            w = losses.LossWeights(lambda_expl=le, lambda_sparse=ls)
            out = losses.total_loss(t(np.asarray(c)), t(np.asarray(e)),
                                    t(np.asarray(s)), w)
            assert float(out.data) == pytest.approx(c + le * e + ls * s, rel=1e-14)

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            losses.LossWeights(lambda_expl=-0.1)
        with pytest.raises(ConfigError):
            losses.LossWeights(lambda_sparse=-1.0)

    @pytest.mark.parametrize("name", ["lambda_expl", "lambda_sparse"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_weights_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be non-negative and finite"):
            losses.LossWeights(**{name: value})


class TestGradients:
    def test_cross_entropy_grad(self):
        logits = t([0.2, -1.1, 0.7])
        report = ad.grad_check(lambda: losses.cross_entropy(logits, 1),
                               [("logits", logits)], h=1e-6, tol=1e-6)
        assert report.passed, report.max_rel_error

    def test_explanation_grad(self):
        a = t(np.random.default_rng(0).uniform(size=(3, 4)))
        target = np.random.default_rng(1).uniform(size=(3, 4))
        report = ad.grad_check(lambda: losses.explanation_loss(a, target),
                               [("a", a)], h=1e-6, tol=1e-6)
        assert report.passed, report.max_rel_error

    def test_sparsity_grad_near_onehot(self):
        # approach the one-hot boundary from the interior; log stays smooth here
        row = np.array([[1.0 - 3e-3, 1e-3, 1e-3, 1e-3]])
        a = t(row)
        report = ad.grad_check(lambda: losses.sparsity_loss(a), [("a", a)],
                               h=1e-6, tol=1e-6)
        assert report.passed, report.max_rel_error

    def test_sparsity_grad_bounded_at_zero(self):
        a = t([[1.0, 0.0]])
        loss = losses.sparsity_loss(a)
        ad.backward(loss)
        assert np.all(np.isfinite(a.grad))
        assert abs(a.grad[0, 1]) <= -math.log(losses.LOG_FLOOR) / a.data.size + 1


def test_total_loss_grad_composition():
    rng = np.random.default_rng(9)
    logits = t(rng.normal(size=(4,)))
    attn = t(rng.dirichlet(np.ones(3), size=2))
    target = rng.uniform(size=(2, 3))
    w = losses.LossWeights(lambda_expl=1.0, lambda_sparse=0.5)

    def f():
        return losses.total_loss(losses.cross_entropy(logits, 2),
                                 losses.explanation_loss(attn, target),
                                 losses.sparsity_loss(attn), w)

    report = ad.grad_check(f, [("logits", logits), ("attn", attn)], h=1e-6, tol=1e-6)
    assert report.passed, report.max_rel_error
