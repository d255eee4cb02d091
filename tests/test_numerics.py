"""Softmax cross-entropy and the finite-difference harness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vicspeech.numerics import grad_check, softmax_xent


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, _ = softmax_xent(np.zeros(4), 0)
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_saturated_no_overflow(self):
        loss, grad = softmax_xent(np.array([1000.0, 0.0]), 0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(grad).all()

    def test_direct_formula_oracle(self):
        logits = np.array([0.2, -0.1, 0.5])
        target = 1
        # direct evaluation of -log softmax at double precision
        expected = -math.log(math.exp(-0.1) / sum(math.exp(x) for x in logits))
        loss, _ = softmax_xent(logits, target)
        assert loss == pytest.approx(expected, rel=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=12), st.data())
    def test_gradient_sums_to_zero(self, logits, data):
        target = data.draw(st.integers(0, len(logits) - 1))
        _, grad = softmax_xent(np.array(logits), target)
        assert abs(grad.sum()) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal(6)
        _, grad = softmax_xent(logits, 2)
        report = grad_check(lambda x: softmax_xent(x, 2)[0], grad, logits, 1e-5)
        assert report.max_rel_error <= 1e-8

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            softmax_xent(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            softmax_xent(np.array([np.inf, 0.0]), 0)
        with pytest.raises(ValueError):
            softmax_xent(np.array([1.0, 2.0]), 5)


class TestGradCheck:
    def test_quadratic_exact(self):
        report = grad_check(lambda x: float(x[0] ** 2), np.array([6.0]), np.array([3.0]), 1e-5)
        assert report.max_rel_error < 1e-8

    def test_detects_scaled_gradient(self):
        report = grad_check(lambda x: float(x[0] ** 2), np.array([12.0]), np.array([3.0]), 1e-5)
        assert report.max_rel_error == pytest.approx(0.5, abs=1e-6)

    def test_invariance_term_instance(self):
        from vicspeech.losses import invariance

        rng = np.random.default_rng(2)
        z = rng.standard_normal((8, 4))
        zp = rng.standard_normal((8, 4))
        _, grad = invariance(z, zp)
        report = grad_check(lambda x: invariance(z, x.reshape(8, 4))[0],
                            grad.ravel(), zp.ravel(), 1e-5)
        assert report.max_rel_error <= 1e-6

    def test_worst_index_reported(self):
        grad = np.array([2.0, 999.0])  # second coordinate corrupted
        report = grad_check(lambda x: float(x[0] ** 2 + x[1] ** 2),
                            grad, np.array([1.0, 1.0]), 1e-5)
        assert report.worst_index == 1

    def test_nan_central_difference_fails(self):
        report = grad_check(lambda x: float("nan"), np.ones(3), np.zeros(3))
        assert report.max_rel_error == math.inf
        assert report.worst_index == 0

    def test_non_finite_analytic_gradient_fails(self):
        report = grad_check(lambda x: float(x[0] ** 2 + x[1] ** 2),
                            np.array([2.0, np.inf]), np.array([1.0, 1.0]), 1e-5)
        assert (report.max_rel_error, report.worst_index) == (math.inf, 1)

    def test_covariance_at_a_huge_step_fails(self):
        """At step 1e200 the covariance term overflows and its central
        difference is NaN, which is a failure, not a match."""
        from vicspeech.losses import covariance

        zp = np.random.default_rng(0).standard_normal((8, 5))
        _, grad = covariance(zp)
        with np.errstate(all="ignore"):
            report = grad_check(lambda x: covariance(x.reshape(8, 5))[0],
                                grad.ravel(), zp.ravel(), 1e200)
        assert report.max_rel_error == math.inf

    def test_subset_indices(self):
        grad = np.array([2.0, 999.0])
        report = grad_check(lambda x: float(x[0] ** 2 + x[1] ** 2),
                            grad, np.array([1.0, 1.0]), 1e-5, indices=[0])
        assert report.max_rel_error < 1e-8
