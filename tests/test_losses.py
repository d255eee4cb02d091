"""Objective terms: closed-form values, gradients, invariances, fixed points."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vicspeech.losses import (
    VicWeights,
    covariance,
    invariance,
    masked_prediction_loss,
    sample_frames,
    total_loss,
    variance,
    SampledPair,
)
from vicspeech.model import MaskSpec
from vicspeech.numerics import grad_check


def random_matrix(shape, seed, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal(shape)


class TestMaskedPredictionLoss:
    def test_uniform_logits_k16(self):
        logits = np.zeros((5, 16))
        labels = np.array([3, 1, 0, 15, 7])
        loss, _ = masked_prediction_loss(logits, labels, MaskSpec(np.arange(5)))
        assert loss == pytest.approx(math.log(16.0), abs=1e-12)
        assert loss == pytest.approx(2.7726, abs=5e-5)

    def test_saturated_correct_logits(self):
        logits = np.full((3, 4), -50.0)
        labels = np.array([2, 0, 1])
        for t, lab in enumerate(labels):
            logits[t, lab] = 50.0
        loss, _ = masked_prediction_loss(logits, labels, MaskSpec(np.arange(3)))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_matches_per_frame_softmax_xent_average(self):
        """Composition oracle: mean of per-frame softmax_xent over M."""
        from vicspeech.numerics import softmax_xent

        rng = np.random.default_rng(4)
        logits = rng.standard_normal((8, 5))
        labels = rng.integers(5, size=8)
        m = np.array([1, 4, 6])
        loss, grad = masked_prediction_loss(logits, labels, MaskSpec(m))
        per_frame = [softmax_xent(logits[t], labels[t]) for t in m]
        assert loss == pytest.approx(np.mean([p[0] for p in per_frame]), rel=1e-12)
        for t, (_, g) in zip(m, per_frame):
            assert np.allclose(grad[t], g / len(m), atol=1e-15)
        unmasked = np.setdiff1d(np.arange(8), m)
        assert np.all(grad[unmasked] == 0.0)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            masked_prediction_loss(np.zeros((3, 4)), np.zeros(3, dtype=int),
                                   MaskSpec(np.array([], dtype=int)))

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            logits = rng.standard_normal((6, 7)) * 3
            labels = rng.integers(7, size=6)
            loss, _ = masked_prediction_loss(logits, labels, MaskSpec(np.arange(6)))
            assert loss >= 0.0


def _reference_sample_frames(teacher_reps, student_reps, n, seed):
    """`sample_frames` before frames became rows of the pooled batch, kept
    verbatim as the reference but for returning (Z, Z', sources) instead of
    the old `SampledPair`."""
    if len(teacher_reps) != len(student_reps):
        raise ValueError("teacher and student batches differ in length")
    coords: list[tuple[int, int]] = []
    for u, (tr, sr) in enumerate(zip(teacher_reps, student_reps)):
        if tr.shape != sr.shape:
            raise ValueError(f"utterance {u}: teacher/student shapes differ")
        coords.extend((u, t) for t in range(tr.shape[0]))
    if not coords:
        raise ValueError("empty frame pool")
    rng = np.random.default_rng(seed)
    n_eff = min(n, len(coords))
    picked = rng.choice(len(coords), size=n_eff, replace=False)
    sources = [coords[i] for i in picked]
    z = np.stack([teacher_reps[u][t] for u, t in sources])
    zp = np.stack([student_reps[u][t] for u, t in sources])
    return z, zp, sources


def _coordinates(rows, reps):
    """The (utterance, frame) coordinate of each pooled-batch row."""
    starts = np.cumsum([0] + [len(r) for r in reps[:-1]])
    utts = np.searchsorted(starts, rows, side="right") - 1
    return [(int(u), int(t)) for u, t in zip(utts, rows - starts[utts])]


class TestSampleFrames:
    def test_pool_exhaustion_uses_every_frame_once(self):
        reps = [np.arange(300.0 * 4).reshape(300, 4)]
        pair = sample_frames(reps, reps, n=512, seed=0)
        assert pair.Z.shape[0] == 300
        assert sorted(pair.rows) == list(range(300))

    def test_identical_branches_give_identical_rows(self):
        rng = np.random.default_rng(1)
        reps = [rng.standard_normal((40, 3)), rng.standard_normal((25, 3))]
        pair = sample_frames(reps, reps, n=30, seed=5)
        assert np.array_equal(pair.Z, pair.Zp)

    def test_no_duplicate_sources(self):
        rng = np.random.default_rng(2)
        reps = [rng.standard_normal((250, 2)) for _ in range(4)]
        pair = sample_frames(reps, reps, n=256, seed=9)
        assert pair.Z.shape[0] == 256
        assert len(set(pair.rows)) == 256

    def test_rows_match_source_coordinates(self):
        rng = np.random.default_rng(3)
        teacher = [rng.standard_normal((20, 3)) for _ in range(3)]
        student = [rng.standard_normal((20, 3)) for _ in range(3)]
        pair = sample_frames(teacher, student, n=15, seed=2)
        for row, (u, t) in enumerate(_coordinates(pair.rows, teacher)):
            assert np.array_equal(pair.Z[row], teacher[u][t])
            assert np.array_equal(pair.Zp[row], student[u][t])

    def test_deterministic(self):
        reps = [random_matrix((50, 4), 7)]
        a = sample_frames(reps, reps, 20, seed=3).rows
        b = sample_frames(reps, reps, 20, seed=3).rows
        assert np.array_equal(a, b)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            sample_frames([], [], 10, seed=0)

    def test_misaligned_batches_rejected(self):
        with pytest.raises(ValueError):
            sample_frames([np.zeros((4, 2))], [np.zeros((5, 2))], 3, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(0, 40), min_size=1, max_size=6),
           d=st.integers(1, 4), n=st.integers(1, 260), seed=st.integers(0, 2**32 - 1))
    def test_equals_reference(self, lengths, d, n, seed):
        """The same frames as the coordinate sampler, bit for bit and in the
        same order, with `n` past the pool included."""
        rng = np.random.default_rng(seed)
        teacher = [rng.standard_normal((length, d)) for length in lengths]
        student = [rng.standard_normal((length, d)) for length in lengths]
        if sum(lengths) == 0:
            for sampler in (sample_frames, _reference_sample_frames):
                with pytest.raises(ValueError, match="empty frame pool"):
                    sampler(teacher, student, n, seed)
            return
        pair = sample_frames(teacher, student, n, seed)
        z, zp, sources = _reference_sample_frames(teacher, student, n, seed)
        assert pair.Z.tobytes() == z.tobytes()
        assert pair.Zp.tobytes() == zp.tobytes()
        assert _coordinates(pair.rows, teacher) == sources


class TestInvariance:
    def test_identical_branches_zero(self):
        z = random_matrix((6, 3), 0)
        s, grad = invariance(z, z)
        assert s == 0.0
        assert np.all(grad == 0.0)

    def test_hand_value_12_5(self):
        z = np.array([[0.0, 0.0], [1.0, 1.0]])
        zp = np.array([[3.0, 4.0], [1.0, 1.0]])
        s, _ = invariance(z, zp)
        assert s == pytest.approx(12.5, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        z = random_matrix((8, 4), 5)
        zp = random_matrix((8, 4), 6)
        _, grad = invariance(z, zp)
        report = grad_check(lambda x: invariance(z, x.reshape(8, 4))[0],
                            grad.ravel(), zp.ravel(), 1e-5)
        assert report.max_rel_error <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_permutation_equivariant(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((10, 3))
        zp = rng.standard_normal((10, 3))
        perm = rng.permutation(10)
        s1, _ = invariance(z, zp)
        s2, _ = invariance(z[perm], zp[perm])
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            invariance(np.zeros((2, 2)), np.zeros((3, 2)))


class TestVariance:
    def test_constant_column_hand_value(self):
        """Var=0 column: contribution max(0, 1 - sqrt(1e-4)) = 0.99."""
        zp = np.full((4, 1), 2.5)
        v, _ = variance(zp, gamma=1.0, epsilon=1e-4)
        assert v == pytest.approx(0.99, abs=1e-12)

    def test_alternating_column_above_threshold(self):
        """Column (1,-1,1,-1): sample std sqrt(4/3 + eps) > 1 -> contributes 0."""
        zp = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        expected_std = math.sqrt(4.0 / 3.0 + 1e-4)
        assert expected_std == pytest.approx(1.1547, abs=1e-4)
        v, grad = variance(zp, gamma=1.0, epsilon=1e-4)
        assert v == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_active_columns(self):
        zp = random_matrix((8, 4), 7, scale=0.1)  # stds well below gamma
        _, grad = variance(zp, 1.0, 1e-4)
        report = grad_check(lambda x: variance(x.reshape(8, 4), 1.0, 1e-4)[0],
                            grad.ravel(), zp.ravel(), 1e-5)
        assert report.max_rel_error <= 1e-6

    def test_gradient_inactive_columns(self):
        zp = random_matrix((8, 4), 8, scale=10.0)  # stds well above gamma
        v, grad = variance(zp, 1.0, 1e-4)
        assert v == 0.0
        report = grad_check(lambda x: variance(x.reshape(8, 4), 1.0, 1e-4)[0],
                            grad.ravel(), zp.ravel(), 1e-5)
        assert report.max_rel_error <= 1e-6

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_translation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        zp = rng.standard_normal((9, 4))
        shift = rng.standard_normal(4)
        v1, _ = variance(zp, 1.0, 1e-4)
        v2, _ = variance(zp + shift, 1.0, 1e-4)
        assert v1 == pytest.approx(v2, rel=1e-10, abs=1e-12)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            variance(np.zeros((1, 3)))


class TestCovariance:
    def test_orthogonal_centered_columns_zero(self):
        zp = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        c, _ = covariance(zp)
        assert c == pytest.approx(0.0, abs=1e-15)

    def test_hand_value_16(self):
        """Rows (1,2), (-1,-2): C = [[2,4],[4,8]], c = (16+16)/2 = 16."""
        zp = np.array([[1.0, 2.0], [-1.0, -2.0]])
        c, _ = covariance(zp)
        assert c == pytest.approx(16.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        """Brute-force covariance oracle on instances <= 16x6, to 1e-12."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n, d = rng.integers(2, 17), rng.integers(2, 7)
            zp = rng.standard_normal((n, d))
            mean = [sum(zp[i][j] for i in range(n)) / n for j in range(d)]
            cov = [[sum((zp[i][a] - mean[a]) * (zp[i][b] - mean[b]) for i in range(n)) / (n - 1)
                    for b in range(d)] for a in range(d)]
            expected = sum(cov[a][b] ** 2 for a in range(d) for b in range(d) if a != b) / d
            c, _ = covariance(zp)
            assert c == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        zp = random_matrix((8, 5), 11)
        _, grad = covariance(zp)
        report = grad_check(lambda x: covariance(x.reshape(8, 5))[0],
                            grad.ravel(), zp.ravel(), 1e-5)
        assert report.max_rel_error <= 1e-6

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_translation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        zp = rng.standard_normal((9, 4))
        shift = rng.standard_normal(4)
        c1, _ = covariance(zp)
        c2, _ = covariance(zp + shift)
        assert c1 == pytest.approx(c2, rel=1e-9, abs=1e-12)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            covariance(np.zeros((1, 3)))


def _pair(z, zp):
    return SampledPair(Z=z, Zp=zp, rows=np.arange(z.shape[0]))


# a pair whose terms are exact: s = 2, and with gamma = 2 and epsilon = 1.75
# both columns have std sqrt(0.5 + 1.75) = 1.5, so v = 0.5; the off-diagonal
# covariance is 0.5, so c = 0.25
_HAND_Z = np.array([[-1.5, 0.5], [-0.5, -0.5]])
_HAND_ZP = np.array([[0.5, 0.5], [-0.5, -0.5]])
_HAND_W = VicWeights(gamma=2.0, epsilon=1.75, n_sample=2)

_ALL = (True, True, True)


class TestVicCombination:
    def test_weighted_sum_value(self):
        """s=2, v=0.5, c=0.25, weights (5,1,1) -> 10.75."""
        assert 5.0 * 2.0 + 1.0 * 0.5 + 1.0 * 0.25 == pytest.approx(10.75)
        # through the API on constructed matrices:
        w = _HAND_W
        z, zp = _HAND_Z, _HAND_ZP
        b, _ = total_loss(0.0, _pair(z, zp), w, *_ALL)
        s, _ = invariance(z, zp)
        v, _ = variance(zp, w.gamma, w.epsilon)
        c, _ = covariance(zp)
        assert (b.s, b.v, b.c) == (s, v, c) == (2.0, 0.5, 0.25)
        assert b.l_vic == pytest.approx(5 * s + v + c, rel=1e-12)
        assert b.l_vic == pytest.approx(10.75)

    def test_zero_weights_zero_loss_and_gradient(self):
        w = VicWeights(lam=0.0, mu=0.0, nu=0.0, n_sample=2)
        rng = np.random.default_rng(1)
        z, zp = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        b, grad = total_loss(0.0, _pair(z, zp), w, *_ALL)
        assert b.l_vic == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_is_weighted_sum_of_term_gradients(self):
        w = VicWeights(lam=5.0, mu=1.0, nu=1.0, alpha=0.5, n_sample=2)
        rng = np.random.default_rng(2)
        z, zp = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
        _, grad = total_loss(0.0, _pair(z, zp), w, *_ALL)
        _, gs = invariance(z, zp)
        _, gv = variance(zp, w.gamma, w.epsilon)
        _, gc = covariance(zp)
        assert np.allclose(grad, 0.5 * (5 * gs + gv + gc), atol=1e-15)

    @pytest.mark.parametrize("flags", list(itertools.product((False, True), repeat=3)))
    def test_flags_select_terms_bitwise(self, flags):
        """A disabled term is exactly 0.0 and adds no gradient; the enabled
        weighted gradients are added to zeros in lambda, mu, nu order, and
        the sum is scaled by alpha."""
        use_inv, use_var, use_cov = flags
        w = VicWeights(lam=5.0, mu=0.7, nu=1.3, gamma=2.0, alpha=0.3, n_sample=2)
        rng = np.random.default_rng(3)
        z, zp = rng.standard_normal((7, 4)), rng.standard_normal((7, 4))
        b, grad = total_loss(0.0, _pair(z, zp), w, use_inv, use_var, use_cov)
        want = np.zeros_like(zp)
        terms = []
        for on, weight, (value, g) in ((use_inv, w.lam, invariance(z, zp)),
                                       (use_var, w.mu, variance(zp, w.gamma, w.epsilon)),
                                       (use_cov, w.nu, covariance(zp))):
            terms.append(value if on else 0.0)
            if on:
                want += weight * g
        assert [b.s, b.v, b.c] == terms
        assert np.array_equal(grad, w.alpha * want)


class TestTotalLoss:
    """l_tot is formed by `total_loss` only."""

    def test_alpha_zero_reduces_to_masked_loss(self):
        # s = (11^2 + 1 + 1) / 5 = 24.6
        z, zp = np.zeros((5, 1)), np.array([[11.0], [1.0], [1.0], [0.0], [0.0]])
        b, _ = total_loss(2.0, _pair(z, zp), VicWeights(alpha=0.0), True, False, False)
        assert b.s == 24.6
        assert b.l_vic == 123.0
        assert b.l_tot == 2.0

    def test_paper_weights_arithmetic(self):
        b, _ = total_loss(2.0, _pair(_HAND_Z, _HAND_ZP), _HAND_W, *_ALL)
        assert b.l_vic == pytest.approx(10.75, abs=1e-15)
        assert b.l_tot == pytest.approx(12.75, abs=1e-15)

    def test_zero_vic_identity(self):
        """Without a teacher (no pair) the terms are 0.0, there is no
        gradient, and l_tot is l_m exactly."""
        b, grad = total_loss(1.7, None, VicWeights(), *_ALL)
        assert (b.s, b.v, b.c, b.l_vic) == (0.0, 0.0, 0.0, 0.0)
        assert grad is None
        assert b.l_tot == 1.7

    def test_breakdown_invariants(self):
        w = _HAND_W
        b, _ = total_loss(2.0, _pair(_HAND_Z, _HAND_ZP), w, *_ALL)
        assert b.l_vic == pytest.approx(w.lam * 2.0 + w.mu * 0.5 + w.nu * 0.25, abs=1e-15)
        assert b.l_tot == pytest.approx(b.l_m + w.alpha * b.l_vic, abs=1e-15)


class TestFixedPoints:
    """Gradient descent on free Z' (teacher fixed) reaches each term's
    fixed point on 64x8 matrices within 5000 steps."""

    def test_invariance_drives_student_to_teacher(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((64, 8))
        zp = rng.standard_normal((64, 8))
        lr = 16.0
        for _ in range(5000):
            s, grad = invariance(z, zp)
            if s < 1e-8:
                break
            zp = zp - lr * grad
        s, _ = invariance(z, zp)
        assert s < 1e-8

    def test_variance_drives_all_columns_to_threshold(self):
        rng = np.random.default_rng(1)
        zp = 0.05 * rng.standard_normal((64, 8))
        gamma, eps, lr = 1.0, 1e-4, 1.0
        for _ in range(5000):
            _, grad = variance(zp, gamma, eps)
            zp = zp - lr * grad
        stds = np.sqrt(zp.var(axis=0, ddof=1) + eps)
        assert np.all(stds >= gamma - 1e-3)

    def test_covariance_drives_offdiagonals_to_zero(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((64, 8))
        # correlate channels deliberately
        mixer = np.eye(8) + 0.4 * rng.standard_normal((8, 8))
        zp = base @ mixer
        lr = 2.0
        for _ in range(5000):
            c, grad = covariance(zp)
            zp = zp - lr * grad
        dev = zp - zp.mean(axis=0, keepdims=True)
        cov = dev.T @ dev / 63.0
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-4
