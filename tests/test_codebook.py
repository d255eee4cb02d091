"""k-means fitting and codeword assignment."""

import itertools

import numpy as np
import pytest

from vicspeech.codebook import Codebook, assign, fit_kmeans


def brute_force_two_clusters(points):
    """Oracle: enumerate every 2-partition, return (best inertia, centroids)."""
    n = len(points)
    best = (np.inf, None)
    for bits in itertools.product([0, 1], repeat=n):
        if len(set(bits)) < 2:
            continue
        inertia = 0.0
        cents = []
        for side in (0, 1):
            members = points[np.array(bits) == side]
            c = members.mean(axis=0)
            cents.append(c)
            inertia += ((members - c) ** 2).sum()
        if inertia < best[0]:
            best = (inertia, sorted(float(c[0]) for c in cents))
    return best


class TestFitKmeans:
    def test_matches_brute_force_partition_oracle(self):
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        best_inertia, best_centroids = brute_force_two_clusters(points)
        cb = fit_kmeans(points, k=2, max_iters=20, seed=0)
        assert best_inertia == pytest.approx(1.0)
        assert best_centroids == [0.5, 10.5]
        assert cb.inertia == pytest.approx(best_inertia, abs=1e-12)
        assert sorted(cb.centroids.ravel().tolist()) == best_centroids

    def test_k_equals_n_gives_zero_inertia(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((5, 3))
        cb = fit_kmeans(points, k=5, max_iters=20, seed=1)
        assert cb.inertia == pytest.approx(0.0, abs=1e-20)
        assert sorted(map(tuple, cb.centroids)) == sorted(map(tuple, points))

    def test_inertia_history_nonincreasing(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((200, 5))
        cb = fit_kmeans(points, k=8, max_iters=50, seed=2)
        hist = cb.inertia_history
        assert len(hist) >= 2
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_refit_same_seed_bit_identical(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((100, 4))
        a = fit_kmeans(points, k=7, max_iters=30, seed=9)
        b = fit_kmeans(points, k=7, max_iters=30, seed=9)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_kmeans(np.zeros((3, 2)) + np.arange(3)[:, None], k=4)

    def test_zero_inertia_with_k_distinct_rows(self):
        base = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        frames = np.repeat(base, 4, axis=0)
        cb = fit_kmeans(frames, k=3, max_iters=50, seed=0)
        assert cb.inertia == pytest.approx(0.0, abs=1e-20)
        labels = assign(cb, frames)
        assert len(set(labels.tolist())) == 3


class TestAssign:
    def test_exact_centroid_match(self):
        cb = Codebook(centroids=np.arange(10.0).reshape(5, 2))
        frame = cb.centroids[3][None, :]
        assert assign(cb, frame)[0] == 3

    def test_tie_breaks_to_lowest_index(self):
        # frame at 1.0 is exactly equidistant from centroids 1 (at 0) and 4 (at 2)
        cb = Codebook(centroids=np.array([[9.0], [0.0], [9.5], [9.9], [2.0]]))
        assert assign(cb, np.array([[1.0]]))[0] == 1

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(6)
        cb = Codebook(centroids=rng.standard_normal((9, 4)))
        frames = rng.standard_normal((50, 4))
        got = assign(cb, frames)
        for i, frame in enumerate(frames):
            dists = [((frame - c) ** 2).sum() for c in cb.centroids]
            assert got[i] == int(np.argmin(dists))

    def test_dimension_mismatch_rejected(self):
        cb = Codebook(centroids=np.zeros((3, 4)) + np.arange(3)[:, None])
        with pytest.raises(ValueError):
            assign(cb, np.zeros((2, 5)))

    def test_assign_on_feature_sequence(self, mini_corpus, mini_codebook):
        feats = mini_corpus.clean_features(0)
        labels = assign(mini_codebook, feats)
        assert labels.shape == (feats.shape[0],)
        assert labels.max() < mini_codebook.k


class TestCorpusAgreement:
    def test_codeword_purity_beats_chance(self, mini_corpus):
        """With k = vocab size, best-match cluster->unit mapping beats chance."""
        frames = np.concatenate([mini_corpus.clean_features(i) for i in range(len(mini_corpus))])
        units = np.concatenate([mini_corpus.frame_labels(i) for i in range(len(mini_corpus))])
        vocab = int(units.max()) + 1
        cb = fit_kmeans(frames, k=vocab, max_iters=50, seed=11)
        codes = assign(cb, frames)
        correct = 0
        for j in range(vocab):
            members = units[codes == j]
            if members.size:
                correct += int(np.bincount(members).max())
        purity = correct / units.size
        assert purity > 1.0 / vocab
