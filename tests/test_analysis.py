"""Representation statistics, the linear probe, and the ablation table."""

import numpy as np
import pytest

from vicspeech import analysis
from vicspeech.model import init_encoder
from vicspeech.trainer import TrainConfig, pretrain_clean


@pytest.fixture(scope="module")
def tiny_encoder(mini_encoder_config):
    return init_encoder(mini_encoder_config, seed=1)


@pytest.fixture(scope="module")
def trained_encoder(mini_corpus, mini_codebook, mini_encoder_config):
    cfg = TrainConfig(steps=40, batch_utterances=3, learning_rate=1e-3, seed=2)
    state, _ = pretrain_clean(mini_corpus, mini_codebook, cfg, enc_cfg=mini_encoder_config)
    return state


class TestPooledChannelVariance:
    def test_constant_representations_have_zero_variance(self):
        reps = [np.full((10, 4), 2.0), np.full((7, 4), 2.0)]
        assert np.all(analysis.pooled_channel_variance(reps) == 0.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        reps = [rng.standard_normal((15, 5)), rng.standard_normal((9, 5))]
        pooled = np.concatenate(reps)
        mean = pooled.sum(axis=0) / pooled.shape[0]
        oracle = ((pooled - mean) ** 2).sum(axis=0) / (pooled.shape[0] - 1)
        got = analysis.pooled_channel_variance(reps)
        assert np.allclose(got, oracle, atol=1e-10)


class TestChannelVarianceReport:
    def test_infinite_snr_equals_clean_statistics(self, trained_encoder, mini_corpus):
        from vicspeech.model import forward

        report = analysis.channel_variance_report(
            trained_encoder, mini_corpus, ["music"], [float("inf")], seed=4)
        clean_reps = [forward(trained_encoder, mini_corpus.clean_features(i))[0]
                      for i in range(len(mini_corpus))]
        expected = analysis.pooled_channel_variance(clean_reps)
        row = report.cell("music", float("inf"))
        assert np.array_equal(row.per_channel, expected)

    def test_mean_equals_mean_of_per_channel(self, trained_encoder, mini_corpus):
        report = analysis.channel_variance_report(
            trained_encoder, mini_corpus, ["music", "natural"], [5.0, float("inf")], seed=4)
        for row in report.rows:
            assert row.mean_channel_variance == pytest.approx(
                float(row.per_channel.mean()), abs=1e-12)

    def test_csv_round_trip_and_inf_token(self, trained_encoder, mini_corpus, tmp_path):
        report = analysis.channel_variance_report(
            trained_encoder, mini_corpus, ["music"], [0.0, float("inf")], seed=4)
        path = tmp_path / "var.csv"
        report.write_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model_tag,noise_kind,snr_db,mean_channel_variance"
        assert any(",inf," in line for line in lines[1:])

    def test_deterministic(self, trained_encoder, mini_corpus):
        a = analysis.channel_variance_report(trained_encoder, mini_corpus,
                                             ["natural"], [5.0], seed=4)
        b = analysis.channel_variance_report(trained_encoder, mini_corpus,
                                             ["natural"], [5.0], seed=4)
        assert a.rows[0].mean_channel_variance == b.rows[0].mean_channel_variance


class TestCovarianceOffdiagStat:
    def test_duplicated_channel_pair_is_one(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(200)
        stat = analysis.covariance_offdiag_stat(np.stack([col, col], axis=1))
        assert stat == pytest.approx(1.0, abs=1e-12)

    def test_independent_channels_near_zero(self):
        rng = np.random.default_rng(2)
        reps = rng.standard_normal((10000, 6))
        assert analysis.covariance_offdiag_stat(reps) < 0.05

    def test_invariant_under_channel_permutation(self):
        rng = np.random.default_rng(3)
        reps = rng.standard_normal((50, 5))
        perm = rng.permutation(5)
        a = analysis.covariance_offdiag_stat(reps)
        b = analysis.covariance_offdiag_stat(reps[:, perm])
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_variance_channel_excluded_with_count(self):
        rng = np.random.default_rng(4)
        reps = rng.standard_normal((30, 4))
        reps[:, 2] = 7.0
        stat, excluded = analysis.covariance_offdiag_stat(reps, return_excluded=True)
        assert excluded == 1
        assert 0.0 <= stat <= 1.0


class TestLinearProbe:
    def test_clean_fit_beats_majority_baseline(self, trained_encoder, mini_corpus):
        results = analysis.linear_probe(trained_encoder, mini_corpus,
                                        [("clean", float("inf"))], seed=0)
        labels = np.concatenate([mini_corpus.clean_features(i).frame_labels
                                 for i in range(len(mini_corpus))])
        majority = np.bincount(labels).max() / labels.size
        assert results[0].frame_accuracy >= majority

    def test_deterministic(self, trained_encoder, mini_corpus):
        conds = [("music", 5.0), ("clean", float("inf"))]
        a = analysis.linear_probe(trained_encoder, mini_corpus, conds, seed=0)
        b = analysis.linear_probe(trained_encoder, mini_corpus, conds, seed=0)
        assert [r.frame_accuracy for r in a] == [r.frame_accuracy for r in b]

    def test_infinite_snr_conditions_collapse_to_one_clean_row(self, trained_encoder,
                                                               mini_corpus):
        conds = [("babble", float("inf")), ("music", float("inf")), ("music", 5.0)]
        results = analysis.linear_probe(trained_encoder, mini_corpus, conds, seed=0)
        kinds = [r.noise_kind for r in results]
        assert kinds.count("clean") == 1
        assert len(results) == 2

    def test_n_accuracy_averages_noisy_conditions_only(self):
        results = [
            analysis.ProbeResult("music", 5.0, 0.6, 100),
            analysis.ProbeResult("natural", 5.0, 0.4, 100),
            analysis.ProbeResult("clean", float("inf"), 0.9, 100),
        ]
        assert analysis.n_accuracy(results) == pytest.approx(0.5)

    def test_probe_csv_format(self, trained_encoder, mini_corpus, tmp_path):
        results = analysis.linear_probe(trained_encoder, mini_corpus,
                                        [("music", 5.0), ("clean", float("inf"))], seed=0)
        path = tmp_path / "probe.csv"
        analysis.write_probe_csv(path, results, model_tag="enc")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model_tag,noise_kind,snr_db,frame_accuracy,n_frames"
        assert len(lines) == 3
        assert lines[1].startswith("enc,music,")

    @pytest.mark.xfail(
        reason="inverted at desk scale: the synthetic corpus is nearly linearly "
               "separable per frame, so random projections already probe at ~0.98 "
               "on clean input while masked-prediction training warps "
               "representations toward codeword context and lands at ~0.94-0.97; "
               "measured on two corpus difficulties x three init seeds",
        strict=False)
    def test_untrained_encoder_scores_below_trained_on_clean(self, tiny_encoder,
                                                             trained_encoder,
                                                             mini_corpus):
        cond = [("clean", float("inf"))]
        untrained = analysis.linear_probe(tiny_encoder, mini_corpus, cond, seed=0)
        trained = analysis.linear_probe(trained_encoder, mini_corpus, cond, seed=0)
        assert untrained[0].frame_accuracy < trained[0].frame_accuracy


class TestAblationRun:
    def test_duplicate_seeds_rejected(self, tiny_encoder, mini_corpus, mini_codebook):
        cfg = TrainConfig(steps=1, batch_utterances=3, noise_kinds=("natural",))
        with pytest.raises(ValueError, match="duplicate seeds"):
            analysis.ablation_run(cfg, mini_corpus, mini_codebook, (1, 1),
                                  [("clean", float("inf"))], teacher=tiny_encoder)


class TestGradcheckSuite:
    def test_all_components_pass_threshold(self):
        reports = analysis.gradcheck_suite(seed=3)
        names = [name for name, _ in reports]
        assert names == ["softmax_xent", "masked_prediction", "invariance",
                         "variance", "covariance", "full_model_total"]
        for name, rep in reports:
            assert rep.max_rel_error <= 1e-4, name

    def test_runs_quickly(self):
        import time

        t0 = time.time()
        analysis.gradcheck_suite(seed=1)
        assert time.time() - t0 < 60.0
