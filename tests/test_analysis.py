"""Representation statistics, the linear probe, and the ablation table."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vicspeech import analysis
from vicspeech.checkpoint import load_encoder, save_encoder
from vicspeech.losses import sample_frames
from vicspeech.model import forward, init_encoder
from vicspeech.trainer import AdamState, Corpus, EvalRow, TrainConfig, adam_step, derive_seed, \
    pretrain_clean


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


class TestLinearProbe:
    def test_clean_fit_beats_majority_baseline(self, trained_encoder, mini_corpus):
        results = analysis.linear_probe(trained_encoder, mini_corpus,
                                        [("clean", float("inf"))], seed=0)
        labels = np.concatenate([mini_corpus.frame_labels(i) for i in range(len(mini_corpus))])
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


def _reference_softmax_regression(x, y, iters, lr):
    """The probe fit as a plain loop, the reference its fast path must match
    bit for bit."""
    n, d = x.shape
    n_classes = int(y.max()) + 1
    w = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    vec = np.concatenate([w.ravel(), b])
    st = AdamState.zeros(vec.size)
    onehot_rows = np.arange(n)
    for _ in range(iters):
        w = vec[: d * n_classes].reshape(d, n_classes)
        b = vec[d * n_classes :]
        logits = x @ w + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        loss = -np.log(probs[onehot_rows, y] + 1e-300).mean()
        if not np.isfinite(loss):
            raise RuntimeError("linear probe diverged")
        g = probs
        g[onehot_rows, y] -= 1.0
        g /= n
        grad = np.concatenate([(x.T @ g).ravel(), g.sum(axis=0)])
        vec, st = adam_step(vec, grad, st, lr)
    return vec[: d * n_classes].reshape(d, n_classes), vec[d * n_classes :]


class TestSoftmaxRegression:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4000), n_classes=st.sampled_from([1, 2, 7, 8, 9, 16, 48]),
           d=st.integers(1, 40), scale=st.floats(0.1, 3.0), iters=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    @example(n=3300, n_classes=8, d=32, scale=1.0, iters=40, seed=0)  # benchmark scale
    def test_bit_identical_to_plain_loop(self, n, n_classes, d, scale, iters, seed):
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal((n, d))
        y = rng.integers(n_classes, size=n)
        y[rng.integers(n)] = n_classes - 1  # the class count is read off the labels
        want_w, want_b = _reference_softmax_regression(x, y, iters, 0.05)
        got = analysis._fit_softmax_regression(x, y, iters, 0.05)
        assert got.weight.tobytes() == want_w.tobytes()
        assert got.bias.tobytes() == want_b.tobytes()

    def test_fit_linear_probe_matches_plain_loop(self, trained_encoder, mini_corpus):
        got, x, y = analysis.fit_linear_probe(trained_encoder, mini_corpus)
        assert x.tobytes() == np.concatenate(
            [forward(trained_encoder, mini_corpus.clean_features(i))[0]
             for i in range(len(mini_corpus))]).astype(np.float64).tobytes()
        assert np.array_equal(y, np.concatenate([mini_corpus.frame_labels(i)
                                                 for i in range(len(mini_corpus))]))
        want_w, want_b = _reference_softmax_regression(x, y, 300, 0.05)
        assert got.weight.tobytes() == want_w.tobytes()
        assert got.bias.tobytes() == want_b.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        # a step this large on an input this large overflows the logits
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 4))
        x[0, 0] = 1e300
        y = rng.integers(3, size=50)
        with pytest.raises(RuntimeError, match="linear probe diverged"):
            analysis._fit_softmax_regression(x, y, 5, 1e10)


def _reference_mean_sampled_channel_std(enc, corpus, noise_kinds, snr_range_db, n, seed):
    """`analysis.mean_sampled_channel_std` before the condition draw moved
    into `Corpus.draw_condition`, kept verbatim as the reference."""
    reps_list = []
    for i in range(len(corpus)):
        rng = np.random.default_rng(derive_seed(seed, analysis._TAG_SAMPLE_STD, i, 0))
        kind = str(noise_kinds[int(rng.integers(len(noise_kinds)))])
        snr = float(rng.uniform(*snr_range_db))
        feats = corpus.condition_features(i, kind, snr,
                                          derive_seed(seed, analysis._TAG_SAMPLE_STD, i))
        reps, _ = forward(enc, feats, training=False)
        reps_list.append(reps)
    pair = sample_frames(reps_list, reps_list, n, derive_seed(seed, analysis._TAG_SAMPLE_STD + 1))
    return float(pair.Zp.std(axis=0, ddof=1).mean())


def _reference_train_eval_hook(corpus, probe_iters):
    """`make_train_eval_hook` before it scored the clean condition on the
    fit's pooled representations: it encoded the clean utterances again.
    Kept verbatim as the reference, but for taking the probe out of the
    tuple `fit_linear_probe` now returns and pooling the noisy
    representations in float64."""

    def hook(step, state):
        probe = analysis.fit_linear_probe(state, corpus, iters=probe_iters)[0]
        correct_c, total = analysis._probe_counts(probe, corpus, analysis._encode(state, corpus))
        noisy = list(analysis._encode(state, corpus, *analysis._HOOK_CONDITION,
                                      analysis._TAG_EVAL_NOISE))
        correct_n, _ = analysis._probe_counts(probe, corpus, noisy)
        pooled = np.concatenate(noisy, dtype=np.float64)
        return EvalRow(step=step, probe_acc_clean=correct_c / total,
                       probe_acc_noisy=correct_n / total,
                       mean_channel_std=float(pooled.std(axis=0, ddof=1).mean()))

    return hook


class TestMergedPathsAreBitwise:
    @pytest.mark.parametrize("seed,kinds", [(5, ("music", "natural")),
                                            (0, ("babble", "music", "natural"))])
    def test_mean_sampled_channel_std_equals_reference(self, trained_encoder, mini_corpus,
                                                       seed, kinds):
        got = analysis.mean_sampled_channel_std(trained_encoder, mini_corpus, kinds,
                                                (5.0, 10.0), 64, seed=seed)
        want = _reference_mean_sampled_channel_std(trained_encoder, mini_corpus, kinds,
                                                   (5.0, 10.0), 64, seed)
        assert got == want

    def test_eval_hook_equals_reference_with_two_thirds_of_the_forwards(
            self, trained_encoder, mini_corpus, monkeypatch):
        corpus = Corpus(mini_corpus.utterances[:4])
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(analysis, "forward", counted)
        rows, counts = [], []
        for make in (analysis.make_train_eval_hook, _reference_train_eval_hook):
            calls.clear()
            rows.append(make(corpus, probe_iters=20)(3, trained_encoder))
            counts.append(len(calls))
        assert rows[0] == rows[1]
        assert counts == [8, 12]


class TestAblationRun:
    def test_duplicate_seeds_rejected(self, tiny_encoder, mini_corpus, mini_codebook):
        cfg = TrainConfig(steps=1, batch_utterances=3, noise_kinds=("natural",))
        with pytest.raises(ValueError, match="duplicate seeds"):
            analysis.ablation_run(tiny_encoder, cfg, mini_corpus, mini_codebook, (1, 1),
                                  [("clean", float("inf"))])

    def test_a_reloaded_teacher_gives_the_same_ablation(self, trained_encoder, mini_corpus,
                                                        mini_codebook, tmp_path):
        """`ablate --teacher` reads its teacher from a checkpoint. Its run
        equals, bit for bit, the run from the teacher still in memory."""
        path = tmp_path / "teacher.ckpt"
        save_encoder(path, trained_encoder)
        cfg = TrainConfig(steps=2, batch_utterances=3, seed=4, noise_kinds=("music", "natural"))
        conditions = [("natural", 5.0), ("clean", float("inf"))]
        mem, disk = (analysis.ablation_run(teacher, cfg, mini_corpus, mini_codebook, (1,),
                                           conditions)
                     for teacher in (trained_encoder, load_encoder(path)))
        assert mem.students.keys() == disk.students.keys()
        for key, student in mem.students.items():
            assert student.to_vector().tobytes() == disk.students[key].to_vector().tobytes(), key
        assert mem.logs == disk.logs
        assert mem.probe_results == disk.probe_results
        assert mem.rows == disk.rows


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
