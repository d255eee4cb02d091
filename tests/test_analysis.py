"""Representation statistics, the linear probe, and the ablation table."""

import os

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

    def test_clean_rows_are_encoded_once(self, trained_encoder, mini_corpus, monkeypatch):
        """Every kind's clean row is the one read-only vector of a single
        clean encoding of the corpus, equal to a report of that kind alone."""
        kinds, snrs = ["music", "natural", "babble"], [float("inf"), 5.0]
        calls = []
        forward = analysis.forward

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(analysis, "forward", counted)
        report = analysis.channel_variance_report(trained_encoder, mini_corpus, kinds, snrs,
                                                  seed=4)
        assert len(calls) == (1 + len(kinds)) * len(mini_corpus)
        clean = [report.cell(kind, float("inf")).per_channel for kind in kinds]
        assert all(row is clean[0] for row in clean)
        assert not clean[0].flags.writeable
        for kind in kinds:
            alone = analysis.channel_variance_report(trained_encoder, mini_corpus, [kind],
                                                     snrs, seed=4)
            for snr in snrs:
                assert (report.cell(kind, snr).per_channel.tobytes()
                        == alone.cell(kind, snr).per_channel.tobytes())

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


def _reference_linear_probe(enc, train_corpus, eval_conditions, seed=0, eval_corpus=None):
    """`linear_probe` when it took a list of (noise kind, SNR) conditions and
    fell back to the train corpus without an eval corpus. Kept verbatim as
    the reference, but for the module prefixes and for taking the probe from
    the forked fit's `result()`."""
    ev = train_corpus if eval_corpus is None else eval_corpus
    analysis._check_labelled(train_corpus, ev)
    probe = analysis.fit_linear_probe(enc, train_corpus)[0].result()
    results = []
    seen_clean = False
    for kind, snr in eval_conditions:
        if np.isinf(snr) and snr > 0:
            if seen_clean:
                continue
            seen_clean = True
            kind = "clean"
        correct, total = analysis._probe_counts(
            probe, ev, analysis._encode(enc, ev, kind, snr, seed, analysis._TAG_PROBE_NOISE))
        results.append(analysis.ProbeResult(noise_kind=kind, snr_db=float(snr),
                                            frame_accuracy=correct / total, n_frames=total))
    return results


class TestLinearProbe:
    @pytest.mark.parametrize("kinds, levels", [
        (("babble", "music"), (0.0, 5.0)),
        (("music", "natural"), (float("inf"), 5.0)),
        (("babble", "natural"), (0.0, float("inf"))),
        (("babble", "music", "natural"), (0.0, float("inf"), 15.0)),
        (("natural",), (5.0, float("inf"))),
    ], ids=["no-inf", "inf-first", "inf-last", "inf-in-every-kind", "one-kind"])
    def test_grid_equals_the_condition_list(self, trained_encoder, mini_corpus, kinds, levels):
        """The grid is scored kind by kind, as the list of its (kind, SNR)
        pairs in that order was."""
        ev = Corpus(mini_corpus.utterances[:3])
        got = analysis.linear_probe(trained_encoder, mini_corpus, ev, kinds, levels, seed=2)
        want = _reference_linear_probe(trained_encoder, mini_corpus,
                                       [(k, s) for k in kinds for s in levels], seed=2,
                                       eval_corpus=ev)
        assert got == want

    def test_clean_fit_beats_majority_baseline(self, trained_encoder, mini_corpus):
        results = analysis.linear_probe(trained_encoder, mini_corpus, mini_corpus,
                                        ["music"], [float("inf")], seed=0)
        labels = np.concatenate([mini_corpus.frame_labels(i) for i in range(len(mini_corpus))])
        majority = np.bincount(labels).max() / labels.size
        assert results[0].frame_accuracy >= majority

    def test_deterministic(self, trained_encoder, mini_corpus):
        grid = (["music"], [5.0, float("inf")])
        a = analysis.linear_probe(trained_encoder, mini_corpus, mini_corpus, *grid, seed=0)
        b = analysis.linear_probe(trained_encoder, mini_corpus, mini_corpus, *grid, seed=0)
        assert [r.frame_accuracy for r in a] == [r.frame_accuracy for r in b]

    def test_infinite_snr_conditions_collapse_to_one_clean_row(self, trained_encoder,
                                                               mini_corpus):
        results = analysis.linear_probe(trained_encoder, mini_corpus, mini_corpus,
                                        ["babble", "music"], [float("inf"), 5.0], seed=0)
        kinds = [r.noise_kind for r in results]
        assert kinds.count("clean") == 1
        assert len(results) == 3

    def test_n_accuracy_averages_noisy_conditions_only(self):
        results = [
            analysis.ProbeResult("music", 5.0, 0.6, 100),
            analysis.ProbeResult("natural", 5.0, 0.4, 100),
            analysis.ProbeResult("clean", float("inf"), 0.9, 100),
        ]
        assert analysis.n_accuracy(results) == pytest.approx(0.5)

    def test_probe_csv_format(self, trained_encoder, mini_corpus, tmp_path):
        results = analysis.linear_probe(trained_encoder, mini_corpus, mini_corpus,
                                        ["music"], [5.0, float("inf")], seed=0)
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
        grid = (["music"], [float("inf")])
        untrained = analysis.linear_probe(tiny_encoder, mini_corpus, mini_corpus, *grid, seed=0)
        trained = analysis.linear_probe(trained_encoder, mini_corpus, mini_corpus, *grid, seed=0)
        assert untrained[0].frame_accuracy < trained[0].frame_accuracy


def _reference_softmax_regression(x, y, iters, lr):
    """The probe fit as a plain loop, the reference its class-major path must
    match to float64 rounding."""
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


def _rounding_error(probe, want_w, want_b):
    """The largest parameter difference, relative to the largest entry."""
    top = max(np.abs(want_w).max(), np.abs(want_b).max())
    diff = max(np.abs(probe.weight - want_w).max(), np.abs(probe.bias - want_b).max())
    return diff / top if top else diff


class TestSoftmaxRegression:
    """The class-major loop sums in another order than the plain loop, so
    its parameters differ at float64 rounding level. Labels drawn apart from
    x make Adam amplify that difference over hundreds of steps (5.3e-3
    relative after 300 at benchmark scale), so no bound is pinned on that
    case at that length."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4000), n_classes=st.sampled_from([1, 2, 7, 8, 9, 16, 48]),
           d=st.integers(1, 40), scale=st.floats(0.1, 3.0), iters=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    @example(n=3300, n_classes=8, d=32, scale=1.0, iters=40, seed=0)  # benchmark scale
    def test_within_rounding_of_plain_loop(self, n, n_classes, d, scale, iters, seed):
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal((n, d))
        y = rng.integers(n_classes, size=n)
        y[rng.integers(n)] = n_classes - 1  # the class count is read off the labels
        want_w, want_b = _reference_softmax_regression(x, y, iters, 0.05)
        got = analysis._fit_softmax_regression(x, y, iters, 0.05)
        assert got.weight.shape == want_w.shape and got.bias.shape == want_b.shape
        # measured at most 6.5e-9 over 600 drawn cases
        assert _rounding_error(got, want_w, want_b) <= 1e-7

    def test_fit_linear_probe_matches_plain_loop(self, trained_encoder, tiny_encoder,
                                                 mini_corpus):
        for enc in (trained_encoder, tiny_encoder):
            fit, x, y = analysis.fit_linear_probe(enc, mini_corpus)
            got = fit.result()
            assert x.tobytes() == np.concatenate(
                [forward(enc, mini_corpus.clean_features(i))[0]
                 for i in range(len(mini_corpus))]).astype(np.float64).tobytes()
            assert np.array_equal(y, np.concatenate([mini_corpus.frame_labels(i)
                                                     for i in range(len(mini_corpus))]))
            want_w, want_b = _reference_softmax_regression(x, y, 300, 0.05)
            # measured 5.0e-16 on the trained encoder and 7.4e-16 on the random one
            assert _rounding_error(got, want_w, want_b) <= 1e-12
            assert np.array_equal(got.predict(x), (x @ want_w + want_b).argmax(axis=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        # a step this large on an input this large overflows the logits
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 4))
        x[0, 0] = 1e300
        y = rng.integers(3, size=50)
        with pytest.raises(RuntimeError, match="linear probe diverged"):
            analysis._fit_softmax_regression(x, y, 5, 1e10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fit", [_reference_softmax_regression,
                                     analysis._fit_softmax_regression],
                             ids=["plain", "class_major"])
    def test_divergence_is_raised_at_the_same_iteration(self, fit):
        # every label is class 1 and every input positive, so each Adam step
        # moves the two classes' parameters apart: the logits overflow after four
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 1.5, (50, 2))
        y = np.ones(50, dtype=np.int64)
        fit(x, y, 4, 2e307)
        with pytest.raises(RuntimeError, match="linear probe diverged"):
            fit(x, y, 5, 2e307)


class TestForkedFit:
    """The probe fits in a forked child while the parent encodes the grid.
    Its result does not depend on when the child ends, and no child or pipe
    outlives the probe, whether the fit or the parent fails."""

    def test_equals_the_in_process_fit(self, trained_encoder, tiny_encoder, mini_corpus):
        for enc in (trained_encoder, tiny_encoder):
            fit, x, y = analysis.fit_linear_probe(enc, mini_corpus)
            got = fit.result()
            want = analysis._fit_softmax_regression(x, y, 300, analysis._PROBE_LR)
            assert got.weight.shape == want.weight.shape and got.bias.shape == want.bias.shape
            assert got.weight.tobytes() == want.weight.tobytes()
            assert got.bias.tobytes() == want.bias.tobytes()
            assert fit.done() and fit.result() is got

    @pytest.mark.parametrize("done", [None, False, True],
                             ids=["as-timed", "ends-after-the-last-row",
                                  "ends-before-the-first-row"])
    @pytest.mark.parametrize("kinds, levels", [
        (("music",), (float("inf"),)),
        (("babble", "music", "natural"), (0.0, 5.0, 10.0, 15.0, float("inf"))),
    ], ids=["1-row", "13-row"])
    def test_probe_equals_reference_whenever_the_fit_ends(self, trained_encoder, mini_corpus,
                                                          monkeypatch, kinds, levels, done):
        """`done` pins what the fit reports between rows: never done, so
        every row is held until the end, or done from the first row, so the
        parent waits for the fit and then scores each row as it streams."""
        if done is not None:
            monkeypatch.setattr(analysis.ProbeFit, "done", lambda self: done)
        ev = Corpus(mini_corpus.utterances[:3])
        got = analysis.linear_probe(trained_encoder, mini_corpus, ev, kinds, levels, seed=2)
        want = _reference_linear_probe(trained_encoder, mini_corpus,
                                       [(k, s) for k in kinds for s in levels], seed=2,
                                       eval_corpus=ev)
        assert len(got) == (1 if len(levels) == 1 else 13)
        assert got == want

    @staticmethod
    def _open_fds():
        return len(os.listdir("/proc/self/fd"))

    def _assert_no_child_and_no_pipe(self, n_fds):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert self._open_fds() == n_fds

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_raised_in_the_parent(self, monkeypatch):
        # the case of TestSoftmaxRegression::test_divergence_is_raised_at_the_same_iteration
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 1.5, (50, 2))
        y = np.ones(50, dtype=np.int64)
        monkeypatch.setattr(analysis, "_PROBE_LR", 2e307)  # the child reads it after the fork
        n_fds = self._open_fds()
        want = analysis._fit_softmax_regression(x, y, 4, 2e307)
        with analysis.ProbeFit(x, y, 4) as fit:
            assert fit.result().weight.tobytes() == want.weight.tobytes()
        with analysis.ProbeFit(x, y, 5) as fit:
            with pytest.raises(RuntimeError, match="^linear probe diverged$"):
                fit.result()
        self._assert_no_child_and_no_pipe(n_fds)

    def test_an_error_in_the_parent_propagates_unchanged(self, trained_encoder, mini_corpus,
                                                         monkeypatch):
        """A condition draw that raises while the child fits: the parent's
        error comes out as it was raised, and the child is killed and reaped."""
        error = KeyError("no such condition")

        def fail(*args, **kwargs):
            raise error

        ev = Corpus(mini_corpus.utterances[:3])
        monkeypatch.setattr(ev, "condition_features", fail)
        n_fds = self._open_fds()
        with pytest.raises(KeyError) as info:
            analysis.linear_probe(trained_encoder, mini_corpus, ev, ["music"], [5.0])
        assert info.value is error
        self._assert_no_child_and_no_pipe(n_fds)


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


def _reference_train_eval_hook(corpus):
    """`make_train_eval_hook` before it scored the clean condition on the
    fit's pooled representations: it encoded the clean utterances again.
    Kept verbatim as the reference, but for taking the probe out of the
    tuple `fit_linear_probe` now returns, through the forked fit's
    `result()`, and pooling the noisy representations in float64."""

    def hook(step, state):
        probe = analysis.fit_linear_probe(state, corpus,
                                          iters=analysis._HOOK_PROBE_ITERS)[0].result()
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
            rows.append(make(corpus)(3, trained_encoder))
            counts.append(len(calls))
        assert rows[0] == rows[1]
        assert counts == [8, 12]


class TestAblationRun:
    def test_duplicate_seeds_rejected(self, tiny_encoder, mini_corpus, mini_codebook):
        cfg = TrainConfig(steps=1, batch_utterances=3, noise_kinds=("natural",))
        with pytest.raises(ValueError, match="duplicate seeds"):
            analysis.ablation_run(tiny_encoder, cfg, mini_corpus, mini_codebook, (1, 1),
                                  mini_corpus, ["natural"], [float("inf")])

    def test_a_reloaded_teacher_gives_the_same_ablation(self, trained_encoder, mini_corpus,
                                                        mini_codebook, tmp_path):
        """`ablate --teacher` reads its teacher from a checkpoint. Its run
        equals, bit for bit, the run from the teacher still in memory."""
        path = tmp_path / "teacher.ckpt"
        save_encoder(path, trained_encoder)
        cfg = TrainConfig(steps=2, batch_utterances=3, seed=4, noise_kinds=("music", "natural"))
        mem, disk = (analysis.ablation_run(teacher, cfg, mini_corpus, mini_codebook, (1,),
                                           mini_corpus, ["natural"], [5.0, float("inf")])
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
