"""Command-line pipeline: exit codes, file outputs, determinism."""

import argparse
import contextlib
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vicspeech import cli
from vicspeech.checkpoint import load_codebook, load_encoder
from vicspeech.cli import build_parser, run


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A tiny corpus -> codebook -> teacher pipeline driven through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    assert run(["synth", "--out", str(root / "corpus"), "--n-utterances", "5",
                "--vocab-size", "5", "--n-segments", "5", "--corpus-seed", "42"]) == 0
    manifest = root / "corpus" / "manifest.tsv"
    assert run(["kmeans", "--manifest", str(manifest), "--out", str(root / "cb.ckpt"),
                "--k", "5"]) == 0
    assert run(["pretrain", "--manifest", str(manifest),
                "--codebook", str(root / "cb.ckpt"),
                "--out", str(root / "teacher.ckpt"),
                "--log", str(root / "teacher.csv"),
                "--steps", "6", "--batch-utterances", "3",
                "--model-dim", "16", "--n-blocks", "1", "--mlp-hidden", "24",
                "--k", "5"]) == 0
    return root


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["synth", "--bogus-flag", "x"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_missing_input_file_is_runtime_error(self, tmp_path, capsys):
        code = run(["kmeans", "--manifest", str(tmp_path / "none.tsv"),
                    "--out", str(tmp_path / "cb.ckpt")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma = abc\n")
        assert run(["synth", "--out", str(tmp_path / "c"), "--config", str(cfg)]) == 1
        assert "gamma" in capsys.readouterr().err


class TestConfigErrorsBeforeInput:
    """A bad value exits 1 naming its key; the inputs do not exist, so the
    value must have been rejected before any of them was read."""

    @pytest.fixture
    def missing(self, tmp_path):
        return str(tmp_path / "missing")

    def _pretrain(self, missing, *extra):
        return ["pretrain", "--manifest", missing, "--codebook", missing,
                "--out", missing, *extra]

    def _ablate(self, missing, *extra):
        return ["ablate", "--manifest", missing, "--codebook", missing,
                "--out", missing, *extra]

    @pytest.mark.parametrize("extra, key", [
        (("--steps", "0"), "steps"),
        (("--model-dim", "1"), "model_dim"),
        (("--mask-start-prob", "0"), "mask_start_prob"),
        (("--batch-utterances", "0"), "batch_utterances"),
        (("--learning-rate", "-1"), "learning_rate"),
        (("--learning-rate", "nan"), "learning_rate"),
        (("--mlp-hidden", "0"), "mlp_hidden"),
        (("--learning-rate", "-1e-3"), "learning_rate"),
    ])
    def test_pretrain(self, missing, capsys, extra, key):
        assert run(self._pretrain(missing, *extra)) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [
        (("--lambda", "nan"), "lambda"),
        (("--gamma", "inf"), "gamma"),
        (("--snr-low", "nan"), "snr_low"),
        (("--snr-high", "inf"), "snr_high"),
        (("--snr-low", "-inf"), "snr_low"),
        (("--snr-low", "3500", "--snr-high", "4000"), "snr_high"),
        (("--snr-low", "-301"), "snr_low"),
    ])
    def test_vic_pretrain(self, missing, capsys, extra, key):
        assert run(["vic-pretrain", "--teacher", missing, "--manifest", missing,
                    "--codebook", missing, "--out", missing, *extra]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [
        (("--seeds", "1,a"), "seeds"),
        (("--snr-levels", "0,abc"), "snr-levels"),
        (("--seeds", "1,1"), "seeds"),
        (("--snr-levels", "0,nan"), "snr-levels"),
    ])
    def test_ablate(self, missing, capsys, extra, key):
        assert run(self._ablate(missing, *extra)) == 1
        assert key in capsys.readouterr().err

    def test_probe_snr_levels(self, missing, capsys):
        assert run(["probe", "--encoder", missing, "--train-manifest", missing,
                    "--out", missing, "--snr-levels", "0,abc"]) == 1
        assert "snr-levels" in capsys.readouterr().err

    def test_probe_snr_levels_nan(self, missing, capsys):
        assert run(["probe", "--encoder", missing, "--train-manifest", missing,
                    "--out", missing, "--snr-levels", "5,nan"]) == 1
        assert "snr-levels" in capsys.readouterr().err

    def test_analyze_variance_snr_levels(self, missing, capsys):
        assert run(["analyze-variance", "--encoder", missing, "--manifest", missing,
                    "--out", missing, "--snr-levels", "0,abc"]) == 1
        assert "snr-levels" in capsys.readouterr().err

    @pytest.mark.parametrize("command, inputs", [
        ("probe", ("--encoder", "--train-manifest")),
        ("analyze-variance", ("--encoder", "--manifest")),
        ("ablate", ("--manifest", "--codebook")),
    ])
    @pytest.mark.parametrize("levels", ["-inf", "0,-inf", "-4000", "4000", "5,300.5"])
    def test_snr_levels_the_mixer_cannot_reach(self, missing, capsys, command, inputs, levels):
        argv = [command, *(arg for flag in inputs for arg in (flag, missing)),
                "--out", missing, "--snr-levels", levels]
        assert run(argv) == 1
        assert "snr-levels" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["vic_exclude_masked", "adam_beta1"])
    def test_removed_key_in_config_file_is_unknown(self, missing, tmp_path, capsys, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"steps = 5\n{key} = 0\n")
        assert run(self._pretrain(missing, "--config", str(config))) == 1
        assert f"{config}:2: unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [("--vic-exclude-masked",),
                                       ("--vic-exclude-masked", "true")])
    def test_removed_flag_is_usage_error(self, missing, capsys, extra):
        assert run(["vic-pretrain", "--teacher", missing, "--manifest", missing,
                    "--codebook", missing, "--out", missing, *extra]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["0", "nan", "-1e-5"])
    def test_gradcheck_step(self, capsys, step):
        assert run(["gradcheck", f"--step={step}"]) == 1
        assert "--step" in capsys.readouterr().err

    @pytest.mark.parametrize("command, inputs", [
        ("probe", ("--encoder", "--train-manifest")),
        ("analyze-variance", ("--encoder", "--manifest")),
        ("ablate", ("--manifest", "--codebook")),
    ])
    def test_negative_snr_levels_as_separate_token_resolve(self, missing, capsys,
                                                           command, inputs):
        argv = [command, *(arg for flag in inputs for arg in (flag, missing)),
                "--out", missing, "--snr-levels", "-5,0"]
        assert run(argv) == 2
        assert missing in capsys.readouterr().err

    def test_probe_negative_snr_levels_in_equals_form_resolve(self, missing, capsys):
        """The `=` form parses too, so the run gets as far as the missing input."""
        assert run(["probe", "--encoder", missing, "--train-manifest", missing,
                    "--out", missing, "--snr-levels=-5,0"]) == 2
        assert missing in capsys.readouterr().err


class TestConfigErrorsBeforeRealInputs:
    """A bad value exits 1 naming its key with every input present: the
    command reads no input (each reader fails the test) and creates no
    output file or directory."""

    @pytest.fixture
    def no_reads(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an input was read before the config was checked")

        monkeypatch.setattr(cli.Corpus, "load", fail)
        monkeypatch.setattr(cli, "load_codebook", fail)
        monkeypatch.setattr(cli, "load_encoder", fail)

    @staticmethod
    def _argv(command, pipeline_dir, out):
        manifest = str(pipeline_dir / "corpus" / "manifest.tsv")
        codebook = str(pipeline_dir / "cb.ckpt")
        inputs = {
            "synth": [],
            "features": ["--manifest", manifest],
            "kmeans": ["--manifest", manifest],
            "pretrain": ["--manifest", manifest, "--codebook", codebook],
            "ablate": ["--manifest", manifest, "--codebook", codebook,
                       "--teacher", str(pipeline_dir / "teacher.ckpt")],
        }[command]
        return [command, *inputs, "--out", str(out)]

    @pytest.mark.parametrize("command, extra, named", [
        ("features", ("--hop", "0"), "hop must be"),
        ("features", ("--frame-len", "0"), "frame_len must be"),
        ("kmeans", ("--k", "0"), "k must be"),
        ("synth", ("--n-utterances", "0"), "n_utterances must be"),
        ("synth", ("--n-segments", "0"), "n_segments must be"),
        ("synth", ("--sample-rate", "0"), "sample_rate must be"),
        ("synth", ("--corpus-seed", "-1"), "corpus_seed must be"),
        ("pretrain", ("--train-seed", "-1"), "train_seed must be"),
        ("kmeans", ("--kmeans-seed", "-1"), "kmeans_seed must be"),
        ("ablate", ("--seeds", "-1"), "--seeds"),
        ("pretrain", ("--eval-interval", "-1"), "eval_interval must be"),
    ])
    def test_rejected(self, pipeline_dir, tmp_path, capsys, no_reads, command, extra, named):
        out = tmp_path / "out"
        assert run(self._argv(command, pipeline_dir, out) + list(extra)) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


def _value_flags():
    """(subcommand, its required options, flag, config key or flag) for every
    flag that takes a checked value: the config keys, the list flags and the
    seeds. gradcheck is left out: it takes no config key and reads no input."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    out = []
    for command, p in sub.choices.items():
        actions = [a for a in p._actions if a.option_strings]
        required = [a.option_strings[0] for a in actions if a.required]
        for a in actions:
            if a.dest.startswith("cfg_") and a.const is None:
                out.append((command, required, a.option_strings[0], a.dest[4:]))
            elif a.type is not None and command != "gradcheck":
                out.append((command, required, a.option_strings[0], a.option_strings[0]))
    return out


_VALUES = st.one_of(
    st.integers(-2**40, 2**40).map(str),
    st.floats().map(repr),  # includes nan and +-inf
    st.text(max_size=12),
)


class TestErrorPathProperty:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("errors")
        (root / "blocker").write_text("a regular file\n")
        return str(root / "missing"), str(root / "blocker")

    @settings(max_examples=200, deadline=None)
    @given(case=st.sampled_from(_value_flags()), value=_VALUES)
    def test_exit_1_names_the_value_or_exit_2_on_missing_io(self, paths, case, value):
        """No input exists and `synth --out` lies under a regular file, so no
        value may give exit 0 or let an exception escape."""
        missing, blocker = paths
        command, required, flag, key = case
        target = f"{blocker}/corpus" if command == "synth" else missing
        argv = [command, *(f"{opt}={target}" for opt in required), f"{flag}={value}"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv)
        err = err.getvalue()
        if code == 1:
            assert key in err or flag in err, (argv, err)
        else:
            assert code == 2, (argv, code, err)
            assert "error:" in err and target in err, (argv, err)


class TestSynth:
    def test_writes_manifest_and_wavs(self, pipeline_dir):
        manifest = pipeline_dir / "corpus" / "manifest.tsv"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        wav = pipeline_dir / "corpus" / lines[0].split("\t")[1]
        assert wav.exists()

    def test_rerun_is_byte_identical(self, pipeline_dir, tmp_path):
        assert run(["synth", "--out", str(tmp_path / "again"), "--n-utterances", "5",
                    "--vocab-size", "5", "--n-segments", "5", "--corpus-seed", "42"]) == 0
        a = (pipeline_dir / "corpus" / "wav" / "utt0000.wav").read_bytes()
        b = (tmp_path / "again" / "wav" / "utt0000.wav").read_bytes()
        assert a == b

    def test_vocab_beyond_voicing_grid_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "c49"
        assert run(["synth", "--out", str(out), "--vocab-size", "49"]) == 1
        assert "vocab_size" in capsys.readouterr().err
        assert not out.exists()

    def test_echoes_resolved_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        run(["synth", "--out", str(tmp_path / "c2"), "--n-utterances", "2",
             "--vocab-size", "4", "--n-segments", "3"])
        captured = capsys.readouterr()
        assert "n_utterances = 2" in captured.out
        assert "lambda = 5.0" in captured.out
        assert f"# numpy {np.__version__}\n" in captured.out
        assert "# OPENBLAS_NUM_THREADS = 3\n" in captured.out
        assert "# MKL_NUM_THREADS = unset\n" in captured.out
        assert "# OMP_NUM_THREADS = " in captured.out
        assert "NUM_THREADS" not in captured.err


class TestFeatures:
    def test_dumps_one_container_per_utterance(self, pipeline_dir, tmp_path):
        from vicspeech.checkpoint import load_tensors

        out = tmp_path / "feats"
        assert run(["features", "--manifest",
                    str(pipeline_dir / "corpus" / "manifest.tsv"),
                    "--out", str(out)]) == 0
        files = sorted(out.glob("*.feat"))
        assert len(files) == 5
        tensors = load_tensors(files[0])
        assert "frames" in tensors and "frame_labels" in tensors
        assert tensors["frames"].shape[1] == 40
        assert tensors["frames"].shape[0] == tensors["frame_labels"].shape[0]


class TestKmeansAndPretrain:
    def test_codebook_file_loads(self, pipeline_dir):
        cb = load_codebook(pipeline_dir / "cb.ckpt")
        assert cb.k == 5

    def test_teacher_checkpoint_loads(self, pipeline_dir):
        enc = load_encoder(pipeline_dir / "teacher.ckpt")
        assert enc.config.model_dim == 16

    def test_loss_csv_written(self, pipeline_dir):
        lines = (pipeline_dir / "teacher.csv").read_text().splitlines()
        assert lines[0] == "step,l_m,s,v,c,l_vic,l_tot"
        assert len(lines) == 7


_TERMS = ("inv", "var", "cov")


class TestVicPretrain:
    def test_no_flags_warns_and_proceeds(self, pipeline_dir, capsys):
        code = run(["vic-pretrain",
                    "--teacher", str(pipeline_dir / "teacher.ckpt"),
                    "--manifest", str(pipeline_dir / "corpus" / "manifest.tsv"),
                    "--codebook", str(pipeline_dir / "cb.ckpt"),
                    "--out", str(pipeline_dir / "baseline.ckpt"),
                    "--steps", "4", "--batch-utterances", "2",
                    "--noise-kinds", "natural"])
        captured = capsys.readouterr()
        assert code == 0
        assert "baseline" in captured.err
        assert (pipeline_dir / "baseline.ckpt").exists()

    def test_flags_and_weights_accepted(self, pipeline_dir):
        code = run(["vic-pretrain",
                    "--teacher", str(pipeline_dir / "teacher.ckpt"),
                    "--manifest", str(pipeline_dir / "corpus" / "manifest.tsv"),
                    "--codebook", str(pipeline_dir / "cb.ckpt"),
                    "--out", str(pipeline_dir / "student.ckpt"),
                    "--log", str(pipeline_dir / "student.csv"),
                    "--inv", "--var", "--cov",
                    "--lambda", "5", "--mu", "1", "--nu", "1", "--alpha", "1",
                    "--gamma", "1", "--epsilon", "1e-4", "--n-sample", "64",
                    "--steps", "4", "--batch-utterances", "2",
                    "--noise-kinds", "music,natural"])
        assert code == 0
        lines = (pipeline_dir / "student.csv").read_text().splitlines()
        assert len(lines) == 5
        # s component is live when --inv is on
        assert float(lines[1].split(",")[2]) > 0.0

    def test_config_file_can_enable_terms_without_flags(self, pipeline_dir, tmp_path,
                                                        capsys):
        cfg = tmp_path / "inv.cfg"
        cfg.write_text("use_inv = true\n")
        out = tmp_path / "cfg_student.ckpt"
        log = tmp_path / "cfg_student.csv"
        code = run(["vic-pretrain",
                    "--teacher", str(pipeline_dir / "teacher.ckpt"),
                    "--manifest", str(pipeline_dir / "corpus" / "manifest.tsv"),
                    "--codebook", str(pipeline_dir / "cb.ckpt"),
                    "--out", str(out), "--log", str(log), "--config", str(cfg),
                    "--steps", "3", "--batch-utterances", "2",
                    "--noise-kinds", "natural"])
        captured = capsys.readouterr()
        assert code == 0
        assert "baseline" not in captured.err  # term active, no warning
        assert float(log.read_text().splitlines()[1].split(",")[2]) > 0.0

    @pytest.mark.parametrize("file_value", [None, "true", "false"])
    @pytest.mark.parametrize("flags", [c for r in range(4)
                                       for c in itertools.combinations(_TERMS, r)])
    def test_term_resolution(self, tmp_path, capsys, flags, file_value):
        """A flag turns its term on; otherwise the config file decides;
        otherwise the term is off. The warning shows exactly when all are off."""
        missing = str(tmp_path / "missing")
        argv = ["vic-pretrain", "--teacher", missing, "--manifest", missing,
                "--codebook", missing, "--out", missing, *(f"--{t}" for t in flags)]
        if file_value is not None:
            cfg = tmp_path / "terms.cfg"
            cfg.write_text("".join(f"use_{t} = {file_value}\n" for t in _TERMS))
            argv += ["--config", str(cfg)]
        want = tuple(t in flags or file_value == "true" for t in _TERMS)
        train = cli._resolve(build_parser().parse_args(argv)).train
        assert (train.use_inv, train.use_var, train.use_cov) == want
        assert run(argv) == 2
        assert ("baseline" in capsys.readouterr().err) == (not any(want))

    def test_student_step0_equals_teacher_bytes(self, pipeline_dir, tmp_path):
        """Zero learning rate keeps the student at its initialization: the
        checkpoint must be byte-identical to the teacher's."""
        out = tmp_path / "frozen_student.ckpt"
        code = run(["vic-pretrain",
                    "--teacher", str(pipeline_dir / "teacher.ckpt"),
                    "--manifest", str(pipeline_dir / "corpus" / "manifest.tsv"),
                    "--codebook", str(pipeline_dir / "cb.ckpt"),
                    "--out", str(out),
                    "--inv", "--steps", "1", "--batch-utterances", "2",
                    "--learning-rate", "0", "--noise-kinds", "natural"])
        assert code == 0
        assert out.read_bytes() == (pipeline_dir / "teacher.ckpt").read_bytes()


class TestProbeAndVariance:
    def test_probe_csv(self, pipeline_dir, tmp_path):
        out = tmp_path / "probe.csv"
        code = run(["probe", "--encoder", str(pipeline_dir / "teacher.ckpt"),
                    "--train-manifest", str(pipeline_dir / "corpus" / "manifest.tsv"),
                    "--out", str(out),
                    "--snr-levels", "5,inf", "--noise-kinds", "natural",
                    "--seed", "1"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "model_tag,noise_kind,snr_db,frame_accuracy,n_frames"
        assert len(lines) == 3

    def test_analyze_variance_csv(self, pipeline_dir, tmp_path):
        out = tmp_path / "var.csv"
        wide = tmp_path / "var_wide.csv"
        code = run(["analyze-variance", "--encoder", str(pipeline_dir / "teacher.ckpt"),
                    "--manifest", str(pipeline_dir / "corpus" / "manifest.tsv"),
                    "--out", str(out), "--per-channel-out", str(wide),
                    "--snr-levels", "0,inf", "--noise-kinds", "natural",
                    "--seed", "1"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "model_tag,noise_kind,snr_db,mean_channel_variance"
        assert len(lines) == 3
        wide_header = wide.read_text().splitlines()[0]
        assert wide_header.startswith("model_tag,noise_kind,snr_db,ch0,")

    def test_codebook_of_other_feature_dim_is_runtime_error(self, pipeline_dir, tmp_path,
                                                            capsys):
        manifest = str(pipeline_dir / "corpus" / "manifest.tsv")
        cb20 = str(tmp_path / "cb20.ckpt")
        assert run(["kmeans", "--manifest", manifest, "--out", cb20, "--k", "5",
                    "--n-filters", "20"]) == 0
        code = run(["probe", "--encoder", str(pipeline_dir / "teacher.ckpt"),
                    "--train-manifest", manifest, "--codebook", cb20,
                    "--out", str(tmp_path / "probe.csv"),
                    "--snr-levels", "inf", "--noise-kinds", "natural"])
        assert code == 2
        assert "codebook feature dim" in capsys.readouterr().err
        assert not (tmp_path / "probe.csv").exists()

    def test_rerun_probe_is_byte_identical(self, pipeline_dir, tmp_path):
        a, b = tmp_path / "p1.csv", tmp_path / "p2.csv"
        for out in (a, b):
            assert run(["probe", "--encoder", str(pipeline_dir / "teacher.ckpt"),
                        "--train-manifest", str(pipeline_dir / "corpus" / "manifest.tsv"),
                        "--out", str(out), "--snr-levels", "5,inf",
                        "--noise-kinds", "natural", "--seed", "1"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestGradcheckCommand:
    def test_passes_and_prints_components(self, capsys):
        assert run(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "lambda = 5.0" in out  # the default config is echoed too
        for name in ("softmax_xent", "invariance", "variance", "covariance",
                     "masked_prediction", "full_model_total"):
            assert name in out


class TestAblateCommand:
    def test_emits_four_cumulative_rows(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "ablation.csv"
        code = run(["ablate",
                    "--manifest", str(pipeline_dir / "corpus" / "manifest.tsv"),
                    "--codebook", str(pipeline_dir / "cb.ckpt"),
                    "--teacher", str(pipeline_dir / "teacher.ckpt"),
                    "--out", str(out),
                    "--seeds", "1",
                    "--steps", "3", "--batch-utterances", "2",
                    "--noise-kinds", "natural",
                    "--eval-noise-kinds", "natural",
                    "--snr-levels", "5,inf"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "config_tag,n_accuracy_mean,n_accuracy_std,l_m,s,v,c"
        tags = [line.split(",")[0] for line in lines[1:]]
        assert tags == ["lm", "lm+inv", "lm+inv+var", "lm+inv+var+cov"]
