"""Command-line pipeline: exit codes, file outputs, determinism."""

import argparse
import contextlib
import ctypes
import glob
import io
import itertools
import math
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vicspeech import analysis, cli
from vicspeech.checkpoint import load_codebook, load_encoder, load_tensors, save_codebook, \
    save_tensors
from vicspeech.cli import build_parser, run
from vicspeech.codebook import Codebook
from vicspeech.config import load_config
from vicspeech.signal import Waveform, build_corpus, write_wav


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
        return ["ablate", "--manifest", missing, "--codebook", missing, "--teacher", missing,
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
        (("--noise-kinds", "music,natural,music"), "noise_kinds"),
        (("--noise-kinds", "music,,natural"), "noise_kinds"),
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
        (("--snr-levels", "5,5.0,inf"), "snr-levels"),
        (("--snr-levels", "0,inf,inf"), "snr-levels"),
        (("--eval-noise-kinds", "babble,babble"), "eval-noise-kinds"),
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
        ("ablate", ("--manifest", "--codebook", "--teacher")),
    ])
    @pytest.mark.parametrize("levels", ["-inf", "0,-inf", "-4000", "4000", "5,300.5"])
    def test_snr_levels_the_mixer_cannot_reach(self, missing, capsys, command, inputs, levels):
        argv = [command, *(arg for flag in inputs for arg in (flag, missing)),
                "--out", missing, "--snr-levels", levels]
        assert run(argv) == 1
        assert "snr-levels" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["vic_exclude_masked", "adam_beta1", "frame_len",
                                     "sample_rate"])
    def test_removed_key_in_config_file_is_unknown(self, missing, tmp_path, capsys, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"steps = 5\n{key} = 0\n")
        assert run(self._pretrain(missing, "--config", str(config))) == 1
        assert f"{config}:2: unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [("vic-pretrain", "--vic-exclude-masked"),
                                       ("vic-pretrain", "--vic-exclude-masked", "true"),
                                       ("features", "--hop", "0"),
                                       ("features", "--frame-len", "0"),
                                       ("synth", "--sample-rate", "0"),
                                       ("ablate", "--train-seed", "1"),
                                       ("ablate", "--model-dim", "64"),
                                       ("ablate", "--n-blocks", "1"),
                                       ("ablate", "--mlp-hidden", "8"),
                                       ("ablate", "--k", "5"),
                                       ("ablate", "--mask-start-prob", "0.5"),
                                       ("ablate", "--mask-span", "3")])
    def test_removed_flag_is_usage_error(self, missing, capsys, extra):
        command, *flags = extra
        inputs = {"vic-pretrain": ["--teacher", "--manifest", "--codebook"],
                  "features": ["--manifest"], "synth": [],
                  "ablate": ["--manifest", "--codebook", "--teacher"]}[command]
        assert run([command, *(arg for flag in inputs for arg in (flag, missing)),
                    "--out", missing, *flags]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not Path(missing).exists()

    @pytest.mark.parametrize("step", ["0", "nan", "-1e-5"])
    def test_gradcheck_step(self, capsys, step):
        assert run(["gradcheck", f"--step={step}"]) == 1
        assert "--step" in capsys.readouterr().err

    @pytest.mark.parametrize("command, inputs", [
        ("probe", ("--encoder", "--train-manifest")),
        ("analyze-variance", ("--encoder", "--manifest")),
        ("ablate", ("--manifest", "--codebook", "--teacher")),
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
            "vic-pretrain": ["--teacher", str(pipeline_dir / "teacher.ckpt"),
                             "--manifest", manifest, "--codebook", codebook],
            "probe": ["--encoder", str(pipeline_dir / "teacher.ckpt"),
                      "--train-manifest", manifest],
            "ablate": ["--manifest", manifest, "--codebook", codebook,
                       "--teacher", str(pipeline_dir / "teacher.ckpt")],
        }[command]
        return [command, *inputs, "--out", str(out)]

    @pytest.mark.parametrize("command, extra, named", [
        ("kmeans", ("--k", "1"), "k must be"),
        ("pretrain", ("--k", "1"), "k must be"),
        ("kmeans", ("--k", "0"), "k must be"),
        ("synth", ("--n-utterances", "0"), "n_utterances must be"),
        ("synth", ("--n-segments", "0"), "n_segments must be"),
        ("probe", ("--noise-kinds", "music,,natural"), "--noise-kinds"),
        ("synth", ("--corpus-seed", "-1"), "corpus_seed must be"),
        ("pretrain", ("--train-seed", "-1"), "train_seed must be"),
        ("kmeans", ("--kmeans-seed", "-1"), "kmeans_seed must be"),
        ("ablate", ("--seeds", "-1"), "--seeds"),
        ("pretrain", ("--eval-interval", "-1"), "eval_interval must be"),
        ("probe", ("--snr-levels", "inf"), "--snr-levels"),
        ("ablate", ("--snr-levels", "inf"), "--snr-levels"),
        ("probe", ("--noise-kinds", "music,natural,"), "--noise-kinds"),
        ("probe", ("--noise-kinds", ","), "--noise-kinds"),
        ("ablate", ("--eval-noise-kinds", "babble,,music"), "--eval-noise-kinds"),
        ("ablate", ("--noise-kinds", "music,,natural"), "noise_kinds must be"),
        ("ablate", ("--seeds", "1,,2"), "--seeds"),
        ("ablate", ("--snr-levels", "0,,5"), "--snr-levels"),
        ("probe", ("--snr-levels", "0,0,inf"), "--snr-levels: repeated entry"),
        ("probe", ("--noise-kinds", "music,music"), "--noise-kinds: repeated entry"),
    ])
    def test_rejected(self, pipeline_dir, tmp_path, capsys, no_reads, command, extra, named):
        out = tmp_path / "out"
        assert run(self._argv(command, pipeline_dir, out) + list(extra)) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_ablate_without_teacher_is_usage_error(self, pipeline_dir, tmp_path, capsys,
                                                   no_reads):
        out = tmp_path / "out"
        argv = self._argv("ablate", pipeline_dir, out)
        i = argv.index("--teacher")
        assert run(argv[:i] + argv[i + 2:]) == 1
        assert "--teacher" in capsys.readouterr().err
        assert not out.exists()

    def test_ablate_checks_the_config_keys_it_leaves_unused(self, pipeline_dir, tmp_path,
                                                             capsys, no_reads):
        """The teacher fixes the students' encoder, but a config file's
        encoder keys are checked all the same."""
        config = tmp_path / "run.cfg"
        config.write_text("model_dim = 1\n")
        out = tmp_path / "out"
        argv = self._argv("ablate", pipeline_dir, out) + ["--config", str(config)]
        assert run(argv) == 1
        assert "model_dim" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_config_key(self, pipeline_dir, tmp_path, capsys, no_reads):
        config = tmp_path / "run.cfg"
        config.write_text("steps = 10\nsteps = 20\n")
        out = tmp_path / "out"
        argv = self._argv("pretrain", pipeline_dir, out) + ["--config", str(config)]
        assert run(argv) == 1
        assert f"config error: {config}:2: key 'steps' repeats line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_config_file(self, pipeline_dir, tmp_path, capsys, no_reads):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"steps = 5\n\xff\n")
        out = tmp_path / "out"
        argv = self._argv("pretrain", pipeline_dir, out) + ["--config", str(config)]
        assert run(argv) == 1
        assert f"config error: {config}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "vic-pretrain"])
    @pytest.mark.parametrize("in_file", [False, True], ids=["flag", "config-file"])
    def test_eval_interval_needs_a_log(self, pipeline_dir, tmp_path, capsys, no_reads, command,
                                       in_file):
        """The training-time probe rows are written beside the loss CSV, so
        a run that makes them without `--log` would throw them away."""
        argv = self._argv(command, pipeline_dir, tmp_path / "out.ckpt")
        if in_file:
            config = tmp_path / "run.cfg"
            config.write_text("eval_interval = 2\n")
            argv += ["--config", str(config)]
        else:
            argv += ["--eval-interval", "2"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert "config error: eval_interval = 2 needs --log" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == (["run.cfg"] if in_file else [])

    def test_analyze_variance_takes_the_clean_level_alone(self):
        args = build_parser().parse_args(["analyze-variance", "--encoder", "e", "--manifest", "m",
                                          "--out", "o", "--snr-levels", "inf"])
        assert args.snr_levels == [math.inf]


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
        run(["synth", "--out", str(tmp_path / "c2"), "--n-utterances", "2",
             "--vocab-size", "4", "--n-segments", "3"])
        captured = capsys.readouterr()
        assert "n_utterances = 2" in captured.out
        assert "lambda = 5.0" in captured.out
        assert f"# numpy {np.__version__}\n" in captured.out
        assert "# BLAS threads = 1 (OpenBLAS, pinned)\n" in captured.out
        assert "NUM_THREADS" not in captured.out + captured.err
        assert "synthesis threads" not in captured.out + captured.err

    def test_echoes_the_environment_where_blas_is_not_pinned(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setattr(cli, "_openblas_setter", lambda: None)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        run(["synth", "--out", str(tmp_path / "c2"), "--n-utterances", "2",
             "--vocab-size", "4", "--n-segments", "3"])
        captured = capsys.readouterr()
        assert "# BLAS threads not pinned: no OpenBLAS handle found" in captured.out
        assert "# OPENBLAS_NUM_THREADS = 3\n" in captured.out
        assert "# MKL_NUM_THREADS = unset\n" in captured.out
        assert "# OMP_NUM_THREADS = " in captured.out
        assert "NUM_THREADS" not in captured.err

    def test_run_pins_openblas_to_one_thread(self, tmp_path):
        """Whatever the thread count before, a command runs on one BLAS thread."""
        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                      "*openblas*"))
        getters = [getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
                   for lib in libs]
        get_threads = next((fn for fn in getters if fn is not None), None)
        if get_threads is None or cli._openblas_setter() is None:
            pytest.skip("numpy here does not ship scipy-openblas")
        cli._openblas_setter()(2)
        try:
            if get_threads() != 2:
                pytest.skip("OpenBLAS here runs one thread at most")
            assert run(["synth", "--out", str(tmp_path / "c2"), "--n-utterances", "2",
                        "--vocab-size", "4", "--n-segments", "3"]) == 0
            assert get_threads() == 1
        finally:
            cli._openblas_setter()(1)


def _set_manifest_field(manifest, row, col, value):
    rows = [line.split("\t") for line in manifest.read_text().splitlines()]
    rows[row][col] = value
    manifest.write_text("".join("\t".join(r) + "\n" for r in rows))


_SPOILS = ["wav", "wav-chunk-size", "wav-odd-length", "labels", "labels-past-wav",
           "labels-negative-symbol", "manifest", "manifest-length", "short-utterance",
           "id-repeated", "id-empty", "id-dot", "id-dotdot", "id-escaping", "id-backslash",
           "sample-rate", "sample-rate-every-wav", "wav-missing", "labels-missing", "silent"]

# utterance ids that are not unique plain file names
_BAD_IDS = {"id-repeated": "utt0000", "id-empty": "", "id-dot": ".", "id-dotdot": "..",
            "id-escaping": "../escaped", "id-backslash": "a\\b"}


def _spoil(corpus, case):
    """Spoil utterance 1 of the corpus copy `corpus` as `case` says; returns
    the strings its error must name."""
    manifest = corpus / "manifest.tsv"
    wav = corpus / "wav" / "utt0001.wav"
    labels = corpus / "labels" / "utt0001.lab"
    label_rows = [line.split() for line in labels.read_text().splitlines()]
    n_samples = int(manifest.read_text().splitlines()[1].split("\t")[2])
    if case == "wav":
        wav.write_bytes(b"garbage")
        return [f"{manifest}:2", str(wav)]
    if case == "wav-chunk-size":  # `wave` raises a RuntimeError with no text
        data = bytearray(wav.read_bytes())
        data[16:20] = (10**6).to_bytes(4, "little")  # the fmt chunk's size
        wav.write_bytes(bytes(data))
        return [f"{manifest}:2", str(wav)]
    if case == "wav-odd-length":  # numpy: buffer size must be a multiple of element size
        wav.write_bytes(wav.read_bytes()[:-1])
        return [f"{manifest}:2", str(wav)]
    if case.endswith("-missing"):
        path = wav if case == "wav-missing" else labels
        path.unlink()
        return [f"{manifest}:2", str(path)]
    if case == "labels":
        labels.write_text("3 0\n")
        return [f"{manifest}:2", f"{labels}:1"]
    if case.startswith("labels-"):
        if case == "labels-past-wav":
            label_rows[-1][2] = str(int(label_rows[-1][2]) + 500)
        else:
            label_rows[0][0] = "-1"
        labels.write_text("".join(" ".join(row) + "\n" for row in label_rows))
        return [f"{manifest}:2", str(labels), str(wav)]
    if case == "manifest":
        _set_manifest_field(manifest, 1, 2, "12.5")
        return [f"{manifest}:2"]
    if case == "manifest-length":
        _set_manifest_field(manifest, 1, 2, str(n_samples + 7))
        return [f"{manifest}:2", str(wav)]
    if case in _BAD_IDS:
        _set_manifest_field(manifest, 1, 0, _BAD_IDS[case])
        return [f"{manifest}:2", repr(_BAD_IDS[case])]
    if case.startswith("sample-rate"):  # the fmt chunk's rate field
        wavs = sorted(wav.parent.glob("*.wav")) if case == "sample-rate-every-wav" else [wav]
        for path in wavs:
            data = bytearray(path.read_bytes())
            data[24:28] = (8000).to_bytes(4, "little")
            path.write_bytes(bytes(data))
        line = 2 if case == "sample-rate" else 1
        return [f"{manifest}:{line}", str(wavs[0]), "8000 Hz", "16000 Hz"]
    if case == "silent":  # the files agree, but every sample is zero
        write_wav(wav, Waveform(np.zeros(n_samples)))
        return [f"{manifest}:2", str(wav), "utt0001", "silent"]
    assert case == "short-utterance"  # the files agree, but hold less than one frame
    write_wav(wav, Waveform(np.zeros(300)))
    labels.write_text("0 0 300\n")
    _set_manifest_field(manifest, 1, 2, "300")
    return [f"{manifest}:2", str(wav), "utt0001", "shorter than one frame"]


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

    @pytest.mark.parametrize("case", _SPOILS)
    def test_malformed_input_file_is_named(self, pipeline_dir, tmp_path, capsys, case):
        """Each spoiled corpus file exits 2 naming the file (and line, and the
        WAV it describes) and, once, the entry's manifest line, and writes
        nothing; an utterance shorter than one frame, or silent, is named by
        its id, its manifest line and its WAV before anything is written."""
        corpus = tmp_path / "corpus"
        shutil.copytree(pipeline_dir / "corpus", corpus)
        named = _spoil(corpus, case)
        out = tmp_path / "feats"
        assert run(["features", "--manifest", str(corpus / "manifest.tsv"),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in named), (named, err)
        assert err.count(f"{corpus / 'manifest.tsv'}:") <= 1, err
        assert not out.exists()


def _is_integer(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


_FLIPS = st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)), min_size=1, max_size=3)
_NOT_INTEGERS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6).filter(
    lambda text: not _is_integer(text))


# (kind, utterance, arguments); each spoils one file of a two-utterance corpus
_INPUT_SPOILS = st.one_of(
    st.tuples(st.just("truncate-wav"), st.integers(0, 1), st.integers(0, 20000)),
    st.tuples(st.just("flip-wav"), st.integers(0, 1), _FLIPS),
    st.tuples(st.just("manifest-drop"), st.integers(0, 1), st.integers(0, 3)),
    st.tuples(st.just("manifest-text"), st.integers(0, 1), _NOT_INTEGERS),
    st.tuples(st.just("labels-drop"), st.integers(0, 1), st.tuples(st.integers(0, 2),
                                                                  st.integers(0, 2))),
    st.tuples(st.just("labels-text"), st.integers(0, 1), st.tuples(st.integers(0, 2),
                                                                  st.integers(0, 2),
                                                                  _NOT_INTEGERS)),
    st.tuples(st.just("labels-negative"), st.integers(0, 1), st.tuples(st.integers(0, 2),
                                                                      st.integers(1, 10**6))),
    st.tuples(st.just("labels-reversed"), st.integers(0, 1), st.integers(0, 2)),
)


def _apply_input_spoil(corpus, spoil):
    kind, utt, arg = spoil
    manifest = corpus / "manifest.tsv"
    wav = corpus / "wav" / f"utt{utt:04d}.wav"
    labels = corpus / "labels" / f"utt{utt:04d}.lab"
    if kind == "truncate-wav":
        wav.write_bytes(wav.read_bytes()[:arg])
    elif kind == "flip-wav":
        data = bytearray(wav.read_bytes())
        for offset, value in arg:
            data[offset] = value
        wav.write_bytes(bytes(data))
    elif kind.startswith("manifest-"):
        rows = [line.split("\t") for line in manifest.read_text().splitlines()]
        if kind == "manifest-drop":
            del rows[utt][arg]
        else:
            rows[utt][2] = arg  # n_samples
        manifest.write_text("".join("\t".join(row) + "\n" for row in rows))
    else:
        rows = [line.split() for line in labels.read_text().splitlines()]
        if kind == "labels-drop":
            del rows[arg[0]][arg[1]]
        elif kind == "labels-text":
            rows[arg[0]][arg[1]] = arg[2]
        elif kind == "labels-negative":
            rows[arg[0]][1:] = [str(-arg[1] - 1), str(-arg[1])]
        else:
            rows[arg][1:] = rows[arg][2:0:-1]
        labels.write_text("".join(" ".join(row) + "\n" for row in rows))


class TestInputFileProperty:
    @pytest.fixture(scope="class")
    def source(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("input_files")
        build_corpus(root / "corpus", n_utterances=2, corpus_seed=5, vocab_size=4, n_segments=3)
        return root

    @settings(max_examples=120, deadline=None)
    @given(spoil=_INPUT_SPOILS)
    def test_features_exits_0_or_2_naming_a_corpus_file(self, source, spoil):
        """Whatever one spoiled file holds, `features` returns 0 or 2 and lets
        no exception escape; on 2 stderr names a file of the corpus and
        `--out` does not exist."""
        work = source / "work"
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(source / "corpus", work / "corpus")
        _apply_input_spoil(work / "corpus", spoil)
        files = [p for p in (work / "corpus").rglob("*") if p.is_file()]
        out = work / "feats"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["features", "--manifest", str(work / "corpus" / "manifest.tsv"),
                        "--out", str(out)])
        err = err.getvalue()
        assert code in (0, 2), (spoil, code, err)
        if code == 2:
            assert any(str(p) in err for p in files), (spoil, err)
            assert not out.exists()


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
        save_codebook(cb20, Codebook(np.random.default_rng(0).standard_normal((5, 20))))
        code = run(["probe", "--encoder", str(pipeline_dir / "teacher.ckpt"),
                    "--train-manifest", manifest, "--codebook", cb20,
                    "--out", str(tmp_path / "probe.csv"),
                    "--snr-levels", "5", "--noise-kinds", "natural"])
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


class TestUnlabelledProbeCorpus:
    """`probe` and `ablate` on a corpus with an unlabelled utterance exit 2
    naming it, before they train or encode anything, and write no CSV."""

    @pytest.fixture
    def unlabelled(self, pipeline_dir, tmp_path):
        corpus = tmp_path / "unlabelled"
        shutil.copytree(pipeline_dir / "corpus", corpus)
        (corpus / "labels" / "utt0003.lab").write_text("")
        return str(corpus / "manifest.tsv")

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work began before the labels were checked")

        for name in ("forward", "pretrain_clean", "pretrain_noisy"):
            monkeypatch.setattr(analysis, name, fail)

    @pytest.mark.parametrize("command", ["probe", "ablate"])
    @pytest.mark.parametrize("unlabelled_corpus", ["train", "eval"])
    def test_exit_2_names_the_utterance(self, pipeline_dir, unlabelled, no_work, tmp_path,
                                        capsys, command, unlabelled_corpus):
        labelled = str(pipeline_dir / "corpus" / "manifest.tsv")
        train, ev = (unlabelled, labelled) if unlabelled_corpus == "train" \
            else (labelled, unlabelled)
        out = tmp_path / "out.csv"
        if command == "probe":
            argv = ["probe", "--encoder", str(pipeline_dir / "teacher.ckpt"),
                    "--train-manifest", train, "--eval-manifest", ev,
                    "--snr-levels", "5,inf", "--noise-kinds", "natural"]
        else:
            argv = ["ablate", "--manifest", train, "--eval-manifest", ev,
                    "--codebook", str(pipeline_dir / "cb.ckpt"),
                    "--teacher", str(pipeline_dir / "teacher.ckpt"), "--seeds", "1",
                    "--steps", "2", "--batch-utterances", "2", "--noise-kinds", "natural",
                    "--eval-noise-kinds", "natural", "--snr-levels", "5,inf"]
        assert run(argv + ["--out", str(out)]) == 2
        assert "utt0003" in capsys.readouterr().err
        assert not out.exists()


class TestInvalidCheckpointInput:
    """`vic-pretrain` and `ablate` exit 2 on a checkpoint whose CRC holds but
    whose contents are invalid, name the file, and write nothing."""

    @pytest.mark.parametrize("command", ["vic-pretrain", "ablate"])
    @pytest.mark.parametrize("bad_input", ["codebook", "teacher"])
    def test_exit_2_names_the_file(self, pipeline_dir, tmp_path, capsys, command, bad_input):
        inputs = {"codebook": str(pipeline_dir / "cb.ckpt"),
                  "teacher": str(pipeline_dir / "teacher.ckpt")}
        bad = str(tmp_path / f"bad_{bad_input}.ckpt")
        if bad_input == "codebook":  # duplicate centroids
            save_tensors(bad, {"centroids": np.ones((3, 40))})
        else:  # model_dim 1, the second value of the config name
            tensors = {}
            for name, value in load_tensors(inputs["teacher"]).items():
                parts = name.split("|")
                if len(parts) > 2:
                    parts[2] = "1"
                tensors["|".join(parts)] = value
            save_tensors(bad, tensors)
        inputs[bad_input] = bad
        out = tmp_path / "out"
        argv = [command, "--manifest", str(pipeline_dir / "corpus" / "manifest.tsv"),
                "--codebook", inputs["codebook"], "--teacher", inputs["teacher"],
                "--steps", "2", "--batch-utterances", "2", "--noise-kinds", "natural",
                "--out", str(out)]
        if command == "ablate":
            argv += ["--seeds", "1", "--eval-noise-kinds", "natural", "--snr-levels", "5,inf"]
        assert run(argv) == 2
        assert f"{bad}: " in capsys.readouterr().err
        assert not out.exists()


class TestGradcheckCommand:
    def test_passes_and_prints_components(self, capsys):
        assert run(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "lambda = 5.0" in out  # the default config is echoed too
        for name in ("softmax_xent", "invariance", "variance", "covariance",
                     "masked_prediction", "full_model_total"):
            assert name in out

    def test_echoes_its_own_flags(self, capsys):
        """`--seed` and `--step` are no config keys; each is echoed on a
        `# <flag> = <value>` line, and the `key = value` block is the config
        echo alone."""
        assert run(["gradcheck", "--seed", "2", "--step", "2e-5"]) == 0
        out = capsys.readouterr().out
        assert "# --seed = 2\n# --step = 2e-05\n" in out
        block = [line for line in out.splitlines() if " = " in line and not line.startswith("#")]
        assert "\n".join(block) == load_config().echo()


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
        echoed = capsys.readouterr().out
        for line in ("# --seeds = 1", "# --snr-levels = 5.0,inf", "# --eval-noise-kinds = natural",
                     "# --seed = 0", f"# --out = {out}", "# --eval-manifest = unset",
                     "steps = 3", "noise_kinds = natural"):
            assert f"\n{line}\n" in echoed, line

    def test_full_row_equals_the_vic_pretrain_run_of_its_config(self, pipeline_dir, tmp_path):
        """The `lm+inv+var+cov` student of seed 1 is the one `vic-pretrain
        --inv --var --cov --train-seed 1` trains from the same teacher: its
        final losses are the same floats."""
        common = ["--manifest", str(pipeline_dir / "corpus" / "manifest.tsv"),
                  "--codebook", str(pipeline_dir / "cb.ckpt"),
                  "--teacher", str(pipeline_dir / "teacher.ckpt"),
                  "--steps", "3", "--batch-utterances", "2", "--noise-kinds", "natural"]
        table, log = tmp_path / "ablation.csv", tmp_path / "student.csv"
        assert run(["ablate", *common, "--out", str(table), "--seeds", "1",
                    "--eval-noise-kinds", "natural", "--snr-levels", "5,inf"]) == 0
        assert run(["vic-pretrain", *common, "--out", str(tmp_path / "student.ckpt"),
                    "--log", str(log), "--inv", "--var", "--cov", "--train-seed", "1"]) == 0
        rows = {line.split(",")[0]: line.split(",")
                for line in table.read_text().splitlines()[1:]}
        full = [float(x) for x in rows["lm+inv+var+cov"][3:7]]
        final = [float(x) for x in log.read_text().splitlines()[-1].split(",")[1:5]]
        assert full == final
