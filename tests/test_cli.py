"""Command-line pipeline: exit codes, file outputs, determinism."""

import pytest

from vicspeech.checkpoint import load_codebook, load_encoder
from vicspeech.cli import run


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
    ])
    def test_pretrain(self, missing, capsys, extra, key):
        assert run(self._pretrain(missing, *extra)) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [
        (("--lambda", "nan"), "lambda"),
        (("--gamma", "inf"), "gamma"),
    ])
    def test_vic_pretrain(self, missing, capsys, extra, key):
        assert run(["vic-pretrain", "--teacher", missing, "--manifest", missing,
                    "--codebook", missing, "--out", missing, *extra]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [
        (("--seeds", "1,a"), "seeds"),
        (("--snr-levels", "0,abc"), "snr-levels"),
        (("--seeds", "1,1"), "seeds"),
    ])
    def test_ablate(self, missing, capsys, extra, key):
        assert run(self._ablate(missing, *extra)) == 1
        assert key in capsys.readouterr().err

    def test_probe_snr_levels(self, missing, capsys):
        assert run(["probe", "--encoder", missing, "--train-manifest", missing,
                    "--out", missing, "--snr-levels", "0,abc"]) == 1
        assert "snr-levels" in capsys.readouterr().err

    def test_analyze_variance_snr_levels(self, missing, capsys):
        assert run(["analyze-variance", "--encoder", missing, "--manifest", missing,
                    "--out", missing, "--snr-levels", "0,abc"]) == 1
        assert "snr-levels" in capsys.readouterr().err


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

    def test_echoes_resolved_config(self, tmp_path, capsys):
        run(["synth", "--out", str(tmp_path / "c2"), "--n-utterances", "2",
             "--vocab-size", "4", "--n-segments", "3"])
        out = capsys.readouterr().out
        assert "n_utterances = 2" in out
        assert "lambda = 5.0" in out


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
