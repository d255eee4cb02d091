"""Flat key/value configuration: defaults, precedence, validation."""

import re

import pytest

from vicspeech.config import ConfigError, load_config


class TestDefaults:
    def test_empty_file_gives_paper_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = load_config(path)
        assert cfg["lambda"] == 5.0
        assert cfg["mu"] == 1.0
        assert cfg["nu"] == 1.0
        assert cfg["gamma"] == 1.0
        assert cfg["epsilon"] == 1e-4
        assert cfg["alpha"] == 1.0

    def test_no_file_gives_defaults(self):
        cfg = load_config()
        assert cfg["steps"] == 3000
        assert cfg["snr_low"] == 5.0 and cfg["snr_high"] == 10.0
        assert cfg.train.noise_kinds == ("babble", "music", "natural")

    def test_derived_configs_carry_values(self):
        cfg = load_config(overrides={"model_dim": 24, "lambda": 2.5, "train_seed": 9})
        assert cfg.encoder.model_dim == 24
        assert cfg.train.vic.lam == 2.5
        assert cfg.train.seed == 9


class TestParsing:
    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("# comment line\nlambda = 2.0\nsteps = 10  # trailing\n")
        cfg = load_config(path)
        assert cfg["lambda"] == 2.0
        assert cfg["steps"] == 10

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text("lambda = 0\n")
        cfg = load_config(path, overrides={"lambda": "2"})
        assert cfg["lambda"] == 2.0

    @pytest.mark.parametrize("key, value", [("model_dim", 2.5), ("steps", True)])
    def test_override_of_wrong_type_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"override: invalid int value for {key!r}"):
            load_config(overrides={key: value})

    @pytest.mark.parametrize("value", ["music,,natural", "music,natural,", ""])
    def test_empty_noise_kinds_entry_rejected(self, tmp_path, value):
        path = tmp_path / "kinds.cfg"
        path.write_text(f"noise_kinds = {value}\n")
        with pytest.raises(ConfigError, match="noise_kinds must be"):
            load_config(path)
        with pytest.raises(ConfigError, match="noise_kinds must be"):
            load_config(overrides={"noise_kinds": value})

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("steps = 5\nwibble = 3\n")
        with pytest.raises(ConfigError, match=r":2"):
            load_config(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        """A key set twice is an error, not a silent choice of the last."""
        path = tmp_path / "twice.cfg"
        path.write_text("steps = 10\n# a comment\nlambda = 2\nsteps = 20\n")
        with pytest.raises(ConfigError,
                           match=re.escape(f"{path}:4: key 'steps' repeats line 1")):
            load_config(path)

    def test_bad_value_names_line_and_key(self, tmp_path):
        path = tmp_path / "d.cfg"
        path.write_text("gamma = abc\n")
        with pytest.raises(ConfigError, match="gamma"):
            load_config(path)

    def test_int_key_rejects_float_literal(self, tmp_path):
        path = tmp_path / "e.cfg"
        path.write_text("steps = 3.5\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bool_parsing(self, tmp_path):
        path = tmp_path / "f.cfg"
        path.write_text("use_var = false\nuse_cov = TRUE\n")
        cfg = load_config(path)
        assert cfg["use_var"] is False
        assert cfg["use_cov"] is True

    def test_echo_lists_every_key_once(self):
        cfg = load_config()
        lines = cfg.echo().splitlines()
        assert len(lines) == len(cfg.values)
        assert all(" = " in line for line in lines)
        # echoed config is re-parseable to the same values
        reparsed = {}
        for line in lines:
            key, val = line.split(" = ", 1)
            reparsed[key] = val
        assert reparsed["lambda"] == "5.0"


class TestUnreadableFile:
    """A config file that cannot be read as text is a config error naming it."""

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "g.cfg"
        path.write_bytes(b"steps = 5\n\xff\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load_config(path)

    def test_missing(self, tmp_path):
        path = tmp_path / "missing.cfg"
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: cannot read config file"):
            load_config(path)

    def test_directory(self, tmp_path):
        with pytest.raises(ConfigError, match=f"^{re.escape(str(tmp_path))}: cannot read config file"):
            load_config(tmp_path)
