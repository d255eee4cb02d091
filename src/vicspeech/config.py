"""Flat key/value run configuration.

Files hold ``key = value`` lines with ``#`` comments. Unknown keys and
ill-typed values are rejected with the offending line number. Command-line
flags override file values; the fully resolved config is echoed at run start
so a run can be reproduced from its log alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .losses import VicWeights
from .model import EncoderConfig
from .trainer import TrainConfig

__all__ = ["ConfigError", "LabConfig", "load_config", "DEFAULTS"]


class ConfigError(ValueError):
    pass


# key -> (type tag, default)
DEFAULTS: dict[str, tuple[str, Any]] = {
    # corpus synthesis
    "sample_rate": ("int", 16000),
    "n_utterances": ("int", 40),
    "vocab_size": ("int", 16),
    "n_segments": ("int", 12),
    "corpus_seed": ("int", 100),
    # features
    "frame_len": ("int", 400),
    "hop": ("int", 160),
    "n_filters": ("int", 40),
    # codebook
    "k": ("int", 16),
    "kmeans_max_iters": ("int", 50),
    "kmeans_seed": ("int", 7),
    # encoder
    "model_dim": ("int", 64),
    "n_blocks": ("int", 2),
    "mlp_hidden": ("int", 128),
    "mask_start_prob": ("float", 0.08),
    "mask_span": ("int", 10),
    # regularizer weights
    "lambda": ("float", 5.0),
    "mu": ("float", 1.0),
    "nu": ("float", 1.0),
    "gamma": ("float", 1.0),
    "epsilon": ("float", 1e-4),
    "alpha": ("float", 1.0),
    "n_sample": ("int", 256),
    # trainer
    "steps": ("int", 3000),
    "batch_utterances": ("int", 8),
    "learning_rate": ("float", 5e-4),
    "adam_beta1": ("float", 0.9),
    "adam_beta2": ("float", 0.98),
    "adam_eps": ("float", 1e-8),
    "snr_low": ("float", 5.0),
    "snr_high": ("float", 10.0),
    "noise_kinds": ("str", "babble,music,natural"),
    "use_inv": ("bool", True),
    "use_var": ("bool", True),
    "use_cov": ("bool", True),
    "vic_exclude_masked": ("bool", False),
    "train_seed": ("int", 1),
    "eval_interval": ("int", 0),
}


@contextmanager
def _as_config_error():
    """Report a dataclass's rejection of a resolved value as a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_value(key: str, raw: str, where: str):
    kind = DEFAULTS[key][0]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"{where}: invalid {kind} value for {key!r}: {raw!r}") from None


@dataclass
class LabConfig:
    values: dict[str, Any] = field(default_factory=dict)
    explicit: frozenset = frozenset()  # keys set by file or flag, not defaults

    def __post_init__(self):
        self.explicit = frozenset(self.explicit) | frozenset(self.values)
        merged = {k: default for k, (_, default) in DEFAULTS.items()}
        merged.update(self.values)
        self.values = merged

    def __getitem__(self, key: str):
        return self.values[key]

    def echo(self) -> str:
        """Resolved config as 'key = value' lines, one per key."""
        return "\n".join(f"{k} = {self.values[k]}" for k in sorted(self.values))

    def encoder_config(self) -> EncoderConfig:
        # Training draws masks until one is nonempty, which never happens at 0.
        if self["mask_start_prob"] == 0:
            raise ConfigError("mask_start_prob must be > 0 to train")
        with _as_config_error():
            return EncoderConfig(
                feature_dim=self["n_filters"],
                model_dim=self["model_dim"],
                n_blocks=self["n_blocks"],
                mlp_hidden=self["mlp_hidden"],
                k_codewords=self["k"],
                mask_start_prob=self["mask_start_prob"],
                mask_span=self["mask_span"],
            )

    def vic_weights(self) -> VicWeights:
        return VicWeights(
            lam=self["lambda"], mu=self["mu"], nu=self["nu"], gamma=self["gamma"],
            epsilon=self["epsilon"], alpha=self["alpha"], n_sample=self["n_sample"])

    def noise_kinds(self) -> tuple[str, ...]:
        return tuple(k.strip() for k in str(self["noise_kinds"]).split(",") if k.strip())

    def train_config(self) -> TrainConfig:
        with _as_config_error():
            return TrainConfig(
                steps=self["steps"],
                batch_utterances=self["batch_utterances"],
                learning_rate=self["learning_rate"],
                adam_beta1=self["adam_beta1"],
                adam_beta2=self["adam_beta2"],
                adam_eps=self["adam_eps"],
                snr_range_db=(self["snr_low"], self["snr_high"]),
                noise_kinds=self.noise_kinds(),
                vic=self.vic_weights(),
                use_inv=self["use_inv"],
                use_var=self["use_var"],
                use_cov=self["use_cov"],
                vic_exclude_masked=self["vic_exclude_masked"],
                seed=self["train_seed"],
                eval_interval=self["eval_interval"],
            )


def load_config(path=None, overrides: Optional[dict[str, Any]] = None) -> LabConfig:
    """Defaults, then file values, then overrides (e.g. command-line flags)."""
    values: dict[str, Any] = {}
    if path is not None:
        for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            values[key] = _parse_value(key, raw, f"{path}:{ln}")
    if overrides:
        for key, val in overrides.items():
            if key not in DEFAULTS:
                raise ConfigError(f"override: unknown key {key!r}")
            values[key] = _parse_value(key, str(val), "override") if isinstance(val, str) else val
    return LabConfig(values)
