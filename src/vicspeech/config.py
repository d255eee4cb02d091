"""Flat key/value run configuration.

Files hold ``key = value`` lines with ``#`` comments. Unknown keys and
ill-typed values are rejected with the offending line number. Command-line
flags override file values; the fully resolved config is echoed at run start
so a run can be reproduced from its log alone.

A :class:`LabConfig` checks every value once, when it is built. The encoder
and training keys are checked by the value objects it builds
(:class:`EncoderConfig`, and :class:`TrainConfig` with its
:class:`VicWeights`); every other key by the bound in its ``DEFAULTS`` entry.
Adam's constants are fixed in ``trainer.adam_step`` and the VIC terms sample
every pooled frame of the batch, so neither has a key.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .losses import VicWeights
from .model import EncoderConfig
from .signal import MAX_VOCAB_SIZE
from .trainer import TrainConfig

__all__ = ["ConfigError", "LabConfig", "load_config", "DEFAULTS"]


class ConfigError(ValueError):
    pass


# key -> (type tag, default, bound). A bound checks a key that no value
# object checks, except mask_start_prob's, which adds a rule of training's.
DEFAULTS: dict[str, tuple[str, Any, Optional[str]]] = {
    # corpus synthesis
    "sample_rate": ("int", 16000, ">= 1"),
    "n_utterances": ("int", 40, ">= 1"),
    "vocab_size": ("int", 16, f">= 2 and <= {MAX_VOCAB_SIZE}"),
    "n_segments": ("int", 12, ">= 1"),
    "corpus_seed": ("int", 100, ">= 0"),
    # features; a Hann window shorter than 3 samples is all zeros
    "frame_len": ("int", 400, ">= 3"),
    "hop": ("int", 160, ">= 1"),
    "n_filters": ("int", 40, ">= 1"),
    # codebook
    "k": ("int", 16, ">= 1"),
    "kmeans_max_iters": ("int", 50, ">= 0"),
    "kmeans_seed": ("int", 7, ">= 0"),
    # encoder
    "model_dim": ("int", 64, None),
    "n_blocks": ("int", 2, None),
    "mlp_hidden": ("int", 128, None),
    # training draws masks until one is nonempty, which never happens at 0
    "mask_start_prob": ("float", 0.08, "> 0"),
    "mask_span": ("int", 10, None),
    # regularizer weights
    "lambda": ("float", 5.0, None),
    "mu": ("float", 1.0, None),
    "nu": ("float", 1.0, None),
    "gamma": ("float", 1.0, None),
    "epsilon": ("float", 1e-4, None),
    "alpha": ("float", 1.0, None),
    "n_sample": ("int", 256, None),
    # trainer; the VIC terms are off unless a flag or the file turns them on
    "steps": ("int", 3000, None),
    "batch_utterances": ("int", 8, None),
    "learning_rate": ("float", 5e-4, None),
    "snr_low": ("float", 5.0, None),
    "snr_high": ("float", 10.0, None),
    "noise_kinds": ("str", "babble,music,natural", None),
    "use_inv": ("bool", False, None),
    "use_var": ("bool", False, None),
    "use_cov": ("bool", False, None),
    "train_seed": ("int", 1, ">= 0"),
    "eval_interval": ("int", 0, ">= 0"),
}

_COMPARE = {">=": operator.ge, "<=": operator.le, ">": operator.gt}


def _within(value, bound: str) -> bool:
    clauses = (clause.split() for clause in bound.split(" and "))
    return all(_COMPARE[op](value, float(limit)) for op, limit in clauses)


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
    """Every key's resolved value and the value objects built from them."""

    values: dict[str, Any] = field(default_factory=dict)
    encoder: EncoderConfig = field(init=False)
    train: TrainConfig = field(init=False)

    def __post_init__(self):
        self.values = {**{k: default for k, (_, default, _) in DEFAULTS.items()}, **self.values}
        v = self.values
        for key, (_, _, bound) in DEFAULTS.items():
            if bound is not None and not _within(v[key], bound):
                raise ConfigError(f"{key} must be {bound}, got {v[key]!r}")
        try:  # the value objects name the key in every rejection
            self.encoder = EncoderConfig(
                feature_dim=v["n_filters"], model_dim=v["model_dim"], n_blocks=v["n_blocks"],
                mlp_hidden=v["mlp_hidden"], k_codewords=v["k"],
                mask_start_prob=v["mask_start_prob"], mask_span=v["mask_span"])
            self.train = TrainConfig(
                steps=v["steps"], batch_utterances=v["batch_utterances"],
                learning_rate=v["learning_rate"], snr_range_db=(v["snr_low"], v["snr_high"]),
                noise_kinds=tuple(k.strip() for k in str(v["noise_kinds"]).split(",")
                                  if k.strip()),
                vic=VicWeights(lam=v["lambda"], mu=v["mu"], nu=v["nu"], gamma=v["gamma"],
                               epsilon=v["epsilon"], alpha=v["alpha"],
                               n_sample=v["n_sample"]),
                use_inv=v["use_inv"], use_var=v["use_var"], use_cov=v["use_cov"],
                seed=v["train_seed"], eval_interval=v["eval_interval"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def __getitem__(self, key: str):
        return self.values[key]

    def echo(self) -> str:
        """Resolved config as 'key = value' lines, one per key."""
        return "\n".join(f"{k} = {self.values[k]}" for k in sorted(self.values))


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
