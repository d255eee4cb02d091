"""Flat key/value run configuration.

Files hold ``key = value`` lines with ``#`` comments. Unknown keys and
ill-typed values are rejected with the offending line number. Command-line
flags override file values; the fully resolved config is echoed at run start
so a run can be reproduced from its log alone.

A :class:`LabConfig` checks every value once, when it is built. The encoder
and training keys are checked by the value objects it builds
(:class:`EncoderConfig`, and :class:`TrainConfig` with its
:class:`VicWeights`); every other key by the bound in its ``DEFAULTS`` entry.
Adam's constants are fixed in ``trainer.adam_step``, the VIC terms sample
every pooled frame of the batch, and the signal format (16 kHz audio, frames
and mel filters) is fixed in ``signal``, so none of them has a key.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Optional

from .losses import VicWeights
from .model import EncoderConfig
from .signal import MAX_VOCAB_SIZE, N_FILTERS, numbered_lines
from .trainer import TrainConfig

__all__ = ["ConfigError", "LabConfig", "load_config", "DEFAULTS"]


class ConfigError(ValueError):
    pass


# key -> (default, bound); a value parses to its default's type. A bound
# checks a key that no value object checks, except mask_start_prob's, which
# adds a rule of training's.
DEFAULTS: dict[str, tuple[Any, Optional[str]]] = {
    # corpus synthesis
    "n_utterances": (40, ">= 1"),
    "vocab_size": (16, f">= 2 and <= {MAX_VOCAB_SIZE}"),
    "n_segments": (12, ">= 1"),
    "corpus_seed": (100, ">= 0"),
    # codebook
    "k": (16, None),
    "kmeans_max_iters": (50, ">= 0"),
    "kmeans_seed": (7, ">= 0"),
    # encoder
    "model_dim": (64, None),
    "n_blocks": (2, None),
    "mlp_hidden": (128, None),
    # training draws masks until one is nonempty, which never happens at 0
    "mask_start_prob": (0.08, "> 0"),
    "mask_span": (10, None),
    # regularizer weights
    "lambda": (5.0, None),
    "mu": (1.0, None),
    "nu": (1.0, None),
    "gamma": (1.0, None),
    "epsilon": (1e-4, None),
    "alpha": (1.0, None),
    "n_sample": (256, None),
    # trainer; the VIC terms are off unless a flag or the file turns them on
    "steps": (3000, None),
    "batch_utterances": (8, None),
    "learning_rate": (5e-4, None),
    "snr_low": (5.0, None),
    "snr_high": (10.0, None),
    "noise_kinds": ("babble,music,natural", None),
    "use_inv": (False, None),
    "use_var": (False, None),
    "use_cov": (False, None),
    "train_seed": (1, ">= 0"),
    "eval_interval": (0, ">= 0"),
}

_COMPARE = {">=": operator.ge, "<=": operator.le, ">": operator.gt}


def _within(value, bound: str) -> bool:
    clauses = (clause.split() for clause in bound.split(" and "))
    return all(_COMPARE[op](value, float(limit)) for op, limit in clauses)


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(key: str, raw: str, where: str):
    kind = type(DEFAULTS[key][0])
    raw = raw.strip()
    try:
        return _BOOLS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{where}: invalid {kind.__name__} value for {key!r}: {raw!r}") from None


@dataclass
class LabConfig:
    """Every key's resolved value and the value objects built from them."""

    values: dict[str, Any] = field(default_factory=dict)
    encoder: EncoderConfig = field(init=False)
    train: TrainConfig = field(init=False)

    def __post_init__(self):
        self.values = {**{k: default for k, (default, _) in DEFAULTS.items()}, **self.values}
        v = self.values
        for key, (_, bound) in DEFAULTS.items():
            if bound is not None and not _within(v[key], bound):
                raise ConfigError(f"{key} must be {bound}, got {v[key]!r}")
        try:  # the value objects name the key in every rejection
            self.encoder = EncoderConfig(
                feature_dim=N_FILTERS, model_dim=v["model_dim"], n_blocks=v["n_blocks"],
                mlp_hidden=v["mlp_hidden"], k_codewords=v["k"],
                mask_start_prob=v["mask_start_prob"], mask_span=v["mask_span"])
            self.train = TrainConfig(
                steps=v["steps"], batch_utterances=v["batch_utterances"],
                learning_rate=v["learning_rate"], snr_range_db=(v["snr_low"], v["snr_high"]),
                noise_kinds=tuple(k.strip() for k in str(v["noise_kinds"]).split(",")),
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
        key_lines: dict[str, int] = {}  # the file line that sets each key
        try:
            lines = numbered_lines(path)
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config file: {exc.strerror}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for ln, line in lines:
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            if key in key_lines:
                raise ConfigError(f"{path}:{ln}: key {key!r} repeats line {key_lines[key]}")
            key_lines[key] = ln
            values[key] = _parse_value(key, raw, f"{path}:{ln}")
    if overrides:
        for key, val in overrides.items():
            if key not in DEFAULTS:
                raise ConfigError(f"override: unknown key {key!r}")
            values[key] = _parse_value(key, str(val), "override")
    return LabConfig(values)
