"""Command-line entry point.

Subcommands: synth, features, kmeans, pretrain, vic-pretrain, probe,
analyze-variance, ablate, gradcheck. Exit codes: 0 success, 1 usage or
config error, 2 runtime/divergence error. :func:`run` parses, checks and
echoes every value before a subcommand touches any file, and reruns with
the same seeds reproduce outputs byte for byte. Output bytes depend on the
BLAS thread count, so :func:`run` sets numpy's OpenBLAS to one thread.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .checkpoint import CheckpointError, load_codebook, load_encoder, save_codebook, \
    save_encoder, save_tensors
from .codebook import fit_kmeans
from .config import ConfigError, LabConfig, load_config
from .model import TrainingDivergedError
from .signal import N_FILTERS, NOISE_KINDS, SNR_LIMIT_DB, build_corpus
from .trainer import Corpus, TrainLog, pretrain_clean, pretrain_noisy

GRADCHECK_THRESHOLD = 1e-4

# the thread-count setters of numpy's bundled OpenBLAS, by build
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads")


@functools.cache
def _openblas_setter():
    """The thread-count setter of the OpenBLAS that numpy ships with, looked
    up once per process, or None where there is none (numpy built against
    another BLAS, or a system OpenBLAS)."""
    pattern = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for lib in sorted(glob.glob(pattern)):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _OPENBLAS_SETTERS:
            setter = getattr(handle, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter
    return None


def _pin_blas() -> bool:
    """Set OpenBLAS to one thread; False where no setter is found, which
    leaves the thread count to the environment."""
    setter = _openblas_setter()
    if setter is not None:
        setter(1)
    return setter is not None


def _add_config_flags(p: argparse.ArgumentParser, keys: list[str]) -> None:
    for key in keys:
        p.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", default=None)


def _resolve(args) -> LabConfig:
    overrides = {}
    for name, value in vars(args).items():
        if name.startswith("cfg_") and value is not None:
            overrides[name[4:]] = value
    return load_config(getattr(args, "config", None), overrides)


def _echo(cfg: LabConfig, blas_pinned: bool, args) -> None:
    # output bytes depend on the BLAS thread count, so the run records it
    print("# resolved config")
    print(f"# numpy {np.__version__}")
    if blas_pinned:
        print("# BLAS threads = 1 (OpenBLAS, pinned)")
    else:
        print("# BLAS threads not pinned: no OpenBLAS handle found, the environment sets them")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            print(f"# {var} = {os.environ.get(var, 'unset')}")
    # the subcommand's own options; config keys follow as `key = value`
    for name, value in vars(args).items():
        if name not in ("command", "func") and not name.startswith("cfg_"):
            value = ",".join(map(str, value)) if isinstance(value, list) else value
            print(f"# --{name.replace('_', '-')} = {'unset' if value is None else value}")
    print(cfg.echo())


# argparse `type=` functions for the flags that are not config keys

def _seed(raw: str) -> int:
    seed = int(raw)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _step(raw: str) -> float:
    step = float(raw)
    if not (np.isfinite(step) and step > 0):
        raise argparse.ArgumentTypeError(f"step must be finite and > 0, got {step}")
    return step


def _distinct(items: list, raw: str) -> list:
    """`items`, the entries of the list `raw`, if no two are equal."""
    if len(set(items)) != len(items):
        raise argparse.ArgumentTypeError(f"repeated entry in {raw!r}")
    return items


def _parse_list(raw: str, parse) -> list:
    try:
        return _distinct([parse(tok) for tok in raw.split(",")], raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid list {raw!r}") from None


def _seed_list(raw: str) -> list[int]:
    return _parse_list(raw, _seed)


def _snr_levels(raw: str) -> list[float]:
    levels = _parse_list(raw, float)
    if not all(level == np.inf or abs(level) <= SNR_LIMIT_DB for level in levels):
        raise argparse.ArgumentTypeError(f"levels must be inf or in [-{SNR_LIMIT_DB:g}, "
                                         f"{SNR_LIMIT_DB:g}] dB, got {raw!r}")
    return levels


def _noisy_snr_levels(raw: str) -> list[float]:
    levels = _snr_levels(raw)
    if not any(np.isfinite(levels)):
        raise argparse.ArgumentTypeError(f"n-accuracy needs a finite level, got {raw!r}")
    return levels


def _noise_kinds(raw: str) -> list[str]:
    kinds = _distinct([tok.strip() for tok in raw.split(",")], raw)
    if not set(kinds) <= set(NOISE_KINDS):
        raise argparse.ArgumentTypeError(f"expected a list of {', '.join(NOISE_KINDS)}, "
                                         f"got {raw!r}")
    return kinds


# ----------------------------------------------------------------------
# subcommands: each gets the parsed arguments and the checked config
# ----------------------------------------------------------------------

def _cmd_synth(args, cfg: LabConfig) -> int:
    manifest = build_corpus(args.out, n_utterances=cfg["n_utterances"],
                            corpus_seed=cfg["corpus_seed"], vocab_size=cfg["vocab_size"],
                            n_segments=cfg["n_segments"])
    print(f"wrote {manifest}")
    return 0


def _cmd_features(args, cfg: LabConfig) -> int:
    corpus = Corpus.load(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, utt in enumerate(corpus.utterances):
        tensors = {"frames": corpus.clean_features(i)}
        if utt.unit_labels:
            tensors["frame_labels"] = corpus.frame_labels(i).astype(np.float64)
        save_tensors(out_dir / f"{utt.id}.feat", tensors)
    print(f"wrote {len(corpus)} feature files to {out_dir}")
    return 0


def _cmd_kmeans(args, cfg: LabConfig) -> int:
    corpus = Corpus.load(args.manifest)
    frames = np.concatenate([corpus.clean_features(i) for i in range(len(corpus))])
    cb = fit_kmeans(frames, k=cfg["k"], max_iters=cfg["kmeans_max_iters"],
                    seed=cfg["kmeans_seed"])
    save_codebook(args.out, cb)
    print(f"fitted k={cb.k} codebook on {frames.shape[0]} frames, inertia {cb.inertia:.4f}")
    print(f"wrote {args.out}")
    return 0


def _write_log(path, log: TrainLog) -> None:
    """The loss CSV at `path`, if given, and the eval rows, if any, beside it."""
    if path:
        log.write_loss_csv(path)
        if log.eval_rows:
            log.write_eval_csv(str(path) + ".eval.csv")


def _cmd_pretrain(args, cfg: LabConfig) -> int:
    corpus = Corpus.load(args.manifest)
    cb = load_codebook(args.codebook)
    hook = analysis.make_train_eval_hook(corpus) if cfg["eval_interval"] else None
    teacher, log = pretrain_clean(corpus, cb, cfg.train, enc_cfg=cfg.encoder, eval_hook=hook)
    save_encoder(args.out, teacher)
    _write_log(args.log, log)
    print(f"step 0 loss {log.steps[0].l_tot:.4f} -> final {log.steps[-1].l_tot:.4f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_vic_pretrain(args, cfg: LabConfig) -> int:
    if not cfg.train.vic_active:
        print("warning: no --inv/--var/--cov given; run reduces to the noisy "
              "masked-prediction baseline", file=sys.stderr)
    corpus = Corpus.load(args.manifest)
    cb = load_codebook(args.codebook)
    teacher = load_encoder(args.teacher)
    hook = analysis.make_train_eval_hook(corpus) if cfg["eval_interval"] else None
    [(student, log)] = pretrain_noisy(teacher, corpus, cb, [cfg.train], eval_hook=hook)
    save_encoder(args.out, student)
    _write_log(args.log, log)
    b = log.steps[-1]
    print(f"final l_m {b.l_m:.4f} s {b.s:.4f} v {b.v:.4f} c {b.c:.4f} l_tot {b.l_tot:.4f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_probe(args, cfg: LabConfig) -> int:
    enc = load_encoder(args.encoder)
    train = Corpus.load(args.train_manifest)
    ev = train if args.eval_manifest is None else Corpus.load(args.eval_manifest)
    if args.codebook and load_codebook(args.codebook).feature_dim != N_FILTERS:
        raise ValueError("codebook feature dim does not match corpus features")
    results = analysis.linear_probe(enc, train, ev, args.noise_kinds, args.snr_levels, args.seed)
    analysis.write_probe_csv(args.out, results, model_tag=args.model_tag)
    for r in results:
        snr = "inf" if np.isinf(r.snr_db) else f"{r.snr_db:g}"
        print(f"{r.noise_kind:>8} snr={snr:>4}  acc {r.frame_accuracy:.4f}  ({r.n_frames} frames)")
    print(f"n-accuracy {analysis.n_accuracy(results):.4f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_analyze_variance(args, cfg: LabConfig) -> int:
    enc = load_encoder(args.encoder)
    corpus = Corpus.load(args.manifest)
    report = analysis.channel_variance_report(enc, corpus, args.noise_kinds, args.snr_levels,
                                              seed=args.seed, model_tag=args.model_tag)
    report.write_csv(args.out)
    if args.per_channel_out:
        report.write_per_channel_csv(args.per_channel_out)
    for r in report.rows:
        snr = "inf" if np.isinf(r.snr_db) else f"{r.snr_db:g}"
        print(f"{r.noise_kind:>8} snr={snr:>4}  mean channel variance {r.mean_channel_variance:.6f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_ablate(args, cfg: LabConfig) -> int:
    corpus = Corpus.load(args.manifest)
    ev = corpus if args.eval_manifest is None else Corpus.load(args.eval_manifest)
    cb = load_codebook(args.codebook)
    teacher = load_encoder(args.teacher)
    result = analysis.ablation_run(teacher, cfg.train, corpus, cb, args.seeds, ev,
                                   args.eval_noise_kinds, args.snr_levels, probe_seed=args.seed)
    result.write_csv(args.out)
    print(result.format_table())
    print(f"wrote {args.out}")
    return 0


def _cmd_gradcheck(args, cfg: LabConfig) -> int:
    reports = analysis.gradcheck_suite(seed=args.seed, step=args.step)
    worst = 0.0
    for name, rep in reports:
        status = "ok" if rep.max_rel_error <= GRADCHECK_THRESHOLD else "FAIL"
        print(f"{name:<20} max rel error {rep.max_rel_error:.3e}  "
              f"(worst index {rep.worst_index}, step {rep.step:g})  {status}")
        worst = max(worst, rep.max_rel_error)
    print(f"worst overall {worst:.3e} (threshold {GRADCHECK_THRESHOLD:g})")
    return 0 if worst <= GRADCHECK_THRESHOLD else 2


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vicspeech",
                                     description="noise-robust pre-training lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a corpus and manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    _add_config_flags(p, ["n_utterances", "corpus_seed", "vocab_size", "n_segments"])
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("features", help="dump per-utterance feature files")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("kmeans", help="fit the codeword codebook on clean features")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    _add_config_flags(p, ["k", "kmeans_max_iters", "kmeans_seed"])
    p.set_defaults(func=_cmd_kmeans)

    p = sub.add_parser("pretrain", help="stage 0: clean masked-prediction pre-training")
    p.add_argument("--manifest", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--config", default=None)
    _add_config_flags(p, ["steps", "batch_utterances", "learning_rate", "train_seed",
                          "model_dim", "n_blocks", "mlp_hidden", "mask_start_prob",
                          "mask_span", "k", "eval_interval"])
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("vic-pretrain", help="stage 1: noise-robust pre-training "
                                            "against the frozen teacher")
    p.add_argument("--teacher", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--config", default=None)
    for flag, term in (("inv", "invariance"), ("var", "variance"), ("cov", "covariance")):
        p.add_argument(f"--{flag}", dest=f"cfg_use_{flag}", action="store_const", const=True,
                       help=f"enable the {term} term (else the config file's use_{flag})")
    _add_config_flags(p, ["steps", "batch_utterances", "learning_rate", "train_seed",
                          "lambda", "mu", "nu", "alpha", "gamma", "epsilon", "n_sample",
                          "snr_low", "snr_high", "noise_kinds", "eval_interval"])
    p.set_defaults(func=_cmd_vic_pretrain)

    p = sub.add_parser("probe", help="frozen-encoder linear probe over noise conditions")
    p.add_argument("--encoder", required=True)
    p.add_argument("--train-manifest", required=True)
    p.add_argument("--eval-manifest", default=None)
    p.add_argument("--codebook", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--snr-levels", type=_noisy_snr_levels, default="0,5,10,15,inf")
    p.add_argument("--noise-kinds", type=_noise_kinds, default="babble,music,natural")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--model-tag", default="model")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("analyze-variance", help="channel variance vs SNR report")
    p.add_argument("--encoder", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--per-channel-out", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--snr-levels", type=_snr_levels, default="0,5,10,15,inf")
    p.add_argument("--noise-kinds", type=_noise_kinds, default="babble,music")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--model-tag", default="model")
    p.set_defaults(func=_cmd_analyze_variance)

    p = sub.add_parser("ablate", help="four cumulative regularizer configurations")
    p.add_argument("--manifest", required=True)
    p.add_argument("--eval-manifest", default=None)
    p.add_argument("--codebook", required=True)
    p.add_argument("--teacher", required=True, help="the stage-0 checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seeds", type=_seed_list, default="1,2,3")
    p.add_argument("--snr-levels", type=_noisy_snr_levels, default="0,5,10,15,inf",
                   help="probe SNR grid")
    p.add_argument("--eval-noise-kinds", type=_noise_kinds, default="babble,music,natural",
                   help="noise kinds for probe conditions")
    p.add_argument("--seed", type=_seed, default=0, help="probe seed")
    _add_config_flags(p, ["steps", "batch_utterances", "learning_rate",
                          "lambda", "mu", "nu", "alpha", "gamma", "epsilon", "n_sample",
                          "snr_low", "snr_high", "noise_kinds"])
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference checks of every "
                                         "analytic gradient")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--step", type=_step, default=1e-5)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def _is_number_list(token: str) -> bool:
    try:
        [float(tok) for tok in token.split(",")]
    except ValueError:
        return False
    return True


def _join_negative_values(argv) -> list[str]:
    """Join `--flag -5,0` into `--flag=-5,0`. argparse reads a token that
    starts with `-` as an option unless it is a plain negative number, and
    no option here is named like a number, so a number or number list is
    always the value of the `--flag` before it."""
    out: list[str] = []
    for token in argv:
        if (token.startswith("-") and _is_number_list(token) and out
                and out[-1].startswith("--") and "=" not in out[-1]):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code == 0 else 1
    try:
        cfg = _resolve(args)
        if cfg["eval_interval"] and hasattr(args, "log") and args.log is None:
            # the training-time probe rows are written beside the loss CSV
            raise ConfigError(f"eval_interval = {cfg['eval_interval']} needs --log")
        _echo(cfg, _pin_blas(), args)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (TrainingDivergedError, CheckpointError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
