"""Command-line entry point.

Subcommands: synth, features, kmeans, pretrain, vic-pretrain, probe,
analyze-variance, ablate, gradcheck. Exit codes: 0 success, 1 usage or
config error, 2 runtime/divergence error. :func:`run` parses, checks and
echoes every value before a subcommand touches any file, and reruns with
the same seeds reproduce outputs byte for byte.
"""

from __future__ import annotations

import argparse
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
from .signal import NOISE_KINDS, SNR_LIMIT_DB, build_corpus
from .trainer import Corpus, pretrain_clean, pretrain_noisy

GRADCHECK_THRESHOLD = 1e-4


def _add_config_flags(p: argparse.ArgumentParser, keys: list[str]) -> None:
    for key in keys:
        p.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", default=None)


def _resolve(args) -> LabConfig:
    overrides = {}
    for name, value in vars(args).items():
        if name.startswith("cfg_") and value is not None:
            overrides[name[4:]] = value
    return load_config(getattr(args, "config", None), overrides)


def _echo(cfg: LabConfig) -> None:
    # output bytes depend on the BLAS thread count, so the run records it
    print("# resolved config")
    print(f"# numpy {np.__version__}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        print(f"# {var} = {os.environ.get(var, 'unset')}")
    print(cfg.echo())


def _load_corpus(path, cfg: LabConfig) -> Corpus:
    return Corpus.load(path, frame_len=cfg["frame_len"], hop=cfg["hop"],
                       n_filters=cfg["n_filters"])


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


def _parse_list(raw: str, parse) -> list:
    try:
        return [parse(tok) for tok in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid list {raw!r}") from None


def _seed_list(raw: str) -> list[int]:
    seeds = _parse_list(raw, _seed)
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"duplicate seed in {raw!r}")
    return seeds


def _snr_levels(raw: str) -> list[float]:
    levels = _parse_list(raw, float)
    if not all(level == np.inf or abs(level) <= SNR_LIMIT_DB for level in levels):
        raise argparse.ArgumentTypeError(f"levels must be inf or in [-{SNR_LIMIT_DB:g}, "
                                         f"{SNR_LIMIT_DB:g}] dB, got {raw!r}")
    return levels


def _noise_kinds(raw: str) -> list[str]:
    kinds = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not kinds or not set(kinds) <= set(NOISE_KINDS):
        raise argparse.ArgumentTypeError(f"expected a list of {', '.join(NOISE_KINDS)}, "
                                         f"got {raw!r}")
    return kinds


# ----------------------------------------------------------------------
# subcommands: each gets the parsed arguments and the checked config
# ----------------------------------------------------------------------

def _cmd_synth(args, cfg: LabConfig) -> int:
    manifest = build_corpus(args.out, n_utterances=cfg["n_utterances"],
                            corpus_seed=cfg["corpus_seed"], vocab_size=cfg["vocab_size"],
                            n_segments=cfg["n_segments"], sample_rate=cfg["sample_rate"])
    print(f"wrote {manifest}")
    return 0


def _cmd_features(args, cfg: LabConfig) -> int:
    corpus = _load_corpus(args.manifest, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, utt in enumerate(corpus.utterances):
        feats = corpus.clean_features(i)
        tensors = {"frames": feats.frames}
        if feats.frame_labels is not None:
            tensors["frame_labels"] = feats.frame_labels.astype(np.float64)
        save_tensors(out_dir / f"{utt.id}.feat", tensors)
    print(f"wrote {len(corpus)} feature files to {out_dir}")
    return 0


def _cmd_kmeans(args, cfg: LabConfig) -> int:
    corpus = _load_corpus(args.manifest, cfg)
    frames = np.concatenate([corpus.clean_features(i).frames for i in range(len(corpus))])
    cb = fit_kmeans(frames, k=cfg["k"], max_iters=cfg["kmeans_max_iters"],
                    seed=cfg["kmeans_seed"])
    save_codebook(args.out, cb)
    print(f"fitted k={cb.k} codebook on {frames.shape[0]} frames, inertia {cb.inertia:.4f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_pretrain(args, cfg: LabConfig) -> int:
    corpus = _load_corpus(args.manifest, cfg)
    cb = load_codebook(args.codebook)
    hook = analysis.make_train_eval_hook(corpus) if cfg["eval_interval"] else None
    teacher, log = pretrain_clean(corpus, cb, cfg.train, enc_cfg=cfg.encoder, eval_hook=hook)
    save_encoder(args.out, teacher)
    if args.log:
        log.write_loss_csv(args.log)
        if log.eval_rows:
            log.write_eval_csv(str(args.log) + ".eval.csv")
    print(f"step 0 loss {log.steps[0].l_tot:.4f} -> final {log.steps[-1].l_tot:.4f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_vic_pretrain(args, cfg: LabConfig) -> int:
    if not cfg.train.vic_active:
        print("warning: no --inv/--var/--cov given; run reduces to the noisy "
              "masked-prediction baseline", file=sys.stderr)
    corpus = _load_corpus(args.manifest, cfg)
    cb = load_codebook(args.codebook)
    teacher = load_encoder(args.teacher)
    hook = analysis.make_train_eval_hook(corpus) if cfg["eval_interval"] else None
    [(student, log)] = pretrain_noisy(teacher, corpus, cb, [cfg.train], eval_hook=hook)
    save_encoder(args.out, student)
    if args.log:
        log.write_loss_csv(args.log)
        if log.eval_rows:
            log.write_eval_csv(str(args.log) + ".eval.csv")
    b = log.steps[-1]
    print(f"final l_m {b.l_m:.4f} s {b.s:.4f} v {b.v:.4f} c {b.c:.4f} l_tot {b.l_tot:.4f}")
    print(f"wrote {args.out}")
    return 0


def _conditions(kinds: list[str], levels: list[float]) -> list[tuple[str, float]]:
    return [(kind, snr) for kind in kinds for snr in levels]


def _cmd_probe(args, cfg: LabConfig) -> int:
    enc = load_encoder(args.encoder)
    train = _load_corpus(args.train_manifest, cfg)
    ev = train if args.eval_manifest is None else _load_corpus(args.eval_manifest, cfg)
    if args.codebook and load_codebook(args.codebook).feature_dim != train.n_filters:
        raise ValueError("codebook feature dim does not match corpus features")
    conds = _conditions(args.noise_kinds, args.snr_levels)
    results = analysis.linear_probe(enc, train, conds, seed=args.seed, eval_corpus=ev)
    analysis.write_probe_csv(args.out, results, model_tag=args.model_tag)
    for r in results:
        snr = "inf" if np.isinf(r.snr_db) else f"{r.snr_db:g}"
        print(f"{r.noise_kind:>8} snr={snr:>4}  acc {r.frame_accuracy:.4f}  ({r.n_frames} frames)")
    print(f"n-accuracy {analysis.n_accuracy(results):.4f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_analyze_variance(args, cfg: LabConfig) -> int:
    enc = load_encoder(args.encoder)
    corpus = _load_corpus(args.manifest, cfg)
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
    corpus = _load_corpus(args.manifest, cfg)
    ev = corpus if args.eval_manifest is None else _load_corpus(args.eval_manifest, cfg)
    cb = load_codebook(args.codebook)
    teacher = load_encoder(args.teacher) if args.teacher else None
    conds = _conditions(args.eval_noise_kinds, args.snr_levels)
    result = analysis.ablation_run(cfg.train, corpus, cb, args.seeds, conds,
                                   enc_cfg=cfg.encoder, eval_corpus=ev, teacher=teacher,
                                   probe_seed=args.seed)
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
    _add_config_flags(p, ["n_utterances", "corpus_seed", "vocab_size", "n_segments",
                          "sample_rate"])
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("features", help="dump per-utterance feature files")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    _add_config_flags(p, ["frame_len", "hop", "n_filters"])
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("kmeans", help="fit the codeword codebook on clean features")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    _add_config_flags(p, ["k", "kmeans_max_iters", "kmeans_seed", "frame_len", "hop",
                          "n_filters"])
    p.set_defaults(func=_cmd_kmeans)

    p = sub.add_parser("pretrain", help="stage 0: clean masked-prediction pre-training")
    p.add_argument("--manifest", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--config", default=None)
    _add_config_flags(p, ["steps", "batch_utterances", "learning_rate", "train_seed",
                          "model_dim", "n_blocks", "mlp_hidden", "mask_start_prob",
                          "mask_span", "frame_len", "hop", "n_filters", "k",
                          "eval_interval"])
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
                          "snr_low", "snr_high", "noise_kinds", "frame_len", "hop",
                          "n_filters", "eval_interval"])
    p.set_defaults(func=_cmd_vic_pretrain)

    p = sub.add_parser("probe", help="frozen-encoder linear probe over noise conditions")
    p.add_argument("--encoder", required=True)
    p.add_argument("--train-manifest", required=True)
    p.add_argument("--eval-manifest", default=None)
    p.add_argument("--codebook", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--snr-levels", type=_snr_levels, default="0,5,10,15,inf")
    p.add_argument("--noise-kinds", type=_noise_kinds, default="babble,music,natural")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--model-tag", default="model")
    _add_config_flags(p, ["frame_len", "hop", "n_filters"])
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
    _add_config_flags(p, ["frame_len", "hop", "n_filters"])
    p.set_defaults(func=_cmd_analyze_variance)

    p = sub.add_parser("ablate", help="four cumulative regularizer configurations")
    p.add_argument("--manifest", required=True)
    p.add_argument("--eval-manifest", default=None)
    p.add_argument("--codebook", required=True)
    p.add_argument("--teacher", default=None, help="reuse a stage-0 checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seeds", type=_seed_list, default="1,2,3")
    p.add_argument("--snr-levels", type=_snr_levels, default="0,5,10,15,inf",
                   help="probe SNR grid")
    p.add_argument("--eval-noise-kinds", type=_noise_kinds, default="babble,music,natural",
                   help="noise kinds for probe conditions")
    p.add_argument("--seed", type=_seed, default=0, help="probe seed")
    _add_config_flags(p, ["steps", "batch_utterances", "learning_rate",
                          "lambda", "mu", "nu", "alpha", "gamma", "epsilon", "n_sample",
                          "snr_low", "snr_high", "noise_kinds",
                          "model_dim", "n_blocks", "mlp_hidden", "k",
                          "mask_start_prob", "mask_span",
                          "frame_len", "hop", "n_filters", "train_seed"])
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
        _echo(cfg)
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
