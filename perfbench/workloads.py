"""The benchmark workloads: inputs, set-up, the timed pass and its checks.

Every command goes through ``vicspeech.cli.run(argv)`` in one process, so the
``cli``, ``config`` and ``checkpoint`` layers are on the timed path. Sizes
match the acceptance bench: 24 train and 8 eval utterances, vocabulary 8,
k=12, a d=32 encoder with 2 blocks and MLP width 64, 8 utterances per step.
Every input is derived from the workload seed; the eval noise draws use the
commands' default ``--seed 0``, the fixed eval-noise protocol.
"""

from __future__ import annotations

import csv
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

TRAIN_UTTS = 24
EVAL_UTTS = 8
BATCH = 8
K = 12
FRAME_LEN = 400  # the config defaults, which the benchmark keeps
HOP = 160
TEACHER_SETUP_STEPS = 6  # 2 epochs: the timed passes need a teacher, not a good one
STUDENT_SETUP_STEPS = 3  # 1 epoch
EVAL_KINDS = "babble,music,natural"
N_SNR_FINITE = 4  # the commands' default grid: 0, 5, 10, 15 dB and inf (clean)

CONFIG = """\
# settings shared by every benchmark command
vocab_size = 8
n_segments = 10
k = {k}
kmeans_max_iters = 50
kmeans_seed = {kmeans_seed}
model_dim = 32
n_blocks = 2
mlp_hidden = 64
batch_utterances = {batch}
learning_rate = 0.001
train_seed = {train_seed}
noise_kinds = music,natural
snr_low = 5.0
snr_high = 10.0
gamma = 2.0
"""


@dataclass
class Inputs:
    """Files made during set-up, shared by every timed pass."""

    root: Path
    seed: int
    config: Path
    train: Path
    codebook: Path
    eval: Optional[Path] = None
    teacher: Optional[Path] = None
    student: Optional[Path] = None

    @property
    def train_seed(self) -> int:
        return self.seed + 1

    def frames(self, manifest: Path) -> int:
        """Total feature frames of a corpus, from its manifest."""
        total = 0
        for line in manifest.read_text(encoding="utf-8").splitlines():
            n_samples = int(line.split("\t")[2])
            total += 1 + (n_samples - FRAME_LEN) // HOP
        return total


def crc_of(paths: list[Path]) -> str:
    """CRC-32 over the names and bytes of `paths`, as 8 hex digits."""
    crc = 0
    for p in paths:
        crc = zlib.crc32(p.name.encode("utf-8"), crc)
        crc = zlib.crc32(p.read_bytes(), crc)
    return f"{crc & 0xFFFFFFFF:08x}"


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_loss_csv(path: Path, steps: int, problems: list[str]) -> list[dict]:
    rows = _rows(path)
    if len(rows) != steps:
        problems.append(f"{path.name}: {len(rows)} rows, expected {steps}")
    for r in rows:
        if not all(math.isfinite(float(r[key])) for key in ("l_m", "s", "v", "c", "l_vic", "l_tot")):
            problems.append(f"{path.name}: non-finite loss at step {r['step']}")
            break
    return rows


def _check_accuracy(value: str, where: str, problems: list[str]) -> float:
    acc = float(value)
    if not 0.0 <= acc <= 1.0:
        problems.append(f"{where}: accuracy {acc} outside [0, 1]")
    return acc


class Workload:
    name = ""
    why = ""
    # wall time of one pass and one set-up on the reference host (see
    # perfbench/README.md); they fix how many of each a run makes
    nominal_pass_s: float
    nominal_setup_s: float
    needs_eval = False
    needs_teacher = False
    needs_student = False

    # -- set-up ----------------------------------------------------------
    def setup_commands(self, inp: Inputs) -> list[list[str]]:
        cfg = ["--config", str(inp.config)]
        s = inp.seed
        cmds = [["synth", "--out", str(inp.train.parent), "--n-utterances", str(TRAIN_UTTS),
                 "--corpus-seed", str(64 * s)] + cfg]
        if self.needs_eval:
            cmds.append(["synth", "--out", str(inp.eval.parent), "--n-utterances", str(EVAL_UTTS),
                         "--corpus-seed", str(64 * s + 32)] + cfg)
        cmds.append(["kmeans", "--manifest", str(inp.train), "--out", str(inp.codebook)] + cfg)
        if self.needs_teacher:
            cmds.append(["pretrain", "--manifest", str(inp.train), "--codebook", str(inp.codebook),
                         "--out", str(inp.teacher), "--steps", str(TEACHER_SETUP_STEPS)] + cfg)
        if self.needs_student:
            cmds.append(["vic-pretrain", "--inv", "--var", "--cov", "--teacher", str(inp.teacher),
                         "--manifest", str(inp.train), "--codebook", str(inp.codebook),
                         "--out", str(inp.student), "--steps", str(STUDENT_SETUP_STEPS)] + cfg)
        return cmds

    def inputs(self, root: Path, seed: int) -> Inputs:
        root.mkdir(parents=True, exist_ok=True)
        inp = Inputs(root=root, seed=seed, config=root / "bench.cfg",
                     train=root / "train" / "manifest.tsv", codebook=root / "cb.ckpt",
                     eval=root / "eval" / "manifest.tsv" if self.needs_eval else None,
                     teacher=root / "teacher.ckpt" if self.needs_teacher else None,
                     student=root / "student.ckpt" if self.needs_student else None)
        inp.config.write_text(CONFIG.format(k=K, batch=BATCH, kmeans_seed=seed,
                                            train_seed=inp.train_seed), encoding="utf-8")
        return inp

    def setup_files(self, inp: Inputs) -> list[Path]:
        files = [inp.config, inp.codebook]
        for manifest in (inp.train, inp.eval):
            if manifest is not None:
                files += sorted(manifest.parent.rglob("*.*"))
        files += [p for p in (inp.teacher, inp.student) if p is not None]
        return files

    # -- timed pass --------------------------------------------------------
    def commands(self, inp: Inputs, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, out: Path) -> list[Path]:
        raise NotImplementedError

    def check(self, inp: Inputs, out: Path) -> tuple[list[str], dict[str, float]]:
        """Invariant violations of one pass's outputs, and its quality values."""
        raise NotImplementedError

    def frames(self, inp: Inputs) -> tuple[int, int]:
        """Encoder frames one pass asks for: (training, evaluation)."""
        raise NotImplementedError

    def expected(self, inp: Inputs) -> dict[str, int]:
        """Call counts of one pass, known in advance."""
        raise NotImplementedError


class Teacher(Workload):
    name = "teacher"
    why = ("stage-0 masked prediction on clean features: encoder forward/backward, loss and "
           "Adam take the step once the clean-feature cache fills")
    steps = 24
    nominal_pass_s = 0.75
    nominal_setup_s = 0.3

    def commands(self, inp, out):
        return [["pretrain", "--manifest", str(inp.train), "--codebook", str(inp.codebook),
                 "--out", str(out / "teacher.ckpt"), "--log", str(out / "teacher_loss.csv"),
                 "--steps", str(self.steps), "--config", str(inp.config)]]

    def outputs(self, out):
        return [out / "teacher_loss.csv", out / "teacher.ckpt"]

    def check(self, inp, out):
        problems: list[str] = []
        rows = _check_loss_csv(out / "teacher_loss.csv", self.steps, problems)
        l_m0 = float(rows[0]["l_m"])
        if abs(l_m0 - math.log(K)) > 0.05:
            problems.append(f"teacher step-0 l_m {l_m0:.4f} is not ~ln {K} = {math.log(K):.4f}")
        return problems, {"final_l_tot": float(rows[-1]["l_tot"])}

    def frames(self, inp):
        return self.steps * BATCH // TRAIN_UTTS * inp.frames(inp.train), 0

    def expected(self, inp):
        return {"trainer.make_batch.calls": self.steps, "trainer.adam_step.calls": self.steps,
                "model.forward.train.calls": self.steps * BATCH,
                "codebook.assign.calls": TRAIN_UTTS}


class Student(Workload):
    name = "student"
    why = ("stage-1 VIC training on music+natural noise at 5-10 dB: noise synthesis, mixing "
           "and features in make_batch, the teacher-rep cache, the frame sampler and VIC terms")
    needs_teacher = True
    steps = 12
    nominal_pass_s = 1.2
    nominal_setup_s = 0.6

    def commands(self, inp, out):
        return [["vic-pretrain", "--inv", "--var", "--cov", "--teacher", str(inp.teacher),
                 "--manifest", str(inp.train), "--codebook", str(inp.codebook),
                 "--out", str(out / "student.ckpt"), "--log", str(out / "student_loss.csv"),
                 "--steps", str(self.steps), "--config", str(inp.config)]]

    def outputs(self, out):
        return [out / "student_loss.csv", out / "student.ckpt"]

    def check(self, inp, out):
        problems: list[str] = []
        rows = _check_loss_csv(out / "student_loss.csv", self.steps, problems)
        if any(float(r["s"]) <= 0.0 for r in rows):
            problems.append("student invariance term is not positive with --inv")
        return problems, {"final_l_tot": float(rows[-1]["l_tot"])}

    def frames(self, inp):
        return self.steps * BATCH // TRAIN_UTTS * inp.frames(inp.train), 0

    def expected(self, inp):
        return {"trainer.make_batch.calls": self.steps, "trainer.adam_step.calls": self.steps,
                "model.forward.train.calls": self.steps * BATCH,
                "trainer.teacher_forward.calls": TRAIN_UTTS,
                "losses.sample_frames.calls": self.steps,
                "signal.synth_noise.calls": self.steps * BATCH,
                "codebook.assign.calls": TRAIN_UTTS}


class Eval(Workload):
    name = "eval"
    why = ("read-only probe and variance report of a fixed student over babble, music and "
           "natural noise at 0-15 dB and clean: forward only, probe fit, babble synthesis")
    needs_eval = needs_teacher = needs_student = True
    n_probe_rows = 1 + 3 * N_SNR_FINITE  # one clean row, then each kind at each finite SNR
    n_variance_rows = 3 * (N_SNR_FINITE + 1)
    nominal_pass_s = 7.0
    nominal_setup_s = 1.0

    def commands(self, inp, out):
        return [["probe", "--encoder", str(inp.student), "--train-manifest", str(inp.train),
                 "--eval-manifest", str(inp.eval), "--codebook", str(inp.codebook),
                 "--out", str(out / "probe.csv"), "--noise-kinds", EVAL_KINDS,
                 "--model-tag", "student", "--config", str(inp.config)],
                ["analyze-variance", "--encoder", str(inp.student), "--manifest", str(inp.eval),
                 "--out", str(out / "variance.csv"),
                 "--per-channel-out", str(out / "variance_channels.csv"),
                 "--noise-kinds", EVAL_KINDS, "--model-tag", "student",
                 "--config", str(inp.config)]]

    def outputs(self, out):
        return [out / "probe.csv", out / "variance.csv", out / "variance_channels.csv"]

    def check(self, inp, out):
        problems: list[str] = []
        eval_frames = inp.frames(inp.eval)
        probe = _rows(out / "probe.csv")
        if len(probe) != self.n_probe_rows:
            problems.append(f"probe.csv: {len(probe)} rows, expected {self.n_probe_rows}")
        noisy = []
        for r in probe:
            acc = _check_accuracy(r["frame_accuracy"], "probe.csv", problems)
            if int(r["n_frames"]) != eval_frames:
                problems.append(f"probe.csv: {r['n_frames']} frames, expected {eval_frames}")
            if r["snr_db"] != "inf":
                noisy.append(acc)
        for name in ("variance.csv", "variance_channels.csv"):
            rows = _rows(out / name)
            if len(rows) != self.n_variance_rows:
                problems.append(f"{name}: {len(rows)} rows, expected {self.n_variance_rows}")
        for r in _rows(out / "variance.csv"):
            value = float(r["mean_channel_variance"])
            if not (math.isfinite(value) and value > 0.0):
                problems.append(f"variance.csv: mean channel variance {value}")
        return problems, {"n_accuracy": sum(noisy) / max(len(noisy), 1)}

    def frames(self, inp):
        rows = self.n_probe_rows + self.n_variance_rows
        return 0, inp.frames(inp.train) + rows * inp.frames(inp.eval)

    def expected(self, inp):
        noisy = EVAL_UTTS * 3 * N_SNR_FINITE
        return {"probe.synth_noise.calls": noisy, "variance.synth_noise.calls": noisy,
                "analysis.fit_linear_probe.calls": 1, "model.forward.train.calls": 0}


class Ablation(Workload):
    name = "ablation"
    why = ("ablate, one seed, four cumulative configs on identical noisy batches, each probed: "
           "the only place where work shared across runs can show")
    needs_eval = needs_teacher = True
    steps = 6
    nominal_pass_s = 3.75
    nominal_setup_s = 0.6
    configs = ("lm", "lm+inv", "lm+inv+var", "lm+inv+var+cov")
    probe_kinds = "music,natural"
    probe_snrs = "5,inf"  # one finite SNR keeps a pass short; eval covers the full grid
    n_probe_snrs = 1

    def commands(self, inp, out):
        return [["ablate", "--manifest", str(inp.train), "--eval-manifest", str(inp.eval),
                 "--codebook", str(inp.codebook), "--teacher", str(inp.teacher),
                 "--out", str(out / "ablation.csv"), "--seeds", str(inp.train_seed),
                 "--eval-noise-kinds", self.probe_kinds, "--snr-levels", self.probe_snrs,
                 "--steps", str(self.steps),
                 "--config", str(inp.config)]]

    def outputs(self, out):
        return [out / "ablation.csv"]

    def check(self, inp, out):
        problems: list[str] = []
        rows = _rows(out / "ablation.csv")
        if [r["config_tag"] for r in rows] != list(self.configs):
            problems.append(f"ablation.csv: configs {[r['config_tag'] for r in rows]}")
            return problems, {"n_accuracy": 0.0}
        for r in rows:
            _check_accuracy(r["n_accuracy_mean"], "ablation.csv", problems)
            if float(r["n_accuracy_std"]) != 0.0:
                problems.append("ablation.csv: nonzero n-accuracy std with one seed")
            if not all(math.isfinite(float(r[key])) for key in ("l_m", "s", "v", "c")):
                problems.append(f"ablation.csv: non-finite loss in {r['config_tag']}")
        if any(float(rows[0][key]) != 0.0 for key in ("s", "v", "c")):
            problems.append("ablation.csv: the lm row logs a nonzero VIC term")
        if any(float(r["s"]) <= 0.0 for r in rows[1:]):
            problems.append("ablation.csv: invariance is not positive where enabled")
        return problems, {"n_accuracy": float(rows[-1]["n_accuracy_mean"])}

    def frames(self, inp):
        n = len(self.configs)
        per_probe = inp.frames(inp.train) + (1 + 2 * self.n_probe_snrs) * inp.frames(inp.eval)
        return (n * self.steps * BATCH // TRAIN_UTTS * inp.frames(inp.train), n * per_probe)

    def expected(self, inp):
        n = len(self.configs)
        return {"trainer.make_batch.calls": n * self.steps,
                "trainer.adam_step.calls": n * self.steps,
                "model.forward.train.calls": n * self.steps * BATCH,
                "trainer.teacher_forward.calls": (n - 1) * TRAIN_UTTS,
                "probe.synth_noise.calls": n * EVAL_UTTS * 2 * self.n_probe_snrs,
                "analysis.fit_linear_probe.calls": n,
                "codebook.assign.calls": n * TRAIN_UTTS}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Teacher(), Student(), Eval(), Ablation())}
