"""End-to-end benchmark of iqner training and prediction, with per-layer spans.

Usage, from the repository root:

    python3 bench/run.py --workload train-fixture --seed 11 --seconds 10 --trace 0

Each workload drives the ``iqner`` commands (datagen, train, predict, eval)
in this one process through ``iqner.cli.main``, against the sources in
``src/``. ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs
the same work with spans around the public calls of every layer and prints
the per-layer metrics. Outputs are checked against independent computations
(see checks.py). The last stdout line is the result object; the line before
it records the machine and library versions. ``--workload all`` runs every
workload in turn, each in a child process.
"""

from __future__ import annotations

import os

# Pinned before numpy loads so the BLAS pool is single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    CheckFailed,
    check_assignment,
    check_epoch_losses,
    check_prediction_records,
    f1_score,
    require,
    strict_counts,
)
from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Operating points: the acceptance fixture and the paper default.
FIXTURE = ("--hidden", "32", "--queries", "12", "--layers", "2", "--base-layers", "1",
           "--heads", "4", "--batch-size", "4", "--lr", "6e-3", "--warmup", "0.4",
           "--share-final-assignment")
PAPER = ("--hidden", "64", "--queries", "60", "--layers", "5", "--base-layers", "1",
         "--heads", "4", "--batch-size", "8")
MODEL_SEED = "2"
# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have passed.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
# Held-out sentences are longer than the 8-16 word training ones but fit
# the checkpoint's 64-row position table.
HELDOUT_LENGTHS = ("17", "40")
# This machine's speed drifts by up to 1.6x over minutes. A fixed probe runs
# PROBES times before and after every timed command, and the command's time
# is scaled to what it would have been at REFERENCE_PROBE_S per probe.
REFERENCE_PROBE_S = 0.006
PROBES = 5
# Strict F1 the fixture checkpoint must reach on held-out sentences: every
# entity is marked by its boundary words, so the task is learnable. Over
# seeds 0-45 the checkpoint reached 0.47-0.73, and 0.28 on seed 15.
F1_FLOOR = 0.2


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the command its timed rounds repeat."""

    name: str
    point: tuple[str, ...]
    primary: str  # "train" or "predict"
    epochs: int  # per `iqner train` call
    train_sentences: int = 64
    heldout_sentences: int = 1000
    predicts_per_round: int = 1
    f1_floor: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-fixture", FIXTURE, "train", epochs=3),
        # One paper-default train call takes about 17 s, so its single round
        # predicts three times (about 10 ms a sentence) to give each held-out
        # sentence a median latency.
        Workload("train-paper", PAPER, "train", epochs=2, heldout_sentences=400,
                 predicts_per_round=3),
        Workload("predict-heldout", FIXTURE, "predict", epochs=20, f1_floor=F1_FLOOR),
    )
}


class CommandFailed(RuntimeError):
    """An `iqner` command exited non-zero."""


class LineClock:
    """Stand-in stdout that keeps each line and the moment it was written."""

    def __init__(self):
        self.lines: list[str] = []
        self.times: list[float] = []
        self._partial = ""

    def write(self, text: str) -> int:
        now = time.perf_counter()
        pieces = (self._partial + text).split("\n")
        self._partial = pieces.pop()
        self.lines.extend(pieces)
        self.times.extend([now] * len(pieces))
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class Run:
    """One finished `iqner` command."""

    wall: float
    lines: list[str]
    line_times: list[float]  # seconds since the command started
    scale: float = 1.0  # machine-speed factor from the probes around the command

    def records(self) -> list[dict]:
        return [json.loads(line) for line in self.lines]


@dataclass
class Tally:
    """Operations attempted and failed: optimizer steps and predicted sentences."""

    attempted: int = 0
    failed: int = 0
    trains: list[Run] = field(default_factory=list)
    predicts: list[Run] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)


def probe() -> float:
    """Seconds for a fixed mix of small matrix ops and Python objects.

    The mix resembles an autodiff step at the fixture point and uses only
    numpy, so program changes cannot move it.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(24, 32))
    w = rng.normal(size=(32, 32)) * 0.1
    start = time.perf_counter()
    for i in range(250):
        h = np.maximum(a @ w, 0.0)
        e = np.exp(h - h.max(axis=1, keepdims=True))
        a = 0.5 * a + (e / e.sum(axis=1, keepdims=True)) @ w
        _ = {j: (i, j, a.shape) for j in range(20)}
    return time.perf_counter() - start


def probed(tally: Tally, action):
    """Run ``action`` between two sets of probes.

    Returns its result, its wall time, and the factor that scales that time
    to the reference machine speed.
    """
    samples = [probe() for _ in range(PROBES)]
    start = time.perf_counter()
    result = action()
    elapsed = time.perf_counter() - start
    samples += [probe() for _ in range(PROBES)]
    tally.probes += samples
    return result, elapsed, REFERENCE_PROBE_S / statistics.median(samples)


def load_program() -> None:
    """Import iqner from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "iqner" / "__init__.py").is_file():
        raise FileNotFoundError(f"no iqner sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import iqner

    if Path(iqner.__file__).resolve().parent != (src / "iqner").resolve():
        raise ImportError(f"iqner resolved to {iqner.__file__}, not {src}")


def run_cli(argv: list[str]) -> Run:
    """Run one CLI command in-process; stdout lines are timestamped."""
    from iqner import cli

    clock = LineClock()
    errors = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(clock), contextlib.redirect_stderr(errors):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    if code != 0:
        raise CommandFailed(f"iqner {' '.join(argv)} exited {code}: {errors.getvalue().strip()}")
    return Run(wall, clock.lines, [t - start for t in clock.times])


def counted(argv: list[str], operations: int, tally: Tally, runs: list[Run]) -> Run:
    """Run a command whose operations count as attempted, and as failed if it fails."""
    tally.attempted += operations
    try:
        run, _, run.scale = probed(tally, lambda: run_cli(argv))
    except CommandFailed:
        tally.failed += operations
        raise
    runs.append(run)
    return run


def train(w: Workload, corpus: Path, out: Path, tally: Tally) -> Run:
    batch_size = int(w.point[w.point.index("--batch-size") + 1])
    return counted(["train", "--train", str(corpus), "--out", str(out), "--epochs", str(w.epochs),
                    "--seed", MODEL_SEED, *w.point],
                   w.epochs * math.ceil(w.train_sentences / batch_size), tally, tally.trains)


def predict(checkpoint: Path, heldout: Path, tally: Tally) -> Run:
    with open(heldout, encoding="utf-8") as fh:
        sentences = sum(1 for line in fh if line.strip())
    return counted(["predict", "--checkpoint", str(checkpoint), "--input", str(heldout)],
                   sentences, tally, tally.predicts)


@dataclass
class Paths:
    corpus: Path
    heldout: Path
    meta: Path
    checkpoint: Path


def setup(w: Workload, seed: int, work: Path, tally: Tally) -> Paths:
    """Write both corpora; for a predict workload also train its checkpoint."""
    paths = Paths(work / "train.jsonl", work / "heldout.jsonl", work / "heldout-meta.json",
                  work / "model.npz")
    run_cli(["datagen", "--sentences", str(w.train_sentences), "--max-entities", "8",
             "--seed", str(seed), "--out", str(paths.corpus)])
    run_cli(["datagen", "--sentences", str(w.heldout_sentences), "--max-entities", "8",
             "--min-len", HELDOUT_LENGTHS[0], "--max-len", HELDOUT_LENGTHS[1],
             "--seed", str(seed + 1), "--out", str(paths.heldout), "--meta-out", str(paths.meta)])
    if w.primary == "predict":
        train(w, paths.corpus, paths.checkpoint, tally)
    return paths


def timed_rounds(seconds: float, one_round, tracer: Tracer | None) -> tuple[list[float], list[float]]:
    """Repeat whole rounds while the next is expected to end within ``seconds``.

    ``one_round`` returns the wall time of the commands it ran. With a
    tracer, rounds alternate untraced/traced (at least one of each); returns
    the (untraced, traced) round times.
    """
    plain: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(plain) > len(traced):
            tracer.install()
            try:
                traced.append(one_round())
            finally:
                tracer.uninstall()
        else:
            plain.append(one_round())
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        if elapsed * (done + 1) / done > seconds and (tracer is None or traced):
            return plain, traced


def check_training(w: Workload, paths: Paths, tally: Tally, seed: int) -> None:
    """Epoch losses, checkpoint loading, and solver optima against scipy."""
    from iqner.cli import RunConfig
    from iqner.data import load_dataset
    from iqner.tensor import no_grad
    from iqner.training import load_checkpoint
    from iqner.assignment import allocate_quantities, compute_cost_matrix, solve_one_to_many_lap

    for run in tally.trains:
        check_epoch_losses(run.records())
    model, meta, _ = load_checkpoint(str(paths.checkpoint))
    examples, _ = load_dataset(str(paths.corpus), meta=meta)
    require(len(examples) == w.train_sentences, f"{len(examples)} training sentences read back")
    ratio = RunConfig().snapshot()["ratio"]
    rng = np.random.default_rng(seed)
    queries = model.config.queries
    for ex in examples:
        gold = list(ex.entities)[:queries]
        with no_grad():
            _, head_outs = model.forward(meta.encode(ex.tokens))
        for scores, types in head_outs:
            cost = compute_cost_matrix(scores, types, gold)
            quantities = allocate_quantities(len(gold), queries, ratio, rng)
            check_assignment(cost, quantities.counts, solve_one_to_many_lap(cost, quantities))


def check_prediction(w: Workload, paths: Paths, run: Run) -> float:
    """Structure, order independence, and strict F1 against `iqner eval`."""
    from iqner.cli import RunConfig
    from iqner.training import load_checkpoint

    model, _, _ = load_checkpoint(str(paths.checkpoint))
    cls_threshold = RunConfig().snapshot()["cls_threshold"]
    with open(paths.meta, encoding="utf-8") as fh:
        inventory = set(json.load(fh)["types"])
    with open(paths.heldout, encoding="utf-8") as fh:
        source = [line for line in fh if line.strip()]
    sentences = [json.loads(line) for line in source]
    records = run.records()
    check_prediction_records(records, [len(s["tokens"]) for s in sentences], inventory,
                             cls_threshold, model.config.queries)

    # A sample alone and in reverse order must give the same lines.
    sample = list(range(0, len(source), max(1, len(source) // 12)))
    groups = [sample[::-1]] + [[i] for i in sample[:3]]
    for k, group in enumerate(groups):
        part = paths.heldout.with_name(f"sample{k}.jsonl")
        part.write_text("".join(source[i] for i in group), encoding="utf-8")
        again = run_cli(["predict", "--checkpoint", str(paths.checkpoint), "--input", str(part)])
        require(again.lines == [run.lines[i] for i in group],
                f"predicting sentences {group} apart changed their lines")

    triples = [[(e["start"], e["end"], e["type"]) for e in r["entities"]] for r in records]
    gold = [[(e["start"], e["end"], e["type"]) for e in s["entities"]] for s in sentences]
    n_gold, n_pred, n_correct = strict_counts(triples, gold)
    own_f1 = f1_score(n_gold, n_pred, n_correct)
    report = run_cli(["eval", "--checkpoint", str(paths.checkpoint),
                      "--data", str(paths.heldout)]).records()[0]
    counts = report["counts"]["ner"]
    require((counts["gold"], counts["predicted"], counts["correct"]) == (n_gold, n_pred, n_correct),
            f"eval counts {counts} differ from ours {(n_gold, n_pred, n_correct)}")
    require(abs(report["ner"]["f1"] - own_f1) <= 1e-12,
            f"eval ner.f1 {report['ner']['f1']} differs from ours {own_f1}")
    if w.f1_floor is not None:
        require(own_f1 >= w.f1_floor, f"held-out strict F1 {own_f1:.4f} below floor {w.f1_floor}")
    return own_f1


def end_to_end(setup_times: list[float], tally: Tally, w: Workload) -> dict:
    """Medians over rounds; a sentence's latency is its median gap over rounds.

    Every predict round reads the same file, so taking each sentence's
    median across rounds keeps a burst of machine noise out of the tail.
    """
    predicts = tally.predicts
    sentences_per_s = [w.epochs * w.train_sentences / (run.wall * run.scale) for run in tally.trains]
    gaps = [[1e3 * run.scale * (b - a) for a, b in zip(run.line_times, run.line_times[1:])]
            for run in predicts]
    latency = [statistics.median(per_round) for per_round in zip(*gaps)]
    q = statistics.quantiles(latency, n=100, method="inclusive")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "train_sent_per_s": (statistics.median(sentences_per_s), "sentences/s"),
        "predict_sent_per_s": (
            statistics.median(len(run.lines) / (run.wall * run.scale) for run in predicts),
            "sentences/s"),
        "predict_ms_p50": (q[49], "ms"),
        "predict_ms_p99": (q[98], "ms"),
        "predict_first_line_ms": (
            statistics.median(1e3 * run.scale * run.line_times[0] for run in predicts), "ms"),
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, float]:
    """Set up, measure, check; returns the result object and the median probe (s)."""
    tracer = Tracer() if trace else None
    tally = Tally()
    work = OUT_DIR / f"work-{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            if tracer:
                tracer.install()
            paths, elapsed, scale = probed(tally, lambda: setup(w, seed, work, tally))
            setup_times.append(elapsed * scale)
            if tracer:
                tracer.uninstall()

        def one_round() -> float:
            runs = [train(w, paths.corpus, paths.checkpoint, tally)] if w.primary == "train" else []
            runs += [predict(paths.checkpoint, paths.heldout, tally)
                     for _ in range(w.predicts_per_round)]
            return sum(run.wall * run.scale for run in runs)

        plain, traced = timed_rounds(seconds, one_round, tracer)
        metrics = end_to_end(setup_times, tally, w)

        check_training(w, paths, tally, seed)
        f1 = check_prediction(w, paths, tally.predicts[-1])
        print(f"{w.name}: held-out strict F1 {f1:.4f}", file=sys.stderr)

        if tracer:
            scale = REFERENCE_PROBE_S / statistics.median(tally.probes)
            metrics = {name: (value * scale if unit in ("ms", "s") else value, unit)
                       for name, (value, unit) in layer_metrics(tracer, w.primary).items()}
            # Each traced round against the untraced one just before it.
            overhead = statistics.median(t / p for p, t in zip(plain, traced)) - 1.0
            metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
            tracer.write(OUT_DIR / f"trace-{w.name}-seed{seed}.jsonl")
        result = {
            "correct": True,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    except (CheckFailed, CommandFailed) as err:
        print(f"error: {err}", file=sys.stderr)
        result = {"correct": False, "attempted": tally.attempted, "failed": tally.failed,
                  "metrics": {}}
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    return result, statistics.median(tally.probes) if tally.probes else math.nan


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own child process, one after another."""
    worst = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        worst = max(worst, child.returncode)
        lines = child.stdout.splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False}
        print(json.dumps({"workload": name, **result}))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        load_program()
    except (FileNotFoundError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    env = environment()
    result, probe_s = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace))
    env["probe_ms"] = 1e3 * probe_s
    env["reference_probe_ms"] = 1e3 * REFERENCE_PROBE_S
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                             "trace": args.trace, "env": env, **result}) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
