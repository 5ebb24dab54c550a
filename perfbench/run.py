"""odelab benchmark: one workload per run, printed as one JSON line.

Usage (from the repository root; the package need not be installed)::

    python3 perfbench/run.py --workload stubble|snake|master [--seed N]
                             [--seconds S] [--trace 0|1]

Each operation is a fresh process (``python3 -m odelab.cli ...`` or the
library pipeline ``perfbench/master_pipeline.py``) with ``PYTHONPATH=src``
and BLAS/OpenMP pinned to one thread.  Operations run one at a time from
this process (closed loop, one client) in whole rounds of the workload's
operation list: at least one, and another while one more like the last
still fits in ``--seconds``.
Every output is checked by ``perfbench/checks.py``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of three
``import odelab`` processes), ``wall_s`` (median over rounds of one
round's wall time) and ``peak_rss_mb`` (largest max-RSS of any child).
Both times are given at reference speed: a fixed task,
``perfbench/reference.py``, runs before and after every timed process,
and each process's seconds are scaled by ``REFERENCE_S`` over the mean
of the two reference times around it.  That cancels the drift of a
shared machine's speed.  The raw seconds are logged.
``--trace 1`` alternates untraced rounds (per-operation wall times) with
traced rounds (``perfbench/traced.py``), one pair and more while another
pair fits, and prints the per-layer metrics.

The seed (default 0) draws the configs and CLI seeds of the workload and
the order of its operations; it never changes how much work an operation
does.  An operation fails when it exits non-zero, writes to stderr,
leaves an expected output file missing or has its output rejected by a
check; ``correct`` is false when any output was rejected, so a wrong
answer is told apart from a crash.

Outputs go to ``perfbench/out/<workload>/``.  The exit code is 0
whenever the benchmark ran, however many operations failed; it is 2 when
the benchmark cannot run (no ``src/odelab`` next to ``perfbench/``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_IMPORTS = 3
# seconds of reference.py on a quiet machine: end-to-end times are reported
# at the speed where it takes this long (see interleaved)
REFERENCE_S = 0.40
OP_TIMEOUT_S = 60.0  # several times the slowest operation; a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Op:
    label: str                  # metric label: <command>.<suite-or-construction>
    outputs: tuple              # files the operation must write
    check: Callable             # checks.<fn>(out_dir, cfg, seed) -> problems
    cfg: dict = field(default_factory=dict)
    seed: int = 0
    script: str = ""            # library pipeline script instead of the CLI

    def argv(self, out: Path, cfg_path: Path) -> list:
        if self.script:
            return [str(ROOT / self.script), "--out", str(out), "--seed", str(self.seed)]
        command = self.label.split(".", 1)[0]
        return ["-m", "odelab.cli", command, "--config", str(cfg_path),
                "--out", str(out), "--seed", str(self.seed)]


def _verify(label: str, cfg: dict, seed: int) -> Op:
    return Op(f"verify.{label}", ("report.json",), checks.report, cfg, seed)


def stubble(rng: random.Random) -> list:
    """Many short flow-free operations: kernels, certification and cover counting."""
    return [
        _verify("coincidence", {"suite": "coincidence", "beta": 1.5,
                                "x0": [rng.uniform(0.3, 0.7)]}, rng.randrange(2**31)),
        Op("construct.stubble-det", ("construction.json", "field_grid.csv"), checks.stubble_det,
           {"construction": "stubble-det", "beta": 2.5, "x0": [rng.uniform(0.3, 0.7)]},
           rng.randrange(2**31)),
        _verify("smoothness-d2", {"suite": "smoothness", "beta": 2.0, "d": 2},
                rng.randrange(2**31)),
        _verify("smoothness-d3", {"suite": "smoothness", "beta": 3.5, "d": 3},
                rng.randrange(2**31)),
        _verify("assumptions", {"suite": "assumptions", "d": 2, "K_grid": 24},
                rng.randrange(2**31)),
    ]


def snake(rng: random.Random) -> list:
    """Few long trajectories: integration, pulse fields and tube distances."""
    return [
        _verify("tube-cover", {"suite": "tube-cover", "beta": 2.0, "d": 2, "delta": 0.05},
                rng.randrange(2**31)),
        _verify("spiral", {"suite": "spiral", "K": 3}, rng.randrange(2**31)),
        _verify("symmetry", {"suite": "symmetry", "beta": 2.0}, rng.randrange(2**31)),
        # the gronwall seed draws the trial starts, which move the RK step
        # counts; it stays fixed so per-layer counts match across seeds
        _verify("gronwall", {"suite": "gronwall", "beta": 2.0, "trials": 8}, 0),
    ]


def master(rng: random.Random) -> list:
    """The master-theorem pipeline in one process, plus the rate table and Le Cam."""
    return [
        Op("lib.master_pipeline", ("master.json",), checks.master, {}, rng.randrange(2**31),
           script="perfbench/master_pipeline.py"),
        Op("rates", ("rates.csv",), checks.rates,
           {"beta": 2.0, "d": 2,
            "n": {"start": 1e3 * 10 ** rng.uniform(0, 0.5),
                  "stop": 1e8 * 10 ** rng.uniform(0, 0.5), "num": 400}}),
        Op("experiment", ("experiment.json", "experiment.csv"), checks.experiment,
           {"kl": rng.uniform(0.1, 0.5), "trials": 2_000_000}, rng.randrange(2**31)),
    ]


WORKLOADS = {"stubble": stubble, "snake": snake, "master": master}


def build(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops


def op_metric(label: str) -> str:
    """Untraced wall time of one operation: cli.<command>.<suite>.s or lib.<script>.s."""
    return f"{label}.s" if label.startswith("lib.") else f"cli.{label}.s"


# metric -> operation label, for every operation of every workload
OP_METRICS = {op_metric(op.label): op.label
              for w in WORKLOADS for op in WORKLOADS[w](random.Random(0))}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Runner:
    def __init__(self, workload: str, seed: int):
        self.env = child_env()
        self.work = OUT / workload
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "cfg").mkdir(parents=True)
        self.ops = build(workload, seed)
        for op in self.ops:
            self.cfg_path(op).write_text(json.dumps(op.cfg))
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def cfg_path(self, op: Op) -> Path:
        return self.work / "cfg" / f"{op.label}.json"

    def run_op(self, op: Op, traced: bool):
        """Run one operation; return (wall seconds, span file or None)."""
        out = self.work / op.label
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        span_file = out / "spans.npz"
        prefix = [str(ROOT / "perfbench" / "traced.py"), str(span_file)] if traced else []
        argv = [sys.executable] + prefix + op.argv(out, self.cfg_path(op))
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=OP_TIMEOUT_S)
            wall = time.perf_counter() - t0
            status = [f"exit code {proc.returncode}"] if proc.returncode else []
            if proc.stderr:
                status.append("stderr: " + (proc.stderr.strip().splitlines() or [""])[-1])
        except subprocess.TimeoutExpired:
            wall = time.perf_counter() - t0
            status = [f"timed out after {OP_TIMEOUT_S:g} s"]
        status += [f"missing {name}" for name in op.outputs if not (out / name).is_file()]
        try:
            wrong = [] if status else op.check(str(out), op.cfg, op.seed)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            wrong = [f"output not in the expected form: {exc!r}"]
        if status or wrong:
            self.failed += 1
            self.wrong += bool(wrong)
            print(f"FAILED {op.label}: {'; '.join(status + wrong)}", flush=True)
            return wall, None
        return wall, (span_file if traced else None)

    def round(self, traced: bool):
        """One pass over the operation list: (wall, {label: wall}, raw span sums)."""
        walls, sums = {}, {}
        for op in self.ops:
            walls[op.label], span_file = self.run_op(op, traced)
            if span_file is not None:
                sums = spans.add(sums, spans.raw_sums(str(span_file)))
        return sum(walls.values()), walls, sums


def reference_seconds(env: dict) -> float:
    """Wall time of one ``reference.py`` process."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "reference.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode or proc.stderr:
        raise RuntimeError(f"reference.py failed: {proc.stderr.strip()}")
    return time.perf_counter() - t0


def interleaved(env: dict, tasks: list) -> tuple:
    """Run the tasks with a reference task before, between and after them.

    Returns the raw seconds of each task, the same at reference speed and
    the reference times.  A task's seconds at reference speed are its
    seconds times REFERENCE_S over the mean of the two reference times
    around it: the machine's speed can change within seconds, so only the
    nearest references follow it.
    """
    refs = [reference_seconds(env)]
    raw = []
    for task in tasks:
        raw.append(task())
        refs.append(reference_seconds(env))
    at_ref = [REFERENCE_S * 2.0 * t / (r0 + r1) for t, r0, r1 in zip(raw, refs, refs[1:])]
    return raw, at_ref, refs


def import_seconds(env: dict) -> float:
    """Wall time of one fresh ``import odelab`` process."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import odelab"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode:
        print(f"setup: 'import odelab' exited {proc.returncode}", flush=True)
    return time.perf_counter() - t0


def end_to_end(runner: Runner, seconds: float) -> dict:
    env = runner.env
    imports, at_ref, refs = interleaved(env, [lambda: import_seconds(env)] * SETUP_IMPORTS)
    setup = statistics.median(at_ref)
    print(f"setup: {setup:.4f} s at reference speed; imports {json.dumps(imports)}, "
          f"references {json.dumps(refs)}", flush=True)
    walls = []
    start = time.perf_counter()
    last = 0.0
    # at least one round; another only if one more like the last fits in the time
    while not walls or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        raw, at_ref, refs = interleaved(env, [lambda op=op: runner.run_op(op, traced=False)[0]
                                              for op in runner.ops])
        last = time.perf_counter() - t0
        walls.append(sum(at_ref))
        print(f"round {len(walls)}: {walls[-1]:.4f} s at reference speed; "
              f"operations {json.dumps({op.label: t for op, t in zip(runner.ops, raw)})}, "
              f"references {json.dumps(refs)}", flush=True)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "setup_s": setup,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss,
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    plain, traced = [], []
    start = time.perf_counter()
    pair = 0.0
    while not traced or time.perf_counter() - start + pair <= seconds:
        plain.append(runner.round(traced=False))
        traced.append(runner.round(traced=True))
        pair = plain[-1][0] + traced[-1][0]
        print(f"untraced round: {plain[-1][0]:.3f} s, traced round: {traced[-1][0]:.3f} s",
              flush=True)
    layer = [spans.layer_metrics(sums) for _, _, sums in traced if sums]
    out = {name: statistics.median(m[name] for m in layer) for name in layer[0]} if layer else {}
    # the widest stacked state describes the workload, not a cost: logged, not judged
    print(f"flow.state_width: {out.get('flow.state_width', 0.0):g} coords", flush=True)
    for name, label in OP_METRICS.items():
        vals = [walls[label] for _, walls, _ in plain if label in walls]
        out[name] = statistics.median(vals) if vals else 0.0
    out["trace.overhead_s"] = (statistics.median(w for w, _, _ in traced)
                               - statistics.median(w for w, _, _ in plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "odelab" / "cli.py").is_file():
        print(f"run.py: no odelab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    # BENCHMARK.json is the one list of metric names and units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = Runner(args.workload, args.seed)
    if args.trace:
        kind, values = "per_layer", per_layer(runner, args.seconds)
    else:
        kind, values = "end_to_end", end_to_end(runner, args.seconds)
    # a metric reads 0 when the operations that feed it all failed
    unknown = [m["name"] for m in spec[kind] if m["name"] not in values]
    if unknown and not runner.failed:
        raise KeyError(f"BENCHMARK.json names metrics that run.py does not compute: {unknown}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec[kind]}
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
