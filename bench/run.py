"""dmdlab benchmark: generator updates per second on three distillation shapes.

Run from the repository root:

    python3 bench/run.py --workload dmd-1step --seed 1 --seconds 25 --trace 0

One process runs one workload as a closed loop with one client: each
``lab.runner.run_config`` call starts after the previous one returns. The
harness imports the library from ``src/`` next to this directory and gives it
only a run config and a teacher checkpoint, both built from ``--seed``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates traced and untraced runs and reports the per-layer
metrics from the traced ones. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the environment record and the raw samples. See bench/README.md.
"""

import os

# the lab is single-core by design; this must precede the numpy import
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("LAB_SEED", None)  # would override the workload seed

import argparse
import contextlib
import csv
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from layers import layer_metrics, pass_count_errors
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

ITERATIONS = 60          # generator updates per run_config call
TEACHER_ITERATIONS = 200  # teacher budget per set-up
SETUP_EVERY = 3          # untraced: one more set-up before every 3rd timed call
MIN_TIMED_RUNS = 3


@dataclass(frozen=True)
class Workload:
    overrides: dict   # applied on top of lab.presets.BASE_RUN
    forwards: int     # per update, outside the backward-simulate chain
    backwards: int    # per update
    adam_steps: int   # per update


WORKLOADS = {
    # Base shape of the decompose and regularizers presets: the TTUR
    # fake-model loop (net + optim) holds almost all of the time.
    "dmd-1step": Workload(
        {"mode": "FULL_DMD", "schedule_policy": "COUPLED_SHARED",
         "n_steps": 1, "batch": 128, "ttur_ratio": 5,
         "eval_every": ITERATIONS},
        forwards=12, backwards=6, adam_steps=6),
    # Schedule-ablation shape: the same TTUR loop plus a gradient-stopped
    # backward-simulate chain and a decoupled direction with two noise draws.
    "hybrid-4step": Workload(
        {"mode": "FULL_DMD", "schedule_policy": "DECOUPLED_HYBRID",
         "n_steps": 4, "batch": 128, "ttur_ratio": 5,
         "eval_every": ITERATIONS},
        forwards=12, backwards=6, adam_steps=6),
    # No fake model: the discriminator, real-batch sampling, and frequent
    # evaluation points (metrics, sample CSVs) carry the time instead.
    "ca-gan-eval": Workload(
        {"mode": "CA_ONLY", "schedule_policy": "COUPLED_SHARED",
         "regularizer": "GAN", "n_steps": 1, "batch": 128,
         "eval_every": 10, "eval_n": 1024},
        forwards=6, backwards=4, adam_steps=2),
}


def _import_library():
    """Import dmdlab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import dmdlab
    if not Path(dmdlab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"dmdlab resolved to {dmdlab.__file__}, not {SRC}")
    from dmdlab import checkpoint, data, distill, flow
    from dmdlab.lab import config, presets, runner
    return SimpleNamespace(checkpoint=checkpoint, data=data, distill=distill,
                           flow=flow, config=config, presets=presets,
                           runner=runner)


def matmul_gflops(reps=400):
    """Plain-numpy machine-speed reference: median rate of a 128^3 float64
    matmul."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((128, 128)), rng.standard_normal((128, 128))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2 * 128 ** 3 / statistics.median(times) / 1e9


def environment():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# metrics.csv columns whose values must lie in [lo, hi]
_RANGES = {"sw2": (0.0, math.inf), "mean_of_vars": (0.0, math.inf),
           "mode_coverage": (0.0, 1.0), "loss_proxy": (0.0, math.inf),
           "loss_fake": (0.0, math.inf), "tau_ca": (0.0, 1.0),
           "tau_dm": (0.0, 1.0), "t": (0.0, 1.0)}


def check_metrics_csv(payload: bytes, iterations):
    """None if metrics.csv has one finite, in-range row per evaluation
    point, else what is wrong."""
    rows = list(csv.DictReader(io.StringIO(payload.decode())))
    if [int(r["iteration"]) for r in rows] != iterations:
        return (f"metrics.csv rows are for iterations "
                f"{[r['iteration'] for r in rows]}, expected {iterations}")
    for row in rows:
        for column, value in row.items():
            v = float(value)
            lo, hi = _RANGES.get(column, (-math.inf, math.inf))
            if not (math.isfinite(v) and lo <= v <= hi):
                return (f"metrics.csv iteration {row['iteration']}: "
                        f"{column} = {value}")
    return None


class Harness:
    """One workload at one seed: set-up, runs and the correctness gate."""

    def __init__(self, lib, name, seed, work):
        self.lib = lib
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.cfg = None
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        every = self.workload.overrides["eval_every"]
        self.eval_iterations = [it for it in range(1, ITERATIONS + 1)
                                if it % every == 0 or it == ITERATIONS]

    def set_up(self) -> float:
        """Train the teacher, save it and build the run config; returns the
        wall time. Calls go through module attributes so tracing sees them."""
        t0 = time.perf_counter()
        lib = self.lib
        teacher = lib.flow.train_teacher(
            lib.data.gmm8(),
            lib.flow.TeacherConfig(iterations=TEACHER_ITERATIONS),
            np.random.default_rng(self.seed))
        path = self.work / "teacher.ckpt"
        lib.checkpoint.save_params(teacher, path)
        self.cfg = lib.config.run_config_from_dict({
            **lib.presets.BASE_RUN, **self.workload.overrides,
            "iterations": ITERATIONS, "seed": self.seed,
            "teacher": str(path)})
        return time.perf_counter() - t0

    def run(self, label):
        """One operation: a run_config call. Returns (wall seconds, whether
        it ran to the end). A run that ran to the end but failed the
        correctness gate still counts as failed; its time stays valid."""
        out = self.work / "run"
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            self.lib.runner.run_config(self.cfg, out)
        except self.lib.distill.NonFiniteError as err:
            self._fail(f"{label}: aborted on NonFiniteError: {err}")
            return time.perf_counter() - t0, False
        seconds = time.perf_counter() - t0
        payload = (out / "metrics.csv").read_bytes()
        problem = check_metrics_csv(payload, self.eval_iterations)
        if problem is None and self.reference is None:
            self.reference = payload
        elif problem is None and payload != self.reference:
            problem = "metrics.csv bytes differ from the first run"
        if problem is not None:
            self._fail(f"{label}: {problem}")
        return seconds, True

    def _fail(self, problem):
        self.failed += 1
        self.problems.append(problem)


def _repeat(seconds, step):
    """Call step(i), which returns the seconds it spent in timed calls,
    until they add up to `seconds` and it ran MIN_TIMED_RUNS times."""
    timed = 0.0
    i = 0
    while i < MIN_TIMED_RUNS or timed < seconds:
        timed += step(i)
        i += 1


def measure_untraced(h: Harness, seconds: float):
    setups = [h.set_up()]
    h.run("warm-up")
    rates = []

    def step(i):
        if i % SETUP_EVERY == SETUP_EVERY - 1:
            setups.append(h.set_up())
        d, completed = h.run(f"run {i + 1}")
        if completed:
            rates.append(ITERATIONS / d)
        return d

    _repeat(seconds, step)
    samples = {"setup_s": setups, "updates_per_s": rates}
    if not rates:
        return None, samples
    # Other tenants of a shared host switch the machine between speed states
    # within one run. That only adds time, so the fastest call is the
    # steadiest measure of the program's own cost (see README.md).
    return {
        "updates_per_s": (max(rates), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }, samples


def measure_traced(h: Harness, seconds: float):
    tracer = Tracer()
    with tracer.installed():
        h.set_up()
    h.run("warm-up")  # untraced; its metrics.csv is the reference
    durations = {False: [], True: []}

    def one(i, traced):
        with tracer.installed() if traced else contextlib.nullcontext():
            d, completed = h.run(
                f"{'traced' if traced else 'untraced'} run {i + 1}")
        if completed:
            durations[traced].append(d)
        return d

    def step(i):
        # a traced/untraced pair; alternate which side goes first
        return one(i, i % 2 == 1) + one(i, i % 2 == 0)

    _repeat(seconds, step)
    samples = {"untraced_s": durations[False], "traced_s": durations[True]}
    if not (durations[False] and durations[True]):
        return None, samples
    # a count mismatch means the wrappers are wrong: the result is not
    # correct, though no operation failed
    h.problems += pass_count_errors(tracer.spans, h.workload,
                                    len(h.eval_iterations),
                                    h.lib.data.gmm8().label_count,
                                    h.cfg["n_steps"])
    tracer.write_csv(h.work / "spans.csv")
    metrics = layer_metrics(tracer.spans, h.eval_iterations,
                            TEACHER_ITERATIONS)
    metrics["trace.overhead_pct"] = (100.0 * (
        statistics.median(durations[True])
        / statistics.median(durations[False]) - 1.0), "%")
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lib = _import_library()
    except ImportError as err:
        print(f"cannot import dmdlab from {SRC}: {err}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = environment()
    env["matmul128_gflops_before"] = matmul_gflops()
    h = Harness(lib, args.workload, args.seed, work)
    measure = measure_traced if args.trace else measure_untraced
    metrics, samples = measure(h, args.seconds)
    env["matmul128_gflops_after"] = matmul_gflops()
    shutil.rmtree(work / "run", ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env, "samples": samples,
              "problems": h.problems}
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    for problem in h.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(record))
    if metrics is None:
        print("every run aborted", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not h.problems,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
