"""pointmixer benchmark: one train or eval workload, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``. One
process, one caller, float64, ``default_levels()``, k = 16, one BLAS thread.

A run sets up its seeded inputs several times (``setup_s`` is the median),
then runs the correctness gate: a shorter round on the gate seed, checked
against ``reference.json``. The gate also warms the process up. The timed phase then
repeats rounds on the seeded inputs until about ``--seconds`` have passed;
every round must reproduce the first one's outputs.

With ``--trace 0`` the last line holds the end-to-end metrics. With
``--trace 1`` the run measures the untraced rounds, then installs the tracer
from ``tracer.py`` and repeats one set-up and the same number of rounds;
the last line holds the per-layer metrics of one set-up plus one round, and
the spans go to ``perfbench/results/``. A failed check prints the reason on
stderr and makes the exit code 1.
"""

from __future__ import annotations

import os

# One BLAS thread: on a shared 2-CPU machine a second thread made no run
# faster and only added noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isfile(os.path.join(SRC, "pointmixer", "__init__.py")):
    sys.exit(f"no pointmixer sources under {SRC}")
sys.path.insert(1, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from pointmixer import net  # noqa: E402

# set-up repeats until both limits are reached; setup_s is their median
SETUP_MIN_REPEATS = 5
SETUP_SECONDS = 1.0
RESULTS = os.path.join(HERE, "results")


def blas_threads():
    """Threads the bundled OpenBLAS reports, or None when it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def timed_rounds(wl, prep, seconds: float, min_rounds: int, max_rounds: int | None = None,
                 phase=None) -> list:
    """Rounds until about ``seconds`` of round time have passed: stop when
    another half round would overshoot, but run at least ``min_rounds``."""
    rounds = []
    elapsed = 0.0
    while True:
        wl.reset(prep)
        if phase is None:
            r = wl.run_round(prep)
        else:
            with phase("round"):
                r = wl.run_round(prep)
        rounds.append(r)
        elapsed += r.wall_s
        if max_rounds is not None and len(rounds) >= max_rounds:
            return rounds
        if len(rounds) >= min_rounds and elapsed + r.wall_s / 2 >= seconds:
            return rounds


def check_rounds(rounds, label: str) -> list[str]:
    """Every round of one input must reproduce the first round's outputs."""
    problems = [f"{label}: {e}" for r in rounds for e in r.errors]
    for i, r in enumerate(rounds[1:], 1):
        problems += [f"{label} round {i} vs round 0: {m}"
                     for m in workloads.compare(r.outputs, rounds[0].outputs)]
    return problems


def stored_reference(name: str) -> list:
    with open(os.path.join(HERE, "reference.json"), encoding="ascii") as fh:
        return json.load(fh)["outputs"][name]


def gate_round(wl, workdir: str):
    """One round of the workload's gate instance on the gate seed."""
    wl = wl.gate_instance()
    prep = wl.setup(workloads.GATE_SEED, workdir)
    wl.reset(prep)
    return wl.run_round(prep)


def gate(wl, workdir: str, reference=None) -> list[str]:
    """The gate round compared with the stored outputs."""
    if reference is None:
        reference = stored_reference(wl.name)
    r = gate_round(wl, workdir)
    return [f"gate: {e}" for e in r.errors] + [
        f"gate: {m}" for m in workloads.compare(r.outputs, reference)
    ]


def summary(rounds) -> dict:
    clouds = sum(r.clouds for r in rounds)
    lat_ms = sorted(1e3 * v for r in rounds for v in r.latencies_s)
    out = {
        "clouds_per_s": clouds / sum(r.wall_s for r in rounds),
        "cloud_ms_p50": statistics.median(lat_ms) if lat_ms else float("nan"),
        "latency_samples": len(lat_ms),
    }
    # the highest percentile with at least ten samples beyond it
    if len(lat_ms) >= 100:
        out["cloud_ms_p90"] = statistics.quantiles(lat_ms, n=10)[-1]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args)
    print(json.dumps({"env": env}))
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        if args.trace:
            result, problems, extra = traced_run(wl, args, workdir)
        else:
            result, problems, extra = untraced_run(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in {**result["metrics"], **extra}.items():
        print(f"{name} = {value!r} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result["correct"] = not problems and result["failed"] == 0
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def untraced_run(wl, args, workdir):
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_SECONDS:
        t0 = time.perf_counter()
        prep = wl.setup(args.seed, workdir)
        setups.append(time.perf_counter() - t0)
    problems = gate(wl, workdir)
    rounds = timed_rounds(wl, prep, args.seconds, wl.min_rounds)
    problems += check_rounds(rounds, "timed")
    s = summary(rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "clouds_per_s": (s["clouds_per_s"], "1/s"),
        "cloud_ms_p50": (s["cloud_ms_p50"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"latency_samples": (s["latency_samples"], "count"),
             "round_s": ([round(r.wall_s, 4) for r in rounds], "s")}
    if "cloud_ms_p90" in s:
        extra["cloud_ms_p90"] = (s["cloud_ms_p90"], "ms")
    result = {
        "correct": False,
        "attempted": sum(r.clouds for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    return result, problems, extra


def traced_run(wl, args, workdir):
    import tracer

    prep = wl.setup(args.seed, workdir)
    problems = gate(wl, workdir)
    plain = timed_rounds(wl, prep, args.seconds, max(2, wl.min_rounds))
    problems += check_rounds(plain, "untraced")
    del prep
    t = tracer.Tracer()
    t.install()
    try:
        with t.phase("setup"):
            prep = wl.setup(args.seed, workdir)
        traced = timed_rounds(wl, prep, 0.0, len(plain), len(plain), phase=t.phase)
    finally:
        t.uninstall()
    problems += check_rounds(plain[:1] + traced, "traced")
    metrics, trace_problems = t.report(net.param_count(prep.network))
    problems += trace_problems
    metrics["trace.untraced_clouds_per_s"] = (summary(plain)["clouds_per_s"], "1/s")
    metrics["trace.traced_clouds_per_s"] = (summary(traced)["clouds_per_s"], "1/s")
    spans_path = os.path.join(RESULTS, f"trace-{wl.name}-seed{args.seed}.json")
    t.write(spans_path)
    extra = {"spans": (len(t.spans), f"in {os.path.relpath(spans_path)}")}
    if t.missing:
        extra["untraced_functions"] = (len(t.missing), ",".join(t.missing))
    result = {
        "correct": False,
        "attempted": sum(r.clouds for r in plain + traced),
        "failed": sum(r.failed for r in plain + traced),
        "metrics": metrics,
    }
    return result, problems, extra


if __name__ == "__main__":
    sys.exit(main())
