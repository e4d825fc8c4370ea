"""Benchmark of the holant workbench: four checker workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each pass of a workload runs in a fresh interpreter (worker.py), one at a
time, single-threaded, importing holant from ./src.  A run makes as
many passes as fill --seconds at the workload's nominal pace, at least
one per trace mode.  With --trace 0 the last stdout line carries
the end-to-end metrics; with --trace 1 untraced and traced passes
alternate, and it carries the per-layer metrics.  A record of every
run, with the environment, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("closed-invariance", "counterexample-spans", "simsim-recovery", "hom-census")
SETUP_SAMPLES = 6
IMPORTTIME_SAMPLES = 3
RUN_LIMIT_S = 170.0
# The reference kernel's time (see reference_s) on the VM the benchmark
# was defined on, in a quiet spell.  The end-to-end timings of a run are
# scaled by this over the time the run measured, so they read as seconds
# on a host running at that speed.
REFERENCE_S = 0.03
# Seconds one untraced pass of each workload took, worker start to exit,
# on that VM in a quiet spell.  A run makes as many passes as fill
# --seconds at this pace, so the number of passes, and with it the
# minima over passes, does not change with the host's speed.
PASS_S = {
    "closed-invariance": 8.0,
    "counterexample-spans": 19.0,
    "simsim-recovery": 13.0,
    "hom-census": 6.5,
}

# numpy's OpenBLAS otherwise starts a thread per core
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before {args}")
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args} did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def measure_setup(samples: int, deadline: float) -> list[float]:
    """Cold `import holant`, each in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import holant; print(time.perf_counter() - t)"
    return [float(run_child(["-c", code], deadline).stdout) for _ in range(samples)]


def scipy_import_s(stderr: str) -> float:
    """Time spent importing scipy, from `-X importtime` output.

    Sums the cumulative time of each outermost scipy entry, so modules
    outside scipy that scipy pulls in count too: a lazy scipy import
    would save all of it.
    """
    entries = []
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1])))
    total_us = 0
    stack: list[tuple[int, bool]] = []  # (indent, inside scipy) of the open ancestors
    for indent, module, cumulative_us in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= indent:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = module == "scipy" or module.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative_us
        stack.append((indent, inside or is_scipy))
    return total_us / 1e6


def measure_scipy_import(deadline: float) -> list[float]:
    return [
        scipy_import_s(run_child(["-X", "importtime", "-c", "import holant"], deadline).stderr)
        for _ in range(IMPORTTIME_SAMPLES)
    ]


def pass_count(workload: str, seconds: int, modes: tuple) -> int:
    """Passes that fill `seconds` at the workload's nominal pace, at least one per mode."""
    return max(len(modes), round(seconds / PASS_S[workload]))


def run_passes(workload, seed, modes, count, deadline, tag) -> list[tuple[bool, dict]]:
    """`count` fresh-interpreter passes, cycling through the trace modes, as (traced, result).

    Alternating traced and untraced passes keeps a drift in the host's
    speed out of the tracing overhead.
    """
    passes = []
    for i in range(count):
        trace = modes[i % len(modes)]
        spans_path = os.path.join(OUT, f"{tag}-pass{i}-spans.jsonl") if trace else "-"
        t0 = time.monotonic()
        proc = run_child(
            [os.path.join(HERE, "worker.py"), workload, str(seed), "1" if trace else "0", spans_path],
            deadline,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        result["pass_s"] = time.monotonic() - t0
        passes.append((trace, result))
        sys.stderr.write(proc.stderr)
    return passes


def tail(times: list[float]) -> tuple[float, float]:
    """Time at the highest percentile with at least ten queries beyond it, and that percentile."""
    ordered = sorted(times)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def fastest_samples(passes: list[dict], key: str = "query_s") -> list[float]:
    """Each query's (or reference sample's) shortest time over passes.

    Every pass runs the same queries in the same order.
    """
    return [min(times) for times in zip(*(p[key] for p in passes))]


def reference_s(passes: list[dict]) -> float:
    """The reference kernel's time, measured as `wall_s` is.

    Every pass samples the kernel at the same points; this is the mean
    over points of each point's fastest sample over passes.
    """
    return statistics.fmean(fastest_samples(passes, "reference_s"))


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    """The end-to-end metrics of a run.

    A shared host has slow spells, seconds to many minutes long, that
    only ever add time.  Spells of seconds are taken out by building the
    timings from each query's fastest time over passes: `wall_s` is their
    sum, the wall time of a pass in which every query ran at its fastest,
    and the query percentiles are taken over them.  Longer spells slow a
    whole run, and are taken out by scaling every timing, `setup_s` (the
    median of its samples) too, by REFERENCE_S over the reference time
    the run measured.
    """
    scale = REFERENCE_S / reference_s(passes)
    fastest = fastest_samples(passes)
    return {
        "setup_s": statistics.median(setup) * scale,
        "wall_s": sum(fastest) * scale,
        "query_p50_s": statistics.median(fastest) * scale,
        "query_tail_s": tail(fastest)[0] * scale,
        "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in passes) / 1024,
    }


def per_layer(untraced, traced, scipy_s) -> tuple[dict, list[str]]:
    """Median over traced passes of each layer metric, and the metrics whose boundary went missing."""
    missing = sorted({name for p in traced for name in p["missing"]})
    names = [name for name in traced[0]["layers"] if name not in missing and name != "layer_self_s"]
    metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    metrics["setup.scipy_import_s"] = statistics.median(scipy_s)
    metrics["host.reference_s"] = reference_s(untraced + traced)
    metrics["trace.overhead_frac"] = (
        sum(fastest_samples(traced)) / sum(fastest_samples(untraced)) - 1
    )
    metrics["trace.coverage_frac"] = statistics.median(
        p["layers"]["layer_self_s"] / p["wall_s"] for p in traced
    )
    return metrics, missing


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "git_commit": commit,
        "seed": seed,
        "pinned": PINNED,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = environment(seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    os.makedirs(OUT, exist_ok=True)
    if not trace:
        measure_setup(1, deadline)  # warm-up: compiles bytecode
        setup = measure_setup(SETUP_SAMPLES // 2, deadline)
    modes = (False, True) if trace else (False,)
    passes = run_passes(workload, seed, modes, pass_count(workload, seconds, modes), deadline, tag)
    untraced = [p for traced, p in passes if not traced]
    traced = [p for traced, p in passes if traced]
    passes = untraced + traced
    if trace:
        metrics, missing = per_layer(untraced, traced, measure_scipy_import(deadline))
    else:
        # half the samples after the passes, so one slow spell of the host sways fewer
        setup += measure_setup(SETUP_SAMPLES - len(setup), deadline)
        metrics, missing = end_to_end(untraced, setup), []
    failures = [f for p in passes for f in p["failures"]]
    result = {
        "workload": workload,
        "environment": dict(env, **passes[0]["versions"]),
        "metrics": metrics,
        "missing": missing,
        "query_tail": {
            "percentile": tail(untraced[0]["query_s"])[1], "queries": len(untraced[0]["query_s"]),
        },
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "unexplained_failures": [f for f in failures if f["known_defect"] is None],
        "failures": failures,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "reference_s": reference_s(passes),
        "reference_samples_s": [p["reference_s"] for p in passes],
        "pass_s": [p["pass_s"] for p in passes],
        "wall_s": [p["wall_s"] for p in passes],
        "query_s": [p["query_s"] for p in passes],
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as out:
        json.dump(result, out, indent=1)
    return result


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json at the root of the checkout lists it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def describe(result: dict, units: dict[str, str]) -> str:
    lines = [f"{result['workload']}: {result['passes']} untraced, "
             f"{result['traced_passes']} traced passes"]
    for name, value in result["metrics"].items():
        line = f"  {name:32s} {value:12.6g} {units[name]}"
        if name == "query_tail_s":
            line += " (p{percentile:.4g} of {queries} queries per pass)".format(**result["query_tail"])
        lines.append(line)
    for name in result["missing"]:
        lines.append(f"  {name:32s} missing: boundary never entered")
    lines.append(f"  {'failed_frac':32s} {result['failed'] / result['attempted']:12.6g} "
                 f"({result['failed']} of {result['attempted']} queries)")
    for failure in result["unexplained_failures"][:5]:
        lines.append(f"  FAILED query {failure['index']} {failure['kind']}: {failure['reason']}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "holant", "__init__.py")):
        print(f"no holant sources under {ROOT}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    units = metric_units()
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in chosen]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(describe(result, units))
    prefix = len(results) > 1
    line = {
        "correct": not any(r["unexplained_failures"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": units[name]}
            for r in results for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
