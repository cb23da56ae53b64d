"""singbern benchmark: CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the root of a checkout; no install is needed.  Each pass of a
workload runs in a fresh child interpreter (perfbench/child.py), one child
at a time, that imports ``singbern.cli`` from ``src/`` and calls
``singbern.cli.main(argv)`` for each of the workload's commands in turn
(closed loop, a single client).  The child runs one BLAS/OpenMP thread:
the workloads make no multi-threaded BLAS calls (with two threads their
CPU time still equals their wall time), while an idle OpenBLAS worker
spin-waits at import and, on a two-CPU machine, made set-up time depend
on host load by up to half.  Passes repeat until the next one would end
after ``--seconds``; there is always at least one.

Four children only start and import before the passes and four after
them, so every run has at least nine set-up samples.  The seed picks the
workload's input configuration (``seed % number of configurations``, see
workloads.py).

End-to-end metrics (``--trace 0``):
  wall_s       first main() call to last return of a pass, set-up excluded;
               the mean over the run's passes
  setup_s      interpreter start plus ``import singbern.cli``; the median
               over the run's set-up samples
  peak_rss_mb  peak resident memory of the child (ru_maxrss), MiB; the
               median over the run's passes
wall_s is a mean, not a median, because on a shared host the speed of a
pass drifts with the neighbours' load over tens of seconds: on a 2-vCPU
VM, a series of 175 passes of seven ``modulus`` commands, cut into 40-60 s
runs, gave run means that varied less from run to run than run medians
(quartile spread 0.10 against 0.12-0.13 of the median).  The run length
matters more than the estimator; hence long runs and only two workloads.
The error rate, failed over attempted commands, is the result line's
``failed``/``attempted``.  A command fails if it raises, exits with a code
other than its reference's, or its output does not match the reference.

``--trace 1`` alternates an untraced and a traced pass.  The traced child
wraps the public functions of every singbern module from outside (see
tracer.py) and writes the spans of the run's last traced pass to
perfbench/out/ as JSON lines.  Times are medians over traced passes,
counts come from the first traced pass; process.cpu_s is the untraced
passes' CPU time and trace.overhead_s the traced minus the untraced
median wall time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it starts with
``env`` and records the machine, versions, thread setting and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import CHECKERS, COUNTERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 4  # set-up-only children before the passes, and again after them
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_THREADS = "1"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "basis.self_s": "s", "basis.basis_matrix.self_s": "s",
    "basis.basis_matrix.calls": "count", "basis.entries": "count",
    "basis.max_block_mb": "MiB", "basis.ksum.self_s": "s",
    "operators.self_s": "s", "operators.collocation_matrix.calls": "count",
    "operators.collocation_matrix.hit_ratio": "ratio",
    "operators.bernstein_apply.self_s": "s",
    "operators.build_surrogate.calls": "count",
    "moduli.self_s": "s", "moduli.ladder_band_sups.calls": "count",
    "moduli.ladder_steps": "count",
    "experiments.self_s": "s",
    **{f"experiments.{c}.total_s": "s" for c in CHECKERS},
    "weight.self_s": "s", "bridge.self_s": "s", "reporting.self_s": "s",
    "reporting.bytes_out": "bytes", "cli.self_s": "s",
    "process.cpu_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed command)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: CHILD_THREADS for var in THREAD_VARS})
    return env


def _spawn(args, env) -> tuple[dict, float]:
    """Run one child to completion; return its report and its set-up time."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} did not finish in {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready"] - start


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    return {
        "commit": _git_commit(), "src_sha256": _src_digest(), "nproc": nproc(),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_threads": {var: _child_env()[var] for var in THREAD_VARS}, "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds``; return counts and metrics."""
    wl = WORKLOADS[workload]
    index = seed % len(wl.configs)
    env = _child_env()
    setups = [_spawn(["--setup-only"], env)[1] for _ in range(SETUP_SAMPLES)]
    plain, traced, laps = [], [], []
    if trace:
        OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    while True:
        lap = time.monotonic()
        args = ["--workload", workload, "--config", str(index)]
        report, setup = _spawn(args, env)
        plain.append(report)
        setups.append(setup)
        if trace:
            spans = OUT / f"spans-{workload}-seed{seed}.jsonl"  # the last traced pass
            report, setup = _spawn(args + ["--trace", str(spans)], env)
            traced.append(report)
            setups.append(setup)
        laps.append(time.monotonic() - lap)
        if time.monotonic() - start + statistics.median(laps) > seconds:
            break
    setups += [_spawn(["--setup-only"], env)[1] for _ in range(SETUP_SAMPLES)]
    passes = plain + traced
    result = {
        "config": wl.configs[index].name, "passes": len(plain),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "errors": [e for p in passes for e in p["errors"]],
    }
    if not trace:
        result["metrics"] = {
            "wall_s": statistics.mean(p["wall_s"] for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        return result
    layers = [p["layers"] for p in traced]
    metrics = {}
    for name in PER_LAYER:
        values = [m.get(name) for m in layers]
        if name in COUNTERS:
            if any(v != values[0] for v in values):
                print(f"warning: counter {name} differs between traced passes: {values}",
                      file=sys.stderr)
            metrics[name] = values[0]
        elif name in layers[0]:
            metrics[name] = None if None in values else statistics.median(values)
    metrics["process.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    result["metrics"] = metrics
    return result


def _result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "singbern" / "cli.py").is_file():
        print(f"no singbern source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    env_record = environment(args.seed)
    results = {}
    try:
        for name in names:
            results[name] = r = measure(name, args.seed, args.seconds, bool(args.trace))
            print(f"{name} [{r['config']}, seed {args.seed}]: {r['passes']} passes")
            for metric, value in r["metrics"].items():
                shown = "null" if value is None else f"{value:.6g}"
                print(f"  {metric:42s} {shown:>12s} {units[metric]}")
            print(f"  {'error_rate':42s} {r['failed'] / r['attempted']:>12.6g} "
                  f"failed/attempted ({r['failed']}/{r['attempted']})")
            for err in r["errors"]:
                print(f"{name}: FAILED {err}", file=sys.stderr)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics, shown_units = results[names[0]]["metrics"], units
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
        shown_units = {f"{n}.{k}": units[k] for n in names for k in units}
    print("env " + json.dumps({**env_record, "configs": {n: r["config"] for n, r in results.items()}}))
    print(_result_line(failed == 0, attempted, failed, metrics, shown_units))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
