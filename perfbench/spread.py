"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--runs 10] [--seconds S] [--baseline] [WORKLOAD ...]

Runs ``run.py`` once per seed (1..runs) for each workload and prints, per
end-to-end metric, the median and the quartile spread (Q3 - Q1 of the
runs, as ``statistics.quantiles(values, n=4)`` gives them, over the
median) next to a third of the metric's bound in BENCHMARK.json.  With
``--baseline`` the medians, the spreads, one traced run per workload and
the environment record are written to perfbench/baseline.json.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2][len("env "):])
    return json.loads(lines[-1]), env


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in SPEC["workloads"]]
    baseline = {"run_seconds": args.seconds, "runs": args.runs, "workloads": {}}
    steady = True
    for name in names:
        values = {m["name"]: [] for m in SPEC["end_to_end"]}
        for seed in range(1, args.runs + 1):
            result, env = _run(name, seed, args.seconds, 0)
            if not result["correct"]:
                steady = False
                print(f"{name} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.4f}" for k, v in values.items()), flush=True)
        summary = {}
        for m in SPEC["end_to_end"]:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            ok = spread < m["bound"] / 3 or m["name"] == "setup_s"
            steady &= ok
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                  "values": vals}
            print(f"  {name} {m['name']}: median {med:.5g} {m['unit']}, spread {spread:.4f} "
                  f"(bound/3 {m['bound'] / 3:.4f}){'' if ok else '  TOO WIDE'}", flush=True)
        baseline["workloads"][name] = {"end_to_end": summary}
        if args.baseline:
            traced, env = _run(name, 1, args.seconds, 1)
            baseline["workloads"][name]["per_layer_seed1"] = {
                k: v["value"] for k, v in traced["metrics"].items()}
            baseline["env"] = {k: v for k, v in env.items() if k not in ("seed", "configs")}
    if args.baseline:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
