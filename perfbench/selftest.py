"""Self-test of the benchmark's tracer, counters and output check.

    python3 perfbench/selftest.py

Runs two traced passes each of sweep_default and eval_large_n in fresh
children and requires every exact counter to repeat; also checks the
tracer's self-time arithmetic and identity wrapping, the output check's
tolerance, and that BENCHMARK.json names what run.py reports.  Takes
under a minute.  Exits 0 when every check holds.
"""

import copy
import json
import sys

import run
from tracer import COUNTERS, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, compare, ref_path

FAILURES = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def test_self_times():
    # parent 0..10 with children 1..3 and 5..6; grandchild 1.5..2 inside the first
    spans = [[0, -1, "cli.main", 0.0, 10.0, None, 0],
             [1, 0, "basis.ksum", 1.0, 3.0, None, 0],
             [2, 1, "basis.ksum", 1.5, 2.0, None, 0],
             [3, 0, "moduli.omega2", 5.0, 6.0, None, 0]]
    check(self_times(spans) == [7.0, 1.5, 0.5, 1.0], "self time = duration - child cover")


def test_wrapping():
    sys.path.insert(0, str(run.ROOT / "src"))
    import singbern
    import singbern.basis
    import singbern.cli
    import singbern.operators

    original = singbern.basis.basis_matrix
    tracer = Tracer().install()
    try:
        wrapped = singbern.basis.basis_matrix
        check(wrapped is not original, "exported function is wrapped")
        check(singbern.operators.basis_matrix is wrapped and singbern.basis_matrix is wrapped,
              "from-import bindings are wrapped by identity")
        check(all(fn.__wrapped__ in tracer.wrapped.values()
                  for fn in singbern.cli._COMMANDS.values()),
              "module-level dict values are wrapped")
        singbern.basis.basis_matrix(8, [0.25, 0.5])
        span = tracer.spans[-1]
        check(span[2] == "basis.basis_matrix" and span[5][0] == 18,
              "basis entries counted from the returned block (2 x 9)")
    finally:
        tracer.uninstall()
    check(singbern.operators.basis_matrix is original, "uninstall restores the originals")
    names = set(tracer.wrapped) - {"operators.collocation_matrix"}
    m = layer_metrics(tracer.spans, names, 0)
    check(m["operators.collocation_matrix.calls"] is None
          and m["operators.collocation_matrix.hit_ratio"] is None,
          "metrics of a function that no longer exists are null")


def test_compare():
    ref = json.loads(ref_path("sweep_default", "alpha0.5").read_text())["commands"][0]
    got = {"verdicts": dict(ref["verdicts"]), "numbers": copy.deepcopy(ref["numbers"])}
    got["numbers"]["new_field"] = {"x": 1.0}
    check(compare(ref, ref["exit"], got) == [], "reference matches itself; new fields ignored")
    check(compare(ref, 3, got) != [], "wrong exit code fails")
    key = "results[1].direct.fitted_alpha0"
    got["numbers"]["fitted_alpha0"][key] *= 1 + 1e-11
    check(compare(ref, ref["exit"], got) == [], "rounding-level change passes")
    got["numbers"]["fitted_alpha0"][key] *= 1 + 1e-6
    check(compare(ref, ref["exit"], got) != [], "change above tolerance fails")
    del got["numbers"]["consistency_delta"]
    check(any("missing" in b for b in compare(ref, ref["exit"], got)), "missing field fails")


def test_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "end-to-end metrics and units")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "per-layer metrics and units")


def test_counters_repeat():
    env = run._child_env()
    run.OUT.mkdir(exist_ok=True)
    expect = {"sweep_default": {"basis.basis_matrix.calls": 7,
                                "operators.collocation_matrix.calls": 28},
              "eval_large_n": {"basis.basis_matrix.calls": 1,
                               "operators.collocation_matrix.calls": 1}}
    for workload, known in expect.items():
        layers = []
        for i in range(2):
            spans = run.OUT / f"selftest-{workload}-{i}.jsonl"
            report, _ = run._spawn(["--workload", workload, "--config", "0",
                                    "--trace", str(spans)], env)
            check(report["failed"] == 0, f"{workload}: outputs match the references")
            layers.append(report["layers"])
        diff = [c for c in COUNTERS if layers[0][c] != layers[1][c]]
        check(not diff, f"{workload}: counters repeat exactly across two traced runs {diff}")
        check(all(layers[0][k] == v for k, v in known.items()),
              f"{workload}: known counts {known}")


def main() -> int:
    test_self_times()
    test_wrapping()
    test_compare()
    test_benchmark_json()
    test_counters_repeat()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
