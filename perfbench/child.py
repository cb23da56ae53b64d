"""One measured pass of a workload, run in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --config INDEX [--trace SPANS.jsonl]
    python3 perfbench/child.py --setup-only

The child imports ``singbern.cli`` from the checkout's ``src/`` and notes
the monotonic clock (the parent subtracts its spawn time to get the set-up
time).  It then calls ``singbern.cli.main(argv)`` for each command of the
configuration, one after the other, with stdout and stderr captured,
checks every output against its reference and prints one JSON line.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import singbern.cli  # noqa: E402  (set-up ends here)

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, compare, extract, ref_path  # noqa: E402


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(workload: str, config: int, spans_path: str | None) -> dict:
    cfg = WORKLOADS[workload].configs[config]
    with open(ref_path(workload, cfg.name), encoding="utf-8") as fh:
        refs = json.load(fh)["commands"]
    tracer = Tracer().install() if spans_path else None
    outputs = []
    cpu0 = _cpu()
    t0 = time.perf_counter()
    for i, argv in enumerate(cfg.commands):
        if tracer:
            tracer.command = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = singbern.cli.main(list(argv))
            except Exception:  # a raising command is a failed command
                code = "raised"
                traceback.print_exc(file=err)
        outputs.append((argv, code, out.getvalue(), err.getvalue()))
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer:
        bytes_out = sum(len(o[2].encode()) for o in outputs)
        layers = layer_metrics(tracer.spans, tracer.wrapped, bytes_out)
        tracer.dump(spans_path)

    errors = []
    for (argv, code, stdout, stderr), ref in zip(outputs, refs):
        got = None
        if code == ref["exit"]:
            try:
                got = extract(argv, stdout)
            except (ValueError, KeyError) as exc:
                errors.append(f"{' '.join(argv)}: unreadable output: {exc}")
                continue
        bad = compare(ref, code, got)
        if bad:
            tail = stderr.strip().splitlines()[-1:] if stderr.strip() else []
            errors.append(f"{' '.join(argv)}: {'; '.join(bad[:3])}"
                          + (f" ({len(bad)} mismatches)" if len(bad) > 3 else "")
                          + (f" [stderr: {tail[0]}]" if tail else ""))
    if len(refs) != len(outputs):
        errors.append(f"{len(refs)} references for {len(outputs)} commands")
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_mb,
            "attempted": len(outputs), "failed": len(errors), "errors": errors,
            "layers": layers}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--config", type=int)
    ap.add_argument("--trace", help="write spans here and report per-layer metrics")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    loaded = os.path.dirname(os.path.abspath(singbern.cli.__file__))
    if loaded != os.path.join(SRC, "singbern"):
        print(f"singbern was imported from {loaded}, not from {SRC}", file=sys.stderr)
        return 2
    report = {"ready": READY}
    if not args.setup_only:
        report.update(run_pass(args.workload, args.config, args.trace))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
