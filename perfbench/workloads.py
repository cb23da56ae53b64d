"""Workload definitions and the output check.

Each workload is a fixed list of CLI commands per input configuration.
The seed picks the configuration (``seed % len(configs)``); every
configuration has a reference file under ``refs/`` that records, per
command, the expected exit code, the ``passed`` verdicts and the key
numbers.  The references were taken from the unmodified program with
``python3 perfbench/make_refs.py``.

Only fields that exist in a reference are compared, so fields a later
schema adds are ignored; ``timestamp`` and ``schema_version`` are never
compared.  A number matches when

    |out - ref| <= max(RTOL * max(|ref|, S), ATOL)

where S is the largest magnitude of the same field in the same command's
reference.  Numbers far below their field's scale are thereby compared at
that scale, and anything under ATOL counts as rounding noise (the corpus
functions are O(1) on [0, 1]).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
REFS = Path(__file__).resolve().parent / "refs"

@dataclass(frozen=True)
class Config:
    name: str
    commands: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sweep_default",
            "the rate pipeline on the default sweep; dense collocation matrices are reused "
            "through the cache (7 builds for 28 requests)",
            (Config("alpha0.5", (("sweep", "--functions", "all"),)),
             Config("alpha1", (("sweep", "--functions", "all", "--alpha", "1"),))),
        ),
        Workload(
            "eval_large_n",
            "one operator apply at n = 16384 with no reuse; the dense basis block sets time "
            "and memory, the cache is bypassed",
            (Config("xi0.5", (("eval", "--f", "abs_beta_1.0", "--xi", "0.5", "--alpha", "1",
                               "--n", "16384"),)),
             Config("xi0.37", (("eval", "--f", "abs_beta_1.0", "--xi", "0.37", "--alpha", "1",
                                "--n", "16384"),))),
        ),
    )
}


def ref_path(workload: str, config: str) -> Path:
    return REFS / f"{workload}.{config}.json"


# --- extraction ----------------------------------------------------------

def _walk(node, path, keys, found):
    """Collect (path, value) for every dict entry whose key is in ``keys``."""
    if isinstance(node, dict):
        for k, v in node.items():
            sub = f"{path}.{k}" if path else k
            if k in keys:
                found.setdefault(k, {})[sub] = v
            else:
                _walk(v, sub, keys, found)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _walk(v, f"{path}[{i}]", keys, found)
    return found


def extract(argv, stdout: str) -> dict:
    """Verdicts and key numbers of one command's output."""
    cmd = argv[0]
    if cmd == "eval":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        numbers = {c: [float(r[c]) for r in rows] for c in ("bbar", "weighted_error")}
        return {"verdicts": {}, "numbers": numbers}
    doc = json.loads(stdout)
    keys = {"sweep": ("fitted_alpha0", "consistency_delta")}[cmd]
    found = _walk(doc, "", set(keys) | {"passed"}, {})
    verdicts = found.pop("passed", {})
    return {"verdicts": verdicts, "numbers": {k: found.get(k, {}) for k in keys}}


# --- comparison ----------------------------------------------------------

def _close(out, ref, scale) -> bool:
    if ref is None or out is None:
        return out is ref
    if not (math.isfinite(ref) and math.isfinite(out)):
        return out == ref or (math.isnan(out) and math.isnan(ref))
    return abs(out - ref) <= max(RTOL * max(abs(ref), scale), ATOL)


def compare(ref: dict, exit_code, got: dict | None) -> list:
    """Mismatches between one command's reference and its result."""
    if exit_code != ref["exit"]:
        return [f"exit {exit_code}, expected {ref['exit']}"]
    if got is None:
        return ["output could not be parsed"]
    bad = [f"verdict {k}: {got['verdicts'].get(k)!r}, expected {v!r}"
           for k, v in ref["verdicts"].items() if got["verdicts"].get(k) != v]
    for field, want in ref["numbers"].items():
        have = got["numbers"].get(field)
        if have is None:
            bad.append(f"{field}: missing")
            continue
        if isinstance(want, list):
            if len(have) != len(want):
                bad.append(f"{field}: {len(have)} values, expected {len(want)}")
                continue
            pairs = [(str(i), h, r) for i, (h, r) in enumerate(zip(have, want))]
            values = want
        else:
            pairs = [(k, have.get(k, "missing"), r) for k, r in want.items()]
            values = list(want.values())
        scale = max((abs(v) for v in values if v is not None and math.isfinite(v)), default=0.0)
        for key, h, r in pairs:
            if h == "missing" or not _close(h, r, scale):
                bad.append(f"{field}[{key}]: {h!r}, expected {r!r}")
    return bad
