"""Outside-in span tracer for the singbern modules.

The tracer wraps every plain function a module exports (its ``__all__``,
or its public names when it has none) and records one span per call:
id, parent id, qualified name, start and end.  Wrapping works by object
identity: every module attribute, and every value of a module-level dict,
that *is* an exported function is replaced by its wrapper, so bindings
made with ``from .basis import basis_matrix`` are traced too.  Nothing in
the program is edited.

Spans stay in memory until ``Tracer.dump`` writes them as JSON lines.
``layer_metrics`` turns one traced pass into the per-layer metrics.  A
function that no longer exists is skipped when wrapping, and its
function-level metrics come out as ``None``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types

PACKAGE = "singbern"
MODULES = ("basis", "bridge", "weight", "operators", "moduli", "experiments",
           "reporting", "cli")
CHECKERS = ("check_direct", "check_inverse", "run_function_sweep")
# Functions whose return value is a block of basis weights: its size is the
# number of entries computed.
_BASIS_BLOCKS = ("basis.basis_matrix", "basis.basis_row", "basis.basis_eval")
_MIB = float(1 << 20)


def exported_functions(module) -> dict:
    """Plain functions a module exports, by name."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


def _hs_length(fn):
    """Counter hook for ladder_band_sups: number of ladder steps (len(hs))."""
    sig = inspect.signature(fn)

    def steps(args, kwargs, result):
        return len(sig.bind(*args, **kwargs).arguments["hs"])

    return steps


def _block_size(args, kwargs, result):
    size = getattr(result, "size", 1)
    return int(size), getattr(result, "nbytes", 8) / _MIB


class Tracer:
    """Records spans for every exported function of the singbern modules."""

    def __init__(self):
        self.spans = []          # [id, parent, name, start, end, extra, command]
        self._stack = []
        self.wrapped = {}        # "module.func" -> original function
        self._patched = []       # (module, container, key, original) to undo
        self.command = 0         # request id: index of the CLI command being run

    def _wrap(self, qual, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else -1, qual, clock(), 0.0, None,
                    self.command]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                try:
                    span[5] = hook(args, kwargs, result)
                except (KeyError, TypeError, ValueError):
                    span[5] = None
            return result

        return traced

    def install(self):
        """Wrap every exported function of every module, by identity."""
        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        mods.append(importlib.import_module(PACKAGE))
        by_id = {}
        for mod in mods[:-1]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in exported_functions(mod).items():
                qual = f"{short}.{name}"
                hook = None
                if qual in _BASIS_BLOCKS:
                    hook = _block_size
                elif qual == "moduli.ladder_band_sups":
                    hook = _hs_length(fn)
                self.wrapped[qual] = fn
                by_id[id(fn)] = self._wrap(qual, fn, hook)
        for mod in mods:
            for container in [vars(mod)] + [v for v in vars(mod).values()
                                            if isinstance(v, dict) and v is not vars(mod)]:
                for key, val in list(container.items()):
                    wrapper = by_id.get(id(val))
                    if wrapper is not None:
                        if container is vars(mod):
                            setattr(mod, key, wrapper)
                        else:
                            container[key] = wrapper
                        self._patched.append((mod, container, key, val))
        return self

    def uninstall(self):
        for mod, container, key, val in reversed(self._patched):
            if container is vars(mod):
                setattr(mod, key, val)
            else:
                container[key] = val
        self._patched.clear()

    def dump(self, path):
        """Write the spans as JSON lines, one object per span."""
        keys = ("id", "parent", "name", "start", "end", "extra", "command")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    children = {}
    for s in spans:
        if s[1] >= 0:
            children.setdefault(s[1], []).append((s[3], s[4]))
    out = []
    for s in spans:
        covered, reach = 0.0, s[3]
        for start, end in sorted(children.get(s[0], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(s[4] - s[3] - covered)
    return out


def layer_metrics(spans, wrapped, bytes_out: int) -> dict:
    """Per-layer metrics of one traced pass.

    ``wrapped`` names the functions that were found and wrapped; a metric
    of a function that is not among them is ``None``.
    """
    selfs = self_times(spans)
    module_self = {m: 0.0 for m in MODULES}
    fn_self, fn_total, fn_calls = {}, {}, {}
    for s, st in zip(spans, selfs):
        name = s[2]
        module_self[name.split(".", 1)[0]] += st
        fn_self[name] = fn_self.get(name, 0.0) + st
        fn_total[name] = fn_total.get(name, 0.0) + (s[4] - s[3])
        fn_calls[name] = fn_calls.get(name, 0) + 1

    def fn_metric(table, name, empty):
        if name not in wrapped:
            return None
        return table.get(name, empty)

    entries, max_block = 0, 0.0
    for s in spans:
        if s[2] in _BASIS_BLOCKS and s[5] is not None:
            entries += s[5][0]
            if s[2] == "basis.basis_matrix":
                max_block = max(max_block, s[5][1])
    steps = None
    if "moduli.ladder_band_sups" in wrapped:
        counted = [s[5] for s in spans if s[2] == "moduli.ladder_band_sups"]
        steps = None if None in counted else sum(counted)
    hit_ratio = None
    if "operators.collocation_matrix" in wrapped and "basis.basis_matrix" in wrapped:
        builds = {s[1] for s in spans if s[2] == "basis.basis_matrix"}
        calls = [s[0] for s in spans if s[2] == "operators.collocation_matrix"]
        hits = sum(1 for sid in calls if sid not in builds)
        # base: collocation_matrix calls; 0.0 when there were none
        hit_ratio = hits / len(calls) if calls else 0.0

    m = {f"{mod}.self_s": module_self[mod] for mod in MODULES}
    m.update({
        "basis.basis_matrix.self_s": fn_metric(fn_self, "basis.basis_matrix", 0.0),
        "basis.basis_matrix.calls": fn_metric(fn_calls, "basis.basis_matrix", 0),
        "basis.entries": entries,
        "basis.max_block_mb": max_block,
        "basis.ksum.self_s": fn_metric(fn_self, "basis.ksum", 0.0),
        "operators.collocation_matrix.calls": fn_metric(fn_calls, "operators.collocation_matrix", 0),
        "operators.collocation_matrix.hit_ratio": hit_ratio,
        "operators.bernstein_apply.self_s": fn_metric(fn_self, "operators.bernstein_apply", 0.0),
        "operators.build_surrogate.calls": fn_metric(fn_calls, "operators.build_surrogate", 0),
        "moduli.ladder_band_sups.calls": fn_metric(fn_calls, "moduli.ladder_band_sups", 0),
        "moduli.ladder_steps": steps,
        "reporting.bytes_out": bytes_out,
        "trace.spans": len(spans),
    })
    for checker in CHECKERS:
        m[f"experiments.{checker}.total_s"] = fn_metric(fn_total, f"experiments.{checker}", 0.0)
    return m


# Metrics that are exact counts: they must repeat exactly from run to run.
COUNTERS = (
    "basis.basis_matrix.calls", "basis.entries", "basis.max_block_mb",
    "operators.collocation_matrix.calls", "operators.collocation_matrix.hit_ratio",
    "operators.build_surrogate.calls", "moduli.ladder_band_sups.calls",
    "moduli.ladder_steps", "reporting.bytes_out", "trace.spans",
)
