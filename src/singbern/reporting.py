"""Deterministic CSV/JSON emission for experiment reports.

All floating-point output is printed with 17 significant digits so that
values round-trip exactly; CSV always uses '.' as the decimal mark and
',' as the field separator regardless of locale.
"""

from __future__ import annotations

import math
from typing import IO, Iterable, Mapping, Sequence

SCHEMA_VERSION = 1


def format_float(v: float) -> str:
    return format(float(v), ".17g")


def format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def json_dumps(obj) -> str:
    """JSON text, indented by 2, with deterministic key order and 17-digit floats."""

    def emit(o, depth):
        pad = "  " * depth
        pad_in = "  " * (depth + 1)
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int,)):
            return str(o)
        if isinstance(o, float):
            if not math.isfinite(o):
                return "null"
            return format_float(o)
        if isinstance(o, str):
            return '"' + o.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'
        if isinstance(o, Mapping):
            if not o:
                return "{}"
            items = (
                f'{pad_in}"{k}": {emit(o[k], depth + 1)}' for k in sorted(map(str, o.keys()))
            )
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(o, (list, tuple)):
            if not len(o):
                return "[]"
            items = (f"{pad_in}{emit(x, depth + 1)}" for x in o)
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return emit(obj, 0) + "\n"


def write_csv(stream: IO[str], header: Sequence[str], rows: Iterable[Mapping]) -> None:
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(format_cell(row.get(col)) for col in header) + "\n")


def table_header(rows: Sequence[Mapping], lead: Sequence[str]) -> list:
    """Deterministic column order: the lead columns, then the sorted rest."""
    seen = set(lead)
    rest = sorted({k for row in rows for k in row.keys()} - seen)
    return list(lead) + rest


SCHEMAS = {
    "schema_version": SCHEMA_VERSION,
    "eval": {
        "format": "csv or json",
        "csv_columns": ["x", "f", "bbar", "weighted_error"],
        "notes": "weighted_error = weight(x) * |f(x) - operator(x)|; the weighted "
                 "product is 0 by convention at the singular point",
    },
    "modulus": {
        "csv_columns": ["t", "omega2", "omega2_mainpart"],
        "notes": "both moduli use a shared geometric step ladder below t",
    },
    "check": {
        "csv_columns": ["check", "function", "row_kind", "..."],
        "row_kinds": ["data", "summary"],
        "json": {
            "reports": "one per checker and function: the shared keys, the keys of its "
                       "kind (rate: direct, inverse; bounded: the rest), and any of the "
                       "checker's own",
            "shared": ["name", "header", "params", "rows", "passed", "trivial", "notes"],
            "bounded": ["slope", "residual", "spread"],
            "rate": ["pairs", "slope", "residual", "fitted_alpha0", "target", "tolerance",
                     "beyond_saturation"],
        },
    },
    "sweep": {
        "json": "{schema_version, timestamp, config, results: [{function, direct, "
                "inverse, consistency_delta, passed}], passed}",
        "determinism": "byte-identical across runs except the timestamp field",
    },
    "floats": "printed with 17 significant digits (round-trip safe)",
}
