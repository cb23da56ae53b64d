"""Command-line front end: pointwise tables, moduli, checkers, and sweeps.

Exit codes: 0 success, 1 check failure, 2 configuration error, 3 domain
or node-validity error.  Option precedence: command-line flags override
the config file, which overrides built-in defaults.  The config file is
plain KEY=VALUE text (keys match long option names, '#' starts a comment).
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .bridge import compute_nodes
from .experiments import (
    DEFAULT_N_VALUES,
    DEFAULT_T_VALUES,
    DEFAULT_WEIGHT,
    check_direct,
    check_inverse,
    check_lemma1,
    check_lemma2,
    check_lemma4,
    check_lemma5,
    check_lemma6,
    check_lemma7,
    check_theorem1,
    check_theorem2,
    run_function_sweep,
    w2_members,
)
from .moduli import ladder_moduli
from .operators import bbar_apply
from .reporting import SCHEMAS, json_dumps, table_header, write_csv
from .weight import (
    EvaluationError,
    GridSpec,
    SingularWeight,
    corpus,
    corpus_member,
    grid_points,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3

CHECK_NAMES = (
    "lemma1", "lemma2", "lemma4", "lemma5", "lemma6", "lemma7",
    "theorem1", "theorem2", "direct", "inverse",
)

_CONFIG_KEYS = {
    "xi": float, "alpha": float, "lambda": float, "n": int,
    "grid-count": int, "grid-placement": str, "exclusion-radius": float,
    "format": str, "f": str, "functions": str, "which": str, "branch": str,
    "n-values": str, "t-values": str, "h-steps": int, "beta": float,
    "gamma": float, "u": float, "v": float, "out": str,
}


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    cfg = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config {path}:{lineno}: expected KEY=VALUE, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower().replace("_", "-")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config {path}:{lineno}: unknown key {key!r}")
        try:
            cfg[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"config {path}:{lineno}: bad value for {key}: {value!r}") from exc
    return cfg


class Options:
    """Flag > config-file > default resolution."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.cfg = _load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default=None):
        flag = self.args.get(key.replace("-", "_"))
        if flag is not None:
            return flag
        if key in self.cfg:
            return self.cfg[key]
        return default


def _parse_values(text, cast, field):
    if isinstance(text, (list, tuple)):
        return tuple(cast(v) for v in text)
    try:
        return tuple(cast(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"invalid {field}: {text!r}") from exc


def _weight(opt: Options) -> SingularWeight:
    xi = opt.get("xi", DEFAULT_WEIGHT.xi)
    alpha = opt.get("alpha", DEFAULT_WEIGHT.alpha)
    try:
        return SingularWeight(xi=float(xi), alpha=float(alpha))
    except ValueError as exc:
        raise ConfigError(f"invalid weight parameters (--xi/--alpha): {exc}") from exc


def _lam(opt: Options) -> float:
    lam = float(opt.get("lambda", 0.0))
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"invalid --lambda: {lam} (must lie in [0, 1])")
    return lam


def _member(name: str, w: SingularWeight, lam: float):
    try:
        return corpus_member(name, w, lam)
    except KeyError as exc:
        raise ConfigError(f"invalid --f: {exc.args[0]}") from exc


def _t_values(opt: Options) -> tuple:
    ts = _parse_values(opt.get("t-values", DEFAULT_T_VALUES), float, "--t-values")
    bad = [t for t in ts if not 0.0 < t <= 0.25]
    if not ts or bad:
        raise ConfigError(
            f"invalid --t-values: {bad or list(ts)} (need at least one width, each in (0, 0.25])"
        )
    return ts


def _n_values(opt: Options) -> tuple:
    ns = _parse_values(opt.get("n-values", DEFAULT_N_VALUES), int, "--n-values")
    if len(ns) < 3 or ns[0] < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError(
            f"invalid --n-values: {list(ns)} (need at least 3 strictly increasing degrees >= 1)"
        )
    return ns


def _checked(opt: Options, key: str, default, ok, need: str):
    """A finite numeric flag that satisfies ``ok``; a ConfigError (exit 2) otherwise."""
    value = opt.get(key, default)
    if not (math.isfinite(value) and ok(value)):
        raise ConfigError(f"invalid --{key}: {value} ({need})")
    return value


def _grid(opt: Options, xi: float) -> GridSpec:
    side = min(xi, 1.0 - xi)
    radius = _checked(opt, "exclusion-radius", 0.0, lambda r: 0.0 <= r < side,
                      f"must lie in [0, min(xi, 1 - xi)) = [0, {side})")
    try:
        return GridSpec(
            count=int(opt.get("grid-count", 4097)),
            exclusion_radius=float(radius),
            placement=str(opt.get("grid-placement", "chebyshev")),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid grid parameters: {exc}") from exc


def _format(opt: Options, choices=("csv", "json")) -> str:
    """The output format; the first choice is the command's default."""
    fmt = str(opt.get("format", choices[0]))
    if fmt not in choices:
        raise ConfigError(f"invalid --format: {fmt!r} (this command writes {' or '.join(choices)})")
    return fmt


def _h_steps(opt: Options) -> int:
    return int(_checked(opt, "h-steps", 32, lambda s: s >= 1, "must be positive"))


def _exponents(opt: Options) -> dict:
    """Moment exponents: --u/--v (lemma1), --gamma (lemma4), --beta (lemma6)."""
    return {
        "u": float(_checked(opt, "u", 1.0, lambda e: e >= 0.0, "must be >= 0")),
        "v": float(_checked(opt, "v", 0.0, lambda e: e >= 0.0, "must be >= 0")),
        "gamma": float(_checked(opt, "gamma", 2.0, lambda e: e >= 0.0, "must be >= 0")),
        "beta": float(_checked(opt, "beta", 2.0, lambda e: e > 0.0, "must be positive")),
    }


def _degree(opt: Options) -> int:
    n = opt.get("n")
    if n is None:
        raise ConfigError("missing --n (operator degree)")
    n = int(n)
    if n < 1:
        raise ConfigError(f"invalid --n: {n} (degree must be >= 1)")
    return n


def _emit(text: str, out):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_csv(header, rows, out):
    buf = io.StringIO()
    write_csv(buf, header, rows)
    _emit(buf.getvalue(), out)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_eval(opt: Options) -> int:
    w = _weight(opt)
    lam = _lam(opt)
    g = _grid(opt, w.xi)
    fmt = _format(opt)
    name = opt.get("f")
    if not name:
        raise ConfigError("missing --f (function name; see list-functions)")
    f = _member(str(name), w, lam)
    n = _degree(opt)
    nodes = compute_nodes(n, w.xi)
    nodes.require_valid()
    xs = grid_points(g, w.xi, extra=(nodes.x1, nodes.x2, nodes.x3, nodes.x4))
    fv = np.asarray(f(xs), dtype=float)
    bv = bbar_apply(f, n, w, xs)
    werr = np.abs(w(xs) * (fv - bv))
    rows = [
        {"x": float(x), "f": float(a), "bbar": float(b), "weighted_error": float(e)}
        for x, a, b, e in zip(xs, fv, bv, werr)
    ]
    header = ["x", "f", "bbar", "weighted_error"]
    if fmt == "json":
        doc = {
            "schema_version": SCHEMAS["schema_version"], "command": "eval",
            "params": {"f": f.name, "xi": w.xi, "alpha": w.alpha, "lambda": lam, "n": n},
            "rows": rows,
        }
        _emit(json_dumps(doc), opt.get("out"))
    else:
        _emit_csv(header, rows, opt.get("out"))
    return EXIT_OK


def cmd_modulus(opt: Options) -> int:
    w = _weight(opt)
    lam = _lam(opt)
    g = _grid(opt, w.xi)
    fmt = _format(opt)
    name = opt.get("f")
    if not name:
        raise ConfigError("missing --f (function name; see list-functions)")
    f = _member(str(name), w, lam)
    t_values = _t_values(opt)
    h_steps = _h_steps(opt)
    ts = sorted(t_values)
    moduli = ladder_moduli(f, w, lam, ts, h_steps, g)
    rows = [{"t": t, "omega2": om, "omega2_mainpart": mp} for t, (om, mp, _) in zip(ts, moduli)]
    if fmt == "json":
        doc = {
            "schema_version": SCHEMAS["schema_version"], "command": "modulus",
            "params": {"f": f.name, "xi": w.xi, "alpha": w.alpha, "lambda": lam,
                       "h_steps": h_steps},
            "rows": rows,
        }
        _emit(json_dumps(doc), opt.get("out"))
    else:
        _emit_csv(["t", "omega2", "omega2_mainpart"], rows, opt.get("out"))
    return EXIT_OK


_NO_RATE_TARGET = "no rate target: the closed form covers abs_beta_* at --lambda 0"


def _rate_members(members):
    return [tf for tf in members if tf.expected_alpha0 is not None or tf.name == "linear"]


def _run_checker(which: str, opt: Options, w, lam, g, n_values, t_values, h_steps, ex):
    members = corpus(w, lam)
    sel = opt.get("f", "all")
    if sel != "all":
        members = [_member(str(sel), w, lam)]
    if which == "lemma1":
        return [check_lemma1(n_values, g, ex["u"], ex["v"])]
    if which == "lemma4":
        return [check_lemma4(n_values, g, ex["gamma"])]
    if which == "lemma5":
        return [check_lemma5(w, n_values, g)]
    if which == "lemma6":
        return [check_lemma6(w, ex["beta"], n_values, g)]
    if which == "lemma2":
        return [check_lemma2(tf, w, n_values, g) for tf in members]
    if which == "theorem1":
        return [check_theorem1(tf, w, n_values, g) for tf in members]
    if which == "lemma7":
        usable = w2_members(members, w)
        if sel != "all" and not usable:
            raise ConfigError(f"--f {sel}: not usable by lemma7 (needs a smooth second derivative)")
        return [check_lemma7(tf, w, lam, n_values, g) for tf in usable]
    if which == "theorem2":
        branch = str(opt.get("branch", "both"))
        if branch not in ("cw", "w2", "both"):
            raise ConfigError(f"invalid --branch: {branch!r}")
        out = []
        if branch in ("cw", "both"):
            out += [check_theorem2(tf, w, lam, "cw", n_values, g) for tf in members]
        if branch in ("w2", "both"):
            out += [check_theorem2(tf, w, lam, "w2", n_values, g) for tf in w2_members(members, w)]
        return out
    if which == "direct":
        usable = _rate_members(members)
        if not usable:
            raise ConfigError(f"--f {sel}: {_NO_RATE_TARGET}")
        return [check_direct(tf, w, lam, n_values, g) for tf in usable]
    if which == "inverse":
        usable = _rate_members(members)
        if not usable:
            raise ConfigError(f"--f {sel}: {_NO_RATE_TARGET}")
        return [check_inverse(tf, w, lam, t_values, g, h_steps) for tf in usable]
    raise ConfigError(f"unknown check {which!r}; known: {', '.join(CHECK_NAMES)}")


def cmd_check(opt: Options) -> int:
    w = _weight(opt)
    lam = _lam(opt)
    g = _grid(opt, w.xi)
    fmt = _format(opt)
    n_values = _n_values(opt)
    t_values = _t_values(opt)
    h_steps = _h_steps(opt)
    ex = _exponents(opt)
    which = str(opt.get("which", "all"))
    names = CHECK_NAMES if which == "all" else tuple(tok.strip() for tok in which.split(","))
    reports = []
    for nm in names:
        reports += _run_checker(nm, opt, w, lam, g, n_values, t_values, h_steps, ex)
    passed = all(r.passed for r in reports)

    if fmt == "json":
        doc = {
            "schema_version": SCHEMAS["schema_version"], "command": "check",
            "params": {"which": list(names), "xi": w.xi, "alpha": w.alpha, "lambda": lam},
            "reports": [r.to_dict() for r in reports],
            "passed": passed,
        }
        _emit(json_dumps(doc), opt.get("out"))
    else:
        flat = []
        for r in reports:
            d = r.to_dict()
            fn = d["params"].get("function", "")
            for row in d.get("rows", []) or [dict(pair_n=p[0], value=p[1]) for p in d.get("pairs", [])]:
                flat.append({"check": d["name"], "function": fn, "row_kind": "data", **row})
            summary = {
                "check": d["name"], "function": fn, "row_kind": "summary",
                "slope": d.get("slope"), "residual": d.get("residual"),
                "spread": d.get("spread"), "passed": d["passed"],
            }
            if "fitted_alpha0" in d:
                summary["fitted_alpha0"] = d["fitted_alpha0"]
                summary["target"] = d.get("target")
            flat.append(summary)
        _emit_csv(table_header(flat, ["check", "function", "row_kind"]), flat, opt.get("out"))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_sweep(opt: Options) -> int:
    w = _weight(opt)
    lam = _lam(opt)
    g = _grid(opt, w.xi)
    _format(opt, ("json",))
    n_values = _n_values(opt)
    t_values = _t_values(opt)
    h_steps = _h_steps(opt)
    bad = [n for n in n_values if not compute_nodes(n, w.xi).valid]
    if bad:
        raise ConfigError(f"invalid --n-values: bridge nodes invalid for n={bad}; raise the minimum n")
    members = corpus(w, lam)
    sel = str(opt.get("functions", "all"))
    if sel == "all":
        chosen = _rate_members(members)
    else:
        chosen = [_member(nm.strip(), w, lam) for nm in sel.split(",")]
        missing = [tf.name for tf in chosen if tf not in _rate_members(chosen)]
        if missing:
            raise ConfigError(f"--functions {','.join(missing)}: {_NO_RATE_TARGET}")
    results = [run_function_sweep(tf, w, lam, n_values, t_values, g, h_steps) for tf in chosen]
    passed = all(r["passed"] for r in results)
    doc = {
        "schema_version": SCHEMAS["schema_version"],
        "command": "sweep",
        "timestamp": _timestamp(),
        "config": {
            "xi": w.xi, "alpha": w.alpha, "lambda": lam,
            "n_values": list(n_values), "t_values": list(t_values),
            "grid": {"count": g.count, "placement": g.placement,
                     "exclusion_radius": g.exclusion_radius},
            "functions": [tf.name for tf in chosen],
        },
        "results": results,
        "passed": passed,
    }
    _emit(json_dumps(doc), opt.get("out"))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_list_functions(opt: Options) -> int:
    w = _weight(opt)
    lam = _lam(opt)
    fmt = _format(opt)
    rows = [
        {
            "name": tf.name,
            "singularity_exponent": tf.singularity_exponent,
            "expected_alpha0": tf.expected_alpha0,
            "lambda": tf.lam,
            "smooth_second_derivative": tf.has_second_derivative
            and tf.singularity_exponent is None,
            "description": tf.description,
        }
        for tf in corpus(w, lam)
    ]
    if fmt == "json":
        _emit(json_dumps({"schema_version": SCHEMAS["schema_version"], "functions": rows}),
              opt.get("out"))
    else:
        _emit_csv(table_header(rows, ["name"]), rows, opt.get("out"))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="singbern",
        description="Weighted approximation around an interior singularity: "
                    "operator tables, smoothness moduli, and bound checkers.",
    )
    ap.add_argument("--schema", action="store_true", help="print output schemas and exit")
    sub = ap.add_subparsers(dest="command")

    def common(p, with_grid=True):
        p.add_argument("--config", help="KEY=VALUE config file")
        p.add_argument("--xi", type=float, help="singular point in (0, 1)")
        p.add_argument("--alpha", type=float, help="weight exponent > 0")
        p.add_argument("--lambda", type=float, help="step-weight power in [0, 1]")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", help="output format: csv or json (sweep: json only)")
        if with_grid:
            p.add_argument("--grid-count", type=int, help="grid size (default 4097)")
            p.add_argument("--grid-placement", choices=("uniform", "chebyshev"))
            p.add_argument("--exclusion-radius", type=float)

    p = sub.add_parser("eval", help="tabulate f, the operator, and the weighted error")
    common(p)
    p.add_argument("--f", help="corpus function name")
    p.add_argument("--n", type=int, help="operator degree")

    p = sub.add_parser("modulus", help="tabulate the weighted moduli over widths t")
    common(p)
    p.add_argument("--f", help="corpus function name")
    p.add_argument("--t-values", help="comma-separated widths, each in (0, 0.25]")
    p.add_argument("--h-steps", type=int, help="step-ladder density (default 32)")

    p = sub.add_parser("check", help="run bound checkers with trend-based acceptance")
    common(p)
    p.add_argument("--which", help=f"comma list or 'all': {', '.join(CHECK_NAMES)}")
    p.add_argument("--f", help="corpus function name or 'all'")
    p.add_argument("--n-values", help="comma-separated degree sweep")
    p.add_argument("--t-values", help="comma-separated widths (inverse check)")
    p.add_argument("--h-steps", type=int, help="step-ladder density (default 32)")
    p.add_argument("--beta", type=float, help="moment exponent for lemma6")
    p.add_argument("--gamma", type=float, help="moment exponent for lemma4")
    p.add_argument("--u", type=float, help="inverse-moment exponent for lemma1")
    p.add_argument("--v", type=float, help="inverse-moment exponent for lemma1")
    p.add_argument("--branch", choices=("cw", "w2", "both"), help="theorem2 branch")

    p = sub.add_parser("sweep", help="full rate pipeline (direct + inverse + consistency)")
    common(p)
    p.add_argument("--functions", help="comma list of corpus names or 'all'")
    p.add_argument("--n-values", help="comma-separated degree sweep")
    p.add_argument("--t-values", help="comma-separated widths")
    p.add_argument("--h-steps", type=int, help="step-ladder density (default 32)")

    p = sub.add_parser("list-functions", help="list the built-in corpus")
    common(p, with_grid=False)
    return ap


_COMMANDS = {
    "eval": cmd_eval,
    "modulus": cmd_modulus,
    "check": cmd_check,
    "sweep": cmd_sweep,
    "list-functions": cmd_list_functions,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    if args.schema:
        sys.stdout.write(json_dumps(SCHEMAS))
        return EXIT_OK
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](Options(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EvaluationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
