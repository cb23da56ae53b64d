"""Command-line front end: pointwise tables, moduli, checkers, and sweeps.

Exit codes: 0 success, 1 check failure, 2 ConfigError, 3 InvalidNodesError,
EvaluationError or ArithmeticError; any other exception is a bug and keeps its
traceback.  Flags override the config file, which overrides the defaults.  The
config file is KEY=VALUE text (keys match long option names, '#' starts a
comment); its values go through the same parser, and the same checks, as flags.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .bridge import InvalidNodesError, compute_nodes
from .experiments import (
    DEFAULT_N_VALUES,
    DEFAULT_T_VALUES,
    DEFAULT_WEIGHT,
    band_checks,
    check_inverse,
    check_lemma5,
    check_lemma6,
    check_lemma7,
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


class ConfigError(ValueError):
    pass


def _typed(flag: str, parse, ok, rule: str):
    """An argparse type for ``--flag``: ``parse`` the text, then require ``ok`` of the value."""

    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"invalid --{flag}: {text!r} ({rule})")

    return convert


def _positive(value) -> bool:
    return math.isfinite(value) and value > 0


def _non_negative(value) -> bool:
    return math.isfinite(value) and value >= 0


def _comma_list(cast):
    return lambda text: tuple(cast(tok) for tok in text.split(",") if tok.strip())


def _check_names(text: str) -> tuple:
    return CHECK_NAMES if text == "all" else tuple(tok.strip() for tok in text.split(","))


def _increasing_degrees(ns: tuple) -> bool:
    return len(ns) >= 3 and ns[0] >= 1 and all(b > a for a, b in zip(ns, ns[1:]))


def _config_args(path: str, config_keys: dict, command: str) -> list:
    """The config file as ``--key=value`` tokens for the keys ``command`` takes.

    A key that only another command takes is skipped; any other key is an
    error.  The ``=`` form keeps a value that starts with ``-`` a value.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config {path}:{lineno}: expected KEY=VALUE, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower().replace("_", "-")
        if not any(key in keys for keys in config_keys.values()):
            raise ConfigError(f"config {path}:{lineno}: unknown key {key!r}")
        if key in config_keys[command]:
            tokens.append(f"--{key}={value}")
    return tokens


def _member(name: str, w: SingularWeight, lam: float):
    try:
        return corpus_member(name, w, lam)
    except KeyError as exc:
        raise ConfigError(f"invalid --f: {exc.args[0]}") from exc


def _weight_and_grid(args) -> tuple:
    """The weight and the grid; the radius must leave both sides of xi and a grid point in (0, 1)."""
    w = SingularWeight(xi=args.xi, alpha=args.alpha)
    side = min(w.xi, 1.0 - w.xi)
    if not args.exclusion_radius < side:
        raise ConfigError(f"invalid --exclusion-radius: {args.exclusion_radius} "
                          f"(must lie in [0, min(xi, 1 - xi)) = [0, {side}))")
    g = GridSpec(count=args.grid_count, exclusion_radius=args.exclusion_radius,
                 placement=args.grid_placement)
    if not any(0.0 < x < 1.0 for x in grid_points(g, w.xi)):
        raise ConfigError(f"empty grid: --grid-count {g.count} leaves no point inside (0, 1) "
                          f"outside --exclusion-radius {g.exclusion_radius}")
    return w, g


def _function(args, w: SingularWeight):
    if not args.f:
        raise ConfigError("missing --f (function name; see list-functions)")
    return _member(args.f, w, args.lam)


def _emit(text: str, out):
    _write(out, lambda stream: stream.write(text))


def _emit_csv(header, rows, out):
    """The CSV table of ``rows``, an iterable, written row by row as it is formatted."""
    _write(out, lambda stream: write_csv(stream, header, rows))


def _write(out, write):
    """``write(stream)`` to stdout, or to the file ``out`` when it is given."""
    if not out:
        write(sys.stdout)
        return
    try:
        with open(out, "w", encoding="utf-8") as stream:
            write(stream)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc}") from exc


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_eval(args: argparse.Namespace) -> int:
    w, g = _weight_and_grid(args)
    f = _function(args, w)
    if args.n is None:
        raise ConfigError("missing --n (operator degree)")
    nodes = compute_nodes(args.n, w.xi)
    nodes.require_valid()
    xs = grid_points(g, w.xi, extra=(nodes.x1, nodes.x2, nodes.x3, nodes.x4))
    fv = np.asarray(f(xs), dtype=float)
    bv = bbar_apply(f, args.n, w, xs)
    werr = np.abs(w(xs) * (fv - bv))
    # one row's dict at a time: the CSV is written as the rows are made
    rows = (
        {"x": float(x), "f": float(a), "bbar": float(b), "weighted_error": float(e)}
        for x, a, b, e in zip(xs, fv, bv, werr)
    )
    if args.format == "json":
        doc = {
            "schema_version": SCHEMAS["schema_version"], "command": "eval",
            "params": {"f": f.name, "xi": w.xi, "alpha": w.alpha, "lambda": args.lam, "n": args.n},
            "rows": list(rows),
        }
        _emit(json_dumps(doc), args.out)
    else:
        _emit_csv(["x", "f", "bbar", "weighted_error"], rows, args.out)
    return EXIT_OK


def cmd_modulus(args: argparse.Namespace) -> int:
    w, g = _weight_and_grid(args)
    f = _function(args, w)
    ts = sorted(args.t_values)
    moduli = ladder_moduli(f, w, args.lam, ts, args.h_steps, g)
    rows = [{"t": t, "omega2": om, "omega2_mainpart": mp} for t, (om, mp, _) in zip(ts, moduli)]
    if args.format == "json":
        doc = {
            "schema_version": SCHEMAS["schema_version"], "command": "modulus",
            "params": {"f": f.name, "xi": w.xi, "alpha": w.alpha, "lambda": args.lam,
                       "h_steps": args.h_steps},
            "rows": rows,
        }
        _emit(json_dumps(doc), args.out)
    else:
        _emit_csv(["t", "omega2", "omega2_mainpart"], rows, args.out)
    return EXIT_OK


_NO_RATE_TARGET = "no rate target: the closed form covers abs_beta_* at --lambda 0"


def _rate_members(members):
    return [tf for tf in members if tf.expected_alpha0 is not None or tf.name == "linear"]


def _band_plan(args, members) -> dict:
    """The members of each checker named by ``--which`` that reads a band (see ``band_checks``)."""
    plan = {
        "lemma1": None, "lemma4": None, "lemma2": members, "theorem1": members,
        "theorem2 cw": members if args.branch in ("cw", "both") else [],
        "theorem2 w2": w2_members(members) if args.branch in ("w2", "both") else [],
        "direct": _rate_members(members),
    }
    return {name: m for name, m in plan.items() if name.split()[0] in args.which}


def _run_checker(which: str, args: argparse.Namespace, w, g, members, band_reports):
    lam, n_values, sel = args.lam, args.n_values, args.f
    if which in ("lemma1", "lemma2", "lemma4", "theorem1"):
        return list(band_reports(which))
    if which == "theorem2":
        return [*band_reports("theorem2 cw"), *band_reports("theorem2 w2")]
    if which == "lemma5":
        return [check_lemma5(w, n_values, g)]
    if which == "lemma6":
        return [check_lemma6(w, args.beta, n_values, g)]
    if which == "lemma7":
        usable = w2_members(members)
        if sel != "all" and not usable:
            raise ConfigError(f"--f {sel}: not usable by lemma7 (needs a smooth second derivative)")
        return [check_lemma7(tf, w, lam, n_values, g) for tf in usable]
    usable = _rate_members(members)
    if not usable:
        raise ConfigError(f"--f {sel}: {_NO_RATE_TARGET}")
    if which == "direct":
        return list(band_reports("direct"))
    return [check_inverse(tf, w, lam, args.t_values, g, args.h_steps) for tf in usable]


def cmd_check(args: argparse.Namespace) -> int:
    w, g = _weight_and_grid(args)
    members = corpus(w, args.lam) if args.f == "all" else [_member(args.f, w, args.lam)]
    # checkers that read the same (degree, grid) band share one streamed pass over it
    band_reports = band_checks(_band_plan(args, members), w, args.lam, args.n_values, g,
                               args.u, args.v, args.gamma)
    reports = []
    for name in args.which:
        try:
            reports += _run_checker(name, args, w, g, members, band_reports)
        except ArithmeticError as exc:
            raise ArithmeticError(f"check {name}: {exc}") from exc
    passed = all(r["passed"] for r in reports)

    if args.format == "json":
        doc = {
            "schema_version": SCHEMAS["schema_version"], "command": "check",
            "params": {"which": list(args.which), "xi": w.xi, "alpha": w.alpha,
                       "lambda": args.lam},
            "reports": reports,
            "passed": passed,
        }
        _emit(json_dumps(doc), args.out)
    else:
        flat = []
        for d in reports:
            fn = d["params"].get("function", "")
            for row in d["rows"]:
                flat.append({"check": d["name"], "function": fn, "row_kind": "data", **row})
            summary = {
                "check": d["name"], "function": fn, "row_kind": "summary",
                "slope": d["slope"], "residual": d["residual"],
                "spread": d.get("spread"), "passed": d["passed"],
            }
            if "fitted_alpha0" in d:
                summary["fitted_alpha0"] = d["fitted_alpha0"]
                summary["target"] = d["target"]
            flat.append(summary)
        _emit_csv(table_header(flat, ["check", "function", "row_kind"]), flat, args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_sweep(args: argparse.Namespace) -> int:
    w, g = _weight_and_grid(args)
    lam = args.lam
    bad = [n for n in args.n_values if not compute_nodes(n, w.xi).valid]
    if bad:
        raise ConfigError(f"invalid --n-values: bridge nodes invalid for n={bad}; raise the minimum n")
    if args.functions == "all":
        chosen = _rate_members(corpus(w, lam))
    else:
        chosen = [_member(nm.strip(), w, lam) for nm in args.functions.split(",")]
        missing = [tf.name for tf in chosen if tf not in _rate_members(chosen)]
        if missing:
            raise ConfigError(f"--functions {','.join(missing)}: {_NO_RATE_TARGET}")
    results = run_function_sweep(chosen, w, lam, args.n_values, args.t_values, g, args.h_steps)
    passed = all(r["passed"] for r in results)
    doc = {
        "schema_version": SCHEMAS["schema_version"],
        "command": "sweep",
        "timestamp": _timestamp(),
        "config": {
            "xi": w.xi, "alpha": w.alpha, "lambda": lam,
            "n_values": list(args.n_values), "t_values": list(args.t_values),
            "grid": {"count": g.count, "placement": g.placement,
                     "exclusion_radius": g.exclusion_radius},
            "functions": [tf.name for tf in chosen],
        },
        "results": results,
        "passed": passed,
    }
    _emit(json_dumps(doc), args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_list_functions(args: argparse.Namespace) -> int:
    members = corpus(SingularWeight(xi=args.xi, alpha=args.alpha), args.lam)
    smooth = w2_members(members)
    rows = [
        {
            "name": tf.name,
            "singularity_exponent": tf.singularity_exponent,
            "expected_alpha0": tf.expected_alpha0,
            "lambda": args.lam,
            "smooth_second_derivative": tf in smooth,
            "description": tf.description,
        }
        for tf in members
    ]
    if args.format == "json":
        _emit(json_dumps({"schema_version": SCHEMAS["schema_version"], "functions": rows}),
              args.out)
    else:
        _emit_csv(table_header(rows, ["name"]), rows, args.out)
    return EXIT_OK


def _build_parser() -> tuple:
    """The parser, and per command the option names a config file may set.

    Each option's type holds its range, so flags and config values are
    checked by one rule.
    """
    ap = argparse.ArgumentParser(
        prog="singbern",
        description="Weighted approximation around an interior singularity: "
                    "operator tables, smoothness moduli, and bound checkers.",
    )
    ap.add_argument("--schema", action="store_true", help="print output schemas and exit")
    sub = ap.add_subparsers(dest="command")
    config_keys = {}

    def command(name, help, formats=("csv", "json"), with_grid=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="KEY=VALUE config file")
        keys = config_keys[name] = set()

        def add(flag, parse=None, ok=None, rule="", choices=(), **kw):
            """--flag; its type checks ``ok`` of the ``parse``d text, or one of ``choices``."""
            keys.add(flag)
            if choices:
                parse, ok, rule = str, choices.__contains__, f"one of {', '.join(choices)}"
                kw["metavar"] = "{" + ",".join(choices) + "}"
            if parse is not None:
                kw["type"] = _typed(flag, parse, ok, rule)
            p.add_argument(f"--{flag}", **kw)

        add("xi", float, lambda x: 0.0 < x < 1.0, "a number in (0, 1)",
            default=DEFAULT_WEIGHT.xi, help="singular point in (0, 1)")
        add("alpha", float, _positive, "a finite number > 0",
            default=DEFAULT_WEIGHT.alpha, help="finite weight exponent > 0")
        add("lambda", float, lambda lam: 0.0 <= lam <= 1.0, "a number in [0, 1]",
            dest="lam", metavar="LAMBDA", default=0.0, help="step-weight power in [0, 1]")
        add("out", help="output path (default: stdout)")
        add("format", choices=formats, default=formats[0],
            help=f"output format (default {formats[0]})")
        if with_grid:
            add("grid-count", int, lambda c: c >= 2, "an integer >= 2",
                default=GridSpec.count, help=f"grid size (default {GridSpec.count})")
            add("grid-placement", choices=("uniform", "chebyshev"), default=GridSpec.placement)
            add("exclusion-radius", float, _non_negative, "a finite number >= 0",
                default=GridSpec.exclusion_radius, help="0 <= r < min(xi, 1 - xi)")
        return add

    n_values = dict(parse=_comma_list(int), ok=_increasing_degrees,
                    rule="need at least 3 strictly increasing degrees >= 1",
                    default=DEFAULT_N_VALUES, help="comma-separated degree sweep")
    t_values = dict(parse=_comma_list(float), ok=lambda ts: ts and all(0.0 < t <= 0.25 for t in ts),
                    rule="need at least one width, each in (0, 0.25]",
                    default=DEFAULT_T_VALUES, help="comma-separated widths, each in (0, 0.25]")
    h_steps = dict(parse=int, ok=_positive, rule="an integer >= 1",
                   default=32, help="step-ladder density (default 32)")

    add = command("eval", "tabulate f, the operator, and the weighted error")
    add("f", help="corpus function name")
    add("n", int, lambda n: n >= 1, "an integer >= 1", help="operator degree")

    add = command("modulus", "tabulate the weighted moduli over widths t")
    add("f", help="corpus function name")
    add("t-values", **t_values)
    add("h-steps", **h_steps)

    add = command("check", "run bound checkers with trend-based acceptance")
    add("which", _check_names, lambda names: set(names) <= set(CHECK_NAMES),
        f"'all' or a comma list of {', '.join(CHECK_NAMES)}",
        default=CHECK_NAMES, help=f"comma list or 'all': {', '.join(CHECK_NAMES)}")
    add("f", default="all", help="corpus function name or 'all'")
    add("n-values", **n_values)
    add("t-values", **t_values)
    add("h-steps", **h_steps)
    add("beta", float, _positive, "a finite number > 0",
        default=2.0, help="moment exponent for lemma6")
    add("gamma", float, _non_negative, "a finite number >= 0",
        default=2.0, help="moment exponent for lemma4")
    add("u", float, _non_negative, "a finite number >= 0",
        default=1.0, help="inverse-moment exponent for lemma1")
    add("v", float, _non_negative, "a finite number >= 0",
        default=0.0, help="inverse-moment exponent for lemma1")
    add("branch", choices=("cw", "w2", "both"), default="both", help="theorem2 branch")

    add = command("sweep", "full rate pipeline (direct + inverse + consistency)",
                  formats=("json",))
    add("functions", default="all", help="comma list of corpus names or 'all'")
    add("n-values", **n_values)
    add("t-values", **t_values)
    add("h-steps", **h_steps)

    command("list-functions", "list the built-in corpus", with_grid=False)
    return ap, config_keys


_COMMANDS = {
    "eval": cmd_eval,
    "modulus": cmd_modulus,
    "check": cmd_check,
    "sweep": cmd_sweep,
    "list-functions": cmd_list_functions,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, config_keys = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.schema:
            sys.stdout.write(json_dumps(SCHEMAS))
            return EXIT_OK
        if not args.command:
            parser.print_usage(sys.stderr)
            return EXIT_CONFIG
        if args.config:
            # the config values go in right after the command name, so that
            # every flag on the command line comes later and wins
            at = argv.index(args.command) + 1
            argv[at:at] = _config_args(args.config, config_keys, args.command)
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvalidNodesError, EvaluationError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
