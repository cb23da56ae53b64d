"""Tests for the command-line front end: exit codes, formats, determinism."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singbern.cli import CHECK_NAMES, _EVAL_CSV_ROW, _EVAL_CSV_ROWS, _write_eval_csv, main
from singbern.reporting import format_float, write_csv
from singbern.weight import TestFunction, corpus_member


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_peak_mib(*argv):
    """Exit code and peak resident memory in MiB of ``main(argv)`` in a fresh interpreter."""
    import os
    import subprocess
    import sys

    import singbern

    # On Linux ru_maxrss carries over the high-water mark of the process
    # that forked the child (here the test runner), so the child reports
    # the peak of its own address space, VmHWM, where the system has it.
    code = (
        "import os, resource, sys\n"
        "from singbern.cli import main\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        f"rc = main({list(argv)!r})\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "if os.path.exists('/proc/self/status'):\n"
        "    for line in open('/proc/self/status'):\n"
        "        if line.startswith('VmHWM:'):\n"
        "            peak = int(line.split()[1])\n"
        "print(rc, peak, file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(singbern.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rc, peak_kib = map(int, proc.stderr.split()[-2:])
    return rc, peak_kib / 1024.0


class TestEval:
    def test_linear_error_column_tiny(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--f", "linear", "--xi", "0.5", "--alpha", "1",
            "--n", "400", "--grid-count", "257",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,f,bbar,weighted_error"
        errs = [float(line.split(",")[3]) for line in lines[1:]]
        assert max(errs) <= 1e-11

    def test_invalid_nodes_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--f", "abs_beta_1.0", "--xi", "0.5", "--alpha", "1", "--n", "4",
        )
        assert code == 3
        assert "need n >=" in err

    def test_unknown_function_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--f", "nope", "--n", "100")
        assert code == 2
        assert "nope" in err

    def test_bad_weight_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--f", "linear", "--n", "100", "--xi", "1.5")
        assert code == 2
        assert "xi" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--f", "square", "--n", "64", "--grid-count", "65",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "eval"
        assert set(doc["rows"][0]) == {"x", "f", "bbar", "weighted_error"}

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "eval", "--f", "square", "--n", "64", "--grid-count", "33",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("x,f,bbar,weighted_error")
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("extra", (-1, 1))
    def test_csv_is_write_csv_of_the_json_rows(self, capsys, extra):
        # the CSV is written a chunk of rows at a time; a grid of 4 nodes +
        # (count) points ends one row short of a chunk boundary, or one past it
        argv = ("eval", "--f", "abs_beta_1.0", "--n", "64", "--grid-count", str(_EVAL_CSV_ROWS - 4 + extra))
        code, csv_text, _ = run_cli(capsys, *argv)
        assert code == 0
        code, json_text, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        rows = json.loads(json_text)["rows"]
        assert len(rows) == _EVAL_CSV_ROWS + extra
        want = io.StringIO()
        write_csv(want, ["x", "f", "bbar", "weighted_error"], rows)
        assert csv_text == want.getvalue()

    @pytest.mark.parametrize("size", (0, 1, _EVAL_CSV_ROWS - 1, _EVAL_CSV_ROWS, _EVAL_CSV_ROWS + 1,
                                      2 * _EVAL_CSV_ROWS + 1))
    def test_csv_chunks_keep_the_bytes_of_write_csv(self, size):
        rng = np.random.default_rng(size)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e308, math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0]
        columns = [rng.standard_normal(size) * 10.0 ** rng.integers(-320, 308, size) for _ in range(4)]
        for c in columns:
            c[:len(special)] = special[:size]
            rng.shuffle(c)
        got = io.StringIO()
        _write_eval_csv(got, columns)
        header = ["x", "f", "bbar", "weighted_error"]
        want = io.StringIO()
        write_csv(want, header, ({h: float(v) for h, v in zip(header, row)} for row in zip(*columns)))
        assert got.getvalue() == want.getvalue()

    @pytest.mark.parametrize("v", [0.0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan])
    def test_csv_row_format_prints_format_float(self, v):
        assert _EVAL_CSV_ROW % (v, -v, v, 1.0) == ",".join([format_float(v), format_float(-v),
                                                            format_float(v), "1"]) + "\n"


class TestModulus:
    def test_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "modulus", "--f", "square", "--t-values", "0.125,0.0625",
            "--grid-count", "257",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,omega2,omega2_mainpart"
        assert len(lines) == 3
        t1 = [float(v) for v in lines[1].split(",")]
        t2 = [float(v) for v in lines[2].split(",")]
        assert t1[0] < t2[0] and t1[1] <= t2[1]

    def test_lambda_flag_scales_steps(self, capsys):
        # lambda = 1 shrinks the symmetric step by phi(x) <= 1/2, so the
        # main-part modulus of x^2 drops by at least 4x
        base, scaled = [], []
        for lam, sink in (("0", base), ("1", scaled)):
            code, out, _ = run_cli(
                capsys, "modulus", "--f", "square", "--lambda", lam,
                "--t-values", "0.125", "--grid-count", "257",
            )
            assert code == 0
            sink.append(float(out.strip().splitlines()[1].split(",")[2]))
        assert scaled[0] <= 0.25 * base[0]

    def test_one_ladder_pass_for_all_widths(self, capsys, monkeypatch):
        # one pass for the whole ladder, plus one per width below 2^-12
        import singbern.moduli as moduli

        real, steps = moduli.ladder_band_sups, []
        monkeypatch.setattr(
            moduli, "ladder_band_sups", lambda *a: steps.append(len(a[3])) or real(*a)
        )
        code, out, _ = run_cli(
            capsys, "modulus", "--f", "square", "--grid-count", "129",
            "--t-values", "0.25,0.1,0.03,0.007,0.0002,0.0001",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 7
        assert steps[1:] == [1, 1] and steps[0] > 1

    def test_invalid_lambda_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "modulus", "--f", "square", "--lambda", "1.5",
        )
        assert code == 2
        assert "lambda" in err

    def test_floats_have_17_significant_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "modulus", "--f", "abs_beta_0.5", "--t-values", "0.125",
            "--grid-count", "129",
        )
        assert code == 0
        cell = out.strip().splitlines()[1].split(",")[1]
        assert float(cell) != 0.0
        assert len(cell.replace(".", "").replace("-", "").lstrip("0")) >= 16


class TestCheck:
    def test_theorem1_linear_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--which", "theorem1", "--f", "linear",
            "--n-values", "64,128,256", "--grid-count", "257",
        )
        assert code == 0
        summary = [l for l in out.splitlines() if ",summary," in l]
        assert summary and ",true" in summary[0]

    def test_linear_theorems_pass_on_a_non_power_of_two_sweep(self, capsys):
        # nodes k/n that are not dyadic leave rounding noise in (Bbar_n f)'',
        # which must read as 0, not as a ratio with a trend
        code, out, _ = run_cli(
            capsys, "check", "--which", "theorem1,theorem2", "--f", "linear",
            "--n-values", "50,100,200,400,800", "--grid-count", "513", "--format", "json",
        )
        assert code == 0
        reports = json.loads(out)["reports"]
        assert {r["name"] for r in reports} == {"theorem1", "theorem2"}
        assert all(r["passed"] and r["trivial"] for r in reports)

    def test_lemma5_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--which", "lemma5", "--xi", "0.5", "--alpha", "1",
            "--n-values", "64,128,256,512", "--grid-count", "513",
        )
        assert code == 0

    def test_direct_with_closed_form_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--which", "direct", "--f", "abs_beta_1.0",
            "--n-values", "64,128,256,512", "--grid-count", "513", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        rep = doc["reports"][0]
        assert rep["target"] == 1.5
        assert abs(rep["fitted_alpha0"] - rep["target"]) <= rep["tolerance"]

    def test_direct_off_centre(self, capsys):
        # the closed-form target exists at any xi, not only at xi = 0.5
        code, out, _ = run_cli(
            capsys, "check", "--which", "direct", "--xi", "0.37", "--f", "abs_beta_1.0",
            "--n-values", "64,128,256,512", "--grid-count", "513", "--format", "json",
        )
        assert code == 0
        rep = json.loads(out)["reports"][0]
        assert rep["target"] == 1.5
        assert rep["passed"] and not rep["beyond_saturation"]

    @pytest.mark.parametrize("command", ["check", "sweep"])
    @pytest.mark.parametrize("name", ["square", "smoothed_step"])
    def test_member_without_target_exit_2(self, capsys, command, name):
        which = ("--which", "direct", "--f", name) if command == "check" else ("--functions", name)
        code, out, err = run_cli(capsys, command, *which, "--n-values", "64,128,256", "--grid-count", "129")
        assert code == 2
        assert out == ""
        assert "no rate target" in err

    def test_unknown_checker_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "--which", "lemma99")
        assert code == 2
        assert "lemma99" in err

    def test_all_equals_one_checker_runs_with_xi_on_the_grid(self, capsys):
        # checkers share their band passes without changing a report; 0.5
        # is a point of the uniform grid, where the weight vanishes
        argv = ("--grid-placement", "uniform", "--n-values", "64,128,256", "--grid-count", "129",
                "--format", "json")
        code, out, _ = run_cli(capsys, "check", "--which", "all", *argv)
        alone = []
        for name in CHECK_NAMES:
            alone += json.loads(run_cli(capsys, "check", "--which", name, *argv)[1])["reports"]
        assert code in (0, 1)
        assert json.loads(out)["reports"] == alone

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("which, first", [("theorem1,theorem2", "theorem1"), ("theorem2,lemma2", "theorem2")])
    @pytest.mark.parametrize("error", ["non-finite", "overflow"])
    def test_first_checker_raises_its_first_failing_members_error(self, capsys, monkeypatch, which, first, error):
        # ``early`` fails where its surrogate samples x = 0.375 (n = 128),
        # ``late``, after it, at x = 0.25 (n = 64): the first checker named
        # raises early's error, as checkers run one member at a time would
        import singbern.cli as cli

        real, base = cli.corpus, corpus_member("abs_beta_1.0", cli.DEFAULT_WEIGHT)

        def member(name, bad_x):
            def f(x):
                x = np.asarray(x, dtype=float)
                if error == "overflow" and np.any(x == bad_x):
                    raise OverflowError(f"{name} overflows at {bad_x}")
                return np.where(x == bad_x, np.inf, base(x))

            return TestFunction(name, f, singularity_exponent=1.0)

        monkeypatch.setattr(cli, "corpus", lambda w, lam: [*real(w, lam), member("early", 0.375), member("late", 0.25)])
        code, out, err = run_cli(capsys, "check", "--which", which, "--n-values", "64,128,256", "--grid-count", "129")
        assert (code, out) == (3, "")
        assert err == {"non-finite": "error: non-finite surrogate value at k/n=0.375\n",
                       "overflow": f"error: check {first}: early overflows at 0.375\n"}[error]

    def test_failing_check_exit_1(self, capsys):
        # impossible tolerance via a wrong target is not reachable from the
        # CLI, so force failure through a sweep too short to fit: use a
        # target-free smooth member on the inverse check instead
        code, out, _ = run_cli(
            capsys, "check", "--which", "inverse", "--f", "abs_beta_0.5",
            "--n-values", "64,128,256", "--t-values", "0.25,0.125,0.0625,0.03125",
            "--grid-count", "257",
        )
        assert code in (0, 1)  # structural: exit reflects pass flag


class TestSweep:
    def test_deterministic_json(self, capsys, tmp_path):
        args = (
            "sweep", "--functions", "abs_beta_1.0", "--n-values", "64,128,256,512",
            "--grid-count", "257",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("timestamp")
        d2.pop("timestamp")
        assert d1 == d2
        # byte-identical modulo the timestamp line
        strip = lambda s: "\n".join(l for l in s.splitlines() if '"timestamp"' not in l)
        assert strip(out1) == strip(out2)

    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("functions = abs_beta_1.0\nn-values = 64,128,256\ngrid-count = 129\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--grid-count", "257")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["functions"] == ["abs_beta_1.0"]
        assert doc["config"]["grid"]["count"] == 257  # flag wins over config

    def test_bad_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-such-key = 1\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "no-such-key" in err

    def test_unusable_degree_sweep_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n-values", "4,8,16")
        assert code == 2
        assert "minimum n" in err


@pytest.mark.parametrize("command", ["check", "sweep"])
@pytest.mark.parametrize(
    "n_values",
    ["512,64,128", "64,64,64", "", "0,64,128", "4,8,16", "64,128"],
    ids=["unsorted", "repeated", "empty", "zero", "no-valid-nodes", "two"],
)
def test_degree_sweep_contract(capsys, command, n_values):
    extra = ("--which", "lemma4") if command == "check" else ("--functions", "abs_beta_1.0")
    code, out, err = run_cli(capsys, command, "--n-values", n_values, "--grid-count", "129", *extra)
    if n_values == "4,8,16":
        # only sweep needs valid bridge nodes at every degree; check skips
        # invalid ones, and lemma4 needs none
        assert (code, "minimum n" in err) == ((2, True) if command == "sweep" else (0, False))
        return
    assert code == 2
    assert out == ""
    assert "invalid --n-values" in err


@pytest.mark.parametrize("command", ["modulus", "check"])
@pytest.mark.parametrize("t_values", ["", "0.125,0", "0.5"], ids=["empty", "zero", "too-wide"])
def test_width_contract(capsys, command, t_values):
    extra = ("--f", "square") if command == "modulus" else ("--which", "inverse", "--f", "square")
    code, out, err = run_cli(capsys, command, "--t-values", t_values, "--grid-count", "129", *extra)
    assert code == 2
    assert out == ""
    assert "invalid --t-values" in err


class TestMisc:
    def test_console_script_entry_point(self):
        import os
        import subprocess
        import sys

        import singbern

        # the child finds the package where this process did, installed or not
        src = os.path.dirname(os.path.dirname(singbern.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "singbern.cli", "list-functions"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("name,")

    def test_eval_at_degree_65536_stays_under_60_mib(self, tmp_path):
        # a dense (grid x (n+1)) basis block alone would take 2 GiB here, and
        # the whole (4101 x 2477) band block with its products near 110 MiB;
        # eval streams the band and holds one pass of it
        out = tmp_path / "e.csv"
        rc, peak = run_cli_peak_mib("eval", "--f", "abs_beta_1.0", "--n", "65536", "--out", str(out))
        assert rc == 0
        assert out.read_text().count("\n") == 4102  # header + 4097 + 4 nodes
        assert peak < 60.0, peak

    def test_eval_on_a_grid_of_16385_points_stays_under_60_mib(self, tmp_path):
        # the whole (16389 x 1239) band block at n = 16384 takes 155 MiB
        out = tmp_path / "e.csv"
        rc, peak = run_cli_peak_mib("eval", "--f", "abs_beta_1.0", "--n", "16384", "--grid-count", "16385",
                                    "--out", str(out))
        assert rc == 0
        assert out.read_text().count("\n") == 16390  # header + 16385 + 4 nodes
        assert peak < 60.0, peak

    def test_sweep_to_degree_16384_stays_under_60_mib(self):
        # every degree's (4101 x band) block held in the band cache peaks near
        # 159 MiB; the sweep streams each degree's band once for all members
        rc, peak = run_cli_peak_mib("sweep", "--functions", "all",
                                    "--n-values", "64,128,256,512,1024,2048,4096,8192,16384")
        assert rc == 0
        assert peak < 60.0, peak

    @pytest.mark.parametrize("argv", [("sweep", "--functions", "all"), ("check", "--which", "direct")],
                             ids=["sweep", "check-direct"])
    def test_numpy_ma_is_never_imported(self, argv):
        # its lazy import costs 10-20 ms; np.median and np.unique trigger it
        import os
        import subprocess
        import sys

        import singbern

        code = (
            "import os, sys\n"
            "from singbern.cli import main\n"
            "sys.stdout = open(os.devnull, 'w')\n"
            f"rc = main({list(argv)!r})\n"
            "print(rc, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
        )
        src = os.path.dirname(os.path.dirname(singbern.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split()[-2:] == ["0", "False"], proc.stderr

    def test_window_lemmas_at_degree_65536_stay_under_60_mib(self):
        # lemma5 and lemma6 sum 4097 x 513 window weights at n = 65536; a whole
        # (grid x window) block of them, with its products, peaks near 67 MiB;
        # the window rows are walked and summed a pass at a time
        rc, peak = run_cli_peak_mib("check", "--which", "lemma5,lemma6", "--n-values", "16384,32768,65536")
        assert rc == 0
        assert peak < 60.0, peak

    def test_lemma4_at_degree_65536_stays_under_60_mib(self):
        # a whole (4095 x 2477) band block at n = 65536 takes 77 MiB, and a
        # deviation array and its products beside it as much again; lemma4
        # sums each pass of band rows as it comes
        rc, peak = run_cli_peak_mib("check", "--which", "lemma4", "--n-values", "16384,32768,65536")
        assert rc == 0
        assert peak < 60.0, peak

    def test_window_lemmas_on_a_grid_of_32769_points_stay_under_60_mib(self):
        # a (32769 x 64) block of window weights, with lemma6's products beside
        # it, peaks near 97 MiB; the rows are walked and summed a pass at a time
        rc, peak = run_cli_peak_mib("check", "--which", "lemma5,lemma6", "--grid-count", "32769",
                                    "--n-values", "1024,2048,4096")
        assert rc == 0
        assert peak < 60.0, peak

    def test_eval_on_a_grid_of_65537_points_stays_under_50_mib(self, tmp_path):
        # the block sums of all rows, one list of row dicts and a whole copy
        # of the CSV text peak near 68 MiB; eval writes each row as it formats it
        out = tmp_path / "e.csv"
        rc, peak = run_cli_peak_mib("eval", "--f", "abs_beta_1.0", "--n", "1024", "--grid-count", "65537",
                                    "--out", str(out))
        assert rc == 0
        assert out.read_text().count("\n") == 65542  # header + 65537 + 4 nodes
        assert peak < 50.0, peak

    def test_stacked_members_on_a_grid_of_32769_points_stay_under_48_mib(self):
        # the block sums of all members and rows, held until one join, peak
        # near 57 MiB; they are joined a chunk of rows at a time
        rc, peak = run_cli_peak_mib("check", "--which", "lemma2,direct", "--grid-count", "32769",
                                    "--n-values", "512,1024,2048")
        assert rc == 0
        assert peak < 48.0, peak

    def test_eval_at_degree_one_million_stays_under_58_mib(self):
        # the surrogate's masks and f values over all 10^6 + 1 nodes at once
        # peak near 70 MiB; build_surrogate fills the values a pass at a time
        rc, peak = run_cli_peak_mib("eval", "--f", "abs_beta_1.0", "--n", "1000000")
        assert rc == 0
        assert peak < 58.0, peak

    def test_check_all_to_degree_32768_stays_under_60_mib(self):
        # the bands of three grids at each degree, held whole, peak near
        # 455 MiB; every checker streams its bands, one pass per (degree, grid)
        rc, peak = run_cli_peak_mib("check", "--which", "all", "--n-values", "4096,8192,16384,32768")
        assert rc == 0
        assert peak < 60.0, peak

    def test_check_all_small_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--which", "all", "--n-values", "64,128,256",
            "--t-values", "0.25,0.125,0.0625,0.03125", "--grid-count", "257",
            "--format", "json",
        )
        assert code in (0, 1)
        doc = json.loads(out)
        assert {r["name"] for r in doc["reports"]} == {
            "lemma1", "lemma2", "lemma4", "lemma5", "lemma6", "lemma7",
            "theorem1", "theorem2", "direct", "inverse",
        }

    def test_reports_carry_their_schema_keys(self, capsys):
        from singbern.reporting import SCHEMAS

        _, out, _ = run_cli(capsys, "check", "--which", "all", "--n-values", "64,128,256,512",
                            "--grid-count", "257", "--format", "json")
        schema = SCHEMAS["check"]["json"]
        for r in json.loads(out)["reports"]:
            kind = "rate" if r["name"] in ("direct", "inverse") else "bounded"
            assert set(schema["shared"] + schema[kind]) <= set(r), r["name"]
            assert isinstance(r["passed"], bool), r["name"]

    def test_list_functions(self, capsys):
        code, out, _ = run_cli(capsys, "list-functions")
        assert code == 0
        assert out.startswith("name,")
        names = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert "abs_beta_1.0" in names and "linear" in names

    def test_list_functions_rows_carry_the_lambda(self, capsys):
        code, out, _ = run_cli(capsys, "list-functions", "--lambda", "1", "--format", "json")
        assert code == 0
        assert [row["lambda"] for row in json.loads(out)["functions"]] == [1.0] * 7

    def test_schema_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--schema")
        assert code == 0
        doc = json.loads(out)
        assert doc["eval"]["csv_columns"] == ["x", "f", "bbar", "weighted_error"]

    def test_no_command_exit_2(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--format", "yaml")
        assert code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("check", "--which", "lemma6", "--beta", "-1"), "--beta"),
        (("check", "--which", "lemma6", "--beta", "0"), "--beta"),
        (("check", "--which", "lemma1", "--u", "-1"), "--u"),
        (("check", "--which", "lemma1", "--v", "-0.5"), "--v"),
        (("check", "--which", "lemma4", "--gamma", "-2"), "--gamma"),
        (("check", "--which", "lemma4", "--gamma", "nan"), "--gamma"),
        (("sweep", "--functions", "abs_beta_1.0", "--h-steps", "0"), "--h-steps"),
        (("modulus", "--f", "square", "--h-steps", "-3"), "--h-steps"),
        (("check", "--which", "inverse", "--h-steps", "0"), "--h-steps"),
        (("eval", "--f", "linear", "--n", "64", "--exclusion-radius", "nan"), "--exclusion-radius"),
        (("eval", "--f", "linear", "--n", "64", "--exclusion-radius", "0.6"), "--exclusion-radius"),
        (("check", "--which", "lemma5", "--xi", "0.3", "--exclusion-radius", "0.3"),
         "--exclusion-radius"),
        (("modulus", "--f", "square", "--exclusion-radius", "-0.1"), "--exclusion-radius"),
        (("sweep", "--functions", "abs_beta_1.0", "--format", "csv"), "--format"),
        (("eval", "--f", "linear", "--n", "64", "--format", "yaml"), "--format"),
        (("check", "--which", "lemma1", "--alpha", "inf"), "--alpha"),
    ],
    ids=["beta-negative", "beta-zero", "u-negative", "v-negative", "gamma-negative",
         "gamma-nan", "sweep-h-steps-zero", "modulus-h-steps-negative",
         "check-h-steps-zero", "radius-nan", "radius-past-zero", "radius-at-xi",
         "radius-negative", "sweep-csv", "format-unknown", "alpha-inf"],
)
def test_numeric_flag_contract(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv, "--grid-count", "65")
    assert code == 2
    assert out == ""
    assert f"invalid {flag}" in err


SMALL_SWEEP = ("--n-values", "64,128,256", "--grid-count", "65")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [("lemma6", "--beta", "1e6"), ("lemma4", "--gamma", "1e4"), ("lemma5", "--alpha", "1e5"),
     ("lemma1", "--u", "1e308"), ("lemma1", "--v", "1e308"), ("lemma1", "--u", "400"),
     ("lemma4", "--gamma", "200"), ("lemma4", "--gamma", "1e308"), ("lemma6", "--beta", "400"),
     ("lemma6", "--alpha", "1e308")],
    ids=["beta", "gamma", "alpha", "u", "v", "u-400", "gamma-200", "gamma-1e308", "beta-400", "lemma6-alpha-1e308"],
)
def test_arithmetic_overflow_exits_3(capsys, argv):
    # a power of the exponent overflows ((k/n)^-u in lemma1; at gamma = 200 only
    # |k - nx|^gamma in the moment sums, not the majorant; in lemma6 at alpha =
    # 1e308 the ratio's (n^(1/2) |x - xi|)^alpha, where weight and majorant both
    # underflow): no NaN ratio and no RuntimeWarning, but one error line naming
    # the check and its exponent
    code, out, err = run_cli(capsys, "check", "--which", *argv, *SMALL_SWEEP)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: check {argv[0]}: ") and err.count("\n") == 1
    assert f"{argv[1][2:]} = {float(argv[2])!r}" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, code",
    [(("lemma5", "--alpha", "300", *SMALL_SWEEP), 1), (("lemma4", "--gamma", "100"), 0)],
    ids=["lemma5-alpha-300", "lemma4-gamma-100"],
)
def test_a_power_that_alone_leaves_double_range_returns_a_verdict(capsys, argv, code):
    # lemma5's n^(alpha/2) overflows at n = 128 and 256, and lemma4's phi^gamma
    # underflows at the grid points nearest 0 and 1, though the scaled masses
    # and the ratios are finite: a verdict, not exit 3
    got, out, err = run_cli(capsys, "check", "--which", *argv)
    assert (got, err) == (code, "")
    assert out.count(f"\n{argv[0]},,data,") == (3 if argv[0] == "lemma5" else 7)


@pytest.mark.filterwarnings("error")
def test_lemma6_where_the_majorant_alone_leaves_double_range_returns_a_verdict(capsys):
    # n^((beta - alpha)/2) is subnormal at n = 128 and 0 at 256, and the weight
    # underflows near xi, though the ratios are finite: a verdict, not exit 3
    code, out, err = run_cli(capsys, "check", "--which", "lemma6", "--alpha", "300", *SMALL_SWEEP)
    assert (code, err) == (1, "")
    assert out.count("\nlemma6,,data,") == 3


@pytest.mark.filterwarnings("error")
def test_lemma6_at_beta_100_returns_a_verdict(capsys):
    # |k - nx|^100 overflows on rows far from xi, where the weights are 0
    # and so is every term: the ratios are finite and the trend fails
    code, out, err = run_cli(capsys, "check", "--which", "lemma6", "--beta", "100", "--grid-count", "65")
    assert (code, err) == (1, "")
    assert out.splitlines()[1].startswith("lemma6,,data,64,,1.24617059142108")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, code",
    [(("sweep", "--alpha", "100", "--grid-count", "33"), 1),
     (("sweep", "--alpha", "1e308", "--grid-count", "33"), 0),
     (("check", "--which", "direct", "--alpha", "100", "--grid-count", "33"), 1),
     (("check", "--which", "theorem2", "--alpha", "1e308", "--grid-count", "33"), 0),
     (("check", "--which", "lemma2", "--alpha", "1e308", "--grid-count", "33"), 0),
     (("check", "--which", "lemma7", "--alpha", "1070", "--grid-count", "65", "--n-values", "64,128,256"), 0)],
    ids=["sweep-100", "sweep-1e308", "direct-100", "theorem2-1e308", "lemma2-1e308", "lemma7-1070"],
)
def test_ratios_against_an_underflowed_majorant(capsys, argv, code):
    # the weight |x - xi|^alpha underflows: at alpha = 100 the direct rate
    # factor's power is 0 where the error is 0 too, at 1e308 ||w f|| and every
    # majorant are 0, at 1070 lemma7's curvature norm is subnormal and its
    # majorant 0.  A ratio 0 / 0 is 0 and x / 0 is inf, with no RuntimeWarning
    # and no exit 3
    got, out, err = run_cli(capsys, *argv)
    assert (got, err) == (code, "")
    if argv[0] == "check":
        assert "nan" not in out  # a CSV cell prints a NaN ratio as nan
    else:  # a JSON value prints it as null
        assert all(row["normalized_error"] is not None
                   for r in json.loads(out)["results"] for row in r["direct"]["rows"] if "normalized_error" in row)


def test_theorem2_w2_branch_of_a_member_without_f2_exits_2(capsys):
    # the w2 branch reads only members with a smooth f'', as lemma7 does; it
    # used to print no report and pass
    argv = ("--f", "abs_beta_0.5", "--n-values", "64,128,256", "--grid-count", "65")
    for which in (("lemma7",), ("theorem2", "--branch", "w2")):
        code, out, err = run_cli(capsys, "check", "--which", *which, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: --f abs_beta_0.5: not usable by {' '.join(which)} "
                       "(needs a smooth second derivative)\n")
    assert run_cli(capsys, "check", "--which", "theorem2", "--branch", "both", *argv)[0] == 0


# each option's in-range values, then its edge values: non-finite, huge,
# tiny, zero, negative, unsorted or short lists, unknown names; grids have
# at most 65 points and degrees stay at most 256
_EDGE_NUMBERS = ("1e308", "100", "nan", "inf", "-inf", "0", "-1", "1e-300")
_FUZZ_OPTIONS = {
    "xi": (("0.5", "0.37", "0.7"), ("nan", "inf", "0", "1", "-1", "1e-300", "1e308")),
    "alpha": (("0.5", "1", "2"), _EDGE_NUMBERS),
    "lambda": (("0", "0.5", "1"), ("nan", "inf", "-1", "2", "1e-300")),
    "grid-count": (("3", "5", "33", "65"), ("2", "0", "-1", "nan", "1e308", "x")),
    "grid-placement": (("uniform", "chebyshev"), ("random",)),
    "exclusion-radius": (("0", "0.1"), ("0.49", "nan", "inf", "-1", "1e-300", "1e308")),
    "format": (("csv", "json"), ("yaml",)),
    "f": (("linear", "square", "abs_beta_0.5", "abs_beta_1.0", "all"), ("nope", "")),
    "n": (("64", "256", "1", "2"), ("0", "-1", "nan", "1e308", "x")),
    "n-values": (("64,128,256", "50,100,200"),
                 ("256,128,64", "64,64,128", "64,128", "", "1,2,3", "0,1,2", "-64,128,256", "64,nan,256",
                  "1e308,2e308,3e308")),
    "t-values": (("0.25,0.125,0.0625", "0.0625,0.25,0.125", "0.1,0.1,0.1"),
                 ("0.25", "", "0", "-0.1", "nan", "inf", "0.5", "1e-308")),
    "h-steps": (("1", "4", "32"), ("0", "-3", "nan", "1e308")),
    "which": (("all", "lemma1", "lemma2,lemma4", "lemma5,lemma6", "lemma7", "theorem1", "theorem2", "direct",
               "inverse"), ("nope", "lemma1,nope", "")),
    "beta": (("0.5", "2"), _EDGE_NUMBERS),
    "gamma": (("0.5", "2"), _EDGE_NUMBERS),
    "u": (("0.5", "2"), _EDGE_NUMBERS),
    "v": (("0.5", "2"), _EDGE_NUMBERS),
    "branch": (("cw", "w2", "both"), ("neither",)),
    "functions": (("all", "abs_beta_1.0", "abs_beta_0.5,abs_beta_1.0", "linear"), ("square", "nope", "")),
}
_COMMON = ("xi", "alpha", "lambda", "format", "grid-count", "grid-placement", "exclusion-radius")
_FUZZ_COMMANDS = {
    "eval": ("n", "f", *_COMMON),
    "modulus": ("f", "t-values", "h-steps", *_COMMON),
    "check": ("n-values", "which", "f", "t-values", "h-steps", "beta", "gamma", "u", "v", "branch", *_COMMON),
    "sweep": ("n-values", "functions", "t-values", "h-steps", *_COMMON),
    "list-functions": ("xi", "alpha", "lambda", "format"),
}
# always given: they bound the size of a run, or name what it runs
_FUZZ_ALWAYS = ("grid-count", "n", "n-values", "f")


@st.composite
def _fuzz_argv(draw):
    """A command with each flag absent or in range, and up to two flags at edge values."""
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    flags = _FUZZ_COMMANDS[command]
    odd = draw(st.lists(st.sampled_from(flags), max_size=2, unique=True))
    argv = [command]
    for flag in flags:
        if flag in _FUZZ_ALWAYS or flag in odd or draw(st.booleans()):
            argv.append(f"--{flag}={draw(st.sampled_from(_FUZZ_OPTIONS[flag][flag in odd]))}")
    return argv


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_fuzz_argv())
def test_every_command_exits_with_a_documented_code_on_edge_values(argv):
    # wall budget 10 s on a 2-vCPU VM (4 s measured): most examples exit 2 at
    # once, and a run that gets through parsing checks at most three degrees
    # up to 256 on at most 65 points
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in seen if issubclass(w.category, RuntimeWarning)] == []


_FLAG_VALUES = {
    "u": st.floats(0.0, 1e6),
    "v": st.floats(0.0, 1e6),
    "gamma": st.floats(0.0, 1e6),
    "beta": st.floats(0.0, 1e6),
    "alpha": st.floats(0.0, 1e5, exclude_min=True),
    "xi": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
}
# at most one flag per run takes a non-finite, negative or zero value
_ODD_FLAG = st.none() | st.tuples(
    st.sampled_from(sorted(_FLAG_VALUES)),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -1e-300, 0.0]),
)


def _outside_readme_range(flag, value):
    """The README's input rules: 0 < xi < 1, finite alpha > 0, finite moment
    exponents with --beta > 0 and --u, --v, --gamma >= 0."""
    if flag == "xi":
        return not 0.0 < value < 1.0
    return not math.isfinite(value) or (value <= 0.0 if flag in ("alpha", "beta") else value < 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=25, deadline=None)
@given(st.fixed_dictionaries(_FLAG_VALUES), _ODD_FLAG)
def test_exit_code_contract(values, odd):
    if odd is not None:
        values[odd[0]] = odd[1]
    argv = ["check", "--which", "lemma1,lemma4,lemma5,lemma6", *SMALL_SWEEP]
    argv += [f"--{flag}={value!r}" for flag, value in values.items()]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if any(_outside_readme_range(flag, value) for flag, value in values.items()):
        assert code == 2
    else:
        assert code in (0, 1, 3)


def _empty_grid(count, placement, xi, r):
    """No grid point inside (0, 1) is at least r from xi."""
    j = np.arange(1, count - 1)
    xs = j / (count - 1) if placement == "uniform" else (1.0 - np.cos(np.pi * j / (count - 1))) / 2.0
    return not np.any((xs <= xi - r) | (xs >= xi + r))


# n <= 256 everywhere; xi in [0.3, 0.7] gives valid bridge nodes at n = 64,
# so sweep's node rule is met and exit 2 comes only from the drawn values
_CONTRACT_RUNS = {
    "eval": ("eval", "--f", "abs_beta_0.5", "--n", "256"),
    "modulus": ("modulus", "--f", "abs_beta_0.5"),
    "check": ("check", "--which", "all", "--n-values", "64,128,256"),
    "sweep": ("sweep", "--functions", "all", "--n-values", "64,128,256"),
}
_WIDTHS = (0.25, 0.125, 0.1, 0.0625, 0.03125, 1e-4)
_ODD_VALUE = st.none() | st.sampled_from(
    [("grid-count", "1"), ("exclusion-radius", "-0.01"), ("exclusion-radius", "side"),
     ("xi", "1"), ("alpha", "0"), ("alpha", "nan")]
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(sorted(_CONTRACT_RUNS)),
    xi=st.floats(0.3, 0.7),
    alpha=st.floats(0.01, 2.0),
    count=st.integers(2, 65),
    placement=st.sampled_from(["chebyshev", "uniform"]),
    radius_share=st.floats(0.0, 1.0, exclude_max=True),
    widths=st.lists(st.sampled_from(_WIDTHS), min_size=1, max_size=4),
    odd=_ODD_VALUE,
)
def test_exit_code_contract_per_command(command, xi, alpha, count, placement, radius_share, widths, odd):
    """main() returns for any drawn run, and exits 2 exactly for a value
    outside the README ranges or an empty grid."""
    side = min(xi, 1.0 - xi)
    values = {"xi": repr(xi), "alpha": repr(alpha), "grid-count": str(count),
              "grid-placement": placement, "exclusion-radius": repr(radius_share * side)}
    if command != "eval":
        values["t-values"] = ",".join(map(repr, widths))
    if odd is not None:
        values[odd[0]] = repr(side) if odd[1] == "side" else odd[1]
    argv = [*_CONTRACT_RUNS[command], *(f"--{k}={v}" for k, v in values.items())]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if odd is not None or _empty_grid(count, placement, xi, radius_share * side):
        assert code == 2
    else:
        assert code in (0, 1, 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("check", "--which", "lemma1", "--grid-count", "2", "--n-values", "64,128,256"),
         2, "empty grid"),
        (("check", "--which", "lemma6", "--grid-count", "3", "--exclusion-radius", "0.01",
          "--n-values", "64,128,256"), 2, "empty grid"),
        (("sweep", "--functions", "abs_beta_0.5", "--grid-count", "2", "--exclusion-radius", "0.2",
          "--alpha", "0.01", "--n-values", "32,100,128,256"), 2, "empty grid"),
        (("eval", "--f", "square", "--n", "64", "--grid-count", "2"), 2, "empty grid"),
        (("modulus", "--f", "square", "--grid-count", "2"), 2, "empty grid"),
        (("check", "--which", "inverse", "--f", "abs_beta_1.0", "--t-values", "0.0625,0.25",
          "--grid-count", "65"), 3, "too few positive modulus values"),
        (("check", "--which", "inverse", "--f", "abs_beta_1.0", "--t-values", "0.1,0.1,0.1",
          "--grid-count", "65"), 3, "too few positive modulus values"),
        (("check", "--which", "direct", "--f", "abs_beta_1.0", "--xi", "0.37", "--alpha", "1",
          "--grid-count", "5", "--grid-placement", "uniform", "--exclusion-radius", "0.36963",
          "--n-values", "64,100,256"), 3, "weighted error 0 on the grid at n=[256]"),
        (("check", "--which", "direct", "--f", "abs_beta_1.0", "--xi", "0.4116532216984568",
          "--alpha", "0.5", "--grid-count", "19", "--grid-placement", "uniform",
          "--exclusion-radius", "0.41124156847675836", "--n-values", "20,32,128,200"),
         3, "weighted error 0 on the grid at n=[128, 200]"),
    ],
    ids=["lemma1-two-points", "lemma6-excluded-centre", "sweep-two-points", "eval-two-points",
         "modulus-two-points", "inverse-two-widths", "inverse-repeated-width", "direct-zero-error",
         "direct-rounding-error"],
)
def test_failures_exit_with_their_typed_error(capsys, argv, code, message):
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_other_exceptions_surface_with_their_traceback(monkeypatch):
    import singbern.cli as cli

    def defect(args):
        raise ValueError("a defect, not a verdict")

    monkeypatch.setitem(cli._COMMANDS, "eval", defect)
    with pytest.raises(ValueError, match="a defect"):
        main(["eval", "--f", "square", "--n", "64"])


def test_check_passes_h_steps_to_the_inverse_check(capsys):
    argv = ("check", "--which", "inverse", "--f", "abs_beta_1.0", "--grid-count", "65",
            "--format", "json")
    reports = []
    for extra in ((), ("--h-steps", "32"), ("--h-steps", "8")):
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code in (0, 1)
        reports.append(json.loads(out)["reports"][0])
    assert [r["params"]["h_steps"] for r in reports] == [32, 32, 8]
    assert reports[0]["rows"] == reports[1]["rows"]
    assert reports[2]["rows"] != reports[0]["rows"]


def test_sweep_passes_h_steps_to_the_inverse_check(capsys):
    argv = ("sweep", "--functions", "abs_beta_1.0", "--n-values", "64,128,256",
            "--grid-count", "65")
    reports = []
    for extra in ((), ("--h-steps", "32"), ("--h-steps", "8")):
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code in (0, 1)
        reports.append(json.loads(out)["results"][0]["inverse"])
    assert [r["params"]["h_steps"] for r in reports] == [32, 32, 8]
    assert reports[0]["rows"] == reports[1]["rows"]
    assert reports[2]["rows"] != reports[0]["rows"]


def test_config_format_is_checked(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = xml\n")
    code, out, err = run_cli(capsys, "list-functions", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "invalid --format" in err


def test_too_few_usable_degrees_exit_3(capsys):
    # only 64 and 128 have valid bridge nodes at xi = 0.5
    code, out, err = run_cli(capsys, "check", "--which", "lemma2", "--f", "square",
                             "--n-values", "4,8,16,64,128", "--grid-count", "65")
    assert (code, out) == (3, "")
    assert "need n >= 20" in err


@pytest.mark.parametrize("xi", ["1e-10", "1e-160"])
@pytest.mark.parametrize("argv", [("eval", "--f", "linear", "--n", "64"), ("check", "--which", "lemma5")],
                         ids=["eval", "check-lemma5"])
def test_tiny_xi_exits_3_quickly(capsys, argv, xi):
    import time

    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--xi", xi, "--grid-count", "65")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "2**53" in err


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "list-functions", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write --out ") and err.count("\n") == 1
    assert not target.exists()


# per command: the options every run sets, and the value each option is
# tested with; each tested value changes the output of the base run, except
# where the output does not show the option (x^2 has a constant second
# difference, so its weighted modulus peaks near 0 and 1, far from the
# exclusion radius around xi)
_NOT_SHOWN = {("eval", "lambda"), ("list-functions", "xi"), ("sweep", "format"),
              ("modulus", "exclusion-radius")}
_BASE_ARGS = {
    "eval": {"f": "square", "n": "64", "grid-count": "33"},
    "modulus": {"f": "square", "t-values": "0.01", "grid-count": "33"},
    "check": {"which": "lemma1,lemma2,lemma4,lemma6,theorem2,inverse", "f": "linear",
              "n-values": "64,128,256", "t-values": "0.25,0.125", "grid-count": "33"},
    "sweep": {"functions": "abs_beta_1.0", "n-values": "64,128,256", "grid-count": "33"},
    "list-functions": {},
}
_OPTION_VALUES = {
    "xi": "0.4", "alpha": "1", "lambda": "0.5", "out": None, "format": "json",
    "grid-count": "17", "grid-placement": "uniform", "exclusion-radius": "0.1",
    "f": "cubic", "n": "128", "t-values": "0.0625", "h-steps": "2", "which": "lemma4",
    "n-values": "32,64,128", "beta": "1.5", "gamma": "1", "u": "0.5", "v": "0.5",
    "branch": "cw", "functions": "abs_beta_0.5",
}


def _config_cases():
    from singbern.cli import _build_parser

    _, config_keys = _build_parser()
    assert set(config_keys) == set(_BASE_ARGS)
    return [(command, key) for command, keys in sorted(config_keys.items())
            for key in sorted(keys)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, key", _config_cases())
def test_config_value_acts_as_its_flag(capsys, tmp_path, command, key):
    """Setting an option by flag and by config file gives the same result."""
    assert key in _OPTION_VALUES
    value = _OPTION_VALUES[key] or str(tmp_path / "out.txt")
    base = [f"--{k}={v}" for k, v in _BASE_ARGS[command].items() if k != key]

    def result(*argv):
        code, out, _ = run_cli(capsys, command, *base, *argv)
        written = tmp_path / "out.txt"
        if written.exists():
            out = "written: " + written.read_text()
            written.unlink()
        return code, "\n".join(line for line in out.splitlines() if '"timestamp"' not in line)

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    by_flag = result(f"--{key}={value}")
    assert result("--config", str(cfg)) == by_flag
    if (command, key) not in _NOT_SHOWN:
        assert result() != by_flag


README_CFG = """# run.cfg
xi = 0.5
alpha = 0.5
n-values = 64,128,256,512,1024,2048,4096
grid-count = 4097
"""


def test_readme_config_works_with_eval(capsys, tmp_path):
    # n-values is a sweep/check option: eval skips it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(README_CFG)
    argv = ("eval", "--f", "square", "--n", "64")
    code, out, _ = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 0
    assert (code, out) == run_cli(capsys, *argv, "--xi", "0.5", "--alpha", "0.5",
                                  "--grid-count", "4097")[:2]


def test_config_key_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("config = x\n")
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg), "--f", "square", "--n", "64")
    assert (code, out) == (2, "")
    assert "unknown key 'config'" in err


def test_config_value_is_checked_like_its_flag(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-values = -1,64,128\n")
    code, out, err = run_cli(capsys, "check", "--config", str(cfg), "--which", "lemma4")
    assert (code, out) == (2, "")
    assert "invalid --n-values" in err


def test_schema_before_command(capsys):
    code, out, _ = run_cli(capsys, "--schema", "eval")
    assert code == 0
    assert json.loads(out)["eval"]["csv_columns"] == ["x", "f", "bbar", "weighted_error"]
