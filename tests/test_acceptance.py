"""Acceptance gate: one test per criterion, with its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Budgets are wall-clock and asserted where stated.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from singbern.bridge import compute_nodes
from singbern.experiments import (
    DEFAULT_N_VALUES,
    DEFAULT_T_VALUES,
    DEFAULT_WEIGHT,
    check_inverse,
    check_lemma2,
    check_lemma5,
    check_lemma6,
    check_lemma7,
    check_theorem1,
    check_theorem2,
    run_function_sweep,
    w2_members,
)
from singbern.basis import band_start, basis_matrix, ksum
from singbern.operators import (
    bbar_apply,
    bbar_second_derivative,
    build_surrogate,
)
from singbern.weight import (
    GridSpec,
    SingularWeight,
    corpus,
    corpus_member,
    grid_points,
)

W1 = SingularWeight(xi=0.5, alpha=1.0)
GRID = GridSpec()  # 4097 Chebyshev points


@contextmanager
def criterion(num, desc):
    t0 = time.time()
    box = {}
    try:
        yield box
    except Exception:
        print(f"\nFAIL criterion {num}: {desc} [{time.time() - t0:.1f}s]")
        raise
    print(f"\nPASS criterion {num}: {desc} [{time.time() - t0:.1f}s]")
    budget = box.get("budget")
    if budget is not None:
        assert time.time() - t0 < budget, f"criterion {num} exceeded {budget}s budget"


@pytest.fixture(scope="module")
def rate_sweeps():
    """Shared full-rate pipeline runs for criteria 7-9."""
    out = {}
    for tf in corpus(DEFAULT_WEIGHT):
        if tf.expected_alpha0 is None:
            continue
        out[tf.name] = run_function_sweep(
            tf, DEFAULT_WEIGHT, 0.0, DEFAULT_N_VALUES, DEFAULT_T_VALUES, GRID
        )
    return out


def test_criterion_01_linear_reproduction():
    with criterion(1, "linear functions reproduced to 1e-10 across the sweep") as box:
        box["budget"] = 5.0
        f = corpus_member("linear", W1)
        g = GridSpec(count=2049)
        worst = 0.0
        for n in DEFAULT_N_VALUES:
            nd = compute_nodes(n, W1.xi)
            xs = grid_points(g, W1.xi, extra=(nd.x1, nd.x2, nd.x3, nd.x4))
            worst = max(worst, float(np.max(np.abs(bbar_apply(f, n, W1, xs) - f(xs)))))
        assert worst <= 1e-10, worst


def test_criterion_02_basis_identities():
    with criterion(2, "partition of unity, first moment, second central moment") as box:
        box["budget"] = 30.0
        xs = np.linspace(0.0, 1.0, 1000)
        tiny = 1e-300
        for n in (1, 2, 3, 4, 8, 16, 64, 256, 1024, 4096):
            B = basis_matrix(n, xs)
            k = (band_start(n, xs)[:, None] + np.arange(B.shape[1])).astype(float)
            ones = ksum(B, axis=1)
            assert np.max(np.abs(ones - 1.0)) <= 1e-10
            first = ksum(B * (k / n), axis=1)
            assert np.all(np.abs(first - xs) <= 1e-10 * np.maximum(np.abs(xs), tiny))
            second = ksum(B * (k - n * xs[:, None]) ** 2, axis=1)
            expected = n * xs * (1.0 - xs)
            assert np.all(np.abs(second - expected) <= 1e-10 * np.maximum(expected, tiny))


def test_criterion_03_surrogate_structure():
    with criterion(3, "chord-zone blindness and C2 junctions of the surrogate") as box:
        box["budget"] = 5.0
        n = 512
        nd = compute_nodes(n, W1.xi)
        base = corpus_member("abs_beta_1.0", W1)

        def bumped(x):
            x = np.asarray(x, dtype=float)
            inside = (x > nd.x2) & (x < nd.x3)
            return base(x) + np.where(inside, 321.0, 0.0)

        a = build_surrogate(base, n, W1)
        b = build_surrogate(bumped, n, W1)
        np.testing.assert_array_equal(a.values, b.values)

        from test_bridge import TestSurrogate

        nd = compute_nodes(256, W1.xi)
        for f in (lambda x: np.asarray(x) ** 2, lambda x: np.asarray(x) ** 3):
            for xj in (nd.x1, nd.x2, nd.x3, nd.x4):
                jump = TestSurrogate.second_derivative_jump(f, nd, xj)
                assert jump <= 1e-4, (xj, jump)


def test_criterion_04_second_derivative_identity():
    with criterion(4, "difference identity matches the finite-difference oracle") as box:
        box["budget"] = 10.0
        n, h = 256, 1e-4
        xs = np.linspace(0.05, 0.95, 100)
        for name in ("square", "cubic", "abs_beta_1.0"):
            f = corpus_member(name, W1)
            coeffs = build_surrogate(f, n, W1)
            exact = bbar_second_derivative(coeffs, xs)
            fd = (
                bbar_apply(f, n, W1, xs + h)
                - 2.0 * bbar_apply(f, n, W1, xs)
                + bbar_apply(f, n, W1, xs - h)
            ) / (h * h)
            # relative 1e-4, with the scale floored at the sup of the
            # second derivative: pointwise relative error is unbounded for
            # any scheme near the polynomial's isolated zeros
            scale = np.maximum(np.abs(exact), np.max(np.abs(exact)))
            assert np.all(np.abs(fd - exact) <= 1e-4 * scale), name


def test_criterion_05_near_singularity_mass_scaling():
    with criterion(5, "weighted basis mass near xi scales like n^(-alpha/2)") as box:
        box["budget"] = 60.0
        for alpha in (0.5, 1.0, 2.0):
            rep = check_lemma5(SingularWeight(0.5, alpha), DEFAULT_N_VALUES, GRID)
            assert rep["passed"], (alpha, rep["slope"], rep["spread"])
            assert -0.3 <= rep["slope"] <= 0.15
            scaled = [row["scaled"] for row in rep["rows"]]
            assert max(scaled) <= 2.5 * float(np.median(scaled))


def test_criterion_06_bounded_ratio_checks():
    with criterion(6, "stability, second-derivative, and chord-defect bounds") as box:
        box["budget"] = 600.0
        members = corpus(DEFAULT_WEIGHT)
        smooth = w2_members(members)
        failures = []
        for tf in members:
            if not check_lemma2(tf, DEFAULT_WEIGHT, DEFAULT_N_VALUES, GRID)["passed"]:
                failures.append(("lemma2", tf.name))
            if not check_theorem1(tf, DEFAULT_WEIGHT, DEFAULT_N_VALUES, GRID)["passed"]:
                failures.append(("theorem1", tf.name))
        for beta in (1.0, 2.0):
            if not check_lemma6(DEFAULT_WEIGHT, beta, DEFAULT_N_VALUES, GRID)["passed"]:
                failures.append(("lemma6", beta))
        for tf in smooth:
            if not check_lemma7(tf, DEFAULT_WEIGHT, 0.0, DEFAULT_N_VALUES, GRID)["passed"]:
                failures.append(("lemma7", tf.name))
        for lam in (0.0, 0.5, 1.0):
            for tf in members:
                if not check_theorem2(tf, DEFAULT_WEIGHT, lam, "cw", DEFAULT_N_VALUES, GRID)["passed"]:
                    failures.append(("theorem2-cw", lam, tf.name))
            for tf in smooth:
                if not check_theorem2(tf, DEFAULT_WEIGHT, lam, "w2", DEFAULT_N_VALUES, GRID)["passed"]:
                    failures.append(("theorem2-w2", lam, tf.name))
        assert not failures, failures


def test_criterion_07_direct_rate(rate_sweeps):
    with criterion(7, "direct rates match the closed-form targets beta + alpha"):
        for name, sweep in rate_sweeps.items():
            direct = sweep["direct"]
            assert direct["passed"], (name, direct["fitted_alpha0"], direct["target"])
            assert abs(direct["fitted_alpha0"] - direct["target"]) <= direct["tolerance"]
            assert direct["bounded"]["passed"], name


def test_criterion_08_inverse_rate(rate_sweeps):
    with criterion(8, "modulus decay reaches the rate targets; x^2 slope is 2"):
        for name, sweep in rate_sweeps.items():
            inverse = sweep["inverse"]
            target = inverse["target"]
            assert inverse["omega_slope"] >= target - 0.15, (name, inverse["omega_slope"])
            assert inverse["mainpart_slope"] >= target - 0.15, (name, inverse["mainpart_slope"])
            assert inverse["passed"], name
        f = corpus_member("square", DEFAULT_WEIGHT)
        ts = [2.0**-j for j in range(3, 9)]
        rep = check_inverse(f, DEFAULT_WEIGHT, 0.0, ts, GRID)
        assert abs(rep["omega_slope"] - 2.0) <= 0.1
        assert abs(rep["mainpart_slope"] - 2.0) <= 0.1


def test_criterion_09_rate_equivalence(rate_sweeps):
    with criterion(9, "direct and inverse exponents agree within 0.2"):
        for name, sweep in rate_sweeps.items():
            assert sweep["consistency_delta"] <= 0.2, (name, sweep["consistency_delta"])
            assert sweep["passed"], name


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "repeated sweep runs emit identical reports"):
        from singbern.cli import main

        args = [
            "sweep", "--functions", "abs_beta_0.5,abs_beta_1.0",
            "--n-values", "64,128,256,512", "--grid-count", "1025",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0

        def strip_timestamp(path):
            return "\n".join(
                line for line in path.read_text().splitlines() if '"timestamp"' not in line
            )

        assert strip_timestamp(out1) == strip_timestamp(out2)
        assert out1.read_text() != ""
