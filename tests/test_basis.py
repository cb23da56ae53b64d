"""Tests for numerically stable Bernstein basis evaluation and moment sums."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singbern.basis import (
    _PASS_ENTRIES,
    _bd0,
    _workspace,
    band_start,
    basis_matrix,
    basis_values,
    block_sum,
    ksum,
)
from singbern.weight import GridSpec, grid_points

# High-precision reference values, frozen from an arbitrary-precision run:
#   mpmath.mp.dps = 40
#   mpmath.binomial(n, k) * mpmath.mpf(x)**k * (1 - mpmath.mpf(x))**(n - k)
ORACLE = {
    (1000, 500, 0.5): 0.02522501817836080190684,
    (1000000, 500000, 0.5): 0.0007978843613317500890872,
    (50, 17, 0.3): 0.09831444254630474035487,
}


def basis_row(n, x):
    """All n+1 basis weights at one x."""
    return basis_values(n, x, np.arange(n + 1))


def basis_row_recurrence(n, x):
    """Degree-raising recurrence row, independent of the log-space path.

    b(m, k) = (1-x) b(m-1, k) + x b(m-1, k-1), starting from b(0, 0) = 1.
    All terms are non-negative convex combinations, so the recurrence is
    forward stable.
    """
    row = np.zeros(n + 1)
    row[0] = 1.0
    for m in range(1, n + 1):
        row[1:m + 1] = (1.0 - x) * row[1:m + 1] + x * row[0:m]
        row[0] *= 1.0 - x
    return row


def bd0_adaptive(a, m, mlo=0.0):
    """Deviance term a*log(a/m) + m - a, its series summed until no entry moves.

    The earlier form of the deviance kernel: it tests every entry for
    convergence after each term.  Oracle for the fixed term count.
    """
    a, m = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(m, dtype=float))
    d = a - m
    out = np.empty(a.shape)
    near = np.abs(d) < 0.25 * (a + m)
    far = ~near
    if far.any():
        af = a[far]
        mf = m[far]
        with np.errstate(over="ignore"):
            out[far] = af * np.log(af / mf) + mf - af
    if near.any():
        an = a[near]
        dn = d[near]
        v = dn / (an + m[near])
        s = dn * v
        ej = 2.0 * an * v
        v2 = v * v
        for j in range(1, 1000):
            ej = ej * v2
            s_new = s + ej / (2 * j + 1)
            if np.all(s_new == s):
                s = s_new
                break
            s = s_new
        out[near] = s
    if np.any(mlo):
        out -= (np.asarray(mlo) / m) * d
    return out


def central_moment_sum(n, x, gamma):
    """Direct summation of sum_k b(n, k, x) |k - nx|^gamma over the full row, gamma >= 0."""
    row = basis_row(n, x)
    dev = np.abs(np.arange(n + 1) - n * x) ** gamma
    return math.fsum(row * dev)


def inverse_moment_sum(n, x, u, v):
    """Direct summation of sum_{k=1}^{n-1} (k/n)^-u (1-k/n)^-v b(n, k, x) over the full row.

    For n >= 2, 0 < x < 1 and u, v >= 0.
    """
    k = np.arange(1, n, dtype=float)
    row = basis_row(n, x)[1:n]
    terms = (k / n) ** (-u) * ((n - k) / n) ** (-v) * row
    return math.fsum(terms)


def brute_row(n, x):
    """Exact-binomial brute force row, independent of the log-space path."""
    return np.array([math.comb(n, k) * x**k * (1 - x) ** (n - k) for k in range(n + 1)])


class TestBasisEval:
    def test_trivial_values(self):
        assert basis_values(2, 0.5, 1) == pytest.approx(0.5, rel=1e-14)
        assert basis_values(4, 0.5, 2) == pytest.approx(0.375, rel=1e-14)

    def test_against_high_precision_oracle(self):
        for (n, k, x), expected in ORACLE.items():
            assert basis_values(n, x, k) == pytest.approx(expected, rel=1e-12)

    def test_endpoint_degeneracy_exact(self):
        assert basis_values(7, 0.0, 0) == 1.0
        assert basis_values(7, 0.0, 3) == 0.0
        assert basis_values(7, 1.0, 7) == 1.0
        assert basis_values(7, 1.0, 4) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            basis_values(5, -0.1, 2)
        with pytest.raises(ValueError):
            basis_values(5, 1.1, 2)
        with pytest.raises(ValueError):
            basis_values(5, 0.5, 6)
        with pytest.raises(ValueError):
            basis_values(5, 0.5, -1)
        with pytest.raises(ValueError):
            basis_values(0, 0.5, 0)

    @given(
        n=st.integers(min_value=1, max_value=400),
        kk=st.integers(min_value=0, max_value=400),
        x=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_in_unit_interval(self, n, kk, x):
        p = basis_values(n, x, kk % (n + 1))
        assert 0.0 <= p <= 1.0

    @given(
        n=st.integers(min_value=1, max_value=256),
        kk=st.integers(min_value=0, max_value=256),
        j=st.integers(min_value=0, max_value=1024),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, n, kk, j):
        # dyadic x so that 1 - x is exact
        k = kk % (n + 1)
        x = j / 1024.0
        a = basis_values(n, x, k)
        b = basis_values(n, 1.0 - x, n - k)
        if max(a, b) < 1e-100:
            # below this scale the relative error floor |log p| * eps
            # exceeds the stated tolerance; agreement is absolute
            assert abs(a - b) < 1e-100
        else:
            assert a == pytest.approx(b, rel=1e-13)


class TestBasisRow:
    def test_trivial_rows(self):
        np.testing.assert_allclose(basis_row(2, 0.5), [0.25, 0.5, 0.25], rtol=1e-14)
        np.testing.assert_array_equal(basis_row(5, 0.0), [1, 0, 0, 0, 0, 0])
        assert abs(math.fsum(basis_row(50, 0.3)) - 1.0) <= 1e-12

    def test_matches_brute_force(self):
        for n in (1, 2, 7, 24, 60):
            for x in (0.12, 0.5, 0.93):
                np.testing.assert_allclose(basis_row(n, x), brute_row(n, x), rtol=5e-13)

    def test_partition_of_unity_across_degrees(self):
        xs = np.linspace(0.0, 1.0, 1000)
        for n in (1, 2, 3, 16, 137, 1024, 2048):
            B = basis_matrix(n, xs)
            np.testing.assert_allclose(ksum(B, axis=1), 1.0, atol=1e-12)

    def test_first_moment_identity(self):
        xs = np.linspace(0.0, 1.0, 101)
        for n in (2, 64, 1024):
            B = basis_matrix(n, xs)
            k = band_start(n, xs)[:, None] + np.arange(B.shape[1])
            moments = ksum(B * (k / n), axis=1)
            np.testing.assert_allclose(moments, xs, atol=1e-12)

    def test_matrix_matches_row(self):
        xs = np.array([0.0, 0.1, 0.5, 0.97, 1.0])
        B = basis_matrix(33, xs)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(B[i], basis_row(33, x), rtol=1e-13, atol=0)

    def test_log_space_agrees_with_recurrence(self):
        for n in (16, 128, 1024, 4096):
            for x in (0.001, 0.3, 0.5, 0.77):
                a = basis_row(n, x)
                b = basis_row_recurrence(n, x)
                mask = np.maximum(a, b) > 1e-250
                np.testing.assert_allclose(a[mask], b[mask], rtol=1e-12)

    @given(n=st.integers(min_value=1, max_value=300), x=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_rows_sum_to_one(self, n, x):
        row = basis_row(n, x)
        assert abs(math.fsum(row) - 1.0) <= 1e-12
        assert row.min() >= 0.0


class TestDeviance:
    @given(
        cases=st.lists(
            st.tuples(
                st.floats(min_value=1e-6, max_value=1e7),
                st.floats(min_value=-0.2499, max_value=0.2499),
                st.floats(min_value=-1e-16, max_value=1e-16),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_fixed_term_count_matches_adaptive_loop(self, cases):
        # a, m with (a - m)/(a + m) = v, |v| < 1/4: every entry takes the series
        a = np.array([c[0] for c in cases])
        v = np.array([c[1] for c in cases])
        m = a * (1.0 - v) / (1.0 + v)
        mlo = np.array([c[2] for c in cases]) * m
        assert np.all(np.abs(a - m) < 0.25 * (a + m))
        for lo in (0.0, mlo):
            np.testing.assert_array_equal(_bd0(a, m, lo, _workspace(5, a.size)), bd0_adaptive(a, m, lo))
            for i in range(a.size):
                assert _bd0(a[i:i + 1], m[i:i + 1], 0.0, _workspace(5, 1)) == bd0_adaptive(a[i:i + 1], m[i:i + 1])

    def test_integer_counts_match_adaptive_loop(self):
        # the shapes the basis uses: integer k against n x at n = 4096
        n = 4096
        x = np.linspace(0.001, 0.999, 97)[:, None]
        k = np.arange(1, n, dtype=float)[None, :]
        np.testing.assert_array_equal(_bd0(k, n * x, 0.0, _workspace(5, x.size, k.size)), bd0_adaptive(k, n * x))


def test_basis_values_against_live_mpmath():
    # 400 seeded cases, n up to 1e6, k within 12 standard deviations of n x,
    # compared at 50 digits with the double x taken exactly
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1007)
    worst, count = 0.0, 0
    with mpmath.workdps(50):
        while count < 400:
            n = int(10.0 ** rng.uniform(0.0, 6.0))
            x = float(10.0 ** rng.uniform(-7.0, 0.0) if rng.random() < 0.3 else rng.random())
            if rng.random() < 0.5:
                x = 1.0 - x
            sd = math.sqrt(n * x * (1.0 - x))
            k = int(min(n, max(0, round(n * x + rng.uniform(-12.0, 12.0) * sd))))
            exact = mpmath.binomial(n, k) * mpmath.mpf(x) ** k * (1 - mpmath.mpf(x)) ** (n - k)
            if exact < mpmath.mpf("1e-290"):
                continue
            got = float(basis_values(n, x, k))
            worst = max(worst, float(abs(got - exact) / exact))
            count += 1
    assert worst <= 1e-12, worst


@pytest.mark.parametrize("n", [3, 33, 1024])
def test_basis_values_where_n_times_1_minus_x_is_below_an_ulp_of_n(n):
    # at x = 1 - 2^-53 the pair n(1 - x) = hi + lo has |lo| near hi / 2
    # unless it is renormalised; b(33, 32) read 4.38e-15 against 3.66e-15
    mpmath = pytest.importorskip("mpmath")
    x = 1.0 - 2.0 ** -53
    k = np.arange(max(0, n - 20), n + 1)
    got = basis_values(n, x, k)
    with mpmath.workdps(50):
        exact = [mpmath.binomial(n, int(j)) * mpmath.mpf(x) ** int(j) * (1 - mpmath.mpf(x)) ** (n - int(j)) for j in k]
        kept = [i for i, e in enumerate(exact) if e >= mpmath.mpf("1e-290")]
        worst = max(float(abs(got[i] - exact[i]) / exact[i]) for i in kept)
    assert len(kept) >= 3 and worst <= 1e-12, worst


BAND_POINTS = (0.0, 1e-9, 1e-4, 0.5, 1.0 - 1e-9, 1.0)


def _hoeffding_radius(n):
    return math.ceil(math.sqrt(n * math.log(2.0 / 1e-20) / 2.0))


def assert_within_band_bound(got, want):
    """The band's stated accuracy: 1e-12 relative where ``want`` >= 1e-250, 1e-250 absolute below."""
    big = want >= 1e-250
    np.testing.assert_allclose(got[big], want[big], rtol=1e-12, atol=0.0)
    assert np.all(np.abs(got[~big] - want[~big]) <= 1e-250)


def kept_entries(n, xs, k):
    """The band entries within Bernstein's radius of n x, recomputed: the only ones that may be nonzero.

    All of the band when the band is the whole row.
    """
    w = _hoeffding_radius(n)
    if 2 * w >= n:
        return np.ones(k.shape, dtype=bool)
    big_l = math.log(2.0 / 1e-20)
    third = big_l / 3.0
    radius = third + np.sqrt(third * third + 2.0 * big_l * n * xs * (1.0 - xs))
    return np.abs(k - n * xs[:, None]) <= np.minimum(w, radius)[:, None] + 1.0


@pytest.mark.parametrize("n", (64, 1000, 4096, 16384))
def test_band_entries_are_within_1e_12_and_drop_under_1e_20(n):
    # default Chebyshev grid plus points at the ends and at xi = 0.5
    xs = np.concatenate([grid_points(GridSpec()), BAND_POINTS])
    B = basis_matrix(n, xs)
    assert B.shape == (xs.size, min(n + 1, 2 * _hoeffding_radius(n) + 1))
    start = band_start(n, xs)
    assert np.all((start >= 0) & (start + B.shape[1] <= n + 1))
    k = start[:, None] + np.arange(B.shape[1])
    assert_band_matches_values(n, xs, B)
    kept = B != 0.0
    extra = np.arange(xs.size - len(BAND_POINTS), xs.size)
    for i in (1, 2, 100, xs.size // 2, *extra):
        row = basis_row(n, xs[i])
        assert_within_band_bound(B[i][kept[i]], row[k[i][kept[i]]])
    # the dropped mass, summed directly over every index outside the kept
    # entries, on every 64th grid row, the 32 rows at each end (where the
    # kept window is narrowest) and the extra points
    rows = np.unique(np.concatenate([np.arange(0, xs.size, 64), np.arange(32),
                                     np.arange(extra[0] - 32, xs.size)]))
    all_k = np.arange(n + 1)
    for lo in range(0, rows.size, 64):
        r = rows[lo:lo + 64]
        full = basis_values(n, xs[r, None], all_k[None, :])
        np.put_along_axis(full, k[r], np.where(kept[r], 0.0, np.take_along_axis(full, k[r], 1)), 1)
        assert full.sum(axis=1).max() < 1e-20


def assert_band_matches_values(n, xs, B=None):
    """Kept band entries agree with ``basis_values`` to the band's bound; the rest of the band is 0.

    ``B`` is ``basis_matrix(n, xs)``, made here if not given.  The kept
    entries are ``kept_entries``: the zero pattern outside them is exact.
    """
    B = basis_matrix(n, xs) if B is None else B
    assert B.shape == (xs.size, min(n + 1, 2 * _hoeffding_radius(n) + 1))
    k = band_start(n, xs)[:, None] + np.arange(B.shape[1])
    kept = kept_entries(n, xs, k)
    assert not B[~kept].any()
    for lo in range(0, xs.size, 512):
        r = slice(lo, lo + 512)
        got = B[r][kept[r]]
        want = basis_values(n, np.repeat(xs[r], kept[r].sum(axis=1)), k[r][kept[r]])
        assert_within_band_bound(got, want)


@pytest.mark.parametrize("n", (1, 2, 3, 64, 1000, 16384))
def test_end_weights_keep_their_closed_forms(n):
    # k = 0 and k = n are anchors of their own: bit for bit basis_values' closed forms
    xs = np.concatenate([grid_points(GridSpec()), BAND_POINTS])
    B = basis_matrix(n, xs)
    k = band_start(n, xs)[:, None] + np.arange(B.shape[1])
    kept = kept_entries(n, xs, k)
    for end in (0, n):
        r, c = np.nonzero((k == end) & kept)
        assert r.size
        np.testing.assert_array_equal(B[r, c], basis_values(n, xs[r], np.full(r.size, end)))


@pytest.mark.parametrize("n", (1, 2, 3, 64, 100, 4096, 65536, 10**6))
def test_band_entries_against_live_mpmath(n):
    # every kept entry up to n = 100; above it the first, the last, the
    # largest and 64 seeded entries of each row's kept part; exact
    # binomials at 40 digits with the double x taken exactly
    mpmath = pytest.importorskip("mpmath")
    xs = np.array([0.0, 1e-9, 1e-4, 0.37, 0.5, 1.0 - 1e-9, 1.0])
    B = basis_matrix(n, xs)
    k = band_start(n, xs)[:, None] + np.arange(B.shape[1])
    kept = kept_entries(n, xs, k)
    assert not B[~kept].any()
    rng = np.random.default_rng(n)
    with mpmath.workdps(40):
        for i, x in enumerate(xs):
            cols = np.flatnonzero(kept[i])
            if cols.size > 67:
                cols = np.unique([cols[0], cols[-1], np.argmax(B[i]), *rng.choice(cols, 64, replace=False)])
            X = mpmath.mpf(float(x))
            want = [mpmath.binomial(n, j) * X**j * (1 - X) ** (n - j) for j in k[i, cols].tolist()]
            assert_within_band_bound(B[i, cols], np.array([float(v) for v in want]))


@pytest.mark.parametrize("n", (64, 1024, 16384, 65536))
def test_band_sums_keep_partition_and_first_moment_within_8_eps(n):
    # the apply's row sums are ksum's over the band: ksum(B) and ksum(B k/n)
    from singbern.operators import bernstein_apply

    xs = grid_points(GridSpec())
    eps = np.finfo(float).eps
    assert np.abs(bernstein_apply(np.ones(n + 1), xs) - 1.0).max() <= 8 * eps
    assert np.abs(bernstein_apply(np.arange(n + 1) / n, xs) - xs).max() <= 8 * eps


@pytest.mark.parametrize("n", (1, 2, 3, 64, 4096, 10**6))
def test_apply_warns_nothing_at_extreme_points(n):
    # subnormal, tiny and last-ulp rows: every ratio, power and anchor stays finite
    from singbern.operators import bernstein_apply

    xs = np.array([0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bernstein_apply(np.ones(n + 1), xs)
    np.testing.assert_allclose(got, 1.0, rtol=0.0, atol=8 * np.finfo(float).eps)


class TestBandPasses:
    """Edge cases of the pass structure of ``basis_matrix``."""

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_smallest_degrees(self, n):
        # the k-only table holds n - 1 entries: none at n = 1
        assert_band_matches_values(n, np.concatenate([grid_points(GridSpec()), BAND_POINTS]))

    def test_unsorted_grid_with_endpoints_mid_pass(self):
        n = 16384
        rows = max(1, _PASS_ENTRIES // (2 * _hoeffding_radius(n) + 1))
        xs = np.random.default_rng(3).permutation(np.linspace(0.2, 0.8, 4 * rows))
        # x = 0 and x = 1 inside passes whose other rows are all interior
        xs[rows // 2] = 0.0
        xs[rows + rows // 2] = 1.0
        assert_band_matches_values(n, xs)

    @pytest.mark.parametrize("n", (4096, 16384))
    @pytest.mark.parametrize("extra", (-1, 0, 1))
    def test_grid_sizes_around_one_pass(self, n, extra):
        rows = max(1, _PASS_ENTRIES // (2 * _hoeffding_radius(n) + 1))
        assert rows > 1
        for xs in (np.linspace(0.25, 0.75, rows + extra), np.linspace(0.0, 1.0, rows + extra)):
            assert_band_matches_values(n, xs)

    def test_many_small_passes_at_degree_65536(self):
        assert_band_matches_values(65536, grid_points(GridSpec()))


def test_basis_values_passes_match_short_calls():
    # three passes of _PASS_ENTRIES, the endpoint closed forms in the first
    # and the last; every entry as it comes from calls of 1000 entries
    n = 5000
    rng = np.random.default_rng(11)
    size = 2 * _PASS_ENTRIES + 3
    x = rng.uniform(0.0, 1.0, size)
    k = np.clip(np.rint(n * x + rng.normal(0.0, 2.0 * math.sqrt(n), size)), 0, n).astype(np.int64)
    x[[5, size - 2]] = 0.0, 1.0
    k[[7, size - 1]] = 0, n
    got = basis_values(n, x, k)
    assert np.count_nonzero(got) > size // 2
    want = np.concatenate([basis_values(n, x[lo:lo + 1000], k[lo:lo + 1000]) for lo in range(0, size, 1000)])
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(basis_values(n, x[:, None], k[None, :8]), basis_values(n, x, k[:8, None]).T)


def test_basis_values_copies_only_one_pass_of_a_broadcast():
    # the lemma windows at n = 65536 on the default grid: a 16 MiB result,
    # and the broadcast x and k must not be copied to full size beside it
    import tracemalloc

    n = 65536
    xs = grid_points(GridSpec())
    k = np.arange(n + 1)
    window = k[np.abs(k - n / 2) <= math.sqrt(n)]
    tracemalloc.start()
    try:
        got = basis_values(n, xs[:, None], window[None, :])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (xs.size, window.size)
    assert peak <= 24 * 2**20, peak / 2**20


def test_concurrent_calls_share_no_scratch():
    # every call makes its own workspace and streamed applies their own pass
    # buffer: threads interleaving their passes (NumPy releases the
    # interpreter lock inside each operation) get the serial results
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from singbern.operators import bernstein_apply

    xs = grid_points(GridSpec())
    jobs = [(n, xs[i::3]) for i in range(3) for n in (1000, 4096)]

    def run(job):
        n, x = job
        values = np.sin(np.arange(n + 1.0))
        return (basis_matrix(n, x), basis_values(n, x[:, None], np.arange(0, n + 1, 97)[None, :]),
                bernstein_apply(values, x))

    want = [run(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = [f.result(timeout=120) for f in [pool.submit(run, job) for job in jobs * 2]]
    finally:
        sys.setswitchinterval(interval)
    for g, w in zip(got, want * 2):
        for a, b in zip(g, w):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n", (1024, 16384))
def test_one_k_table_per_basis_matrix_call(monkeypatch, n):
    # the endpoint passes read the same table as the interior ones
    import singbern.basis as basis

    real, calls = basis._log_const_table, []
    monkeypatch.setattr(basis, "_log_const_table", lambda *a: calls.append(1) or real(*a))
    basis_matrix(n, grid_points(GridSpec()))
    assert len(calls) == 1


@pytest.mark.parametrize("n", (1024, 16384))
def test_one_k_table_per_streamed_apply(monkeypatch, n):
    # a streamed apply builds every pass of its band from one table
    import singbern.basis as basis
    from singbern.operators import bernstein_apply

    real, calls = basis._log_const_table, []
    monkeypatch.setattr(basis, "_log_const_table", lambda *a: calls.append(1) or real(*a))
    bernstein_apply(np.ones(n + 1), grid_points(GridSpec()))
    assert len(calls) == 1


@pytest.mark.parametrize("n", (2, 17, 4096, 10**6))
def test_k_table_matches_the_one_shot_expression(n):
    from singbern.basis import _log_const, _log_const_table

    got, want = _log_const_table(n), _log_const(n, np.arange(1.0, n))
    assert got.shape == want.shape == (n - 1,)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_k_table_holds_one_chunk_of_temporaries():
    # the one-shot table at n = 10^6 peaks at 62 MiB of temporaries for its 7.6 MiB
    import tracemalloc

    from singbern.basis import _log_const_table

    tracemalloc.start()
    try:
        _log_const_table(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, peak / 2**20


class TestMomentSums:
    def test_second_central_moment_is_variance(self):
        assert central_moment_sum(10, 0.5, 2.0) == pytest.approx(2.5, rel=1e-12)
        for n in (17, 256, 2048):
            for x in (0.2, 0.5, 0.9):
                assert central_moment_sum(n, x, 2.0) == pytest.approx(
                    n * x * (1 - x), rel=1e-10
                )

    def test_gamma_zero_is_partition(self):
        assert central_moment_sum(123, 0.5, 0.0) == pytest.approx(1.0, rel=1e-13)
        assert central_moment_sum(777, 0.3, 0.0) == pytest.approx(1.0, rel=1e-13)

    def test_first_absolute_moment_brute_force(self):
        n, x = 100, 0.2
        row = brute_row(n, x)
        expected = math.fsum(row * np.abs(np.arange(n + 1) - n * x))
        got = central_moment_sum(n, x, 1.0)
        assert got == pytest.approx(expected, rel=1e-12)
        # Lemma-4 shape: bounded by a modest multiple of sqrt(n)*phi(x)
        assert got <= 2.0 * math.sqrt(n) * math.sqrt(x * (1 - x))

    def test_inverse_moment_trivial(self):
        assert inverse_moment_sum(10, 0.5, 0.0, 0.0) == pytest.approx(
            0.998046875, rel=1e-13
        )
        assert inverse_moment_sum(10, 0.5, 0.0, 0.0) <= 1.0

    def test_inverse_moment_brute_force(self):
        n, x, u, v = 20, 0.5, 1.0, 0.0
        row = brute_row(n, x)[1:n]
        k = np.arange(1, n)
        expected = math.fsum((k / n) ** (-u) * ((n - k) / n) ** (-v) * row)
        got = inverse_moment_sum(n, x, u, v)
        assert got == pytest.approx(expected, rel=1e-12)
        assert math.isfinite(got)
        # Lemma-1 shape: within a modest multiple of x^-u (1-x)^-v
        assert got <= 5.0 / x


def ksum_blocks_reference(a):
    """Compensated last-axis sum of a whole array: 64-entry blocks in one reshape, then a two-sum.

    The summation order every basis-weighted sum keeps: each block of 64
    summed pairwise, the tail block on its own, the block sums combined in
    order with an exact two-sum.
    """
    nk = a.shape[-1]
    nfull = nk - nk % 64
    parts = [a[..., :nfull].reshape(a.shape[:-1] + (-1, 64)).sum(axis=-1)] if nfull else []
    if nfull < nk:
        parts.append(a[..., nfull:].sum(axis=-1, keepdims=True))
    blocks = np.concatenate(parts, axis=-1)
    s = np.zeros(blocks.shape[:-1])
    comp = np.zeros_like(s)
    for i in range(blocks.shape[-1]):
        term = blocks[..., i]
        t = s + term
        bb = t - s
        comp += (s - (t - bb)) + (term - bb)
        s = t
    return s + comp


class TestKsum:
    def test_matches_fsum_on_mixed_signs(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal(100_000)
        assert ksum(a) == pytest.approx(math.fsum(a), abs=1e-10)

    def test_axis_handling(self):
        a = np.arange(12.0).reshape(3, 4)
        np.testing.assert_allclose(ksum(a, axis=0), a.sum(axis=0), rtol=1e-15)
        np.testing.assert_allclose(ksum(a, axis=1), a.sum(axis=1), rtol=1e-15)

    def test_scalar_result_for_1d(self):
        assert isinstance(ksum(np.array([1.0, 2.0, 3.0])), float)

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 127, 128, 129, 191, 192, 193, 1231])
    def test_block_sum_over_slices_matches_ksum_of_the_array(self, width):
        # the terms of a basis-weighted sum, made one 64-column block at a time or all at once
        rng = np.random.default_rng(width)
        coef = rng.standard_normal(width) * 10.0 ** rng.uniform(-30.0, 30.0, width)
        n, xs, k = width + 3, np.linspace(0.01, 0.99, 7)[:, None], np.arange(width)
        whole = basis_values(n, xs, k[None, :]) * coef
        seen = []

        def block(sl):
            seen.append(sl)
            return basis_values(n, xs, k[None, sl]) * coef[sl]

        got = block_sum(block, width)
        assert [(sl.start, min(sl.stop, width)) for sl in seen] == [
            (lo, min(lo + 64, width)) for lo in range(0, width, 64)]
        np.testing.assert_array_equal(got, ksum(whole, axis=1))
        np.testing.assert_array_equal(got, ksum_blocks_reference(whole))

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 257, 2477])
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_matches_the_whole_array_reference(self, width, axis):
        rng = np.random.default_rng(width)
        a = rng.standard_normal((3, width, 4)) * 10.0 ** rng.uniform(-300.0, 300.0, (3, width, 4))
        a = np.moveaxis(a, 1, axis)
        np.testing.assert_array_equal(ksum(a, axis), ksum_blocks_reference(np.moveaxis(a, axis, -1)))


def test_ratio_powers_are_those_of_the_exact_ratio():
    # the walk's x-part, rho^t (1 + t drho), is the power of the exact
    # x/(1-x), not of its rounding, to 3 eps; sigma^t likewise for (1-x)/x
    mpmath = pytest.importorskip("mpmath")
    from singbern.basis import _ANCHOR_STEP, _powers

    n = 1000
    xs = np.concatenate([np.random.default_rng(7).uniform(0.001, 0.999, 300), [0.1, 0.37, 0.5, 0.9]])
    powers = _powers(n, xs, np.floor(n * xs + 0.5))
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for i, x in enumerate(xs):
            X = mpmath.mpf(float(x))
            for side, ratio in enumerate((X / (1 - X), (1 - X) / X)):
                want = np.array([float(ratio**t) for t in range(_ANCHOR_STEP)])
                np.testing.assert_allclose(powers[:, side, i], want, rtol=3 * eps, atol=0.0)
