"""The inverse cdf (table bracket + safeguarded Newton) against the bisection it
replaced and, bit for bit, against the same iteration over every component
without the guide-table search; its contract on random mixtures; the
branch-free select; cost guards of the cdf table and of the revenue-curve hull
built from the inverse cdf."""

import time

import numpy as np
import pytest
from hypothesis import given, settings

from talab import dist
from talab.mechanisms import AuctionSpec, simulate_draws
from talab.myerson import QUANTILE_GRID_SIZE, ironed_virtual
from talab.rng import uniform_stream
from talab.sequences import make_family

from conftest import beta_poly, mixtures, piecewise_linear, to_json_dict

K, W_BAR = 2.0, 2.5
F_TOL = 1e-12           # |F(Q(u)) - u|
X_TOL = 1e-9            # |Q(u) - Q_bisect(u)| over the support width


def bisect_quantile(d, q):
    """Reference: 64-step vector bisection for the leftmost x with F(x) >= q."""
    lo = np.full(q.shape, d.support.lo)
    hi = np.full(q.shape, d.support.hi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        ge = d.cdf(mid) >= q
        hi = np.where(ge, mid, hi)
        lo = np.where(ge, lo, mid)
    out = np.where(q <= 0.0, d.support.lo, hi)
    return np.where(q >= 1.0, d.support.hi, out)


def reference_quantile(d, q):
    """Oracle for ``quantile`` on a law that is not affine: the table bracket
    by ``np.searchsorted``, then the same safeguarded Newton and bisection,
    with F and f summed over every component in every round and
    ``np.copyto``/``np.where`` selects."""
    terms = list(zip(d.weights, d.parts))

    def cdf(x):
        return sum(w * p.cdf_v(x) for w, p in terms)

    def pdf(x):
        d._check_domain_v(x)
        return sum(w * p.pdf_v(x) for w, p in terms)

    q = np.asarray(q, dtype=float).reshape(-1)
    xt, ft, slope = d._cdf_table
    finished = []
    idx = np.flatnonzero((q > 0.0) & (q < 1.0) & (q <= ft[-1]))
    u = q[idx]
    j = np.searchsorted(ft, u)
    b = xt[j]
    a = xt[j - 1]
    x = (u - ft[j - 1]) * slope[j - 1] + a
    tiny = d.support.width * dist._X_ABS_TOL
    for _ in range(dist._NEWTON_STEPS):
        if not idx.size:
            break
        r = cdf(x) - u
        below = r < 0.0
        np.copyto(a, x, where=below)
        np.copyto(b, x, where=~below)
        f = pdf(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            r /= f
        x -= r
        off = (x < a) | (x > b) | np.isnan(x)
        np.copyto(x, 0.5 * (a + b), where=off)
        tol = dist._X_REL_TOL * np.abs(x) + tiny
        conv = (np.abs(r) <= tol) & (f > 0.0) & ~off & (u >= dist._NEWTON_MIN_LEVEL)
        done = conv | (b - a <= tol)
        finished.append((idx[done], np.where(conv[done], x[done], b[done])))
        keep = ~done
        idx, u, x, a, b = idx[keep], u[keep], x[keep], a[keep], b[keep]
    while idx.size:
        mid = 0.5 * (a + b)
        ge = cdf(mid) >= u
        np.copyto(b, mid, where=ge)
        np.copyto(a, mid, where=~ge)
        done = b - a <= dist._X_REL_TOL * np.abs(b) + tiny
        finished.append((idx[done], b[done]))
        keep = ~done
        idx, u, a, b = idx[keep], u[keep], a[keep], b[keep]
    out = np.where(q <= 0.0, d.support.lo, d.support.hi)
    for pos, res in finished:
        out[pos] = res
    return out


def same_bits(x, y) -> bool:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def _family_laws():
    laws = []
    for kind in ("slow_drain", "smoothed_discrete", "split_atom"):
        fam = make_family(kind, K, W_BAR, 8)
        laws += [(f"{kind}[{l}]", fam.member(l)) for l in range(1, 9)]
    return laws


@pytest.fixture(scope="module")
def laws(test_distributions):
    named = [(n, test_distributions[n])
             for n in ("gap_mixture", "floored_mixture", "pw_linear", "beta_poly")]
    return _family_laws() + named


@pytest.fixture(scope="module")
def levels():
    # Monte Carlo levels, an even grid with both ends, and the flat-stretch level
    # of gap_mixture
    return np.concatenate([uniform_stream(404, 0, 8192), np.linspace(0.0, 1.0, 1001),
                           [2.0**-53, 1e-12, 0.25]])


def test_matches_bisection(laws, levels):
    inner = (levels > 0.0) & (levels < 1.0)
    for name, d in laws:
        x = d.quantile(levels)
        assert np.max(np.abs(d.cdf(x[inner]) - levels[inner])) <= F_TOL, name
        ref = bisect_quantile(d, levels)
        assert np.max(np.abs(x - ref)) <= X_TOL * d.support.width, name


def _edge_levels(d) -> np.ndarray:
    """Levels in the cdf-table rows next to each component's ends, where a
    component turns live, constant or absent: each such row's F values, their
    float neighbours and nine levels across the row."""
    xt, ft, _ = d._cdf_table
    ends = np.array([e for p in d.parts for e in (p.lo, p.hi)])
    rows = np.unique(np.clip(np.searchsorted(xt, ends)[:, None] + np.arange(-1, 3), 1,
                             xt.size - 1))
    lo, hi = ft[rows - 1], ft[rows]
    across = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 11)[1:-1]
    out = np.concatenate([lo, hi, np.nextafter(lo, 1.0), np.nextafter(hi, 0.0),
                          across.ravel()])
    return out[(out >= 0.0) & (out <= 1.0)]


def _row_edge_laws():
    """Uniform components that end two ulps above, or start one ulp below, a
    cdf-table point (0.5): the rows where a component's density at its end, or
    a start just past the row, would be dropped by too narrow a row margin.
    And a pw_linear component on [0, 0.5] whose F past its top is
    1.0000000000000002, the constant it adds to each row above it."""
    up = np.nextafter(np.nextafter(0.5, 1.0), 1.0)
    down = np.nextafter(0.5, 0.0)
    laws = [(f"U[{lo:.17g}, {hi:.17g}] + U[0, 1]",
             dist.mixture([(0.5, dist.uniform(lo, hi)), (0.5, dist.uniform(0.0, 1.0))]))
            for lo, hi in ((0.0, up), (down, 1.0))]
    pw = piecewise_linear([0.0, 0.25, 0.5], [0.3, 0.7, 0.1])
    return laws + [("pw_linear[0, 0.5] + U[0, 1]",
                    dist.mixture([(0.5, pw), (0.5, dist.uniform(0.0, 1.0))]))]


def test_matches_full_component_oracle_bitwise(laws, levels):
    # Monte Carlo levels and the even grid, every cdf-table value and its float
    # neighbours, and levels in the rows next to each component's ends
    for name, d in laws + _row_edge_laws():
        ft = d._cdf_table[1]
        u = np.concatenate([levels, ft, np.nextafter(ft, 0.0), np.nextafter(ft, 1.0),
                            _edge_levels(d)])
        u = u[(u >= 0.0) & (u <= 1.0)]
        assert same_bits(d.quantile(u), reference_quantile(d, u)), name


def test_rows_skip_components(laws):
    # rows where some component is not evaluated: the path the oracle test checks
    skipped = 0
    for name, d in laws:
        _, programs = d._row_terms
        skipped += sum(len(d.parts) - len(dens) for _, _, dens in programs)
    assert skipped > 0


_SPECIAL = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.5, -2.0, 5e-324,
                     np.finfo(float).max])


@pytest.mark.parametrize("size", [7, dist._SELECT_BRANCHLESS, 3 * dist._SELECT_BRANCHLESS + 1])
def test_select_matches_where_bitwise(size):
    rng = np.random.default_rng(size)
    x = rng.choice(_SPECIAL, size)
    y = rng.choice(_SPECIAL, size)
    mask = rng.random(size) < 0.5
    assert same_bits(dist.select(mask, x, y), np.where(mask, x, y))
    # strided columns, as the Monte Carlo blocks pass them
    block = rng.choice(_SPECIAL, (size, 3))
    assert same_bits(dist.select(mask, block[:, 0], block[:, 2]),
                     np.where(mask, block[:, 0], block[:, 2]))
    # scalar operands, on either side or both
    for a, b in ((2.0, y), (x, -0.0), (np.nan, -np.inf), (-0.0, 0.0)):
        assert same_bits(dist.select(mask, a, b), np.where(mask, a, b))


def test_extreme_levels_at_density_edges(test_distributions):
    # Newton from the table start overshoots its bracket near the edges of a lone
    # bump, where f -> 0; the safeguard bisects instead of leaving the support.
    # Against the bisection these levels are checked through F only: the
    # cancellation in the bump's cdf leaves F's absolute rounding near 3e-17, so
    # at u = 1e-15 the root is undetermined by about 1e-8 for both methods.
    d = test_distributions["bump"]
    tails = 10.0 ** -np.arange(4.0, 16.0)
    u = np.concatenate([tails, 1.0 - tails[:-4]])
    x = d.quantile(u)
    assert np.all((x > d.support.lo) & (x < d.support.hi))
    assert np.max(np.abs(d.cdf(x) - u)) <= F_TOL
    assert np.all(np.diff(x[: tails.size]) <= 0.0)


def test_subnormal_levels_start_inside_their_bracket():
    # far below its mode the cdf of beta(1000, 1000) rises by a few subnormals
    # per table row, where the row's dx/dF overflows; the levels there start
    # inside their bracket and end at the leftmost x with F(x) >= u
    d = beta_poly(0.0, 1.0, 1000.0, 1000.0)
    for u in (5e-324, 1e-320, 1e-315, 1e-310):
        x = d.quantile(u)
        tol = dist._X_REL_TOL * x + dist._X_ABS_TOL * d.support.width
        assert d.support.lo < x < d.support.hi
        assert d.cdf(x) >= u > d.cdf(x - tol), u


def test_scalar_matches_vector_bitwise(laws, levels):
    sub = levels[::97]
    for name, d in laws:
        vec = d.quantile(sub)
        assert [d.quantile(float(v)) for v in sub] == vec.tolist(), name


def test_result_independent_of_neighbours(laws, levels):
    # each level's iterations depend on that level alone
    for name, d in laws[::5]:
        full = d.quantile(levels)
        assert np.array_equal(d.quantile(levels[::-1])[::-1], full), name
        assert np.array_equal(d.quantile(levels[1000:2000]), full[1000:2000]), name


def test_shape_preserved(floored_mixture):
    u = uniform_stream(9, 0, 60).reshape(20, 3)
    x = floored_mixture.quantile(u)
    assert x.shape == u.shape
    assert np.array_equal(x.ravel(), floored_mixture.quantile(u.ravel()))


def test_table_build_is_cheap(laws):
    # about 0.3 ms per law on a 2-core Xeon; best of three fresh builds, so a
    # busy host does not fail it
    for name, d in laws:
        times = []
        for _ in range(3):
            fresh = dist.from_json_dict(to_json_dict(d))
            t0 = time.perf_counter()
            fresh._cdf_table
            times.append(time.perf_counter() - t0)
        assert min(times) < 2e-3, name


def _memoryview_hull_loop(s, r):
    """The monotone chain with one Python step per grid point, in Python-float
    arithmetic: the baseline the hull's cost is measured against."""
    sl, rl = memoryview(s), memoryview(r)
    idx: list[int] = []
    for i in range(len(sl)):
        si, ri = sl[i], rl[i]
        while len(idx) >= 2:
            a, b = idx[-2], idx[-1]
            cross = (sl[b] - sl[a]) * (ri - rl[a]) - (rl[b] - rl[a]) * (si - sl[a])
            if cross >= 0:  # keeping b would dent the hull
                idx.pop()
            else:
                break
        idx.append(i)
    return idx


def test_uniform_hull_is_cheap(u01):
    # every grid point of U[0,1]'s revenue curve is a hull vertex, one run of
    # right turns: ironing it costs about 0.1 of the per-point loop on the same
    # curve; best of five each, so host speed and a busy host cancel
    q = np.linspace(0.0, 1.0, QUANTILE_GRID_SIZE + 1)
    s = 1.0 - q[::-1]
    r = u01.quantile(q)[::-1] * s

    def best(fn, *args):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best(ironed_virtual, u01) < best(_memoryview_hull_loop, s, r) / 3.0


def test_simulate_thread_invariant(floored_mixture):
    strong = make_family("slow_drain", K, W_BAR, 8).member(8)
    spec = AuctionSpec("sa", 2, floored_mixture, strong)
    n = 3 * (1 << 15) + 7
    runs = [np.stack(simulate_draws(spec, n, seed=77, threads=t)) for t in (1, 2, 3)]
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])


# ---------------------------------------------------------------------------
# properties on random mixtures
# ---------------------------------------------------------------------------


PROPERTY_LEVELS = np.concatenate([[0.0], np.sort(uniform_stream(5, 0, 2000)), [1.0]])


@settings(max_examples=60, deadline=None)
@given(mixtures())
def test_quantile_properties(d):
    x = d.quantile(PROPERTY_LEVELS)
    assert np.all(np.diff(x) >= 0.0)
    assert x[0] == d.support.lo and x[-1] == d.support.hi
    assert np.max(np.abs(d.cdf(x[1:-1]) - PROPERTY_LEVELS[1:-1])) <= F_TOL
    assert d.quantile(0.0) == d.support.lo and d.quantile(1.0) == d.support.hi
    if not d._affine_quantile:
        assert same_bits(x, reference_quantile(d, PROPERTY_LEVELS))
