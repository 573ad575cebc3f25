"""The bucketed interval search against np.searchsorted, and the two lookups
built on it (bid-spline evaluation, ironed virtual value) against the plain
forms they replaced; scipy's PPoly, built from its cubic Hermite spline and
the bumps, is the bid schedule's oracle."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline

from talab import dist
from talab.dist import SortedIndex
from talab.equilibrium import BidFunction, EquilibriumError, solve_ode
from talab.myerson import QUANTILE_GRID_SIZE, ironed_virtual
from talab.sequences import make_family

from conftest import cosine_bump, mixture_of, schedule_ppoly

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def sorted_breaks(draw):
    size = draw(st.sampled_from([1, 2, 3, 5, 17, 64, 200]))
    kind = draw(st.sampled_from(["random", "duplicates", "flat_runs", "geometric"]))
    if kind == "random":
        b = draw(st.lists(finite, min_size=size, max_size=size))
    elif kind == "duplicates":
        pool = draw(st.lists(finite, min_size=1, max_size=4))
        b = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    elif kind == "flat_runs":
        # a few values, each repeated over a long run
        vals = draw(st.lists(finite, min_size=1, max_size=3))
        b = np.repeat(vals, -(-size // len(vals)))[:size]
    else:
        lo = draw(st.floats(1e-300, 1.0))
        ratio = draw(st.floats(1.0, 1e300 ** (1.0 / max(size, 2))))
        b = lo * ratio ** np.arange(size)
    return np.sort(np.asarray(b, dtype=float))


def keys_for(b, extra, rnd=None):
    """Breaks, one ulp either side, outside the range (NaN sorts last), and the
    drawn extras, shuffled by ``rnd`` if given, then tiled past 1,024 keys:
    fewer go to the plain search."""
    out = [b, np.nextafter(b, np.inf), np.nextafter(b, -np.inf),
           [b[0] - 1.0, b[-1] + 1.0, -np.inf, np.inf, np.nan, -0.0, 0.0], extra]
    keys = np.concatenate([np.asarray(k, dtype=float) for k in out])
    if rnd is not None:
        rnd.shuffle(keys)
    return np.tile(keys, 1024 // keys.size + 1)


@settings(max_examples=300, deadline=None)
@given(sorted_breaks(), st.lists(finite, max_size=50), st.randoms(use_true_random=False))
def test_matches_searchsorted(b, extra, rnd):
    keys = keys_for(b, extra, rnd)
    index = SortedIndex(b)
    expect = np.searchsorted(b, keys, "right")
    assert np.array_equal(index(keys), expect)            # builds the directory
    assert (index._dir is not None) == (b.size >= 2)
    assert np.array_equal(index(keys[:1]), expect[:1])    # small call: plain search
    half = keys[: keys.size // 2 * 2].reshape(2, -1)
    assert np.array_equal(index(half), np.searchsorted(b, half, "right"))


def test_matches_searchsorted_edge_cases():
    cases = [
        np.array([1.0]),
        np.array([0.0, 0.0]),
        np.array([1e-320, 2e-320, 3e-320]),        # span too small to scale
        np.full(50, 0.3),
        np.concatenate([np.zeros(40), np.linspace(0.0, 1.0, 10)]),
    ]
    for b in cases:
        keys = keys_for(b, [0.5, 1e-320])
        index = SortedIndex(b)
        assert np.array_equal(index(keys), np.searchsorted(b, keys, "right"))
        assert (index._dir is not None) == (b.size >= 2)


def test_scalar_and_empty_keys_and_breaks():
    b = np.linspace(0.0, 1.0, 11)
    index = SortedIndex(b)
    assert index(0.35) == np.searchsorted(b, 0.35, "right")
    assert index(np.empty(0)).shape == (0,)
    assert SortedIndex(np.array([2.0]))(2.0) == 1
    empty = SortedIndex(np.empty(0))
    assert np.array_equal(empty(np.linspace(-1.0, 1.0, 7)), np.zeros(7, dtype=np.intp))


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        SortedIndex(np.ones((2, 2)))


# ---------------------------------------------------------------------------
# the lookups built on it
# ---------------------------------------------------------------------------


def _bid_cases():
    u01, u02 = dist.uniform(0.0, 1.0), dist.uniform(0.0, 2.0)
    fam = make_family("slow_drain", 2.0, 2.5, 8)
    cases = [(f"U[0,2] N={n}", u01, u02, n) for n in range(2, 9)]
    cases += [(f"slow_drain[{l}] N={n}", u01, fam.member(l), n)
              for l in (1, 5, 8) for n in (2, 5)]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, weak, strong, n", _bid_cases())
def test_bid_function_equals_scipy_spline(name, weak, strong, n):
    bid, _ = solve_ode(weak, strong, n)
    g = bid.grid
    assert np.any(bid.bumps != 0.0)
    spline = schedule_ppoly(bid)
    x = np.concatenate([
        g, 0.5 * (g[1:] + g[:-1]), np.nextafter(g, np.inf), np.nextafter(g, -np.inf),
        [-1.0, -1e-300, g[-1] + 1e-9, 2.0 * g[-1], np.inf, -np.inf],
    ])
    # Horner's rule and PPoly's sum of powers round differently: a few ulps
    tol = 4.0 * np.spacing(bid.b_top)
    expect = spline(np.clip(x, g[0], g[-1]))
    got = bid(np.tile(x, 1024 // x.size + 1))[:x.size]
    assert bid._interval._dir is not None      # the indexed path, not the plain search
    assert np.max(np.abs(got - expect)) <= tol, name
    for xi in x[::41]:                         # scalar calls: the plain search
        assert bid(float(xi)) == got[np.flatnonzero(x == xi)[0]]


@pytest.mark.parametrize("field, bad", [("grid", np.inf), ("values", np.inf),
                                        ("slopes", np.nan), ("slopes", -np.inf),
                                        ("bumps", np.nan)])
def test_bid_function_refuses_non_finite_nodes(field, bad):
    # scipy's spline refuses them too, but only on the first call
    grid = np.linspace(0.0, 1.0, 6)
    arrays = {"grid": grid, "values": 2.0 * grid, "slopes": np.full(6, 2.0),
              "bumps": np.zeros((5, 4))}
    arrays[field] = arrays[field].copy()
    arrays[field][-1] = bad
    if field != "bumps":
        with pytest.raises(ValueError):
            CubicHermiteSpline(arrays["grid"], arrays["values"], arrays["slopes"])
    with pytest.raises(EquilibriumError, match="must be finite"):
        BidFunction(**arrays)


def test_virtual_value_equals_searchsorted_lookup():
    two_bump = mixture_of(
        [(0.4, cosine_bump(0.5, 0.3)), (0.1, dist.uniform(0.0, 2.5)),
         (0.5, cosine_bump(2.0, 0.2))],
        support=(0.0, 2.5),
    )
    iv = ironed_virtual(two_bump)
    assert iv.hull_slopes.size < QUANTILE_GRID_SIZE    # ironed
    q = np.linspace(0.0, 1.0, 20_001)
    s_nodes = np.concatenate([iv.hull_s, 1.0 - iv.hull_s])
    u = np.concatenate([
        q, np.random.default_rng(5).random(50_000), s_nodes,
        np.nextafter(s_nodes, 2.0), np.nextafter(s_nodes, -1.0),
    ])
    j = np.clip(np.searchsorted(iv.hull_s, 1.0 - u, side="right") - 1,
                0, iv.hull_slopes.size - 1)
    expect = iv.hull_slopes[j]
    assert np.array_equal(iv(u), expect)
    assert all(iv(float(ui)) == e for ui, e in zip(u[::997], expect[::997]))


def test_clustered_breaks_stay_shallow():
    # nodes that cluster by the series start and cdf-table rows below an atom
    # fill one bucket of n - 1; more buckets (the schedule) and the second level
    # (the table) keep every key within two bisection steps, where n - 1
    # buckets alone took 3 and 8
    bid, _ = solve_ode(dist.uniform(0.0, 1.0), dist.uniform(0.0, 2.0), 2)
    grid_index = SortedIndex(bid.grid[1:-1])
    member = make_family("slow_drain", 2.0, 2.5, 8).member(5)
    member.quantile(np.array([0.5]))
    table_index = member._row_search
    for index in (grid_index, table_index):
        breaks = index.breaks
        steps = index._directory()[-1]
        assert len(steps) <= 2
        keys = np.concatenate([np.random.default_rng(3).uniform(breaks[0], breaks[-1], 5000),
                               breaks, np.nextafter(breaks, np.inf)])
        assert np.array_equal(index(keys), np.searchsorted(breaks, keys, "right"))
