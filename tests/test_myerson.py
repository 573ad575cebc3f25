import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from talab import dist
from talab.mechanisms import STRIDE_EXTRA
from talab.myerson import (
    QUANTILE_GRID_SIZE,
    _upper_hull,
    ironed_virtual,
    oa_revenue,
    regularity_check,
    single_buyer_reserve,
    virtual_value,
)
from talab.rng import uniform_block
from talab.sequences import FAMILY_KINDS, make_family

from conftest import cosine_bump, mixture_of


@pytest.fixture(scope="module")
def two_bump():
    # classic irregular shape: mass at low values and near the top
    return mixture_of(
        [
            (0.4, cosine_bump(0.5, 0.3)),
            (0.1, dist.uniform(0.0, 2.5)),
            (0.5, cosine_bump(2.0, 0.2)),
        ],
        support=(0.0, 2.5),
    )


def test_virtual_value_examples(u01, u02):
    assert virtual_value(u01, 0.7) == pytest.approx(0.4, abs=1e-12)
    assert virtual_value(u02, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert virtual_value(u01, 1.0) == 1.0
    assert virtual_value(u02, 2.0) == 2.0


def test_virtual_value_below_identity(test_distributions):
    for name, d in test_distributions.items():
        xs = np.linspace(d.support.lo, d.support.hi, 1000)[1:]
        psi = virtual_value(d, xs)
        assert np.all(psi <= xs + 1e-12), name


def test_regularity_uniform(u01):
    assert regularity_check(u01)


def test_regularity_two_bump(two_bump):
    assert not regularity_check(two_bump)


def test_regularity_matches_finite_differences():
    d = cosine_bump(1.0, 0.4)
    xs = np.linspace(0.6, 1.4, 1002)[1:-1]     # regularity_check's grid
    psi = virtual_value(d, xs)
    fd_drops = int(np.sum(psi[1:] < psi[:-1] - 1e-9))
    assert (fd_drops > 0) == (not regularity_check(d))


def test_ironed_equals_virtual_when_regular(u01, u02):
    # grid interpolation error is proportional to the support width
    for d in (u01, u02):
        iv = ironed_virtual(d)
        assert iv.hull_slopes.size == QUANTILE_GRID_SIZE    # not ironed
        xs = np.linspace(d.support.lo + 1e-6, d.support.hi - 1e-6, 257)
        assert np.max(np.abs(iv(d.cdf(xs)) - virtual_value(d, xs))) <= 1e-4 * d.support.width


def test_ironed_nondecreasing(two_bump):
    iv = ironed_virtual(two_bump)
    assert iv.hull_slopes.size < QUANTILE_GRID_SIZE    # ironed
    xs = np.linspace(0.0, 2.5, 3000)
    assert np.all(np.diff(iv(two_bump.cdf(xs))) >= -1e-12)


def hull_indices_reference(s, r):
    """Monotone-chain upper hull of (s, r) in numpy scalar arithmetic, one
    step per point: the oracle of ``_upper_hull``."""
    idx = []
    for i in range(s.size):
        while len(idx) >= 2:
            a, b = idx[-2], idx[-1]
            cross = (s[b] - s[a]) * (r[i] - r[a]) - (r[b] - r[a]) * (s[i] - s[a])
            if cross >= 0:
                idx.pop()
            else:
                break
        idx.append(i)
    return np.asarray(idx)


def test_hull_matches_numpy_scalar_loop(two_bump, u01, u02, gap_mixture):
    # gap_mixture's flat quantile stretch puts collinear points on the curve
    laws = [two_bump, u01, u02, gap_mixture]
    for kind in FAMILY_KINDS:
        laws += make_family(kind, 2.0, 2.5, 13).members()
    for d in laws:
        iv = ironed_virtual(d)
        q = np.linspace(0.0, 1.0, QUANTILE_GRID_SIZE + 1)
        s = 1.0 - q[::-1]
        r = d.quantile(q)[::-1] * s
        keep = hull_indices_reference(s, r)
        assert _upper_hull(s, r) == keep.tolist()
        # the grid s is strictly increasing, so the breakpoints give the indices
        assert np.array_equal(np.searchsorted(s, iv.hull_s), keep[:-1])
        assert np.array_equal(iv.hull_slopes, np.diff(r[keep]) / np.diff(s[keep]))


@st.composite
def polylines(draw):
    """Ascending s and r on a 1/4 grid, so exact ties (cross == 0, which pops)
    occur; or a concave run, one run of right turns, closed by a last point
    above all the others."""
    n = draw(st.integers(2, 40))
    s = np.cumsum(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))) / 4.0
    if draw(st.booleans()):
        r = np.array(draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))) / 4.0
    else:
        c = draw(st.sampled_from(s.tolist()))
        r = -((s - c) ** 2)                 # exact on the 1/16 grid
        r[-1] = 4.0 * np.abs(r).max() + 1.0
    return s, r


@settings(max_examples=500, deadline=None)
@given(polylines())
def test_hull_matches_loop_on_small_polylines(sr):
    s, r = sr
    assert _upper_hull(s, r) == hull_indices_reference(s, r).tolist()


def oa_revenue_by_value(weak, strong, n_weak, n, seed, block=1 << 15):
    """Reference OA estimator: psi-bar of each inverse-cdf draw, at the draw's cdf."""
    psi_w = ironed_virtual(weak) if n_weak > 0 else None
    psi_s = ironed_virtual(strong) if strong is not None else None
    values = np.empty(n)
    for i0 in range(0, n, block):
        m = min(block, n - i0)
        u = uniform_block(seed, i0, m, n_weak + STRIDE_EXTRA)
        best = np.zeros(m)
        if psi_w is not None:
            v = weak.quantile(u[:, :n_weak])
            best = np.maximum(best, psi_w(weak.cdf(v)).max(axis=1))
        if psi_s is not None:
            w = strong.quantile(u[:, n_weak])
            best = np.maximum(best, psi_s(strong.cdf(w)))
        values[i0 : i0 + m] = best
    return values.mean(), values.std(ddof=1) / math.sqrt(n)


def test_oa_level_keyed_matches_value_keyed(u01, two_bump):
    fam = make_family("slow_drain", 2.0, 2.5, 8)
    cases = [(u01, fam.member(l), 2) for l in (1, 4, 8)]
    cases += [(u01, two_bump, 2), (two_bump, None, 3)]
    for weak, strong, n_weak in cases:
        est = oa_revenue(weak, strong, n_weak, 70_001, seed=13)
        mean, se = oa_revenue_by_value(weak, strong, n_weak, 70_001, seed=13)
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)


def test_ironed_single_buyer_revenue(two_bump, u01):
    # E[max(0, psi_bar(w))] for one buyer equals the best posted price revenue
    for d in (u01, two_bump):
        posted = single_buyer_reserve(d)["revenue"]
        est = oa_revenue(None, d, 0, 400_000, seed=17)
        assert abs(est.mean - posted) <= max(3 * est.std_error, 1e-3)


def test_single_buyer_reserve_values(u01, u02):
    out = single_buyer_reserve(u01)
    assert out["r_star"] == pytest.approx(0.5, abs=1e-6)
    assert out["revenue"] == pytest.approx(0.25, abs=1e-9)
    out = single_buyer_reserve(u02)
    assert out["r_star"] == pytest.approx(1.0, abs=1e-6)
    assert out["revenue"] == pytest.approx(0.5, abs=1e-9)


def test_oa_two_weak_bidders(u01):
    # E[max(0, 2v1 - 1, 2v2 - 1)] = 5/12
    est = oa_revenue(u01, None, 2, 1_000_000, seed=1)
    assert abs(est.mean - 5.0 / 12.0) <= 3 * est.std_error


def test_oa_baseline_instance(u01, u02):
    # E[max(0, 2v1-1, 2v2-1, 2w-2)] = 143/192, cross-checked by quadrature
    def surv(y):
        a = min((y + 1.0) / 2.0, 1.0)
        c = min((y + 2.0) / 4.0, 1.0)
        return 1.0 - a * a * c

    expect, _ = integrate.quad(surv, 0.0, 2.0, points=[1.0], epsabs=1e-12)
    assert expect == pytest.approx(143.0 / 192.0, abs=1e-10)
    est = oa_revenue(u01, u02, 2, 1_000_000, seed=2)
    assert abs(est.mean - expect) <= 3 * est.std_error


def test_oa_dominates_both_formats(u01, u02):
    # simulated tournament and second-price revenue stay below the benchmark
    from talab.equilibrium import solve_ode
    from talab.mechanisms import AuctionSpec, simulate

    oa = oa_revenue(u01, u02, 2, 400_000, seed=31)
    bid, _ = solve_ode(u01, u02, 2)
    ta = simulate(AuctionSpec("ta", 2, u01, u02, bid_fn=bid), 400_000, seed=32)
    sa = simulate(AuctionSpec("sa", 2, u01, u02), 400_000, seed=33)
    for out in (ta, sa):
        slack = 3 * (out["revenue"].std_error + oa.std_error)
        assert out["revenue"].mean <= oa.mean + slack


def test_oa_deterministic_and_thread_invariant(u01, u02):
    a = oa_revenue(u01, u02, 2, 100_000, seed=5, threads=1)
    b = oa_revenue(u01, u02, 2, 100_000, seed=5, threads=8)
    assert a == b


@pytest.mark.parametrize("n", [0, -1])
def test_oa_rejects_empty_sample(u01, u02, n):
    # n = 0 used to return mean nan with numpy's "Mean of empty slice" warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="n must be >= 1"):
            oa_revenue(u01, u02, 2, n, seed=5)
