"""Optimal-auction benchmark: virtual values, ironing, and expected revenue.

The virtual value of a buyer with distribution D is psi(x) = x - (1-D(x))/d(x).
Expected revenue of the optimal auction equals E[max(0, psi_1(x_1), ...,
psi_n(x_n))] with IRONED virtual values when any psi is non-monotone.

Ironing here works on the posted-price revenue curve in sell-probability
space: R(s) = x(s) * s with s = 1 - D(x). Its derivative is psi(x(s)), so the
upper concave hull of R has nonincreasing slopes in s, i.e. a nondecreasing
ironed psi-bar in x, equal to psi wherever R is locally concave. R is exact
(no quadrature), which keeps the construction robust where the density
vanishes or spikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dist import DistributionSpec, SortedIndex
from .equilibrium import InputError
from .mechanisms import (STRIDE_EXTRA, RevenueEstimate, check_block_bidders, estimate,
                         replicate_arrays, run_blocks)


def virtual_value(d: DistributionSpec, x):
    """psi(x) = x - (1-D(x))/d(x); equals the support top there; -inf in density
    gaps; domain error outside the support."""
    x = np.asarray(x, dtype=float)
    p = d.pdf(x)  # raises outside the support
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x - (1.0 - d.cdf(x)) / p
    out = np.where(p <= 0.0, -np.inf, out)
    out = np.where(x >= d.support.hi, d.support.hi, out)
    return float(out) if out.ndim == 0 else out


def regularity_check(d: DistributionSpec) -> bool:
    """Whether psi never drops by more than 1e-9 between neighbours of 1000
    equally spaced interior points of the support."""
    xs = np.linspace(d.support.lo, d.support.hi, 1002)[1:-1]
    psi = virtual_value(d, xs)
    return not np.any(psi[1:] < psi[:-1] - 1e-9)


@dataclass(frozen=True)
class VirtualValueFn:
    """Ironed virtual value: step function derived from the revenue-curve hull.

    It is keyed on the cdf level u = D(x), not on the value x: psi-bar at x is
    the hull slope at the sell probability s = 1 - u, and it is nondecreasing
    in u. To evaluate at values, pass ``d.cdf(x)``.

    The segment holding s is found by an exact indexed search of ``hull_s``
    (``dist.SortedIndex``; a subset of a uniform grid, so about one bisection
    step per point), equal to ``np.searchsorted(hull_s, s, "right") - 1``
    clipped to the segments.
    """

    hull_s: np.ndarray = field(repr=False)       # ascending sell probabilities
    hull_slopes: np.ndarray = field(repr=False)  # psi-bar per hull segment

    @cached_property
    def _segment(self) -> SortedIndex:
        # hull_s[0] = 0, so the count of later breakpoints <= s is the segment
        return SortedIndex(self.hull_s[1:])

    def __call__(self, u):
        out = self.hull_slopes.take(self._segment(1.0 - u))
        return float(out) if np.isscalar(u) else out


QUANTILE_GRID_SIZE = 20_000   # intervals of the quantile grid under the hull


def _upper_hull(s: np.ndarray, r: np.ndarray) -> list[int]:
    """Indices of the upper concave hull of the polyline (s, r), s ascending, by
    Andrew's monotone chain (Inf. Process. Lett. 9(5), 1979).

    The chain tests each point k against the top two of its stack. The test of
    k against k - 2 and k - 1 is computed for every k in one numpy pass, by the
    chain's expression in the chain's order, so it has the same bits. Where the
    top two are k - 2 and k - 1 and that turn is right (cross < 0), the chain
    pushes k without popping, and then each later point up to the next turn
    that is not right: that run is pushed at once. So the Python loop runs once
    per pop and once per run, not once per point.
    """
    n = s.size
    crosses = (s[1:-1] - s[:-2]) * (r[2:] - r[:-2]) - (r[1:-1] - r[:-2]) * (s[2:] - s[:-2])
    right = np.zeros(n, dtype=bool)
    right[2:] = crosses < 0.0
    # stop[k]: the first j >= k whose turn is not right, or n; stop[k] > k iff k's is
    stop = np.minimum.accumulate(np.where(right, n, np.arange(n))[::-1])[::-1]
    # Items of a memoryview are Python scalars, whose arithmetic here is about 3x
    # faster than numpy scalars'; unlike tolist(), it does not hold all of them.
    stop, sl, rl = memoryview(stop), memoryview(s), memoryview(r)
    idx: list[int] = []
    k = 0
    while k < n:
        j = stop[k]
        if j > k and idx[-1] == k - 1 and idx[-2] == k - 2:
            idx.extend(range(k, j))
            k = j
            continue
        sk, rk = sl[k], rl[k]
        while len(idx) >= 2:
            a, b = idx[-2], idx[-1]
            cross = (sl[b] - sl[a]) * (rk - rl[a]) - (rl[b] - rl[a]) * (sk - sl[a])
            if cross >= 0:  # keeping b would dent the hull
                idx.pop()
            else:
                break
        idx.append(k)
        k += 1
    return idx


def ironed_virtual(d: DistributionSpec) -> VirtualValueFn:
    """Upper concave hull of R(s) = x(s) * s on a uniform quantile grid."""
    q = np.linspace(0.0, 1.0, QUANTILE_GRID_SIZE + 1)
    x = d.quantile(q)
    s = 1.0 - q[::-1]          # ascending 0 .. 1
    r = x[::-1] * s            # exact posted-price revenue at each grid point
    keep = np.asarray(_upper_hull(s, r))
    hs = s[keep]
    hr = r[keep]
    slopes = np.diff(hr) / np.diff(hs)
    return VirtualValueFn(hull_s=hs[:-1], hull_slopes=slopes)


def single_buyer_reserve(d: DistributionSpec) -> dict:
    """Posted price maximizing r * (1 - D(r)): coarse grid scan plus golden-section."""
    lo, hi = d.support.lo, d.support.hi
    grid = np.linspace(lo, hi, 4001)
    rev = grid * (1.0 - d.cdf(grid))
    j = int(np.argmax(rev))
    a = grid[max(j - 1, 0)]
    b = grid[min(j + 1, grid.size - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c1 = b - phi * (b - a)
    c2 = a + phi * (b - a)
    f1 = c1 * (1.0 - d.cdf(c1))
    f2 = c2 * (1.0 - d.cdf(c2))
    for _ in range(80):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = c2 * (1.0 - d.cdf(c2))
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = c1 * (1.0 - d.cdf(c1))
    r_star = 0.5 * (a + b)
    return {"r_star": float(r_star), "revenue": float(r_star * (1.0 - d.cdf(r_star)))}


def check_oa(weak: DistributionSpec | None, strong, n_weak: int):
    """Refuse an optimal-auction benchmark with nothing to sell, a missing law
    or a strong law that is not continuous; the error's ``field`` names the
    argument at fault."""
    if strong is not None and not isinstance(strong, DistributionSpec):
        raise InputError("the optimal auction needs a continuous strong distribution "
                         "(use sweep P5 for family benchmarks)", "strong")
    check_block_bidders(n_weak, 0)
    if n_weak > 0 and weak is None:
        raise InputError("weak distribution required when n_weak > 0", "weak")
    if n_weak == 0 and strong is None:
        raise InputError("nothing to sell: no weak bidders and no strong bidder", "strong")


def oa_revenue(
    weak: DistributionSpec | None,
    strong: DistributionSpec | None,
    n_weak: int,
    n: int,
    seed: int,
    threads: int = 1,
) -> RevenueEstimate:
    """Monte Carlo E[max(0, psi_bar over all bidders)]: each law ironed, then
    ``oa_estimate``."""
    check_oa(weak, strong, n_weak)
    return oa_estimate(ironed_virtual(weak) if n_weak > 0 else None,
                       ironed_virtual(strong) if strong is not None else None,
                       n_weak, n, seed, threads)


def oa_estimate(psi_w: VirtualValueFn | None, psi_s: VirtualValueFn | None, n_weak: int,
                n: int, seed: int, threads: int = 1) -> RevenueEstimate:
    """Monte Carlo E[max(0, psi_bar over all bidders)] from the ironed virtual
    values of the weak law (None without weak bidders) and of the strong law
    (None without a strong bidder), under the draw keying of the mechanism
    engine (stride N+3, replicate-indexed uniforms).

    A draw's value is the inverse cdf of its uniform u, and for these continuous
    laws D(Q(u)) = u, so psi-bar of the draw is the hull lookup at the level u
    itself: no inverse cdf and no cdf is evaluated per draw. psi-bar is
    nondecreasing in u, so the weak side needs only the largest of a row's
    N_weak uniforms.
    """
    (values,) = replicate_arrays(n, 1)

    def block(u: np.ndarray):
        best = np.zeros(u.shape[0])
        if psi_w is not None:
            top = u[:, 0]
            for i in range(1, n_weak):
                top = np.maximum(top, u[:, i])
            best = np.maximum(best, psi_w(top))
        if psi_s is not None:
            best = np.maximum(best, psi_s(u[:, n_weak]))
        return (best,)

    run_blocks(seed, n, n_weak + STRIDE_EXTRA, block, (values,), threads)
    return estimate(values, seed)
