"""Per-draw auction outcomes and the deterministic Monte Carlo estimator.

Five mechanisms share one draw layout. Replicate j owns positions
[j*(N+3), (j+1)*(N+3)) of the seed's uniform stream:

    u[0..N-1]  weak values (inverse cdf of F)
    u[N]       strong value (inverse cdf of G, or the two-point atom draw)
    u[N+1]     tie breaker
    u[N+2]     intervention randomization (consumed only when announced)

``simulate`` evaluates the rules vectorized over fixed-size replicate blocks
(``run_blocks``, which the optimal-auction estimator shares); the scalar
rule-by-rule reference it is tested against lives in ``tests/``. Blocks are keyed by absolute replicate
index and reduced in index order, so the estimate is bit-identical for any
thread count.

A block is evaluated bidder by bidder: the weak uniforms are copied to an
(N, m) array, so each bidder's values are one contiguous row, and the rules
run over those rows instead of reducing along rows N wide. The second-price
rules keep a running top two (equal values counted twice). The tournament's
first stage is ranked by value: its schedule is strictly increasing and covers
the weak support (``BidFunction`` and ``AuctionSpec`` refuse any other), so the
top weak bid is b(V_(1)), one schedule call per replicate, and equal bids come
only from equal values. Only ``ta_discrete``, where every positive value bids
k, resolves equal weak bids: it takes the (j+1)-th positive bidder, j drawn
from the tie uniform. That uniform also breaks a tie between the top weak bid
and the strong bid under ``ta`` and ``ta_intervention``; under ``ta_discrete``
the strong bidder wins it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import DistributionSpec, select
from .equilibrium import BidFunction, InputError, check_bid_ode, check_weak_bidders
from .rng import uniform_block

MECHANISMS = ("ta", "sa", "sa_reserve", "ta_intervention", "ta_discrete")
STRIDE_EXTRA = 3       # strong draw + tie + intervention uniforms per replicate
_BLOCK_REPLICATES = 1 << 15


@dataclass(frozen=True)
class DiscreteAtomSpec:
    """Two-point strong value: k with probability p, else 0."""

    k: float
    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise InputError(f"atom probability must be in (0, 1), got {self.p}", "p")
        if not 0.0 < self.k < math.inf:
            raise InputError(f"atom value must be positive and finite, got {self.k}", "k")


# a Monte Carlo block holds _BLOCK_REPLICATES x (n_weak + STRIDE_EXTRA)
# uniforms at once: 0.26 GB at this bound
MAX_WEAK_BIDDERS = 1000


def check_block_bidders(n_weak: int, least: int):
    """Refuse fewer than ``least`` or more than ``MAX_WEAK_BIDDERS`` weak
    bidders, naming ``n_weak``. The upper bound is checked where
    Monte Carlo blocks are sized: every mechanism, the optimal-auction
    benchmark and the limit experiments that run them. A solve alone allocates
    no block and takes any count."""
    check_weak_bidders(n_weak, least)
    if n_weak > MAX_WEAK_BIDDERS:
        raise InputError(f"at most {MAX_WEAK_BIDDERS} weak bidders in a Monte Carlo run, "
                    f"got {n_weak}", "n_weak")


def check_auction(kind: str, n_weak: int, weak: DistributionSpec, strong,
                  reserve: float | None = None, intervention_p: float | None = None):
    """Refuse an auction outside the model; the error's ``field`` names the
    argument at fault. Every rule on these inputs is stated here once."""
    if kind not in MECHANISMS:
        raise InputError(f"unknown mechanism {kind!r}; expected one of {MECHANISMS}", "kind")
    check_block_bidders(n_weak, 2)
    v_bar = weak.support.hi

    if kind == "sa_reserve":
        if reserve is None:
            raise InputError("sa_reserve requires a reserve", "reserve")
        if not v_bar <= reserve < math.inf:
            raise InputError(
                f"reserve {reserve} is not a finite r >= v_bar = {v_bar}; the reserve "
                "mechanism's closed forms are only valid there", "reserve")
    elif reserve is not None:
        raise InputError(f"{kind} does not take a reserve", "reserve")

    if kind == "ta_intervention":
        if intervention_p is None or not 0.0 < intervention_p < 1.0:
            raise InputError("ta_intervention requires intervention_p in (0, 1)",
                             "intervention_p")
    elif intervention_p is not None:
        raise InputError(f"{kind} does not take intervention_p", "intervention_p")

    if kind == "ta_discrete":
        if not isinstance(strong, DiscreteAtomSpec):
            raise InputError("ta_discrete requires a two-point strong spec", "strong")
        if strong.k <= v_bar:
            raise InputError(
                f"atom value k={strong.k} must exceed the weak support top {v_bar}",
                "strong.k")
        if strong.p * strong.k <= v_bar:
            raise InputError(
                f"p*k = {strong.p * strong.k:.6g} <= v_bar = {v_bar}: the all-in "
                "equilibrium is not guaranteed", "strong")
    elif not isinstance(strong, DistributionSpec):
        raise InputError(f"{kind} requires a continuous strong distribution", "strong")
    elif kind in ("ta", "ta_intervention"):    # bids come from the bid ODE
        check_bid_ode(weak, strong, n_weak)


@dataclass(frozen=True)
class AuctionSpec:
    kind: str
    n_weak: int
    weak: DistributionSpec
    strong: DistributionSpec | DiscreteAtomSpec
    reserve: float | None = None
    intervention_p: float | None = None
    bid_fn: BidFunction | None = None

    def __post_init__(self):
        check_auction(self.kind, self.n_weak, self.weak, self.strong, self.reserve,
                      self.intervention_p)
        needs_bids = self.kind in ("ta", "ta_intervention")
        if needs_bids and self.bid_fn is None:
            raise InputError(f"{self.kind} requires a bid schedule", "bid_fn")
        if not needs_bids and self.bid_fn is not None:
            raise InputError(f"{self.kind} does not take a bid schedule", "bid_fn")
        if needs_bids and self.bid_fn.grid[-1] < self.weak.support.hi:
            raise InputError(f"bid schedule ends at v = {self.bid_fn.grid[-1]}, below "
                             f"the weak support top {self.weak.support.hi}", "bid_fn")

    @property
    def stride(self) -> int:
        return self.n_weak + STRIDE_EXTRA


@dataclass(frozen=True)
class RevenueEstimate:
    mean: float
    std_error: float
    n: int
    seed: int


# ---------------------------------------------------------------------------
# vectorized blocks
# ---------------------------------------------------------------------------


def _top_two(rows) -> tuple[np.ndarray, np.ndarray]:
    """Largest and second largest entry of each column over a sequence of at
    least two equal-length rows; equal values count twice."""
    first = np.maximum(rows[0], rows[1])
    second = np.minimum(rows[0], rows[1])
    for r in rows[2:]:
        np.maximum(second, np.minimum(first, r), out=second)
        np.maximum(first, r, out=first)
    return first, second


def _pick(v: np.ndarray, hit: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Per column of v (n, m), the entry at the (j+1)-th True of hit down the
    column, counted bidder by bidder; v[0] where there is none."""
    out = v[0].copy()
    seen = np.zeros(j.shape, dtype=np.int64)
    target = j + 1
    for v_i, hit_i in zip(v, hit):
        seen += hit_i
        out = select(hit_i & (seen == target), v_i, out)
    return out


def _block_outcomes(spec: AuctionSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(revenue, surplus) arrays for a block of replicate uniforms (m, stride).

    Bidder-major: row i of v holds weak bidder i's values over the block, and the
    rules run over those rows one bidder at a time.
    """
    n = spec.n_weak
    v = spec.weak.quantile(np.ascontiguousarray(u[:, :n].T))
    tie_u = u[:, n + 1]

    if spec.kind == "ta_discrete":
        k = spec.strong.k
        w = select(u[:, n] < spec.strong.p, k, 0.0)
        pos = v > 0.0                       # weak bid k, else 0
        n_pos = pos.sum(axis=0)
        top = np.where(n_pos > 0, k, 0.0)
        j = np.minimum((tie_u * np.maximum(n_pos, 1)).astype(np.int64), np.maximum(n_pos - 1, 0))
        v_win = _pick(v, pos, j)
        strong_bid = select(w >= k, k, 0.0)
        weak_wins = top > strong_bid
        price = np.minimum(top, strong_bid)
        surplus = select(weak_wins, v_win, w)
        return price, surplus

    if spec.kind != "ta_intervention":
        w = spec.strong.quantile(u[:, n])

    if spec.kind == "sa":
        first, second = _top_two([*v, w])
        return second, first

    if spec.kind == "sa_reserve":
        first, second = _top_two(v)
        clears = w >= spec.reserve
        price = select(clears, np.maximum(spec.reserve, first), second)
        surplus = select(clears, w, first)
        return price, surplus

    # ta / ta_intervention: ranked by value, the top bid is the top value's bid
    v_top = v.max(axis=0)
    top = spec.bid_fn(v_top)
    if spec.kind == "ta":
        strong_bid = w
    else:
        # a zeroed strong value is read only at a top bid of 0: invert no other
        kept = u[:, n + 2] < spec.intervention_p
        read = np.flatnonzero(kept | (top <= 0.0))
        strong = spec.strong.quantile(u[:, n].take(read))
        w = np.zeros(top.shape)
        w[read] = strong
        strong_bid = select(kept, w, 0.0)
    weak_wins = (top > strong_bid) | ((top == strong_bid) & (tie_u < 0.5))
    price = np.minimum(top, strong_bid)
    surplus = select(weak_wins, v_top, w)
    return price, surplus


def _squared_deviations(values: np.ndarray, mean: float, buf: np.ndarray) -> float:
    """Sum of (values - mean)**2 over numpy's pairwise tree for a contiguous
    array: a span is halved, rounded down to a multiple of 8, until it holds at
    most ``_BLOCK_REPLICATES`` values, and each such span's deviations are
    written into ``buf`` and summed by numpy. The additions are those of
    ``np.add.reduce((values - mean)**2)``, in the same order."""
    m = values.size
    if m <= _BLOCK_REPLICATES:
        d = buf[:m]
        np.subtract(values, mean, out=d)
        np.multiply(d, d, out=d)
        return np.add.reduce(d)
    half = m // 2
    half -= half % 8
    return (_squared_deviations(values[:half], mean, buf)
            + _squared_deviations(values[half:], mean, buf))


def estimate(values: np.ndarray, seed: int) -> RevenueEstimate:
    """Mean and standard error of the per-replicate values drawn with seed.

    Bit for bit ``values.mean()`` and ``values.std(ddof=1) / sqrt(n)`` on a
    contiguous array, without the n-element temporary of ``np.std``: the
    deviations are taken one span at a time into a buffer of at most
    ``_BLOCK_REPLICATES`` doubles.
    """
    n = values.size
    mean = np.add.reduce(values) / n
    se = 0.0
    if n > 1:
        buf = np.empty(min(n, _BLOCK_REPLICATES))
        var = _squared_deviations(values, mean, buf) / (n - 1)
        se = float(np.sqrt(var) / math.sqrt(n))
    return RevenueEstimate(mean=float(mean), std_error=se, n=n, seed=seed)


def run_blocks(seed: int, n: int, stride: int, block_fn, outs, threads: int = 1):
    """Fill the arrays in ``outs`` over replicates [0, n), one block at a time.

    block_fn maps a block's uniforms (one row per replicate, ``stride`` wide)
    to one array per output. Blocks are keyed by absolute replicate index, so
    the outputs do not depend on the thread count.
    """
    def work(i0: int):
        m = min(_BLOCK_REPLICATES, n - i0)
        for out, res in zip(outs, block_fn(uniform_block(seed, i0, m, stride))):
            out[i0 : i0 + m] = res

    starts = range(0, n, _BLOCK_REPLICATES)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor   # a one-thread run does not import it
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, starts))
    else:
        for i0 in starts:
            work(i0)


def replicate_arrays(n: int, count: int) -> list[np.ndarray]:
    """``count`` per-replicate output arrays of length n. A count n below 1, or
    one whose arrays cannot be allocated, is refused with ``field`` "n". They
    are a Monte Carlo run's only arrays of length n (``estimate`` adds none)."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}", "n")
    try:
        return [np.empty(n) for _ in range(count)]
    except (MemoryError, ValueError):     # numpy refuses sizes past its index range
        raise InputError(
            f"n = {n} replicates need {8 * count * n / 2**30:.3g} GiB of per-replicate "
            "outputs, more than can be allocated", "n") from None


def simulate_draws(spec: AuctionSpec, n: int, seed: int,
                   threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-replicate (revenue, surplus) arrays, replicate index order."""
    revenue, surplus = replicate_arrays(n, 2)
    run_blocks(seed, n, spec.stride, lambda u: _block_outcomes(spec, u),
               (revenue, surplus), threads)
    return revenue, surplus


def simulate(spec: AuctionSpec, n: int, seed: int, threads: int = 1) -> dict:
    """Monte Carlo revenue and surplus; bit-identical for any thread count."""
    revenue, surplus = simulate_draws(spec, n, seed, threads)
    return {
        "revenue": estimate(revenue, seed),
        "surplus": estimate(surplus, seed),
    }


# ---------------------------------------------------------------------------
# reserve-auction closed forms
# ---------------------------------------------------------------------------


def sa_reserve_closed_form(weak: DistributionSpec, strong: DistributionSpec,
                           n_weak: int, reserve: float) -> dict:
    """Exact revenue/surplus of the second-price auction with a strong-side reserve.

    revenue = G(r) E[v_(2:N)] + (1 - G(r)) r
    surplus = G(r) E[v_(1:N)] + (1 - G(r)) E[w | w >= r]
    E[w | w >= r] = (mean - M(r)) / (1 - G(r)), 0 where 1 - G(r) <= 1e-12

    valid for r >= v_bar (the reserve binds only against the strong bidder);
    above the strong support top G(r) = 1 and the reserve never binds.
    """
    check_auction("sa_reserve", n_weak, weak, strong, reserve=reserve)
    g_at_r = strong.cdf(reserve)
    tail = 1.0 - g_at_r
    ev2 = weak.order_statistic_mean(n_weak, 2)
    ev1 = weak.order_statistic_mean(n_weak, 1)
    revenue = g_at_r * ev2 + tail * reserve
    tail_mean = (strong.mean - strong.partial_mean(reserve)) / tail if tail > 1e-12 else 0.0
    surplus = g_at_r * ev1 + tail * tail_mean
    return {"revenue": float(revenue), "surplus": float(surplus)}
