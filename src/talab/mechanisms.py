"""Per-draw auction outcomes and the deterministic Monte Carlo estimator.

Five mechanisms share one draw layout. Replicate j owns positions
[j*(N+3), (j+1)*(N+3)) of the seed's uniform stream:

    u[0..N-1]  weak values (inverse cdf of F)
    u[N]       strong value (inverse cdf of G, or the two-point atom draw)
    u[N+1]     tie breaker
    u[N+2]     intervention randomization (consumed only when announced)

``run_once`` is the scalar rule-by-rule reference; ``simulate`` evaluates the
same rules vectorized over fixed-size replicate blocks (``run_blocks``, which
the optimal-auction estimator shares). Blocks are keyed by absolute replicate
index and reduced in index order, so the estimate is bit-identical for any
thread count.

A block is evaluated bidder by bidder: the weak uniforms are copied to an
(N, m) array, so each bidder's values and bids are one contiguous row, and the
ranking rules run over those rows instead of reducing along rows N wide. The
first-price stage is a running max whose strict > keeps the first index, as
argmax does, with a column-wise count of bids equal to the max; the
second-price rules keep a running top two (largest and second largest, equal
values counted twice). A tie is resolved by counting the tied (or, under
``ta_discrete``, the positive) bidders in order and taking the (j+1)-th, j
drawn from the tie uniform as in ``run_once``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dist import DistributionSpec
from .equilibrium import BidFunction
from .rng import uniform_block

MECHANISMS = ("ta", "sa", "sa_reserve", "ta_intervention", "ta_discrete")
STRIDE_EXTRA = 3       # strong draw + tie + intervention uniforms per replicate
_BLOCK_REPLICATES = 1 << 15


class MechanismError(ValueError):
    pass


@dataclass(frozen=True)
class DiscreteAtomSpec:
    """Two-point strong value: k with probability p, else 0."""

    k: float
    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise MechanismError(f"atom probability must be in (0, 1), got {self.p}")
        if self.k <= 0.0:
            raise MechanismError(f"atom value must be positive, got {self.k}")


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
        if self.kind not in MECHANISMS:
            raise MechanismError(f"unknown mechanism {self.kind!r}; expected one of {MECHANISMS}")
        if self.n_weak < 2:
            raise MechanismError(f"need at least 2 weak bidders, got {self.n_weak}")
        v_bar = self.weak.support.hi

        needs_bids = self.kind in ("ta", "ta_intervention")
        if needs_bids and self.bid_fn is None:
            raise MechanismError(f"{self.kind} requires a bid schedule")
        if not needs_bids and self.bid_fn is not None:
            raise MechanismError(f"{self.kind} does not take a bid schedule")

        if self.kind == "sa_reserve":
            if self.reserve is None:
                raise MechanismError("sa_reserve requires a reserve")
            if self.reserve < v_bar:
                raise MechanismError(
                    f"reserve {self.reserve} below the weak support top {v_bar}; the "
                    "reserve mechanism's closed forms are only valid for r >= v_bar"
                )
        elif self.reserve is not None:
            raise MechanismError(f"{self.kind} does not take a reserve")

        if self.kind == "ta_intervention":
            if self.intervention_p is None or not 0.0 < self.intervention_p < 1.0:
                raise MechanismError("ta_intervention requires intervention_p in (0, 1)")
        elif self.intervention_p is not None:
            raise MechanismError(f"{self.kind} does not take intervention_p")

        if self.kind == "ta_discrete":
            if not isinstance(self.strong, DiscreteAtomSpec):
                raise MechanismError("ta_discrete requires a two-point strong spec")
            if self.strong.k <= v_bar:
                raise MechanismError(
                    f"atom value k={self.strong.k} must exceed the weak support top {v_bar}"
                )
        elif not isinstance(self.strong, DistributionSpec):
            raise MechanismError(f"{self.kind} requires a continuous strong distribution")

    @property
    def stride(self) -> int:
        return self.n_weak + STRIDE_EXTRA


@dataclass(frozen=True)
class Draw:
    v: np.ndarray
    w: float
    tie_u: float
    intervention_u: float


@dataclass(frozen=True)
class Outcome:
    winner: str                # "weak" or "strong"
    winner_index: int | None   # weak bidder index, None for the strong bidder
    price: float
    surplus: float             # winner's value

    def __post_init__(self):
        if self.winner not in ("weak", "strong"):
            raise MechanismError(f"invalid winner {self.winner!r}")
        if self.price < 0.0 or self.surplus < 0.0:
            raise MechanismError("price and surplus must be nonnegative")


@dataclass(frozen=True)
class RevenueEstimate:
    mean: float
    std_error: float
    n: int
    seed: int


# ---------------------------------------------------------------------------
# scalar reference
# ---------------------------------------------------------------------------


def _pick_max(values: np.ndarray, tie_u: float) -> int:
    top = values.max()
    ties = np.flatnonzero(values == top)
    if ties.size == 1:
        return int(ties[0])
    return int(ties[min(int(tie_u * ties.size), ties.size - 1)])


def run_once(spec: AuctionSpec, draw: Draw) -> Outcome:
    """Outcome of a single auction under the mechanism's rules."""
    v = np.asarray(draw.v, dtype=float)
    if v.shape != (spec.n_weak,):
        raise MechanismError(f"draw has {v.shape} weak values, spec wants {spec.n_weak}")
    w = float(draw.w)

    if spec.kind == "sa":
        allv = np.append(v, w)
        i = _pick_max(allv, draw.tie_u)
        price = float(np.sort(allv)[-2])
        if i < spec.n_weak:
            return Outcome("weak", i, price, float(v[i]))
        return Outcome("strong", None, price, w)

    if spec.kind == "sa_reserve":
        v_sorted = np.sort(v)
        if w >= spec.reserve:
            price = max(spec.reserve, float(v_sorted[-1]))
            return Outcome("strong", None, price, w)
        i = _pick_max(v, draw.tie_u)
        return Outcome("weak", i, float(v_sorted[-2]), float(v[i]))

    if spec.kind == "ta_discrete":
        k = spec.strong.k
        bids = np.where(v > 0.0, k, 0.0)
        i = _pick_max(bids, draw.tie_u)
        top_bid = float(bids[i])
        strong_bid = k if draw.w >= k else 0.0
        if strong_bid >= top_bid:  # second-stage ties go to the strong bidder
            return Outcome("strong", None, top_bid, w)
        return Outcome("weak", i, strong_bid, float(v[i]))

    # ta / ta_intervention
    bids = spec.bid_fn(v)
    i = _pick_max(bids, draw.tie_u)
    top_bid = float(bids[i])
    strong_bid = w
    if spec.kind == "ta_intervention" and draw.intervention_u >= spec.intervention_p:
        strong_bid = 0.0
    weak_wins = top_bid > strong_bid or (top_bid == strong_bid and draw.tie_u < 0.5)
    price = min(top_bid, strong_bid)
    if weak_wins:
        return Outcome("weak", i, price, float(v[i]))
    return Outcome("strong", None, price, w)


def draw_from_uniforms(spec: AuctionSpec, u: np.ndarray) -> Draw:
    """Map one replicate's uniforms to a Draw (the layout in the module docstring)."""
    n = spec.n_weak
    if u.shape != (spec.stride,):
        raise MechanismError(f"expected {spec.stride} uniforms, got {u.shape}")
    v = spec.weak.quantile(u[:n])
    if isinstance(spec.strong, DiscreteAtomSpec):
        w = spec.strong.k if u[n] < spec.strong.p else 0.0
    else:
        w = float(spec.strong.quantile(float(u[n])))
    return Draw(v=v, w=w, tie_u=float(u[n + 1]), intervention_u=float(u[n + 2]))


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
        np.copyto(out, v_i, where=hit_i & (seen == target))
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
        w = np.where(u[:, n] < spec.strong.p, k, 0.0)
        pos = v > 0.0                       # weak bid k, else 0
        n_pos = pos.sum(axis=0)
        top = np.where(n_pos > 0, k, 0.0)
        j = np.minimum((tie_u * np.maximum(n_pos, 1)).astype(np.int64), np.maximum(n_pos - 1, 0))
        v_win = _pick(v, pos, j)
        strong_bid = np.where(w >= k, k, 0.0)
        weak_wins = top > strong_bid
        price = np.minimum(top, strong_bid)
        surplus = np.where(weak_wins, v_win, w)
        return price, surplus

    if isinstance(spec.strong, DiscreteAtomSpec):
        raise MechanismError("two-point strong spec only valid for ta_discrete")
    w = spec.strong.quantile(u[:, n])

    if spec.kind == "sa":
        first, second = _top_two([*v, w])
        return second, first

    if spec.kind == "sa_reserve":
        first, second = _top_two(v)
        clears = w >= spec.reserve
        price = np.where(clears, np.maximum(spec.reserve, first), second)
        surplus = np.where(clears, w, first)
        return price, surplus

    # ta / ta_intervention: a running max whose strict > keeps the first index
    bids = spec.bid_fn(v)
    top = bids[0].copy()
    v_win = v[0].copy()
    for b_i, v_i in zip(bids[1:], v[1:]):
        np.copyto(v_win, v_i, where=b_i > top)
        np.maximum(top, b_i, out=top)
    n_top = np.zeros(top.shape, dtype=np.int64)
    for b_i in bids:
        n_top += b_i == top
    tied = np.flatnonzero(n_top > 1)
    if tied.size:  # probability-zero under a continuous F; resolved uniformly
        j = np.minimum((tie_u[tied] * n_top[tied]).astype(np.int64), n_top[tied] - 1)
        v_win[tied] = _pick(v[:, tied], bids[:, tied] == top[tied], j)
    strong_bid = w
    if spec.kind == "ta_intervention":
        strong_bid = np.where(u[:, n + 2] < spec.intervention_p, w, 0.0)
    weak_wins = (top > strong_bid) | ((top == strong_bid) & (tie_u < 0.5))
    price = np.minimum(top, strong_bid)
    surplus = np.where(weak_wins, v_win, w)
    return price, surplus


def _estimate(values: np.ndarray, n: int, seed: int) -> RevenueEstimate:
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return RevenueEstimate(mean=float(values.mean()), std_error=se, n=n, seed=seed)


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
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, starts))
    else:
        for i0 in starts:
            work(i0)


def simulate_draws(spec: AuctionSpec, n: int, seed: int,
                   threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-replicate (revenue, surplus) arrays, replicate index order."""
    if n < 1:
        raise MechanismError(f"need n >= 1 replicates, got {n}")
    revenue = np.empty(n)
    surplus = np.empty(n)
    run_blocks(seed, n, spec.stride, lambda u: _block_outcomes(spec, u),
               (revenue, surplus), threads)
    return revenue, surplus


def simulate(spec: AuctionSpec, n: int, seed: int, threads: int = 1) -> dict:
    """Monte Carlo revenue and surplus; bit-identical for any thread count."""
    revenue, surplus = simulate_draws(spec, n, seed, threads)
    return {
        "revenue": _estimate(revenue, n, seed),
        "surplus": _estimate(surplus, n, seed),
    }


# ---------------------------------------------------------------------------
# reserve-auction closed forms
# ---------------------------------------------------------------------------


def sa_reserve_closed_form(weak: DistributionSpec, strong: DistributionSpec,
                           n_weak: int, reserve: float) -> dict:
    """Exact revenue/surplus of the second-price auction with a strong-side reserve.

    revenue = G(r) E[v_(2:N)] + (1 - G(r)) r
    surplus = G(r) E[v_(1:N)] + (1 - G(r)) E[w | w >= r]

    valid for r >= v_bar (the reserve binds only against the strong bidder).
    """
    v_bar = weak.support.hi
    if reserve < v_bar:
        raise MechanismError(
            f"reserve {reserve} below the weak support top {v_bar}; closed forms "
            "require r >= v_bar"
        )
    if reserve > strong.support.hi:
        raise MechanismError(
            f"reserve {reserve} above the strong support top {strong.support.hi}"
        )
    g_at_r = strong.cdf(reserve)
    ev2 = weak.order_statistic_mean(n_weak, 2)
    ev1 = weak.order_statistic_mean(n_weak, 1)
    revenue = g_at_r * ev2 + (1.0 - g_at_r) * reserve
    if 1.0 - g_at_r > 1e-12:
        tail_mean = strong.mean_above(reserve)
    else:
        tail_mean = 0.0
    surplus = g_at_r * ev1 + (1.0 - g_at_r) * tail_mean
    return {"revenue": float(revenue), "surplus": float(surplus)}
