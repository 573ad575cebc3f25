"""Symmetric equilibrium bid schedules for the two-stage tournament auction.

The weak bidders' common bid function solves the initial value problem

    b'(v) = H(b, v) = (N-1) * (f(v)/F(v)) * (G(b)/g(b)) * (v - m(b)) / (b - v)

on 0 < v <= v_bar, b(0) = 0, where m(b) = E[w | w <= b] and (F, f) / (G, g)
are the weak / strong value laws. Solutions live strictly inside the band
v < b < m^{-1}(v); H blows up at the lower edge and vanishes at the upper one.

``solve_ode`` integrates it with an adaptive embedded Runge-Kutta method
(Dormand-Prince 4(5)) that rejects steps leaving the band, starting from a
series expansion at the singular origin. The returned schedule is the cubic
Hermite interpolant of the accepted nodes and slopes; each step is also gated
on its defect |b' - H(b, v)| / (1 + |H|) at both Gauss points of the interval
(Enright & Hayes, "Robust and reliable defect control for Runge-Kutta
methods", ACM TOMS 33(1), 2007), not at the midpoint, where the leading term
of the derivative error vanishes. The defect scales like h^3 and sets the
step size next to the error estimate; ``max_ode_residual`` is the worst
accepted defect. The tests check the solver against scipy's DOP853 started
from the same series-start node and recompute the defect from the returned
schedule. An rhs evaluation sweeps each law's components once (``eval3_s``)
and the stages are written out, with every floating-point operation of the
separate cdf/pdf/partial_mean calls and of ``sum()`` over the tableau kept:
the schedules are bit-identical to that form.

``verify_best_response`` checks the solved schedule against grid deviations of
the reported value (and raw bids above b(v_bar)), which is the acceptance
oracle for equilibrium claims.

The strong side may carry an atom at bid zero (announced auctioneer zeroing
with probability 1-p). The same ODE applies against the effective bid law;
only the singular start changes, to b ~ sqrt(2 (N-1)/N * kappa0 * v) with
kappa0 the atom-to-density ratio at the origin.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .dist import DistributionSpec, SortedIndex

__all__ = [
    "BandEscape",
    "BestResponseReport",
    "BidFunction",
    "EquilibriumError",
    "InputError",
    "SingularStartError",
    "SolveOptions",
    "SolveReport",
    "StrongBidLaw",
    "as_strong_law",
    "check_weak_bidders",
    "deviation_payoff",
    "initial_bid_ratio",
    "raw_bid_payoff",
    "solve_ode",
    "verify_best_response",
]


class EquilibriumError(RuntimeError):
    pass


class InputError(ValueError):
    """An input breaks a rule of the model. ``field`` names the argument or
    attribute at fault (``strong.k`` for attribute k of argument strong), so
    a caller can point at where the input came from."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def check_weak_bidders(n_weak: int, error: type[InputError] = InputError):
    """Refuse fewer than 2 weak bidders, as ``error`` naming ``n_weak``: the bid
    ODE, every mechanism and every limit experiment but P5 need two."""
    if n_weak < 2:
        raise error(f"need at least 2 weak bidders, got {n_weak}", "n_weak")


class BandEscape(EquilibriumError):
    """The step size fell below its floor. The message names the gate that
    rejected the last attempt (the band b <= v or m(b) >= v, the error estimate,
    or the Gauss-point defect), or says that none was rejected since the last
    accepted step; ``report`` holds the solver counters up to there
    (``max_ode_residual`` nan)."""

    def __init__(self, message: str, report: "SolveReport | None" = None):
        super().__init__(message)
        self.report = report


class SingularStartError(EquilibriumError):
    """No valid series start at the singular origin."""


def initial_bid_ratio(n_weak: int) -> float:
    """Limit of b(v)/v at the origin: 2N/(N+1)."""
    return 2.0 * n_weak / (n_weak + 1.0)


# ---------------------------------------------------------------------------
# effective strong-side bid law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrongBidLaw:
    """Strong bidder's bid distribution: base value law plus optional atom at 0."""

    dist: DistributionSpec
    zero_bid_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.zero_bid_prob < 1.0:
            raise EquilibriumError(f"zero_bid_prob must be in [0, 1), got {self.zero_bid_prob}")

    @property
    def hi(self) -> float:
        return self.dist.support.hi

    @property
    def atom(self) -> float:
        return self.zero_bid_prob

    @property
    def scale(self) -> float:
        return 1.0 - self.zero_bid_prob

    @cached_property
    def mean(self) -> float:
        return self.scale * self.dist.mean

    def cdf(self, b):
        if isinstance(b, np.ndarray):
            return np.where(b < 0.0, 0.0, self.atom + self.scale * self.dist.cdf(b))
        return 0.0 if b < 0.0 else self.atom + self.scale * self.dist.cdf(b)

    def pdf(self, b):
        return self.scale * self.dist.pdf(b)

    def partial_mean(self, b):
        return self.scale * self.dist.partial_mean(b)

    def mean_below(self, b: float) -> float:
        g = self.cdf(b)
        return 0.0 if g <= 0.0 else self.partial_mean(b) / g

    def eval3(self, b: float) -> tuple[float, float, float]:
        """(cdf, pdf, partial_mean) at a scalar bid b >= 0, one component sweep."""
        c = p = m = 0.0
        for w, ev in self.dist._sweep:
            F, f, M = ev(b)
            c += w * F
            p += w * f
            m += w * M
        z = self.zero_bid_prob
        s = 1.0 - z  # self.atom and self.scale, without the property calls
        return z + s * c, s * p, s * m


def as_strong_law(strong) -> StrongBidLaw:
    if isinstance(strong, StrongBidLaw):
        return strong
    if isinstance(strong, DistributionSpec):
        return StrongBidLaw(strong, 0.0)
    raise EquilibriumError(f"not a strong-side law: {type(strong).__name__}")


# ---------------------------------------------------------------------------
# bid function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BidFunction:
    """Tabulated strictly increasing bid schedule with monotone-cubic interpolation.

    A call finds each point's interval by an exact indexed search of the grid
    (``dist.SortedIndex``) and evaluates the cubic Hermite spline's own
    coefficients in scipy's term order, so it equals
    ``CubicHermiteSpline.__call__`` bit for bit. Scalar and array calls share
    that path."""

    grid: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        s = np.asarray(self.slopes, dtype=float)
        if not (g.ndim == 1 and g.shape == v.shape == s.shape and g.size >= 2):
            raise EquilibriumError("grid/values/slopes must be matching 1-D arrays")
        if g[0] != 0.0 or v[0] != 0.0:
            raise EquilibriumError("bid schedule must start at (0, 0)")
        if not np.all(np.diff(g) > 0):
            raise EquilibriumError("grid must be strictly increasing")
        if not np.all(np.diff(v) > 0):
            raise EquilibriumError("bid values must be strictly increasing")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "slopes", s)

    @cached_property
    def _spline(self) -> CubicHermiteSpline:
        return CubicHermiteSpline(self.grid, self.values, self.slopes)

    @property
    def b_top(self) -> float:
        return float(self.values[-1])

    @cached_property
    def _interval(self) -> SortedIndex:
        # on [grid[0], grid[-1]] the count of interior nodes <= x is PPoly's
        # interval: searchsorted(grid, x, "right") - 1, clipped to [0, n - 2]
        return SortedIndex(self.grid[1:-1])

    def __call__(self, v):
        x = np.clip(v, self.grid[0], self.grid[-1])
        i = self._interval(x)
        c0, c1, c2, c3 = self._spline.c
        s = x - self.grid.take(i)
        ss = s * s
        # the terms and order of scipy's evaluate_poly1: bit-identical to PPoly
        out = c3.take(i) + c2.take(i) * s + c1.take(i) * ss + c0.take(i) * (ss * s)
        return float(out) if np.isscalar(v) else out

    def to_json_dict(self) -> dict:
        return {
            "grid": self.grid.tolist(),
            "values": self.values.tolist(),
            "slopes": self.slopes.tolist(),
        }

    def csv_rows(self):
        for v, b, s in zip(self.grid, self.values, self.slopes):
            yield v, b, s


@dataclass(frozen=True)
class SolveReport:
    max_ode_residual: float     # worst Gauss-point defect of the accepted steps
    v0: float                   # series-start node
    accepted_steps: int         # grid size - 2
    rejected_error: int         # rejected attempts: error estimate over tolerance,
    rejected_band: int          # an rhs outside the band (or overflow, zero division),
    rejected_residual: int      # the Gauss-point defect gate
    min_step: float             # smallest accepted step and its left end
    min_step_v: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class BestResponseReport:
    max_regret: float
    worst_pair: tuple[float, float]
    grid_shape: tuple[int, int]
    max_argmax_offset: int


@dataclass(frozen=True)
class SolveOptions:
    v0_fraction: float = 1e-4
    rk_tolerance: float = 1e-10
    residual_tolerance: float = 5e-7   # Gauss-point defect |b' - H| / (1 + |H|) gate


# ---------------------------------------------------------------------------
# ODE right-hand side
# ---------------------------------------------------------------------------


class _OutOfBand(Exception):
    pass


def _rhs_factory(weak: DistributionSpec, law: StrongBidLaw, n_weak: int):
    nm1 = float(n_weak - 1)
    weak_sweep, eval3 = weak._sweep, law.eval3
    v_lo, v_hi = weak.support.lo - 1e-12, weak.support.hi + 1e-12  # weak.pdf's domain

    def rhs(v: float, b: float) -> float:
        Fv = fv = 0.0  # weak.cdf(v) and weak.pdf(v) in one sweep
        for w, ev in weak_sweep:
            F, f, _ = ev(v)
            Fv += w * F
            fv += w * f
        if Fv <= 0.0 or v <= 0.0:
            raise _OutOfBand
        if v < v_lo or v > v_hi:
            weak._check_domain_s(v)
        Gb, gb, Mb = eval3(b)
        if b <= v:
            raise _OutOfBand
        m = Mb / Gb if Gb > 0.0 else 0.0
        if m >= v:
            raise _OutOfBand
        if gb <= 0.0:
            raise _OutOfBand
        return nm1 * (fv / Fv) * (Gb / gb) * (v - m) / (b - v)

    return rhs


# ---------------------------------------------------------------------------
# Dormand-Prince 4(5) with band rejection
# ---------------------------------------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _dp_stepper(rhs):
    """One Dormand-Prince attempt (v, b, h, k1) -> (b5, b4, k7 = the next k1).

    Each sum keeps the terms and order of sum() over its _DP_* row (zero B5/B4
    weights skipped). Without sum()'s leading 0 only the sign of a zero total can
    differ, and b + h * total hides it because b > 0: the results are bit-identical."""
    _, c2, c3, c4, c5, c6, c7 = _DP_C
    _, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (a71, a72, a73, a74, a75, a76) = _DP_A
    p1, _, p3, p4, p5, p6, _ = _DP_B5
    q1, _, q3, q4, q5, q6, q7 = _DP_B4

    def step(v: float, b: float, h: float, k1: float) -> tuple[float, float, float]:
        k2 = rhs(v + c2 * h, b + h * (a21 * k1))
        k3 = rhs(v + c3 * h, b + h * (a31 * k1 + a32 * k2))
        k4 = rhs(v + c4 * h, b + h * (a41 * k1 + a42 * k2 + a43 * k3))
        k5 = rhs(v + c5 * h, b + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4))
        k6 = rhs(v + c6 * h, b + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5))
        k7 = rhs(v + c7 * h, b + h * (a71 * k1 + a72 * k2 + a73 * k3 + a74 * k4
                                      + a75 * k5 + a76 * k6))
        b5 = b + h * (p1 * k1 + p3 * k3 + p4 * k4 + p5 * k5 + p6 * k6)
        b4 = b + h * (q1 * k1 + q3 * k3 + q4 * k4 + q5 * k5 + q6 * k6 + q7 * k7)
        return b5, b4, k7

    return step


def _model_warnings(weak: DistributionSpec, law: StrongBidLaw) -> list[str]:
    notes = []
    v_bar = weak.support.hi
    if law.mean < v_bar - 1e-12:
        notes.append(
            f"strength assumption violated: E[strong bid] = {law.mean:.6g} < v_bar = {v_bar:.6g}; "
            "results are outside the model's guarantees"
        )
    if not law.dist.interior_positive:
        notes.append("strong density is not strictly positive on the interior")
    if not law.dist.density_c1:
        notes.append("strong density is not C^1 on its support")
    if not weak.interior_positive:
        notes.append("weak density is not strictly positive on the interior")
    if weak.pdf(weak.support.lo) <= 0.0:
        notes.append(
            "weak density vanishes at the origin; the singular-start bid ratio "
            "assumes f(0) > 0 (the solution self-corrects forward, the start "
            "transient may be off)"
        )
    if law.atom == 0.0 and law.pdf(law.dist.support.lo) <= 0.0:
        notes.append(
            "strong density vanishes at the origin; the singular-start bid ratio "
            "assumes g(0) > 0"
        )
    return notes


def _series_start(weak, law, n_weak, v0_fraction):
    """Starting point (v0, b0, slope0) consistent with the origin asymptotics."""
    v_bar = weak.support.hi
    v0 = v0_fraction * v_bar
    if law.atom == 0.0:
        beta0 = initial_bid_ratio(n_weak)
        for _ in range(40):
            b0 = beta0 * v0
            if law.mean_below(b0) < v0:
                return v0, b0, beta0
            v0 *= 0.1
        raise SingularStartError("no in-band series start found (smooth law)")
    # zero-atom law: b ~ sqrt(2 (N-1)/N * kappa0 * v)
    g0 = law.pdf(law.dist.support.lo)
    if g0 <= 0.0:
        raise SingularStartError("strong density vanishes at 0; atom start undefined")
    kappa0 = law.atom / g0
    for _ in range(60):
        b0 = math.sqrt(2.0 * (n_weak - 1) / n_weak * kappa0 * v0)
        g_at = law.pdf(min(b0, law.hi))
        density_flat = g0 > 0 and abs(g_at - g0) <= 0.25 * g0
        if b0 < law.hi and density_flat and law.mean_below(b0) < v0 and b0 > v0:
            return v0, b0, b0 / v0
        v0 *= 0.1
        if v0 < 1e-300:
            break
    raise SingularStartError("no in-band series start found (zero-atom law)")


def solve_ode(
    weak: DistributionSpec,
    strong,
    n_weak: int,
    opts: SolveOptions = SolveOptions(),
) -> tuple[BidFunction, SolveReport]:
    """Integrate the bid ODE from the singular origin to the top of the support."""
    check_weak_bidders(n_weak)
    law = as_strong_law(strong)
    if weak.support.lo != 0.0 or law.dist.support.lo != 0.0:
        raise EquilibriumError("the model requires value supports starting at 0")
    notes = _model_warnings(weak, law)
    for msg in notes:
        warnings.warn(msg, RuntimeWarning, stacklevel=2)

    v_bar = weak.support.hi
    rhs = _rhs_factory(weak, law, n_weak)
    step = _dp_stepper(rhs)
    v0, b0, slope0 = _series_start(weak, law, n_weak, opts.v0_fraction)

    # the floor follows v0 too: from an atom start at v0 = 1e-10 the sqrt(v)
    # transient needs steps below 1e-12 * v_bar
    h_min = min(1e-12 * v_bar, 1e-4 * v0)
    rtol, dtol = opts.rk_tolerance, opts.residual_tolerance
    atol = 1e-3 * rtol * v_bar

    vs = [0.0, v0]
    bs = [0.0, b0]
    ks = [slope0, rhs(v0, b0)]

    v, b = v0, b0
    k1 = ks[-1]
    h = v0
    n_error = n_band = n_defect = 0
    min_h, min_h_v = math.inf, v0
    max_defect = 0.0
    gate = None  # the gate that rejected the last attempt, if it was rejected

    while v < v_bar - 1e-15 * v_bar:
        # a step the grid represents exactly: the returned interpolant's
        # derivative is (b1 - b0)/(v1 - v0), so the gate must use that width
        h = (v + min(h, v_bar - v)) - v
        if h < h_min:
            report = SolveReport(math.nan, v0, len(vs) - 2, n_error, n_band, n_defect,
                                 min_h, min_h_v, tuple(notes))
            raise BandEscape(
                f"step size underflow at v={v:.6g} (b={b:.6g}); "
                + (f"the {gate} gate rejected the last attempt" if gate
                   else "no attempt was rejected since the last accepted step")
                + f" (rejections: {n_error} error-estimate, {n_band} band, "
                f"{n_defect} defect)",
                report,
            )
        try:
            b5, b4, k_end = step(v, b, h, k1)
            err = abs(b5 - b4)
            scale = atol + rtol * max(abs(b), abs(b5))
            if not math.isfinite(err) or err > scale:
                n_error += 1
                gate = "error-estimate"
                h *= max(0.2, 0.9 * (scale / err) ** 0.2) if math.isfinite(err) else 0.5
                continue
            defect = _gauss_defect(rhs, v, b, b5, k1, k_end, h)
        except (_OutOfBand, OverflowError, ZeroDivisionError):
            n_band += 1
            gate = "band"
            h *= 0.5
            continue
        # the returned schedule is this interval's cubic Hermite interpolant: its
        # defect scales like h^3, so it sets the step as the error estimate does
        grow_defect = 0.9 * (dtol / max(defect, 1e-300)) ** (1.0 / 3.0)
        if not defect <= dtol:
            n_defect += 1
            gate = "defect"
            h *= max(0.2, grow_defect)
            continue
        # accepted; k_end is f(v+h, b5) by the FSAL property
        if h < min_h:
            min_h, min_h_v = h, v
        max_defect = max(max_defect, defect)
        v, b = v + h, b5
        k1 = k_end
        gate = None
        vs.append(v)
        bs.append(b)
        ks.append(k1)
        h *= min(5.0, 0.9 * (scale / max(err, 1e-300)) ** 0.2, grow_defect)

    vs[-1] = v_bar  # the last step lands within an ulp of the top; pin it
    bid = BidFunction(np.asarray(vs), np.asarray(bs), np.asarray(ks))
    return bid, SolveReport(max_defect, v0, len(vs) - 2, n_error, n_band, n_defect,
                            min_h, min_h_v, tuple(notes))


_GAUSS_OFFSET = math.sqrt(3.0) / 6.0   # Gauss points at theta = 1/2 -+ this


def _gauss_defect(rhs, v, b0, b1, k0, k1, h) -> float:
    """max |b' - H(b, v)| / (1 + |H|) of the cubic Hermite interpolant of
    (v, b0, k0), (v + h, b1, k1) at the two Gauss points of the interval.

    At theta(1 - theta) = 1/6 the Hermite basis reduces to
    b = b0 + (4 theta/3 - 1/6) (b1 - b0) + h ((1 - theta) k0 - theta k1) / 6 and
    b' = (b1 - b0)/h + (1/2 - theta)(k0 - k1)."""
    worst = 0.0
    for th in (0.5 - _GAUSS_OFFSET, 0.5 + _GAUSS_OFFSET):
        bg = b0 + (4.0 * th / 3.0 - 1.0 / 6.0) * (b1 - b0) + h * ((1.0 - th) * k0 - th * k1) / 6.0
        dg = (b1 - b0) / h + (0.5 - th) * (k0 - k1)
        hg = rhs(v + th * h, bg)
        worst = max(worst, abs(dg - hg) / (1.0 + abs(hg)))
    return worst


# ---------------------------------------------------------------------------
# payoffs and best-response verification
# ---------------------------------------------------------------------------


def deviation_payoff(v_true, v_report, bid: BidFunction, weak: DistributionSpec,
                     strong, n_weak: int):
    """Expected payoff of a weak bidder of value v reporting v_report.

    pi(r | v) = F(r)^(N-1) * integral over [0, b(r)] of (v - s) dG(s),
    with the inner integral in closed form v*G(b) - M(b).
    """
    law = as_strong_law(strong)
    r = np.asarray(v_report, dtype=float)
    v = np.asarray(v_true, dtype=float)
    b = bid(r)
    win1 = weak.cdf(r) ** (n_weak - 1)
    out = win1 * (v * law.cdf(b) - law.partial_mean(b))
    return float(out) if out.ndim == 0 else out


def raw_bid_payoff(v_true, raw_bid, weak: DistributionSpec, strong, n_weak: int):
    """Payoff of bidding above the top of the schedule (first stage won surely)."""
    law = as_strong_law(strong)
    b = np.asarray(raw_bid, dtype=float)
    v = np.asarray(v_true, dtype=float)
    out = v * law.cdf(b) - law.partial_mean(b)
    return float(out) if out.ndim == 0 else out


_BR_VALUES = 50       # true values v_bar/50, ..., v_bar
_BR_REPORTS = 200     # reported values 0, ..., v_bar
_BR_RAW_BIDS = 16     # raw bids above b(v_bar), up to the strong support top


def verify_best_response(bid: BidFunction, weak: DistributionSpec, strong,
                         n_weak: int) -> BestResponseReport:
    """Max regret of the schedule against reported-value and raw-bid deviations."""
    law = as_strong_law(strong)
    v_bar = weak.support.hi
    v_grid = np.linspace(v_bar / _BR_VALUES, v_bar, _BR_VALUES)
    dev_grid = np.linspace(0.0, v_bar, _BR_REPORTS)

    pi = deviation_payoff(v_grid[:, None], dev_grid, bid, weak, law, n_weak)
    pi_eq = deviation_payoff(v_grid, v_grid, bid, weak, law, n_weak)

    regret = pi - pi_eq[:, None]
    i, j = np.unravel_index(np.argmax(regret), regret.shape)
    max_regret = float(regret[i, j])
    worst = (float(v_grid[i]), float(dev_grid[j]))

    # raw bids above the top of the schedule (win the first stage outright)
    top = bid.b_top
    if law.hi > top:
        raws = np.linspace(top, law.hi, _BR_RAW_BIDS + 1)[1:]
        pi_raw = raw_bid_payoff(v_grid[:, None], raws, weak, law, n_weak)
        raw_regret = pi_raw - pi_eq[:, None]
        ri, rj = np.unravel_index(np.argmax(raw_regret), raw_regret.shape)
        if float(raw_regret[ri, rj]) > max_regret:
            max_regret = float(raw_regret[ri, rj])
            worst = (float(v_grid[ri]), float(raws[rj]))

    # argmax of pi(. | v) should sit within one dev-grid step of v
    arg = np.argmax(pi, axis=1)
    nearest = np.searchsorted(dev_grid, v_grid)
    nearest = np.clip(nearest, 1, dev_grid.size - 1)
    nearest = np.where(
        np.abs(dev_grid[nearest - 1] - v_grid) <= np.abs(dev_grid[nearest] - v_grid),
        nearest - 1,
        nearest,
    )
    max_offset = int(np.max(np.abs(arg - nearest)))

    return BestResponseReport(
        max_regret=max(max_regret, 0.0),
        worst_pair=worst,
        grid_shape=(v_grid.size, dev_grid.size),
        max_argmax_offset=max_offset,
    )

