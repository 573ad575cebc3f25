"""Symmetric equilibrium bid schedules for the two-stage tournament auction.

The weak bidders' common bid function solves the initial value problem

    b'(v) = H(b, v) = (N-1) * (f(v)/F(v)) * (G(b)/g(b)) * (v - m(b)) / (b - v)

on 0 < v <= v_bar, b(0) = 0, where m(b) = E[w | w <= b] and (F, f) / (G, g)
are the weak / strong value laws. Solutions live strictly inside the band
v < b < m^{-1}(v); H blows up at the lower edge and vanishes at the upper one.

``solve_ode`` integrates it with an adaptive embedded Runge-Kutta method
(Dormand-Prince 4(5)) that rejects steps leaving the band, starting from a
series expansion at the singular origin. The returned schedule is the
method's fourth-order continuous extension (Shampine, "Some practical
Runge-Kutta formulas", Math. Comp. 46, 1986), built from the seven stages
each step computes: on each interval the cubic Hermite interpolant of the
accepted nodes and slopes plus one quartic bump. Each step is also gated on
a bound of that quartic's defect |b' - H(b, v)| / (1 + |H|) over the
interval, from samples at both Gauss points and the midpoint (continuous
defect control: Enright & Hayes, "Robust and reliable defect control for
Runge-Kutta methods", ACM TOMS 33(1), 2007). The defect and the error estimate
set the step size with one exponent, 1/5; ``max_ode_residual`` is the largest
accepted bound. Where the bids reach a knot of the strong law, at which its
density or a derivative of it may jump and H is not smooth, a step is cut to
end just past the knot, and a step across a knot of either law is also gated
on its defect at 31 points. The tests check the solver against scipy's DOP853
started from the same series-start node, check the bump against the dense
output of scipy's RK45 and recompute the defect from the returned schedule. An
rhs evaluation sweeps each law's components once (``eval3_s``) and the stages
are written out, with every floating-point operation of the separate
cdf/pdf/partial_mean calls and of ``sum()`` over the tableau kept: the
schedules are bit-identical to that form.

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
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    "check_bid_ode",
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


def check_weak_bidders(n_weak: int, error: type[InputError] = InputError, least: int = 2):
    """Refuse fewer than ``least`` weak bidders, as ``error`` naming ``n_weak``:
    the bid ODE, every mechanism and every limit experiment but the optimal
    auction need two."""
    if n_weak < least:
        raise error(f"need at least {least} weak bidders, got {n_weak}", "n_weak")


def check_bid_ode(weak: DistributionSpec, strong, n_weak: int):
    """Refuse a bid ODE outside the model, naming ``n_weak``, ``weak`` or
    ``strong``: two weak bidders at least, and value supports that start at 0."""
    check_weak_bidders(n_weak)
    for name, law in (("weak", weak), ("strong", as_strong_law(strong).dist)):
        if law.support.lo != 0.0:
            raise InputError(f"the bid ODE needs value supports starting at 0; the {name} "
                             f"support starts at {law.support.lo}", name)


class BandEscape(EquilibriumError):
    """The step size fell below its floor. The message names the gate that
    rejected the last attempt (the band b <= v or m(b) >= v, the error estimate,
    or the defect bound), or says that none was rejected since the last
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
    """Tabulated strictly increasing bid schedule, piecewise quartic.

    On interval i, with h = grid[i+1] - grid[i] and theta = (v - grid[i]) / h,
    the schedule is the cubic Hermite interpolant of the end values and slopes
    plus ``bumps[i]`` * theta^2 (1 - theta)^2, a term that leaves both end values
    and slopes alone. ``solve_ode`` returns the Dormand-Prince step's own
    fourth-order continuous extension in this form (Shampine, "Some practical
    Runge-Kutta formulas", Math. Comp. 46, 1986); ``bumps`` defaults to zeros,
    the cubic Hermite spline. The pieces are kept as power-form coefficients
    c4 ... c0 of s^4 ... s^0 (s = v - grid[i]) and evaluated by Horner's rule
    after an exact indexed search of the grid (``dist.SortedIndex``); scalar and
    array calls share that path. Nodes, values, slopes and bumps must be finite
    and the values strictly increasing. The schedule must also be monotone
    between nodes: on each interval b' >= 0 at both ends and at the real roots
    of b'' inside it, which is exact for a polynomial. Only a dip of rounding
    size, 2^-45 of the sum of b''s term magnitudes, is let through, so that
    the cubics on the edge of Fritsch and Carlson's box (end slopes in
    [0, 3 x the secant], SIAM J. Numer. Anal. 17(2), 1980), whose b' touches
    zero, pass."""

    grid: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    bumps: np.ndarray | None = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        s = np.asarray(self.slopes, dtype=float)
        e = np.zeros(max(g.size - 1, 0)) if self.bumps is None \
            else np.asarray(self.bumps, dtype=float)
        if not (g.ndim == 1 and g.shape == v.shape == s.shape and g.size >= 2
                and e.shape == (g.size - 1,)):
            raise EquilibriumError("grid/values/slopes must be matching 1-D arrays, "
                                   "with one bump per interval")
        if not all(np.isfinite(a).all() for a in (g, v, s, e)):
            raise EquilibriumError("grid/values/slopes/bumps must be finite")
        if g[0] != 0.0 or v[0] != 0.0:
            raise EquilibriumError("bid schedule must start at (0, 0)")
        if not np.all(np.diff(g) > 0):
            raise EquilibriumError("grid must be strictly increasing")
        if not np.all(np.diff(v) > 0):
            raise EquilibriumError("bid values must be strictly increasing")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "slopes", s)
        object.__setattr__(self, "bumps", e)
        if not self._monotone_between_nodes():
            raise EquilibriumError("the schedule must be monotone between nodes: "
                                   "b' >= 0 at each interval's ends and at the roots of b''")

    @cached_property
    def _coefficients(self) -> tuple[np.ndarray, ...]:
        dx = np.diff(self.grid)
        k = self.slopes
        slope = np.diff(self.values) / dx
        t = (k[:-1] + k[1:] - 2 * slope) / dx
        q = self.bumps / dx / dx
        return q / dx / dx, t / dx - 2 * q / dx, (slope - k[:-1]) / dx - t + q, k[:-1], \
            self.values[:-1]

    def _monotone_between_nodes(self) -> bool:
        # b'(theta) = k0 + B theta + C theta^2 + D theta^3 on each interval; the
        # roots of b'' inside it are those of B + 2 C theta + 3 D theta^2, and a
        # root outside [0, 1] (or none) is clipped to an end, which is checked anyway
        c4, c3, c2, k0, _ = self._coefficients
        dx = np.diff(self.grid)
        B, C, D = 2.0 * c2 * dx, 3.0 * c3 * dx * dx, 4.0 * c4 * dx * dx * dx
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -(C + np.copysign(np.sqrt(C * C - 3.0 * D * B), C))
            thetas = [np.zeros_like(dx), np.ones_like(dx), q / (3.0 * D), B / q]
        size = np.abs(k0) + np.abs(B) + np.abs(C) + np.abs(D)
        for th in thetas:
            th = np.clip(np.nan_to_num(th, nan=0.0, posinf=0.0, neginf=0.0), 0.0, 1.0)
            if not np.all(k0 + th * (B + th * (C + th * D)) >= -2.0 ** -45 * size):
                return False
        return True

    @property
    def b_top(self) -> float:
        return float(self.values[-1])

    @cached_property
    def _interval(self) -> SortedIndex:
        # on [grid[0], grid[-1]] the count of interior nodes <= x is the
        # interval: searchsorted(grid, x, "right") - 1, clipped to [0, n - 2]
        return SortedIndex(self.grid[1:-1])

    def __call__(self, v):
        x = np.clip(v, self.grid[0], self.grid[-1])
        i = self._interval(x)
        c4, *rest = self._coefficients
        # Horner's rule, in place; i is in range, and mode="clip" lets take
        # write into out without the buffer mode="raise" makes
        s = x - self.grid.take(i, mode="clip")
        out = c4.take(i, mode="clip")
        term = np.empty_like(out)
        for c in rest:
            out *= s
            out += c.take(i, out=term, mode="clip")
        return float(out) if np.isscalar(v) else out

    def to_json_dict(self) -> dict:
        return {
            "grid": self.grid.tolist(),
            "values": self.values.tolist(),
            "slopes": self.slopes.tolist(),
            "bumps": self.bumps.tolist(),
        }

    def csv_rows(self):
        for v, b, s in zip(self.grid, self.values, self.slopes):
            yield v, b, s


@dataclass(frozen=True)
class SolveReport:
    max_ode_residual: float     # largest defect bound of the accepted steps
    v0: float                   # series-start node
    accepted_steps: int         # grid size - 2
    rejected_error: int         # rejected attempts: error estimate over tolerance,
    rejected_band: int          # an rhs outside the band (or overflow, zero division),
    rejected_residual: int      # the defect gate
    min_step: float             # smallest accepted step and its left end
    min_step_v: float
    warnings: tuple[str, ...] = ()   # model assumptions the inputs break; no RuntimeWarning


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
    residual_tolerance: float = 5e-7   # gate on the bound of |b' - H| / (1 + |H|)


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
# theta^4 column of the continuous extension b + h sum_j (K P)_j theta^(j+1) (the
# P matrix of scipy's RK45): at theta = 1 it is b5 with slope k7, so it is the
# cubic Hermite of the step plus e theta^2 (1 - theta)^2, e = h (K P)_3
_DP_E = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
         -10690763975 / 1880347072, 701980252875 / 199316789632,
         -1453857185 / 822651844, 69997945 / 29380423)


def _dp_stepper(rhs):
    """One Dormand-Prince attempt (v, b, h, k1) -> (b5, b4, k7 = the next k1, e),
    e the step's quartic bump (see ``_DP_E``).

    Each sum keeps the terms and order of sum() over its _DP_* row (zero
    weights skipped). Without sum()'s leading 0 only the sign of a zero total can
    differ; b + h * total hides it because b > 0, and a zero bump's sign changes
    no value of the schedule: the results are bit-identical."""
    _, c2, c3, c4, c5, c6, c7 = _DP_C
    _, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (a71, a72, a73, a74, a75, a76) = _DP_A
    p1, _, p3, p4, p5, p6, _ = _DP_B5
    q1, _, q3, q4, q5, q6, q7 = _DP_B4
    e1, _, e3, e4, e5, e6, e7 = _DP_E

    def step(v: float, b: float, h: float, k1: float) -> tuple[float, float, float, float]:
        k2 = rhs(v + c2 * h, b + h * (a21 * k1))
        k3 = rhs(v + c3 * h, b + h * (a31 * k1 + a32 * k2))
        k4 = rhs(v + c4 * h, b + h * (a41 * k1 + a42 * k2 + a43 * k3))
        k5 = rhs(v + c5 * h, b + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4))
        k6 = rhs(v + c6 * h, b + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5))
        k7 = rhs(v + c7 * h, b + h * (a71 * k1 + a72 * k2 + a73 * k3 + a74 * k4
                                      + a75 * k5 + a76 * k6))
        b5 = b + h * (p1 * k1 + p3 * k3 + p4 * k4 + p5 * k5 + p6 * k6)
        b4 = b + h * (q1 * k1 + q3 * k3 + q4 * k4 + q5 * k5 + q6 * k6 + q7 * k7)
        e = h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7)
        return b5, b4, k7, e

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
    check_bid_ode(weak, strong, n_weak)
    law = as_strong_law(strong)
    notes = _model_warnings(weak, law)

    v_bar = weak.support.hi
    rhs = _rhs_factory(weak, law, n_weak)
    step = _dp_stepper(rhs)
    v0, b0, slope0 = _series_start(weak, law, n_weak, opts.v0_fraction)

    # the floor follows v0 too: from an atom start at v0 = 1e-10 the sqrt(v)
    # transient needs steps below 1e-12 * v_bar
    h_min = min(1e-12 * v_bar, 1e-4 * v0)
    rtol, dtol = opts.rk_tolerance, opts.residual_tolerance
    atol = 1e-3 * rtol * v_bar

    try:
        k0 = rhs(v0, b0)
    except _OutOfBand:
        raise SingularStartError(
            f"no valid series start: the bid ODE is undefined at v0={v0:.3g}, "
            f"b0={b0:.3g} (the weak cdf is 0 there, or b0 is outside the band)") from None
    vs = [0.0, v0]
    bs = [0.0, b0]
    ks = [slope0, k0]
    es = [0.0]    # [0, v0] keeps the series start's cubic

    b_knots, v_knots = law.dist.interior_knots(), weak.interior_knots()
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
            b5, b4, k_end, e = step(v, b, h, k1)
            err = abs(b5 - b4)
            scale = atol + rtol * max(abs(b), abs(b5))
            if not math.isfinite(err) or err > scale:
                n_error += 1
                gate = "error-estimate"
                h *= max(0.2, 0.9 * (scale / err) ** 0.2) if math.isfinite(err) else 0.5
                continue
            # a law's density or a derivative of it may jump at a knot, so H is
            # not smooth across one and the bound's model fails there. A step
            # whose bids cross a knot of the strong law well inside it is cut to
            # end just past the point where the chord from b to b5 meets the
            # knot; a step that still crosses a knot of either law is also gated
            # on the defect sampled at 31 points
            j = bisect_right(b_knots, b)
            crossing = j < len(b_knots) and b_knots[j] < b5
            if crossing:
                th = (b_knots[j] - b) / (b5 - b)
                if 2.0 ** -8 < th < 1.0 - 2.0 ** -8:
                    h = (v + h * th * (1.0 + 2.0 ** -10)) - v
                    continue
            defect = _defect_bound(rhs, v, b, b5, k1, k_end, h, e)
            if crossing or bisect_right(v_knots, v) != bisect_right(v_knots, v + h):
                defect = max(defect, max(abs(_defect_at(rhs, v, b, b5, k1, k_end, h, e, p))
                                         for p in _KNOT_POINTS))
        except (_OutOfBand, OverflowError, ZeroDivisionError):
            n_band += 1
            gate = "band"
            h *= 0.5
            continue
        # the returned schedule is this interval's quartic; its defect sets the
        # step as the error estimate does, with the same exponent
        ratio = min(scale / max(err, 1e-300), dtol / max(defect, 1e-300))
        if not defect <= dtol:
            n_defect += 1
            gate = "defect"
            h *= max(0.2, 0.9 * ratio ** 0.2)
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
        es.append(e)
        h *= min(5.0, 0.9 * ratio ** 0.2)

    vs[-1] = v_bar  # the last step lands within an ulp of the top; pin it
    bid = BidFunction(np.asarray(vs), np.asarray(bs), np.asarray(ks), np.asarray(es))
    return bid, SolveReport(max_defect, v0, len(vs) - 2, n_error, n_band, n_defect,
                            min_h, min_h_v, tuple(notes))


def _basis(th: float) -> tuple[float, ...]:
    """theta and the weights of one schedule piece at it: b = b0 + w1 (b1 - b0)
    + h (w2 k0 + w3 k1) + w4 e and b' = d1 (b1 - b0)/h + d2 k0 + d3 k1 + d4 e/h,
    from the cubic Hermite basis and the bump theta^2 (1 - theta)^2."""
    u = th * (1.0 - th)
    return (th, th * th * (3.0 - 2.0 * th), u * (1.0 - th), -u * th, u * u,
            6.0 * u, (1.0 - th) * (1.0 - 3.0 * th), th * (3.0 * th - 2.0),
            2.0 * u * (1.0 - 2.0 * th))


_GAUSS_OFFSET = math.sqrt(3.0) / 6.0   # Gauss points at theta = 1/2 -+ this
_ODD_PEAK = 1.0 / (12.0 * math.sqrt(3.0))   # max of x (1/4 - x^2) on [0, 1/2]
_GATE_POINTS = tuple(_basis(th) for th in (0.5 - _GAUSS_OFFSET, 0.5, 0.5 + _GAUSS_OFFSET))
_KNOT_POINTS = tuple(_basis(j / 32.0) for j in range(1, 32))


def _defect_at(rhs, v, b0, b1, k0, k1, h, e, point) -> float:
    """Signed (b' - H(b, v)) / (1 + |H|) of the schedule piece on [v, v + h] at
    one ``_basis`` point."""
    th, w1, w2, w3, w4, d1, d2, d3, d4 = point
    hb = rhs(v + th * h, b0 + w1 * (b1 - b0) + h * (w2 * k0 + w3 * k1) + w4 * e)
    return (d1 * (b1 - b0) / h + d2 * k0 + d3 * k1 + d4 * e / h - hb) / (1.0 + abs(hb))


def _defect_bound(rhs, v, b0, b1, k0, k1, h, e) -> float:
    """Bound on |b' - H(b, v)| / (1 + |H|) over the quartic schedule piece on
    [v, v + h]: the cubic Hermite interpolant of (v, b0, k0), (v + h, b1, k1)
    plus e theta^2 (1 - theta)^2.

    The defect d vanishes at both ends, where the piece's slopes are H. It is
    sampled at the Gauss points x = -+ g (x = theta - 1/2, g = sqrt(3)/6) and
    at the midpoint, and modelled as d(x) = (1/4 - x^2)(a + beta x + c x^2)
    through the three samples: where H is smooth over the step, the leading
    defect term of a piece whose end data are fifth-order accurate has this
    form. Its even part peaks at the midpoint or at the interior extremum of
    (1/4 - y)(a + c y), y = x^2; its odd part, beta x (1/4 - x^2), at
    x = 1/(2 sqrt 3). The sum of the two peaks bounds the model on the whole
    interval and is at most twice its largest value. The cubic's leading term
    is odd and peaks at the Gauss points; the quartic's has an even part too,
    largest at the midpoint, which the Gauss points alone would miss."""
    dl, dm, dr = (_defect_at(rhs, v, b0, b1, k0, k1, h, e, p) for p in _GATE_POINTS)
    # a + beta x + c x^2 takes 6 dl, 4 dm, 6 dr at x = -g, 0, g (g^2 = 1/12)
    a = 4.0 * dm
    beta = 3.0 * (dr - dl) / _GAUSS_OFFSET
    c = 12.0 * (3.0 * (dl + dr) - a)
    even = 0.25 * abs(a)
    y = (0.25 * c - a) / (2.0 * c) if c != 0.0 else 0.0
    if 0.0 < y < 0.25:
        even = max(even, abs((0.25 - y) * (a + c * y)))
    return even + _ODD_PEAK * abs(beta)


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

