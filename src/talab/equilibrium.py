"""Symmetric equilibrium bid schedules for the two-stage tournament auction.

The weak bidders' common bid function solves the initial value problem

    b'(v) = H(b, v) = (N-1) * (f(v)/F(v)) * (G(b)/g(b)) * (v - m(b)) / (b - v)

on 0 < v <= v_bar, b(0) = 0, where m(b) = E[w | w <= b] and (F, f) / (G, g)
are the weak / strong value laws. Solutions live strictly inside the band
v < b < m^{-1}(v); H blows up at the lower edge and vanishes at the upper one.

``solve_ode`` integrates it with an adaptive embedded Runge-Kutta method,
Dormand-Prince 8(7) ("DOP853": Hairer, Norsett & Wanner, Solving ODEs I, II.10),
that rejects steps leaving the band, starting from a series expansion at the
singular origin. The returned schedule is the method's order-7 continuous
extension, built from the step's 12 stages, its FSAL stage and three more:
on each interval the cubic Hermite interpolant of the accepted nodes and
slopes plus theta^2 (1 - theta)^2 (F3 + theta F4 + theta (1 - theta) F5
+ theta^2 (1 - theta) F6), a piece of degree 7. Each step is also gated on a
bound of that piece's defect |b' - H(b, v)| / (1 + |H|) over the interval,
from samples at the six interior Gauss-Lobatto nodes (continuous defect
control: Enright & Hayes, "Robust and reliable defect control for Runge-Kutta
methods", ACM TOMS 33(1), 2007). The error estimate (order h^8) and the defect
(order h^7) set the step size, each with its own exponent; the part of the
defect that the rounding of the node values alone can cause sets none.
``max_ode_residual`` is the largest accepted bound. Where the bids reach a knot
of the strong law, at which its density or a derivative of it may jump and H is
not smooth, a step is cut to end just past the knot, and a step across a knot
of either law is also gated on its defect at 31 points and at each knot. The
tests check the solver against scipy's DOP853 (its tableau, its dense output,
and a solve from the same series-start node) and recompute the defect from the
returned schedule. The rhs is generated per solve: the weak law's kernel lines
at v, the band checks, then the strong law's kernel lines at b and its atom, as
``StrongBidLaw.eval3`` computes them, with no Python call but the weak law's
domain check off its support. Each law's support is also cut into pieces at
its components' edges and each cosine bump's series switch, and a step's calls
all go to the rhs of the piece pair its start (v, b) lies in: there each law's
lines hold only the components live in the piece, in the branch they take
there, and the others are constants added where their terms stood. A call
outside the piece pair falls back to the full rhs. The rhs and the stages,
written out from the tableau, keep every floating-point operation of the
separate cdf/pdf/partial_mean calls and of ``sum()`` over the tableau rows: the
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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dist import SUPPORT_TOL, DistributionSpec, SortedIndex, compile_kernel

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


def check_weak_bidders(n_weak: int, least: int = 2):
    """Refuse fewer than ``least`` weak bidders, naming ``n_weak``: the bid ODE,
    every mechanism and every limit experiment but the optimal auction need two."""
    if n_weak < least:
        raise InputError(f"need at least {least} weak bidders, got {n_weak}", "n_weak")


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
    """Strong bidder's bid distribution: base value law plus optional atom at 0,
    read at bids through ``eval3`` alone."""

    dist: DistributionSpec
    zero_bid_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.zero_bid_prob < 1.0:
            raise EquilibriumError(f"zero_bid_prob must be in [0, 1), got {self.zero_bid_prob}")

    @property
    def hi(self) -> float:
        return self.dist.support.hi

    @cached_property
    def mean(self) -> float:
        return (1.0 - self.zero_bid_prob) * self.dist.mean

    def mean_below(self, b: float) -> float:
        if b < 0.0:
            return 0.0
        g, _, m = self.eval3(b)
        return 0.0 if g <= 0.0 else m / g

    def eval3(self, b):
        """(cdf, pdf, partial_mean) at bids b >= 0, a scalar or an array: the
        kernel or the law's vector rows, plus the atom. The bid-ODE rhs
        (``_rhs_factory``) writes out the same lines, and the rhs of each piece
        of the support the lines of the components live there."""
        c, p, m = self.dist._vector(b, 3) if isinstance(b, np.ndarray) else self.dist.kernel(b)
        z = self.zero_bid_prob
        s = 1.0 - z
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


# theta^m = sum over i >= m of C(i, m) / C(6, m) B(i, 6)(theta), so Bernstein
# coefficient i of a degree-6 polynomial weighs its power-form coefficient m by
# _BERNSTEIN[i][m], m <= i
_BERNSTEIN = tuple(tuple(math.comb(i, m) / math.comb(6, m) for m in range(i + 1))
                   for i in range(7))


def _quintic_roots(r) -> np.ndarray:
    """The real parts of the roots of r0 + r1 theta + ... + r5 theta^5, one row per
    entry of the r arrays, as the eigenvalues of the batched companion matrices.

    Each row is scaled to a largest coefficient of 1, and a leading coefficient
    below 2^-40 is raised to it: that moves the polynomial on [0, 1] by at most
    2^-40 of its largest coefficient and puts the extra roots far outside [0, 1].
    A row of zeros gets the roots of theta^5. A complex root's real part adds a
    point to check at most, where b' must be >= 0 anyway."""
    r = np.stack(r, axis=-1)
    top = np.abs(r).max(axis=-1, keepdims=True)
    r = r / np.where(top > 0.0, top, 1.0)
    lead = r[:, 5]
    lead = np.where(np.abs(lead) >= 2.0 ** -40, lead, np.copysign(2.0 ** -40, lead))
    companion = np.zeros((r.shape[0], 5, 5))
    companion[:, np.arange(1, 5), np.arange(4)] = 1.0
    companion[:, :, 4] = -r[:, :5] / lead[:, None]
    return np.linalg.eigvals(companion).real


@dataclass(frozen=True)
class BidFunction:
    """Tabulated strictly increasing bid schedule, piecewise polynomial.

    On interval i, with h = grid[i+1] - grid[i] and theta = (v - grid[i]) / h,
    the schedule is the cubic Hermite interpolant of the end values and slopes
    plus a term that leaves both end values and slopes alone:
    theta^2 (1 - theta)^2 (F3 + theta F4 + theta (1 - theta) F5
    + theta^2 (1 - theta) F6) with ``bumps[i]`` = (F3, F4, F5, F6), a piece of
    degree 7. ``solve_ode`` returns the DOP853 step's own order-7 continuous
    extension in this form (Hairer, Norsett & Wanner, Solving ODEs I, II.10).
    ``bumps`` is one row of four per interval and defaults to zeros, the cubic
    Hermite spline. The pieces are kept as power-form coefficients c7 ... c0 of
    powers of s = v - grid[i] and evaluated by Horner's rule after an exact
    indexed search of the grid (``dist.SortedIndex``); scalar and array calls
    share that path. Nodes, values, slopes and bumps must be finite and the
    values strictly increasing. The schedule must also be monotone between
    nodes: on each interval b' >= 0 at both ends and at the real roots of b''
    inside it, which is exact for a polynomial. b' is taken from the same
    c7 ... c0 that a call evaluates. Only a dip of rounding size, 2^-45 of the
    sum of b''s term magnitudes, is let through, so that the cubics on the edge
    of Fritsch and Carlson's box (end slopes in [0, 3 x the secant], SIAM J.
    Numer. Anal. 17(2), 1980), whose b' touches zero, pass. b'' is a quintic:
    its roots are the eigenvalues of companion matrices, taken only on the
    intervals where b''s Bernstein coefficients are not all >= 0 (where they
    are, b' >= 0 on the whole interval)."""

    grid: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    bumps: np.ndarray | None = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        s = np.asarray(self.slopes, dtype=float)
        e = np.zeros((max(g.size - 1, 0), 4)) if self.bumps is None \
            else np.asarray(self.bumps, dtype=float)
        if not (g.shape == v.shape == s.shape == (g.size,) and g.size >= 2
                and e.shape == (g.size - 1, 4)):
            raise EquilibriumError("grid/values/slopes must be matching 1-D arrays, "
                                   "with one row of four bumps per interval")
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
        # c7 ... c0: the cubic Hermite's and the bump term's, whose theta-form
        # theta^2 (1 - theta)^2 (p0 + p1 theta + p2 theta^2 + p3 theta^3) has
        # theta^2 ... theta^7 coefficients a; the theta^j coefficient over h^j
        # is the power-form coefficient of s^j
        dx = np.diff(self.grid)
        k = self.slopes
        slope = np.diff(self.values) / dx
        t = (k[:-1] + k[1:] - 2 * slope) / dx
        f3, f4, f5, f6 = self.bumps.T
        p0, p1, p2, p3 = f3, f4 + f5, f6 - f5, -f6
        a = [p0, p1 - 2 * p0, p2 - 2 * p1 + p0, p3 - 2 * p2 + p1, p2 - 2 * p3, p3]
        for j in range(6):
            for _ in range(j + 2):
                a[j] = a[j] / dx
        return a[5], a[4], a[3], a[2], t / dx + a[1], (slope - k[:-1]) / dx - t + a[0], \
            k[:-1], self.values[:-1]

    def _monotone_between_nodes(self) -> bool:
        # b'(theta) = D0 + D1 theta + ... + D6 theta^6 on each interval, with
        # Dm = (m + 1) c(m+1) h^m from the coefficients __call__ evaluates
        dx = np.diff(self.grid)
        c = self._coefficients[::-1]
        power, hm = [c[1]], np.ones_like(dx)
        for m in range(1, 7):
            hm = hm * dx
            power.append((m + 1) * c[m + 1] * hm)
        # b' >= 0 on [0, 1] where its Bernstein coefficients are all >= 0, the
        # common case; only the other intervals need the roots of b''
        easy = np.ones(dx.shape, dtype=bool)
        for row in _BERNSTEIN:
            easy &= sum(w * d for w, d in zip(row, power)) >= 0.0
        k0, *terms = [d[~easy] for d in power]
        thetas = list(_quintic_roots([m * d for m, d in enumerate(terms, 1)]).T) \
            if k0.size else []
        size = np.abs(k0) + sum(np.abs(d) for d in terms)
        # a root of b'' outside [0, 1] (or none) is clipped to an end, which is
        # checked anyway
        for th in [np.zeros_like(k0), np.ones_like(k0)] + thetas:
            th = np.clip(np.nan_to_num(th, nan=0.0, posinf=0.0, neginf=0.0), 0.0, 1.0)
            rest = terms[-1]
            for d in reversed(terms[:-1]):
                rest = rest * th + d
            if not np.all(k0 + th * rest >= -2.0 ** -45 * size):
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
        top, *rest = self._coefficients
        # Horner's rule, in place; i is in range, and mode="clip" lets take
        # write into out without the buffer mode="raise" makes
        s = x - self.grid.take(i, mode="clip")
        out = top.take(i, mode="clip")
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


_RHS_SOURCE = """\
def rhs(x, b, {params}):
{guard}{weak}\
    if F <= 0.0 or x <= 0.0:
        raise OutOfBand
{domain}\
    v, x = x, b
{strong}\
    Gb = atom + scale * G
    gb = scale * g
    Mb = scale * M
    m = Mb / Gb if Gb > 0.0 else 0.0
    if b <= v or m >= v or gb <= 0.0:
        raise OutOfBand
    return nm1 * (f / F) * (Gb / gb) * (v - m) / (b - v)
"""
_FULL_RHS = {"guard": "", "domain": "    if x < v_lo or x > v_hi:\n        check_domain(x)\n"}
_PIECE_RHS = {"guard": "    if not (p_lo < b < p_hi and q_lo < x < q_hi):\n        return full(x, b)\n",
              "domain": ""}
_RHS_SOURCES: dict[tuple, str] = {}   # (weak lines, strong lines, parameters) -> source


def _rhs_factory(weak: DistributionSpec, law: StrongBidLaw, n_weak: int, piece=None):
    """H as one generated function rhs(v, b): the weak law's F and f lines at x = v,
    the band checks ([v_lo, v_hi] is weak.pdf's domain), then the strong law's G, g
    and M lines at x = b (its components numbered after the weak law's) and the
    atom, as ``law.eval3`` computes them.

    ``piece`` = (guard, weak states, strong states) makes the rhs of one piece
    (``_piece_steppers``): each law's lines in those states (``kernel_body``),
    and no domain check, as the piece lies inside the weak support. Its guard
    hands any (v, b) outside p_lo < b < p_hi, q_lo < v < q_hi (and NaN) to
    ``full``, so that every call keeps the full rhs's bits. The source depends
    only on the laws' kinds and the states: every number is a parameter."""
    guard, weak_states, strong_states = piece or ({}, None, None)
    weak_body, weak_params = weak.kernel_body(("F", "f"), 0, weak_states, False)
    strong_body, strong_params = law.dist.kernel_body(("G", "g", "M"), len(weak.parts),
                                                      strong_states, False)
    params = {**guard, **weak_params, **strong_params, "nm1": float(n_weak - 1),
              "atom": law.zero_bid_prob, "scale": 1.0 - law.zero_bid_prob,
              "OutOfBand": _OutOfBand}
    if piece is None:
        params.update(check_domain=weak._check_domain_s, v_lo=weak.support.lo - SUPPORT_TOL,
                      v_hi=weak.support.hi + SUPPORT_TOL)
    key = (weak_body, strong_body, tuple(params))
    source = _RHS_SOURCES.get(key)
    if source is None:
        source = _RHS_SOURCES[key] = _RHS_SOURCE.format(
            params=", ".join(params), weak=weak_body, strong=strong_body,
            **(_FULL_RHS if piece is None else _PIECE_RHS))
    return compile_kernel(source, params.values(), False)


def _piece_steppers(weak: DistributionSpec, law: StrongBidLaw, n_weak: int, full):
    """at(v, b) -> (rhs, attempt, dense) for a step that starts at (v, b).

    The rhs is that of the piece pair (``kernel_pieces``: the strong law's at b,
    the weak law's at v) the start lies in, built on first use: it evaluates
    only the components live in the pieces, in the branch they take there. A
    step's calls all go through it, and a call outside the shrunk pieces falls
    back to ``full``. Beyond the outer cuts of either law a step takes ``full``
    itself."""
    b_cuts, b_pieces = law.dist.kernel_pieces
    v_cuts, v_pieces = weak.kernel_pieces
    steppers = {}

    def at(v: float, b: float):
        key = (bisect_right(b_cuts, b), bisect_right(v_cuts, v))
        stepper = steppers.get(key)
        if stepper is None:
            i, j = key
            rhs = full
            if 0 < i < len(b_cuts) and 0 < j < len(v_cuts):
                (p_lo, p_hi, b_states), (q_lo, q_hi, v_states) = b_pieces[i - 1], v_pieces[j - 1]
                guard = {"p_lo": p_lo, "p_hi": p_hi, "q_lo": q_lo, "q_hi": q_hi, "full": full}
                rhs = _rhs_factory(weak, law, n_weak, (guard, v_states, b_states))
            stepper = steppers[key] = (rhs, *_dop853(rhs))
        return stepper

    return at


# ---------------------------------------------------------------------------
# Dormand-Prince 8(7), "DOP853", with band rejection
# ---------------------------------------------------------------------------

# The doubles of the coefficients of Hairer's dop853.f (Hairer, Norsett & Wanner,
# Solving ODEs I, II.10), as scipy's ``dop853_coefficients`` rounds them. Row i of
# _DOP_A makes stage i + 1 from stages 1 .. i. Stages 1-12 make the step, its
# eighth-order value b8 (weights: row 12, that of stage 13) and the fifth- and
# third-order error estimates; stage 13 is H(v + h, b8), the next step's first
# (FSAL); stages 14-16 serve the dense output only.
_DOP_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
          0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
          0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
          0.7777777777777778)
_DOP_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_DOP_E5 = (0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
           1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
           -0.022355307863886294)
# b8's weights less those of the third-order solution
_DOP_E3 = tuple(w - c for w, c in zip(_DOP_A[12], (
    0.24409448818897638, 0, 0, 0, 0, 0, 0, 0, 0.7338466882816118, 0, 0, 0.022058823529411766)))
# F3 ... F6 of the dense output, h times these rows over the 16 stages
_DOP_D = (
    (-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564),
)


def _terms(weights) -> str:
    """The sum of weights[j] * k(j + 1) over the nonzero weights, in order, as source."""
    return " + ".join(f"{w!r} * k{j}" for j, w in enumerate(weights, 1) if w)


def _stage(i: int) -> str:
    return (f"    k{i + 1} = rhs(v + {_DOP_C[i]!r} * h, b + h * ({_terms(_DOP_A[i])}))\n")


_STAGES = ", ".join(f"k{i}" for i in range(1, 13))
_DOP_SOURCE = (
    "def attempt(v, b, h, k1, rhs):\n"
    + "".join(_stage(i) for i in range(1, 12))
    + f"    return (b + h * ({_terms(_DOP_A[12])}), {_terms(_DOP_E5)}, {_terms(_DOP_E3)},\n"
    f"            ({_STAGES}))\n",
    "def dense(v, b, h, stages, rhs):\n"
    f"    {_STAGES}, k13 = stages\n"
    + "".join(_stage(i) for i in range(13, 16))
    + "    return (" + ", ".join(f"h * ({_terms(row)})" for row in _DOP_D) + ")\n",
)


def _dop853(rhs):
    """The DOP853 attempt and dense output, generated from the tableau as straight-line
    functions with ``rhs`` bound.

    ``attempt(v, b, h, k1)`` -> (b8, e5, e3, stages 1-12): the step's value and the
    sums its two error estimates weigh (h e5 and h e3 estimate b8's error).
    ``dense(v, b, h, stages 1-13)`` -> (F3, F4, F5, F6): the dense output's
    coefficients, from three more stages. Each sum keeps the terms and order of
    sum() over its row (zero weights skipped): the results equal that loop's bit
    for bit, but for the sign of a zero total, which no value of the step shows."""
    return tuple(compile_kernel(source, (rhs,), False) for source in _DOP_SOURCE)


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
    if law.zero_bid_prob == 0.0 and law.eval3(float(law.dist.support.lo))[1] <= 0.0:
        notes.append(
            "strong density vanishes at the origin; the singular-start bid ratio "
            "assumes g(0) > 0"
        )
    return notes


def _series_start(weak, law, n_weak, v0_fraction):
    """Starting point (v0, b0, slope0) consistent with the origin asymptotics."""
    v_bar = weak.support.hi
    v0 = v0_fraction * v_bar
    if law.zero_bid_prob == 0.0:
        beta0 = initial_bid_ratio(n_weak)
        for _ in range(40):
            b0 = beta0 * v0
            if law.mean_below(b0) < v0:
                return v0, b0, beta0
            v0 *= 0.1
        raise SingularStartError("no in-band series start found (smooth law)")
    # zero-atom law: b ~ sqrt(2 (N-1)/N * kappa0 * v)
    g0 = law.eval3(float(law.dist.support.lo))[1]
    if g0 <= 0.0:
        raise SingularStartError("strong density vanishes at 0; atom start undefined")
    kappa0 = law.zero_bid_prob / g0
    for _ in range(60):
        b0 = math.sqrt(2.0 * (n_weak - 1) / n_weak * kappa0 * v0)
        g_at = law.eval3(float(min(b0, law.hi)))[1]
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
    stepper_at = _piece_steppers(weak, law, n_weak, rhs)
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
    es = [(0.0, 0.0, 0.0, 0.0)]    # [0, v0] keeps the series start's cubic

    b_knots, v_knots = law.dist.interior_knots(), weak.interior_knots()
    v, b = v0, b0
    k1 = ks[-1]
    step_rhs, attempt, dense = stepper_at(v, b)
    h = v0
    n_error = n_band = n_defect = 0
    min_h, min_h_v = math.inf, v0
    max_defect = 0.0
    gate = None  # the gate that rejected the last attempt, if it was rejected
    retries = 0  # attempts lengthened since the last accepted step

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
            b8, e5, e3, stages = attempt(v, b, h, k1)
            # the error norm of Hairer's dop853.f, |h| e5^2 / sqrt(e5^2 + e3^2 / 100)
            err = abs(h * e5) * (abs(e5) / math.hypot(e5, 0.1 * e3)) if e5 else 0.0
            scale = atol + rtol * max(abs(b), abs(b8))
            if not math.isfinite(err) or err > scale:
                n_error += 1
                gate = "error-estimate"
                h *= max(0.2, 0.9 * (scale / err) ** 0.125) if math.isfinite(err) else 0.5
                continue
            # a law's density or a derivative of it may jump at a knot, so H is
            # not smooth across one and the bound's model fails there. A step
            # whose bids cross a knot of the strong law well inside it is cut to
            # end just past the point where the chord from b to b8 meets the
            # knot; a step that still crosses a knot of either law is also gated
            # on the defect sampled at ``_KNOT_POINTS`` and at each knot, where
            # the defect has a corner (a strong knot's theta from the chord)
            j = bisect_right(b_knots, b)
            crossed = [(x - b) / (b8 - b) for x in b_knots[j:bisect_left(b_knots, b8)]]
            if crossed and 2.0 ** -8 < crossed[0] < 1.0 - 2.0 ** -8:
                h = (v + h * crossed[0] * (1.0 + 2.0 ** -10)) - v
                continue
            j = bisect_right(v_knots, v)
            crossed += [(x - v) / h for x in v_knots[j:bisect_right(v_knots, v + h)]]
            k_end = step_rhs(v + h, b8)
            bump = dense(v, b, h, stages + (k_end,))
            defect = _defect_bound(step_rhs, v, b, b8, k1, k_end, h, bump)
            if crossed:
                points = _KNOT_POINTS + tuple(_basis(th) for th in crossed)
                defect = _worst_defect(step_rhs, v, b, b8, k1, k_end, h, bump, points, defect)
        except (_OutOfBand, OverflowError, ZeroDivisionError):
            n_band += 1
            gate = "band"
            h *= 0.5
            continue
        # the returned schedule is this interval's degree-7 piece; its defect
        # (order h^7) sets the step as the error estimate (order h^8) does. The
        # node values are floats, so the rise b8 - b can miss the one H sets by
        # half an ulp of b8, which alone puts 6 theta (1 - theta) ulp / (2 h) into
        # b'. ``noise`` is what that hump can add to the bound: it grows as h
        # shrinks, so it sets no step, and a step it alone may have failed is
        # retried longer, as far as the error estimate allows, up to three times
        noise = _LEBESGUE * 0.75 * math.ulp(b8) / (h * (1.0 + min(abs(k1), abs(k_end))))
        grow = 0.9 * (scale / max(err, 1e-300)) ** 0.125
        ratio = min(grow, 0.9 * (dtol / max(defect - noise, 1e-300)) ** (1.0 / 7.0))
        if not defect <= dtol:
            n_defect += 1
            gate = "defect"
            if defect <= noise and grow > 1.0 and retries < 3:
                retries += 1
                h *= min(2.0, grow)
            else:
                h *= max(0.2, min(0.9, ratio))
            continue
        # accepted; k_end is H(v + h, b8), the next step's first stage. A step
        # that follows a rejection does not grow (Hairer, Norsett & Wanner, II.4)
        if h < min_h:
            min_h, min_h_v = h, v
        max_defect = max(max_defect, defect)
        vs.append(v + h)
        bs.append(b8)
        ks.append(k_end)
        es.append(bump)
        v, b, k1 = v + h, b8, k_end
        step_rhs, attempt, dense = stepper_at(v, b)
        h *= min(1.0 if gate else 5.0, ratio)
        gate, retries = None, 0

    vs[-1] = v_bar  # the last step lands within an ulp of the top; pin it
    bid = BidFunction(np.asarray(vs), np.asarray(bs), np.asarray(ks), np.asarray(es))
    return bid, SolveReport(max_defect, v0, len(vs) - 2, n_error, n_band, n_defect,
                            min_h, min_h_v, tuple(notes))



def _basis(th: float) -> tuple[float, ...]:
    """theta and the weights of one schedule piece at it: b = b0 + w1 (b1 - b0)
    + h (w2 k0 + w3 k1) + sum_j p_j F_j and b' = d1 (b1 - b0)/h + d2 k0 + d3 k1
    + sum_j q_j F_j / h, from the cubic Hermite basis and the dense output's
    theta^2 (1 - theta)^2 (1, theta, theta (1 - theta), theta^2 (1 - theta))."""
    u = th * (1.0 - th)
    uu, du = u * u, 1.0 - 2.0 * th              # du = u'
    return (th, th * th * (3.0 - 2.0 * th), u * (1.0 - th), -u * th,
            uu, uu * th, uu * u, uu * u * th,
            6.0 * u, (1.0 - th) * (1.0 - 3.0 * th), th * (3.0 * th - 2.0),
            2.0 * u * du, 2.0 * u * du * th + uu, 3.0 * uu * du, 3.0 * uu * du * th + uu * u)


# The defect's leading term where H is smooth is theta (1 - theta) q(theta), q of
# degree 5 (see ``_defect_bound``). It is sampled at the six interior nodes of the
# 8-point Gauss-Lobatto rule, theta = (1 -+ x)/2 at the roots x of P7' (of
# 429 x^6 - 495 x^4 + 135 x^2 - 5). _LEBESGUE bounds the Lebesgue constant of that
# model's interpolation through them: the largest over [0, 1] of the sum over the
# nodes of |theta (1 - theta) l_j(theta)| / (theta_j (1 - theta_j)), l_j the
# Lagrange basis of the six nodes. It peaks at theta = 1/2 at 1.894242413878...
_GATE_OFFSETS = (0.10464960895123944, 0.2958500907165711, 0.4358700742548033)
_GATE_THETAS = (tuple(0.5 - x for x in reversed(_GATE_OFFSETS))
                + tuple(0.5 + x for x in _GATE_OFFSETS))
_LEBESGUE = 1.8943
_GATE_POINTS = tuple(_basis(th) for th in _GATE_THETAS)
_KNOT_POINTS = tuple(_basis(j / 32.0) for j in range(1, 32))


def _defect_at(rhs, v, b0, b1, k0, k1, h, bump, point) -> float:
    """Signed (b' - H(b, v)) / (1 + |H|) of the schedule piece on [v, v + h] at
    one ``_basis`` point."""
    th, w1, w2, w3, p3, p4, p5, p6, d1, d2, d3, q3, q4, q5, q6 = point
    f3, f4, f5, f6 = bump
    db = b1 - b0
    hb = rhs(v + th * h, b0 + w1 * db + h * (w2 * k0 + w3 * k1)
             + (p3 * f3 + p4 * f4 + p5 * f5 + p6 * f6))
    return ((d1 * db + (q3 * f3 + q4 * f4 + q5 * f5 + q6 * f6)) / h + d2 * k0 + d3 * k1
            - hb) / (1.0 + abs(hb))


def _defect_bound(rhs, v, b0, b1, k0, k1, h, bump) -> float:
    """Bound on |b' - H(b, v)| / (1 + |H|) over the degree-7 schedule piece on
    [v, v + h]: the cubic Hermite interpolant of (v, b0, k0), (v + h, b1, k1)
    plus the dense output's theta^2 (1 - theta)^2 (F3 + theta F4 + ...).

    The piece's error against the solution through (v, b0) is h^8 P(theta) to
    leading order, P of degree 8 with double zeros at both ends: the piece starts
    on the solution with its slope, and its end value (eighth order) and end
    slope H(v + h, b1) leave errors of higher order. So where H is smooth the
    defect, h^7 P'(theta) to leading order, is theta (1 - theta) q(theta) with q of
    degree 5. It is sampled at ``_GATE_THETAS`` and modelled that way; the model's
    largest value on [0, 1] is at most ``_LEBESGUE`` times the largest sample,
    and at least the largest sample, so the bound is within 1.9x of the model's
    peak."""
    return _LEBESGUE * _worst_defect(rhs, v, b0, b1, k0, k1, h, bump, _GATE_POINTS, 0.0)


def _worst_defect(rhs, v, b0, b1, k0, k1, h, bump, points, worst: float) -> float:
    """The largest of ``worst`` and |defect| at ``points``, NaN if any is NaN."""
    for point in points:
        d = abs(_defect_at(rhs, v, b0, b1, k0, k1, h, bump, point))
        if d > worst or d != d:
            worst = d
    return worst


# ---------------------------------------------------------------------------
# payoffs and best-response verification
# ---------------------------------------------------------------------------


def raw_bid_payoff(v_true, raw_bid, weak: DistributionSpec, strong, n_weak: int):
    """Payoff v G(b) - M(b) of bid b to a weak bidder of value v who has won the
    first stage, as one who bids above the top of the schedule surely does."""
    law = as_strong_law(strong)
    b = np.asarray(raw_bid, dtype=float)
    v = np.asarray(v_true, dtype=float)
    G, _, M = law.eval3(b)
    out = v * np.where(b < 0.0, 0.0, G) - M
    return float(out) if out.ndim == 0 else out


_BR_VALUES = 50       # true values v_bar/50, ..., v_bar
_BR_REPORTS = 200     # reported values 0, ..., v_bar
_BR_RAW_BIDS = 16     # raw bids above b(v_bar), up to the strong support top


def verify_best_response(bid: BidFunction, weak: DistributionSpec, strong,
                         n_weak: int) -> BestResponseReport:
    """Max regret of the schedule against reported-value and raw-bid deviations.

    Reporting r pays pi(r | v) = F(r)^(N-1) (v G(b(r)) - M(b(r))), the integral
    of (v - s) dG(s) over [0, b(r)] in closed form, and a raw bid b above the
    top of the schedule v G(b) - M(b) (``raw_bid_payoff``). Each law is
    evaluated once, over every report, bid and raw bid."""
    law = as_strong_law(strong)
    v_grid = np.linspace(weak.support.hi / _BR_VALUES, weak.support.hi, _BR_VALUES)
    dev_grid = np.linspace(0.0, weak.support.hi, _BR_REPORTS)
    # raw bids above the top of the schedule (win the first stage outright)
    raws = np.linspace(bid.b_top, law.hi, _BR_RAW_BIDS + 1)[1:] if law.hi > bid.b_top \
        else np.empty(0)
    reports = np.concatenate([dev_grid, v_grid])
    pay = raw_bid_payoff(v_grid[:, None], np.concatenate([bid(reports), raws]), weak, law,
                         n_weak)
    win1 = weak.cdf(reports) ** (n_weak - 1)
    d, e = dev_grid.size, reports.size
    pi = win1[:d] * pay[:, :d]
    pi_eq = win1[d:] * np.diagonal(pay[:, d:e])

    regret = pi - pi_eq[:, None]
    i, j = np.unravel_index(np.argmax(regret), regret.shape)
    max_regret = float(regret[i, j])
    worst = (float(v_grid[i]), float(dev_grid[j]))

    if raws.size:
        raw_regret = pay[:, e:] - pi_eq[:, None]
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

