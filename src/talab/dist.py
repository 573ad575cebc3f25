"""Value distributions on bounded supports and their conditional-mean machinery.

Everything downstream (bid ODE, mechanism simulation, optimal-auction benchmark,
limit families) consumes distributions through this module. Each supported
density kind carries exact piecewise closed forms for

* ``cdf``            F(x)
* ``pdf``            f(x)
* ``partial_mean``   M(x) = integral of t f(t) over [lo, x]

which makes the conditional means E[w | w <= b] = M(b)/F(b) and
E[w | w >= r] = (mean - M(r))/(1 - F(r)) cheap and accurate enough for the
ODE right-hand side. Where no closed form exists (order-statistic integrals,
the construction-time norm check) one fixed rule integrates: 20-point
Gauss-Legendre on the panels between the density knots, each panel cut
geometrically toward both of its ends so that the y^(a-1) edges of a beta law
converge, with the whole integrand evaluated in one vector call. The tests
hold it to scipy's adaptive ``integrate.quad``, their independent oracle for
it and for the closed forms.

Importing this module loads numpy, not scipy: scipy's incomplete beta function
is imported when a ``beta_poly`` component is built, so laws of the other
kinds never load scipy.

A scalar goes through one evaluator per component, ``eval3_s(x) -> (F, f, M)``,
which computes the shared parts once (one sin and one cos per bump, one
betainc(a, b, y) per beta); the scalar ``cdf``, ``pdf`` and ``partial_mean``
sum its F, f and M. Arrays go through the vector ``cdf_v``/``pdf_v``/``pm_v``.

Supported kinds: ``uniform``, ``beta_poly`` (polynomial Beta-shaped density),
``cosine_bump`` (raised-cosine bump, C^1 everywhere), ``pw_linear``
(piecewise-linear density) and flat ``mixture`` of the above.

Inverse cdf. ``quantile`` returns the leftmost x with F(x) >= u. A law whose
only component is a uniform spanning the support inverts affinely. Any other
law inverts by table search plus safeguarded Newton steps on the closed-form F
and f (Devroye, *Non-Uniform Random Variate Generation*, 1986, section 2.2):

* F is tabulated once per law (a few hundred points over the support plus
  each component's own interval, made monotone by a running max);
* each level u is bracketed by the table row found by the table's guide-table
  search (``SortedIndex``), and starts from linear interpolation inside it;
* Newton steps x <- x - (F(x) - u)/f(x) shrink the bracket; a step that leaves
  it, or meets zero density, bisects instead;
* a level is final once its step is within a few ulps where f > 0; levels
  still open after a few steps (flat stretches, density edges) finish by
  bisection inside their bracket, which keeps the leftmost-x contract.

The iterations never leave a level's row, and each component lies wholly
below, wholly above or partly inside each row. So the levels are grouped by
row kind, and F and f sum only the components live in the row: one wholly
below adds its constant, one wholly above nothing, in the component order of
``cdf`` and ``pdf``, so every sum keeps its bits. Brackets move by ``select``,
which has no branch per element from 1,024 levels on.

Every level iterates on its own, so a result never depends on the rest of the
array: scalar and vector calls agree bit for bit, and so do Monte Carlo runs
on any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_NORM_TOL = 1e-8
# knot-panel quadrature: Gauss-Legendre on each panel's subintervals, graded
# geometrically toward both of its ends
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_GRADING_LEVELS = 24
_TABLE_POINTS = 257        # inverse-cdf table rows over the whole support ...
_PART_TABLE_POINTS = 65    # ... plus these over each component's own interval
_NEWTON_STEPS = 8          # then the unconverged levels finish by bisection
_X_REL_TOL = 4.0 * np.finfo(float).eps   # a few ulps of x ...
_X_ABS_TOL = 2.0**-64                    # ... or this share of the support width
# a subnormal cdf is flat over many tolerances of x: such levels stop on the
# bracket width, where F(b) >= u, not on the Newton step
_NEWTON_MIN_LEVEL = np.finfo(float).tiny
# a component counts as live in a cdf-table row this share of the support top
# beyond its ends: about 2^20 ulps of any x, centre or end the inverse cdf uses
_ROW_MARGIN = 2.0**-32
# select's crossover. Over fresh random masks (2-vCPU Xeon, numpy 2.4) np.where
# takes 2.2, 4.4 and 8.1 us at 16, 512 and 1,024 elements, the int64 select 7.6,
# 5.6 and 7.6 us; the late Newton and bisection rounds of a sweep's inverse cdf
# select over a few dozen levels (about 1,200 calls a pass)
_SELECT_BRANCHLESS = 1024

_CODE_KINDS = {0: "uniform", 1: "beta_poly", 2: "cosine_bump", 3: "pw_linear"}  # in a mixture


class DistributionError(ValueError):
    """Invalid distribution construction or out-of-contract evaluation.
    ``faults`` holds a (key, message) pair for each key of a distribution
    object at fault, if any is."""

    def __init__(self, message: str, faults: tuple[tuple[str, str], ...] = ()):
        super().__init__(message)
        self.faults = faults


def select(mask: np.ndarray, x, y) -> np.ndarray:
    """``np.where(mask, x, y)`` for float64 operands, bit for bit (NaN, -0.0
    and inf included). x and y may be scalars or strided arrays.

    From ``_SELECT_BRANCHLESS`` elements on it selects on the int64 bits,
    y ^ ((x ^ y) & -mask), with no branch per element: over a mask that
    follows no pattern, ``np.where`` and ``np.copyto(where=)`` mispredict
    about every other element and cost 3-4x as much.
    """
    if mask.size < _SELECT_BRANCHLESS:
        return np.where(mask, x, y)
    xi, yi = (np.asarray(v, dtype=float).view(np.int64) for v in (x, y))
    bits = np.bitwise_xor(xi, yi, out=np.empty(mask.shape, dtype=np.int64))
    bits &= np.negative(mask.view(np.int8))
    bits ^= yi
    return bits.view(float)


def _sum_cdf(x: np.ndarray, head: float, steps) -> np.ndarray:
    """F at x: head plus each (weight, component) term's weight times the
    component's F, and each (constant, None) term's constant, in order."""
    out = np.full(x.shape, head)
    for c, p in steps:
        if p is None:
            out += c
        else:
            t = p.cdf_v(x)
            t *= c
            out += t
    return out


def _sum_pdf(x: np.ndarray, dens) -> np.ndarray:
    """f at x: the sum of weight times density over (weight, component) pairs."""
    out = np.zeros(x.shape)
    for w, p in dens:
        t = p.pdf_v(x)
        t *= w
        out += t
    return out


@dataclass(frozen=True)
class SupportInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DistributionError(f"support must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise DistributionError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.lo < 0:
            raise DistributionError(f"need lo >= 0, got {self.lo}")

    @property
    def width(self) -> float:
        return self.hi - self.lo


# ---------------------------------------------------------------------------
# density components (one scalar, three vector evaluators)
# ---------------------------------------------------------------------------


class _Uniform:
    kind = "uniform"

    def __init__(self, lo: float, hi: float):
        if not lo < hi:
            raise DistributionError(f"uniform needs lo < hi, got [{lo}, {hi}]")
        self.lo, self.hi = float(lo), float(hi)
        self.h = 1.0 / (hi - lo)

    def eval3_s(self, x: float) -> tuple[float, float, float]:
        lo, hi, h = self.lo, self.hi, self.h
        if lo < x < hi:
            return (x - lo) * h, h, 0.5 * h * (x * x - lo * lo)
        # the support's ends keep the density; NaN gives NaN F and M
        f = h if x == lo or x == hi else 0.0
        if x <= lo:
            return 0.0, f, 0.0
        if x >= hi:
            return 1.0, f, 0.5 * h * (hi * hi - lo * lo)
        return x, f, x

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def cdf_v(self, x: np.ndarray) -> np.ndarray:
        return np.clip((x - self.lo) * self.h, 0.0, 1.0)

    def pdf_v(self, x: np.ndarray) -> np.ndarray:
        return np.where((x >= self.lo) & (x <= self.hi), self.h, 0.0)

    def pm_v(self, x: np.ndarray) -> np.ndarray:
        m = np.clip(x, self.lo, self.hi)
        return 0.5 * self.h * (m * m - self.lo * self.lo)

    def knots(self):
        return (self.lo, self.hi)


# Lower-edge series of the cosine bump: with z = (pi r)^2,
# (1 - cos(pi rho))/2 = sum_k>=1 (-1)^(k+1) (pi rho)^(2k) / (2 (2k)!), so
# F = (r/2) sum (-1)^(k+1) z^k / ((2k)! (2k+1)) and
# A = (r^2/2) sum (-1)^(k+1) z^k / ((2k)! (2k+2)). Ten terms reach the
# rounding floor below r = 0.25 (the k = 11 term is under 1e-20 of the first).
_BUMP_SERIES_R = 0.25
_PI2 = math.pi * math.pi
_BUMP_SERIES = tuple(
    ((-1) ** (k + 1) / (math.factorial(2 * k) * (2 * k + 1)),
     (-1) ** (k + 1) / (math.factorial(2 * k) * (2 * k + 2)))
    for k in range(10, 0, -1)
)


class _CosineBump:
    """Raised-cosine density on [c-s, c+s]: f = (1 + cos(pi (x-c)/s)) / (2s).

    Near the lower edge 0.5 (1 + t + sin(pi t)/pi) cancels to an absolute error
    of about 1e-16, so the scalar F and M there use r = (x - lo)/s and the
    series of F = (r - sin(pi r)/pi)/2 and M = lo F + s A(r), with
    A(r) = integral of rho (1 - cos(pi rho))/2 over [0, r]."""

    kind = "cosine_bump"

    def __init__(self, center: float, half_width: float):
        if not half_width > 0:
            raise DistributionError(f"bump half_width must be > 0, got {half_width}")
        self.c, self.s = float(center), float(half_width)
        self.lo, self.hi = self.c - self.s, self.c + self.s
        # eval3_s at and beyond t = -1 and t = 1 (where f = 0)
        self._edges = ((0.0, 0.0, 0.0), (1.0, 0.0, self.c + self.s * self._a(1.0)))

    def _lower_series(self, r: float) -> tuple[float, float]:
        """(F, A(r)) for 0 <= r < _BUMP_SERIES_R, Horner in z = (pi r)^2."""
        z = _PI2 * r * r
        pf = pa = 0.0
        for cf, ca in _BUMP_SERIES:
            pf = z * (cf + pf)
            pa = z * (ca + pa)
        return 0.5 * r * pf, 0.5 * r * r * pa

    def _a(self, t: float) -> float:
        # integral of u*(1+cos(pi u))/2 over [-1, t]
        return 0.25 * (t * t - 1.0) + 0.5 * (
            t * math.sin(math.pi * t) / math.pi
            + (math.cos(math.pi * t) + 1.0) / (math.pi * math.pi)
        )

    def eval3_s(self, x: float) -> tuple[float, float, float]:
        t = (x - self.c) / self.s
        if t <= -1.0 or t >= 1.0:
            return self._edges[0] if t < 0.0 else self._edges[1]
        u = math.pi * t
        cs = math.cos(u)
        r = (x - self.lo) / self.s
        if r < _BUMP_SERIES_R:
            F, A = self._lower_series(r)
            return F, (1.0 + cs) / (2.0 * self.s), self.lo * F + self.s * A
        sn = math.sin(u)
        F = 0.5 * (1.0 + t + sn / math.pi)
        a = 0.25 * (t * t - 1.0) + 0.5 * (t * sn / math.pi + (cs + 1.0) / (math.pi * math.pi))
        return F, (1.0 + cs) / (2.0 * self.s), self.c * F + self.s * a

    def mean(self) -> float:
        return self.c

    # The vector forms update in place where they can: the inverse cdf calls
    # them on every level, and each full-size temporary costs memory per thread.

    def _t(self, x: np.ndarray) -> np.ndarray:
        """t = (x - c)/s clipped to [-1, 1]. Clipping x - c to [-s, s] first
        gives the same bits, and far from a narrow bump it keeps the division
        from overflowing."""
        t = np.clip(x - self.c, -self.s, self.s)
        t /= self.s
        return t

    def cdf_v(self, x: np.ndarray) -> np.ndarray:
        t = self._t(x)
        tail = np.sin(np.pi * t)
        tail /= np.pi
        t += 1.0
        t += tail
        t *= 0.5
        # sin(-pi)/pi is -3.9e-17, not 0: clip to the exact 0 and 1 of eval3_s
        return np.clip(t, 0.0, 1.0)

    def pdf_v(self, x: np.ndarray) -> np.ndarray:
        d = x - self.c
        # |t| <= 1 just when |d| <= s: d > s is at least s + ulp(s), and
        # (s + ulp(s))/s rounds above 1
        inside = np.abs(d) <= self.s
        t = np.clip(d, -self.s, self.s)
        t /= self.s
        t = np.cos(np.pi * t)
        t += 1.0
        t /= 2.0 * self.s
        return np.where(inside, t, 0.0)

    def pm_v(self, x: np.ndarray) -> np.ndarray:
        t = self._t(x)
        a = 0.25 * (t * t - 1.0) + 0.5 * (
            t * np.sin(np.pi * t) / np.pi + (np.cos(np.pi * t) + 1.0) / np.pi**2
        )
        return self.c * self.cdf_v(x) + self.s * a

    def knots(self):
        return (self.lo, self.c, self.hi)


class _BetaPoly:
    """Beta(a, b)-shaped polynomial density rescaled to [lo, hi]; a, b >= 1."""

    kind = "beta_poly"

    def __init__(self, lo: float, hi: float, a: float, b: float):
        if not lo < hi:
            raise DistributionError(f"beta_poly needs lo < hi, got [{lo}, {hi}]")
        if not (a >= 1.0 and b >= 1.0):
            raise DistributionError(f"beta_poly exponents must be >= 1, got a={a}, b={b}")
        # the one scipy import: only beta laws need the incomplete beta function
        from scipy.special import betainc, betaln

        self.lo, self.hi = float(lo), float(hi)
        self.a, self.b = float(a), float(b)
        self.width = self.hi - self.lo
        self.log_norm = betaln(self.a, self.b)
        self._betainc = betainc

    def _y(self, x: float) -> float:
        return min(max((x - self.lo) / self.width, 0.0), 1.0)

    def _pdf_y(self, y: float) -> float:
        if y < 0.0 or y > 1.0:
            return 0.0
        if y == 0.0:
            return math.exp(-self.log_norm) / self.width if self.a == 1.0 else 0.0
        if y == 1.0:
            return math.exp(-self.log_norm) / self.width if self.b == 1.0 else 0.0
        la = (self.a - 1.0) * math.log(y) if self.a != 1.0 else 0.0
        lb = (self.b - 1.0) * math.log(1.0 - y) if self.b != 1.0 else 0.0
        return math.exp(la + lb - self.log_norm) / self.width

    def eval3_s(self, x: float) -> tuple[float, float, float]:
        y = self._y(x)
        F = float(self._betainc(self.a, self.b, y))
        f = 0.0 if x < self.lo or x > self.hi else self._pdf_y(y)
        tail = self.width * (self.a / (self.a + self.b)) * float(
            self._betainc(self.a + 1.0, self.b, y))
        return F, f, self.lo * F + tail

    def mean(self) -> float:
        return self.lo + self.width * self.a / (self.a + self.b)

    def cdf_v(self, x: np.ndarray) -> np.ndarray:
        y = np.clip((x - self.lo) / self.width, 0.0, 1.0)
        return self._betainc(self.a, self.b, y)

    def pdf_v(self, x: np.ndarray) -> np.ndarray:
        # in log space, as _pdf_y: 1/B(a, b) overflows from a = b = 600 on
        y = np.clip((x - self.lo) / self.width, 0.0, 1.0)
        inside = (x >= self.lo) & (x <= self.hi)
        log_f = np.zeros(y.shape)
        with np.errstate(divide="ignore"):   # log(0) = -inf gives f = 0
            if self.a != 1.0:
                log_f += (self.a - 1.0) * np.log(y)
            if self.b != 1.0:
                log_f += (self.b - 1.0) * np.log(1.0 - y)
        log_f -= self.log_norm
        return np.where(inside, np.exp(log_f) / self.width, 0.0)

    def pm_v(self, x: np.ndarray) -> np.ndarray:
        y = np.clip((x - self.lo) / self.width, 0.0, 1.0)
        head = self.lo * self._betainc(self.a, self.b, y)
        tail = self.width * (self.a / (self.a + self.b)) * self._betainc(self.a + 1.0, self.b, y)
        return head + tail

    def knots(self):
        if self.a + self.b > 2.0:
            # and the mode: the quadrature's grading toward it resolves a peak
            # of width ~ 1/sqrt(a + b), which its panel ends alone would not
            return (self.lo, self.lo + self.width * (self.a - 1.0) / (self.a + self.b - 2.0),
                    self.hi)
        return (self.lo, self.hi)


class _PwLinear:
    """Continuous piecewise-linear density through (xs[i], ys[i])."""

    kind = "pw_linear"

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or xs.shape != ys.shape:
            raise DistributionError("pw_linear needs matching 1-D knot and density arrays")
        if not np.all(np.diff(xs) > 0):
            raise DistributionError("pw_linear knots must be strictly increasing")
        if np.any(ys < 0):
            raise DistributionError("pw_linear densities must be nonnegative")
        total = float(np.trapezoid(ys, xs))
        if total <= 0:
            raise DistributionError("pw_linear density integrates to zero")
        self.xs, self.ys = xs, ys / total
        self.lo, self.hi = float(xs[0]), float(xs[-1])
        self.slopes = np.diff(self.ys) / np.diff(self.xs)
        # cumulative mass and cumulative first moment at the knots
        seg_mass = 0.5 * (self.ys[:-1] + self.ys[1:]) * np.diff(self.xs)
        self.cum_mass = np.concatenate([[0.0], np.cumsum(seg_mass)])
        seg_pm = np.array(
            [self._seg_pm(i, self.xs[i + 1]) for i in range(len(self.xs) - 1)]
        )
        self.cum_pm = np.concatenate([[0.0], np.cumsum(seg_pm)])

    def _seg_pm(self, i: int, x: float) -> float:
        # integral of t*(y_i + m (t - x_i)) over [x_i, x]
        x0, y0, m = self.xs[i], self.ys[i], self.slopes[i]
        d = x - x0
        return y0 * (x * x - x0 * x0) / 2.0 + m * d * d * (x0 / 2.0 + d / 3.0)

    def _seg_idx_s(self, x: float) -> int:
        i = int(np.searchsorted(self.xs, x, side="right")) - 1
        return min(max(i, 0), len(self.xs) - 2)

    def eval3_s(self, x: float) -> tuple[float, float, float]:
        if x < self.lo or x > self.hi:
            return (0.0, 0.0, 0.0) if x < self.lo else (1.0, 0.0, float(self.cum_pm[-1]))
        # on [lo, hi] f is its segment's line, lo included; NaN gives NaN
        i = self._seg_idx_s(x)
        d = x - self.xs[i]
        f = float(self.ys[i] + self.slopes[i] * d)
        if x == self.hi:
            return 1.0, f, float(self.cum_pm[-1])
        return (float(self.cum_mass[i] + self.ys[i] * d + 0.5 * self.slopes[i] * d * d), f,
                float(self.cum_pm[i] + self._seg_pm(i, x)))

    def mean(self) -> float:
        return float(self.cum_pm[-1])

    def _seg_idx_v(self, x: np.ndarray) -> np.ndarray:
        i = np.searchsorted(self.xs, x, side="right") - 1
        return np.clip(i, 0, len(self.xs) - 2)

    def cdf_v(self, x: np.ndarray) -> np.ndarray:
        i = self._seg_idx_v(x)
        d = np.clip(x, self.lo, self.hi) - self.xs[i]
        return self.cum_mass[i] + self.ys[i] * d + 0.5 * self.slopes[i] * d * d

    def pdf_v(self, x: np.ndarray) -> np.ndarray:
        i = self._seg_idx_v(x)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, self.ys[i] + self.slopes[i] * (x - self.xs[i]), 0.0)

    def pm_v(self, x: np.ndarray) -> np.ndarray:
        i = self._seg_idx_v(x)
        xc = np.clip(x, self.lo, self.hi)
        x0, y0, m = self.xs[i], self.ys[i], self.slopes[i]
        d = xc - x0
        seg = y0 * (xc * xc - x0 * x0) / 2.0 + m * d * d * (x0 / 2.0 + d / 3.0)
        return self.cum_pm[i] + seg

    def knots(self):
        return tuple(self.xs)


# ---------------------------------------------------------------------------
# DistributionSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionSpec:
    """Immutable univariate distribution on a bounded support.

    Build through the constructors at the bottom of this module (``uniform``,
    ``cosine_bump``, ``mixture``) or, for any kind, via ``from_json_dict``.
    ``weights``/``parts`` always describe a mixture; single-kind distributions
    are one-component mixtures.
    """

    kind: str
    support: SupportInterval
    weights: tuple[float, ...]
    parts: tuple[object, ...] = field(repr=False)

    def __post_init__(self):
        if len(self.weights) != len(self.parts) or not self.parts:
            raise DistributionError("weights and components must align and be nonempty")
        if any(w < 0 for w in self.weights):
            raise DistributionError("mixture weights must be nonnegative")
        if not abs(sum(self.weights) - 1.0) <= 1e-12:   # NaN fails too
            raise DistributionError(f"mixture weights must sum to 1, got {sum(self.weights)}")
        for p in self.parts:
            if p.lo < self.support.lo - 1e-12 or p.hi > self.support.hi + 1e-12:
                raise DistributionError(
                    f"component [{p.lo}, {p.hi}] escapes support "
                    f"[{self.support.lo}, {self.support.hi}]"
                )
        norm = self._quad_norm()
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise DistributionError(f"density integrates to {norm}, not 1")

    # -- construction-time checks ------------------------------------------

    def _quad_norm(self) -> float:
        x, w = self._quadrature
        return float(np.sum(w * self.pdf(x)))

    def interior_knots(self) -> list[float]:
        """The components' knots strictly inside the support, sorted: their
        edges and pw_linear nodes, where the density or a derivative of it may
        jump, and the inner points the quadrature's panels also end at (a
        cosine bump's centre, a beta's mode)."""
        lo, hi = self.support.lo, self.support.hi
        ks = sorted({k for p in self.parts for k in p.knots() if lo < k < hi})
        return ks

    @cached_property
    def _quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the knot-panel rule over the support.

        The knots cut the support into panels on which the density is smooth.
        Each half of a panel is cut at 2^-24, 2^-23, ..., 2^-1 of the half
        width from the panel's end, and each piece gets 20-point
        Gauss-Legendre, so that an integrand like y^(a-1) at a knot converges
        at a fixed cost: 1,000 nodes per panel, one vector call.
        """
        knots = np.array([self.support.lo, *self.interior_knots(), self.support.hi])
        a, b = knots[:-1, None], knots[1:, None]
        half = 0.5 * (b - a)
        cuts = np.concatenate([[0.0], 2.0 ** np.arange(-_GRADING_LEVELS, 0.0)])
        breaks = np.concatenate([a + half * cuts, 0.5 * (a + b), b - half * cuts[::-1]], axis=1)
        lo, hi = breaks[:, :-1].ravel(), breaks[:, 1:].ravel()
        r = 0.5 * (hi - lo)
        x = (0.5 * lo + 0.5 * hi)[:, None] + r[:, None] * _GL_X
        return x.ravel(), (r[:, None] * _GL_W).ravel()

    @cached_property
    def interior_positive(self) -> bool:
        """True when the density is > 0 on a dense interior grid."""
        xs = np.linspace(self.support.lo, self.support.hi, 2003)[1:-1]
        return bool(np.min(self.pdf(xs)) > 0.0)

    @cached_property
    def density_c1(self) -> bool:
        """Structural check: density continuously differentiable on the support."""
        lo, hi = self.support.lo, self.support.hi
        for w, p in zip(self.weights, self.parts):
            if w == 0:
                continue
            if p.kind == "pw_linear":
                return False
            if p.kind == "cosine_bump":
                continue  # C^1 everywhere, vanishes smoothly at its edges
            spans = abs(p.lo - lo) < 1e-12 and abs(p.hi - hi) < 1e-12
            if p.kind == "uniform" and not spans:
                return False
            if p.kind == "beta_poly":
                lo_ok = spans or p.a >= 2.0
                hi_ok = spans or p.b >= 2.0
                if not (lo_ok and hi_ok):
                    return False
        return True

    # -- pointwise evaluation ------------------------------------------------

    def cdf(self, x):
        if isinstance(x, np.ndarray):
            return _sum_cdf(x, 0.0, zip(self.weights, self.parts))
        xs = float(x)
        return sum(w * ev(xs)[0] for w, ev in self._sweep)

    def pdf(self, x):
        if isinstance(x, np.ndarray):
            self._check_domain_v(x)
            return _sum_pdf(x, zip(self.weights, self.parts))
        xs = float(x)
        self._check_domain_s(xs)
        return sum(w * ev(xs)[1] for w, ev in self._sweep)

    def partial_mean(self, x):
        """M(x) = integral of t * pdf(t) over [lo, min(x, hi)]."""
        if isinstance(x, np.ndarray):
            out = np.zeros(x.shape, dtype=float)
            for w, p in zip(self.weights, self.parts):
                out += w * p.pm_v(x)
            return out
        xs = float(x)
        return sum(w * ev(xs)[2] for w, ev in self._sweep)

    @cached_property
    def _sweep(self) -> tuple:
        """(weight, component ``eval3_s``) pairs: F, f and M of a scalar in one pass."""
        return tuple((w, p.eval3_s) for w, p in zip(self.weights, self.parts))

    def _check_domain_s(self, x: float):
        if x < self.support.lo - 1e-12 or x > self.support.hi + 1e-12:
            raise DistributionError(
                f"x={x} outside support [{self.support.lo}, {self.support.hi}]"
            )

    def _check_domain_v(self, x: np.ndarray):
        if x.size and (x.min() < self.support.lo - 1e-12 or x.max() > self.support.hi + 1e-12):
            raise DistributionError("values outside support")

    @cached_property
    def mean(self) -> float:
        return sum(w * p.mean() for w, p in zip(self.weights, self.parts))

    # -- quantiles -----------------------------------------------------------

    @cached_property
    def _affine_quantile(self) -> bool:
        # single uniform component spanning the support: quantile is affine
        return (
            len(self.parts) == 1
            and self.parts[0].kind == "uniform"
            and self.parts[0].lo == self.support.lo
            and self.parts[0].hi == self.support.hi
        )

    @cached_property
    def _cdf_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, F(x), dx/dF per row) on a support-wide grid plus each component's
        own interval.

        The running max keeps F monotone where rounding does not. F(lo) = 0, so
        every level in (0, 1) at or below the last row has a bracket row j >= 1
        with F[j-1] < u <= F[j], and that row's F rises.
        """
        lo, hi = self.support.lo, self.support.hi
        grids = [np.linspace(lo, hi, _TABLE_POINTS)]
        grids += [np.linspace(p.lo, p.hi, _PART_TABLE_POINTS) for p in self.parts]
        xs = np.unique(np.concatenate(grids))
        fs = np.maximum.accumulate(self.cdf(xs))
        # a flat row gives inf, as does a rise of a few subnormals (as in
        # beta_poly(1000, 1000) far from its mode). No level falls in a flat
        # row; one in such a rise starts at the row's lower end, where a slope
        # of 0 puts it. No level in [2^-53, 1) falls in either.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope = np.diff(xs) / np.diff(fs)
        slope[np.isinf(slope)] = 0.0
        return xs, fs, slope

    def quantile(self, q):
        """Leftmost x with cdf(x) >= q (flat-region infimum); q=1 maps to the support top.

        Levels are bracketed by a guide-table search of the cdf table and
        refined by safeguarded Newton steps, then bisection, on the components
        live in their table row (module docstring); the result has the bits
        of the same iteration over every component."""
        if isinstance(q, np.ndarray):
            top = q.max() if q.size else 0.0
            if q.size and (q.min() < 0.0 or top > 1.0):
                raise DistributionError("quantile levels must lie in [0, 1]")
            if self._affine_quantile:
                x = self.support.lo + q * self.support.width
                # lo + width can miss hi by an ulp
                return np.where(q == 1.0, self.support.hi, x) if top == 1.0 else x
            # reshape, not ravel: a strided column (one bidder's draws) stays a view
            return self._invert(q.reshape(-1)).reshape(q.shape)
        return float(self.quantile(np.array([float(q)]))[0])

    @cached_property
    def _row_search(self) -> SortedIndex:
        return SortedIndex(self._cdf_table[1])

    @cached_property
    def _row_terms(self) -> tuple[np.ndarray, list]:
        """(program id per table row, programs): the terms F and f sum over a
        row of the cdf table, so that the inverse cdf evaluates only the
        components live in it.

        A component is live in row j, [x[j-1], x[j]], when its closed support
        meets the row widened by ``_ROW_MARGIN`` of the support top on each
        side. The margin covers every x the inverse cdf evaluates for a level
        of the row (its start overshoots x[j] by a few ulps) and the rounding
        of each component's clipped argument, so beyond it a component's
        ``cdf_v`` is exactly its value at the support top (a component wholly
        below the row) or 0 (wholly above), and its ``pdf_v`` is 0. A program
        is (head, steps, dens): the sum of the leading constants, then the
        other terms of F in component order, each ``(w, component)`` or
        ``(w * cdf_v(hi), None)``, and the live (w, component) pairs of f.
        Summed in component order, as ``cdf`` and ``pdf`` sum, F and f keep
        their bits. Entry 0 of the ids is unused: levels fall in rows 1 and up.
        """
        xt = self._cdf_table[0]
        margin = _ROW_MARGIN * self.support.hi
        lo, hi = xt[:-1] - margin, xt[1:] + margin
        # per row and component: 0 wholly above, 1 live, 2 wholly below. Each
        # component's state only rises along the rows, so a row's states differ
        # from every earlier run's once they differ from the previous row's.
        states = np.stack([np.where(p.hi < lo, 2, np.where(p.lo > hi, 0, 1))
                           for p in self.parts], axis=1)
        new = np.any(states[1:] != states[:-1], axis=1)
        ids = np.concatenate([[0, 0], np.cumsum(new)])
        top = np.array([self.support.hi])
        programs = []
        for row in states[np.concatenate([[0], np.flatnonzero(new) + 1])]:
            head, steps, dens = 0.0, [], []
            for w, p, state in zip(self.weights, self.parts, row):
                if state == 1:
                    steps.append((w, p))
                    dens.append((w, p))
                elif state == 2:
                    c = w * float(p.cdf_v(top)[0])
                    if steps:
                        steps.append((c, None))
                    else:
                        head += c
            programs.append((head, tuple(steps), tuple(dens)))
        return ids.astype(np.min_scalar_type(len(programs))), programs

    def _invert(self, q: np.ndarray) -> np.ndarray:
        """Table bracket, then safeguarded Newton, then bisection; elementwise.

        Each level's iterations depend on that level alone, so a result does not
        depend on the other levels in the array. Newton and bisection stay in a
        level's table row, so the levels are grouped by the terms of their row
        (``_row_terms``) and each group evaluates only those. Converged
        levels leave the working arrays, to keep the temporaries near those of
        a plain bisection (which Monte Carlo threads pay each).
        """
        xt, ft, slope = self._cdf_table
        row_ids, programs = self._row_terms
        finished = []                 # (positions, results), written out at the end
        # levels above the rounded F(hi) map to hi, like q = 1
        idx = np.flatnonzero((q > 0.0) & (q < 1.0) & (q <= ft[-1]))
        # the first row above the float below u (u > 0: its bits less one) is
        # the first row with F >= u
        j = self._row_search((q.take(idx).view(np.int64) - 1).view(float))
        ids = row_ids.take(j)
        if ids.size == 1 or ids.size and ids.min() == ids.max():   # nothing to split
            groups = [(programs[ids[0]], idx, j)]
        else:
            groups = []
            for k, program in enumerate(programs):
                sel = np.flatnonzero(ids == k)
                if sel.size:
                    groups.append((program, idx.take(sel), j.take(sel)))
            groups.sort(key=lambda g: g[1].size)
        del idx, j, ids               # the groups' arrays are the loop's alone
        tiny = self.support.width * _X_ABS_TOL
        while groups:
            (head, steps, dens), idx, j = groups.pop()
            u = q.take(idx)
            b = xt.take(j)
            j -= 1
            a = xt.take(j)
            x = u - ft.take(j)        # linear interpolation inside the bracket
            x *= slope.take(j)
            x += a
            del j
            for _ in range(_NEWTON_STEPS):
                if not idx.size:
                    break
                r = _sum_cdf(x, head, steps)
                r -= u
                below = r < 0.0
                a = select(below, x, a)
                b = select(below, b, x)
                self._check_domain_v(x)
                f = _sum_pdf(x, dens)
                with np.errstate(divide="ignore", invalid="ignore"):
                    r /= f            # the Newton step
                x -= r
                # a step that leaves the bracket (or meets no density) bisects instead
                off = (x < a) | (x > b) | np.isnan(x)
                if off.any():
                    np.copyto(x, 0.5 * (a + b), where=off)
                tol = _X_REL_TOL * np.abs(x) + tiny
                conv = (np.abs(r) <= tol) & (f > 0.0) & ~off & (u >= _NEWTON_MIN_LEVEL)
                done = conv | (b - a <= tol)
                del r, f, tol         # before the next cdf call allocates
                if done.any():
                    end = np.flatnonzero(done)
                    finished.append((idx.take(end), select(conv.take(end), x.take(end),
                                                           b.take(end))))
                    keep = np.flatnonzero(~done)
                    idx, u, x, a, b = (v.take(keep) for v in (idx, u, x, a, b))
            while idx.size:
                mid = 0.5 * (a + b)
                ge = _sum_cdf(mid, head, steps) >= u
                b = select(ge, mid, b)
                a = select(ge, a, mid)
                done = b - a <= _X_REL_TOL * np.abs(b) + tiny
                if done.any():
                    end = np.flatnonzero(done)
                    finished.append((idx.take(end), b.take(end)))
                    keep = np.flatnonzero(~done)
                    idx, u, a, b = (v.take(keep) for v in (idx, u, a, b))
        out = np.where(q <= 0.0, self.support.lo, self.support.hi)
        for pos, res in finished:
            out[pos] = res
        return out

    # -- integral quantities ---------------------------------------------------

    def order_statistic_mean(self, n: int, rank: int) -> float:
        """E of the rank-th largest of n iid draws; only ranks 1 and 2 are supported."""
        if rank not in (1, 2):
            raise DistributionError(f"only ranks 1 and 2 are supported, got {rank}")
        if not 1 <= rank <= n:
            raise DistributionError(f"need 1 <= rank <= n, got rank={rank}, n={n}")
        x, w = self._quadrature
        Fx = self.cdf(x)
        tail = 1.0 - Fx**n
        if rank == 2:
            tail -= n * Fx ** (n - 1) * (1.0 - Fx)
        return self.support.lo + float(np.sum(w * tail))

    def mean_below(self, b: float) -> float:
        """E[w | w <= b]; 0 at b = 0 by continuous extension."""
        bf = float(b)
        if bf > self.support.hi + 1e-12:
            raise DistributionError(f"b={bf} above support top {self.support.hi}")
        if bf <= self.support.lo:
            return float(self.support.lo)
        g = self.cdf(bf)
        if g <= 0.0:
            raise DistributionError(f"no mass at or below b={bf}")
        return self.partial_mean(bf) / g

    def mean_above(self, r: float) -> float:
        """E[w | w >= r]."""
        rf = float(r)
        if rf >= self.support.hi:
            raise DistributionError(f"r={rf} at or above support top {self.support.hi}")
        tail = 1.0 - self.cdf(rf)
        if tail <= 1e-12:
            raise DistributionError(f"no mass above reserve r={rf}")
        return (self.mean - self.partial_mean(rf)) / tail


def _part_from(kind: str, params: list[float], lo: float, hi: float):
    if kind == "uniform":
        return _Uniform(lo, hi)
    if kind == "beta_poly":
        if len(params) != 2:
            raise DistributionError("beta_poly needs params [a, b]")
        return _BetaPoly(lo, hi, params[0], params[1])
    if kind == "cosine_bump":
        if len(params) != 2:
            raise DistributionError("cosine_bump needs params [center, half_width]")
        part = _CosineBump(params[0], params[1])
        if part.lo < lo - 1e-12 or part.hi > hi + 1e-12:
            raise DistributionError("cosine_bump escapes its declared interval")
        return part
    if kind == "pw_linear":
        if len(params) < 4 or len(params) % 2:
            raise DistributionError("pw_linear needs params [x0, y0, x1, y1, ...]")
        arr = np.asarray(params, dtype=float).reshape(-1, 2)
        return _PwLinear(arr[:, 0], arr[:, 1])
    raise DistributionError(f"unknown distribution kind {kind!r}")


def _count(params: list[float], pos: int, what: str) -> int:
    """params[pos] as a count of entries after it: an integer in [0, their number]."""
    x = params[pos]
    if not (x.is_integer() and 0 <= x < len(params) - pos):
        raise DistributionError(f"mixture {what} must be an integer from 0 to "
                                f"{len(params) - pos - 1}, got {x:g}")
    return int(x)


_JSON_KEYS = ("kind", "params", "support")


def from_json_dict(obj: dict) -> DistributionSpec:
    """The law a distribution object encodes. Unknown and missing keys are
    refused together, each in ``faults``."""
    if not isinstance(obj, dict):
        raise DistributionError("distribution spec must be a JSON object")
    unknown = sorted(set(obj) - set(_JSON_KEYS), key=str)
    faults = tuple([(str(name), "unknown key") for name in unknown]
                   + [(name, "missing required key") for name in _JSON_KEYS if name not in obj])
    if faults:
        raise DistributionError("; ".join(f"{msg}: {name}" for name, msg in faults), faults)
    kind = obj["kind"]
    lo, hi = (float(v) for v in obj["support"])
    support = SupportInterval(lo, hi)
    params = [float(v) for v in obj["params"]]
    if kind == "mixture":
        if not params:
            raise DistributionError("mixture params are empty")
        pos = 1
        weights, parts = [], []
        for _ in range(_count(params, 0, "component count")):
            if pos + 3 > len(params):
                raise DistributionError("truncated mixture encoding")
            w, code = params[pos], params[pos + 1]
            np_ = _count(params, pos + 2, "parameter count")
            pos += 3
            body = params[pos : pos + np_]
            pos += np_
            if pos + 2 > len(params):
                raise DistributionError("truncated mixture encoding")
            plo, phi = params[pos], params[pos + 1]
            pos += 2
            if code not in _CODE_KINDS:
                raise DistributionError(f"unknown component code {code:g}")
            weights.append(w)
            parts.append(_part_from(_CODE_KINDS[int(code)], body, plo, phi))
        if pos != len(params):
            raise DistributionError("trailing data in mixture encoding")
        return DistributionSpec("mixture", support, tuple(weights), tuple(parts))
    part = _part_from(kind, params, lo, hi)
    return DistributionSpec(kind, support, (1.0,), (part,))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def uniform(lo: float, hi: float) -> DistributionSpec:
    return DistributionSpec("uniform", SupportInterval(lo, hi), (1.0,), (_Uniform(lo, hi),))


def cosine_bump(center: float, half_width: float) -> DistributionSpec:
    part = _CosineBump(center, half_width)
    return DistributionSpec(
        "cosine_bump", SupportInterval(part.lo, part.hi), (1.0,), (part,)
    )


def mixture(components, support: tuple[float, float] | None = None) -> DistributionSpec:
    """Mixture of (weight, DistributionSpec) pairs; nested mixtures are rejected."""
    weights, parts = [], []
    for w, spec in components:
        if spec.kind == "mixture":
            raise DistributionError("nested mixtures are not supported")
        weights.append(float(w))
        parts.append(spec.parts[0])
    if support is None:
        support = (min(p.lo for p in parts), max(p.hi for p in parts))
    return DistributionSpec(
        "mixture", SupportInterval(*support), tuple(weights), tuple(parts)
    )


# ---------------------------------------------------------------------------
# sorted-interval search
# ---------------------------------------------------------------------------


class SortedIndex:
    """``np.searchsorted(breaks, x, "right")``, exactly, by an indexed search.

    This is the guide table of Devroye (1986), section III.2.4. With n breaks,
    [lo, hi] = [breaks[0], breaks[-1]] is cut into n - 1 equal buckets, plus one
    for hi and above, and keys and breaks go through the same monotone
    map to a bucket: x - lo clipped to [0, hi - lo], times the scale, truncated.
    A break in a lower (higher) bucket than a key therefore lies below (above)
    it, and the answer for a key in bucket k is ``first[k]`` (the breaks in
    lower buckets) plus at most the widest bucket's count. A fixed number of
    vectorised bisection steps, the bit length of that count, finish the
    search. NaN keys sort last, as in numpy.

    Calls with no more keys than breaks, or with fewer than two breaks, go
    straight to ``np.searchsorted``; the directory is built on the first larger
    call and is only read after that. Threads that make the first large call
    together may each build it; the directories are equal, and each call uses
    a whole one.
    """

    def __init__(self, breaks):
        b = np.ascontiguousarray(breaks, dtype=float)
        if b.ndim != 1:
            raise ValueError("breaks must be a 1-D array")
        self.breaks = b
        self._dir = None

    @staticmethod
    def _bucket(x: np.ndarray, lo: float, span: float, scale: float) -> np.ndarray:
        t = x - lo
        np.fmin(t, span, out=t)   # +inf and NaN go to the top bucket
        np.fmax(t, 0.0, out=t)
        t *= scale
        return t.astype(np.intp)

    def _directory(self):
        """The bucket directory, built on first use (needs two or more breaks)."""
        if self._dir is None:
            b = self.breaks
            n = b.size
            lo = float(b[0])
            span = float(b[-1]) - lo
            # span * scale rounds to n - 1 within an ulp, so buckets are 0 .. n - 1
            scale = (n - 1) / span if span > 0.0 else 0.0
            if not (math.isfinite(span) and math.isfinite(scale)):
                span = scale = 0.0    # one bucket
            first = np.searchsorted(self._bucket(b, lo, span, scale), np.arange(n))
            depth = int(np.diff(first, append=n).max()).bit_length()
            # steps probe b[pos + step - 1]; +inf past the end is never before a key
            padded = np.concatenate([b, np.full((1 << depth) - 1, np.inf)])
            steps = tuple((1 << i, padded[(1 << i) - 1:]) for i in reversed(range(depth)))
            self._dir = (lo, span, scale, first.astype(np.int32), steps)
        return self._dir

    def __call__(self, x):
        b = self.breaks
        if np.size(x) <= b.size or b.size < 2:
            return np.searchsorted(b, x, "right")
        lo, span, scale, first, steps = self._directory()
        x = np.asarray(x, dtype=float)
        keys = x.reshape(-1)
        pos = first.take(self._bucket(keys, lo, span, scale)).astype(np.intp)
        before = np.empty(keys.shape, dtype=bool)
        for step, tail in steps:
            # is break pos + step - 1 at or before the key? (always, for a NaN key)
            np.less(keys, tail.take(pos), out=before)
            np.logical_not(before, out=before)
            pos += before * step
        np.minimum(pos, b.size, out=pos)
        return pos.reshape(x.shape)[()]
