"""Value distributions on bounded supports: F, f, M, quantiles, order statistics.

Everything downstream (bid ODE, mechanism simulation, optimal-auction benchmark,
limit families) consumes distributions through this module. Each supported
density kind carries exact piecewise closed forms for

* ``cdf``            F(x)
* ``pdf``            f(x)
* ``partial_mean``   M(x) = integral of t f(t) over [lo, x]

read through ``rows`` alone. The conditional means are quotients of them:
E[w | w <= b] = M(b)/F(b) (``equilibrium.StrongBidLaw.mean_below``, the bid
ODE's m(b)) and E[w | w >= r] = (mean - M(r))/(1 - F(r)) (the reserve closed
form in ``mechanisms``). Where no closed form exists (order-statistic
integrals, the construction-time norm check) one fixed rule integrates: 20-point
Gauss-Legendre on the panels between the density knots, each panel cut
geometrically toward both of its ends, with the whole integrand evaluated in
one vector call. The grading resolves the boundary layer of 1 - F^n at the
support top, of width about 1/n: on U[0, 1] at n = 1000 the rule gives the
top order statistic's mean to 1e-16, where plain 20-point Gauss-Legendre over
the support is off by 7.2e-4 (5.6e-9 at n = 100). The tests hold it to scipy's
adaptive ``integrate.quad``, their independent oracle for it and for the
closed forms.

The lab needs numpy only: importing or running it loads no scipy module.

Each kind states F, f and M once, as one source text per branch (one sin and
one cos per bump, one segment search per piecewise-linear density). A scalar
goes through the law's ``kernel(x) -> (F, f, M)``: its components' lines, then
their weighted sums in component order, compiled once per sequence of kinds
with the law's numbers bound as default arguments. Between the cuts of
``kernel_pieces`` (the components' edges and each bump's switch to its edge
series) each component takes one branch or lies wholly above or below x, and
``kernel_body`` writes a piece's lines: for floats (the bid-ODE rhs) or for
arrays. An array's points inside a piece run its array lines, and the rest
(near a cut, beyond the support, NaN) the scalar kernel, so vector and scalar
F, f and M agree bit for bit. The construction-time norm check, which needs
no such agreement, runs every node between the outer cuts by its piece's lines.

Supported kinds: ``uniform``, ``cosine_bump`` (raised-cosine bump, C^1
everywhere), ``pw_linear`` (piecewise-linear density) and flat ``mixture`` of
the above.

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

The iterations never leave a level's row, and the table holds every cut, so
each row lies in one piece. The levels are grouped by piece, and each round
tests a group's iterates against the piece, as any array's points are tested:
when all lie inside it, the round runs the piece's F and f lines for arrays
once, and otherwise each point goes by its own piece or the scalar kernel.
Brackets move by ``select``, which has no branch per element from 1,024
levels on.

Every level iterates on its own, so a result never depends on the rest of the
array: scalar and vector calls agree bit for bit, and so do Monte Carlo runs
on any number of threads.
"""

from __future__ import annotations

import ast
import linecache
import math
import re
import types
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_NORM_TOL = 1e-8
# by this much a point may lie outside a law's support, and a component outside
# its declared interval or the support
SUPPORT_TOL = 1e-12
# knot-panel quadrature: Gauss-Legendre on each panel's subintervals, graded
# geometrically toward both of its ends. The nodes and weights are numpy's
# leggauss(20) bit for bit, written out so that no run imports numpy.polynomial
_GL_X = np.array([
    -0.993128599185095, -0.9639719272779138, -0.912234428251326, -0.8391169718222188,
    -0.7463319064601508, -0.636053680726515, -0.5108670019508271, -0.37370608871541955,
    -0.22778585114164507, -0.07652652113349734, 0.07652652113349734, 0.22778585114164507,
    0.37370608871541955, 0.5108670019508271, 0.636053680726515, 0.7463319064601508,
    0.8391169718222188, 0.912234428251326, 0.9639719272779138, 0.993128599185095])
_GL_W = np.array([
    0.017614007139150893, 0.040601429800386446, 0.06267204833410879, 0.08327674157670471,
    0.1019301198172407, 0.1181945319615186, 0.1316886384491769, 0.1420961093183824,
    0.14917298647260424, 0.15275338713072628, 0.15275338713072628, 0.14917298647260424,
    0.1420961093183824, 0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
    0.08327674157670471, 0.06267204833410879, 0.040601429800386446, 0.017614007139150893])
_GRADING_LEVELS = 24
_TABLE_POINTS = 257        # inverse-cdf table rows over the whole support ...
_PART_TABLE_POINTS = 65    # ... plus these over each component's own interval
_NEWTON_STEPS = 8          # then the unconverged levels finish by bisection
_X_REL_TOL = 4.0 * np.finfo(float).eps   # a few ulps of x ...
_X_ABS_TOL = 2.0**-64                    # ... or this share of the support width
# a subnormal cdf is flat over many tolerances of x: such levels stop on the
# bracket width, where F(b) >= u, not on the Newton step
_NEWTON_MIN_LEVEL = np.finfo(float).tiny
# the kernel's pieces (``kernel_pieces``) are shrunk by this share of the support
# top at each cut: about 2^20 ulps of any x, centre or end the kernel uses
_ROW_MARGIN = 2.0**-32
# select's crossover. Over fresh random masks (2-vCPU Xeon, numpy 2.4) np.where
# takes 2.2, 4.4 and 8.1 us at 16, 512 and 1,024 elements, the int64 select 7.6,
# 5.6 and 7.6 us; the late Newton and bisection rounds of a sweep's inverse cdf
# select over a few dozen levels (about 1,200 calls a pass)
_SELECT_BRANCHLESS = 1024
# SortedIndex's crossover. On a 202-break schedule (same host) 1,000 keys take
# 14 us by np.searchsorted, 170 us on the call that builds the directory and
# 56 us after; from about 2,000 keys the built directory wins
_INDEX_MIN_KEYS = 1024

_CODE_KINDS = {0: "uniform", 2: "cosine_bump", 3: "pw_linear"}  # in a mixture; 1 is retired


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
# density components: each kind's ``_LINES`` set F{i}, f{i}, M{i} at x for
# component i, {name} standing for parameter name{i} = ``_kernel_values()[name]``.
# Each entry but "kernel" is the one branch the lines take between two of the
# component's ``cuts()`` (``live_state`` names it); "kernel" joins them for a
# float x anywhere. A branch runs on floats and on arrays (``compile_kernel``),
# F and f grown by augmented assignments that the float build folds (``_fold``).
# A line that serves f{i} or M{i} alone starts with it, and every block keeps
# another line, so the lines stay code without them.
# ---------------------------------------------------------------------------


def _indent(lines: str, depth: int = 1) -> str:
    return "".join("    " * depth + ln for ln in lines.splitlines(True))


class _Uniform:
    kind = "uniform"
    fixed = {"f": "h"}   # in a piece, terms that are parameters (another kind has none)
    _IN = """\
F{i} = x - {lo}
F{i} *= {h}
f{i} = {h}
M{i} = 0.5 * {h} * (x * x - {lo} * {lo})
"""
    _LINES = {"in": _IN, "kernel": "if {lo} < x < {hi}:\n" + _indent(_IN) + """\
else:   # the support's ends keep the density; NaN gives NaN F and M
    F{i} = 0.0 if x <= {lo} else 1.0 if x >= {hi} else x
    f{i} = {h} if x == {lo} or x == {hi} else 0.0
    M{i} = 0.0 if x <= {lo} else {m_hi} if x >= {hi} else x
"""}

    def __init__(self, lo: float, hi: float):
        if not lo < hi:
            raise DistributionError(f"uniform needs lo < hi, got [{lo}, {hi}]")
        self.lo, self.hi = float(lo), float(hi)
        self.h = 1.0 / (hi - lo)

    def _kernel_values(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "h": self.h,
                "m_hi": 0.5 * self.h * (self.hi * self.hi - self.lo * self.lo)}

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def knots(self):
        return (self.lo, self.hi)

    cuts = knots

    def live_state(self, a: float) -> str:
        return "in"


# Lower-edge series of the cosine bump: with z = (pi r)^2,
# (1 - cos(pi rho))/2 = sum_k>=1 (-1)^(k+1) (pi rho)^(2k) / (2 (2k)!), so
# F = (r/2) sum (-1)^(k+1) z^k / ((2k)! (2k+1)) and
# A = (r^2/2) sum (-1)^(k+1) z^k / ((2k)! (2k+2)). Ten terms reach the
# rounding floor below r = 0.25 (the k = 11 term is under 1e-20 of the first).
_PI2 = math.pi * math.pi
_BUMP_SERIES = tuple(
    ((-1) ** (k + 1) / (math.factorial(2 * k) * (2 * k + 1)),
     (-1) ** (k + 1) / (math.factorial(2 * k) * (2 * k + 2)))
    for k in range(10, 0, -1)
)


def _horner(coefs) -> str:
    """The loop p = z * (c + p) from p = 0.0 over coefs, written out."""
    p = "0.0"
    for c in coefs:
        p = f"z * ({c!r} + {p})"
    return p


class _CosineBump:
    """Raised-cosine density on [c-s, c+s]: f = (1 + cos(pi (x-c)/s)) / (2s).

    Near the lower edge 0.5 (1 + t + sin(pi t)/pi) cancels to an absolute error
    of about 1e-16, so F and M there use r = (x - lo)/s and the series of
    F = (r - sin(pi r)/pi)/2 and M = lo F + s A(r), with
    A(r) = integral of rho (1 - cos(pi rho))/2 over [0, r]."""

    kind = "cosine_bump"
    _T = "t = x - {c}\nt /= {s}\n"
    _INSIDE = "u = t * PI\n"
    _R = "r = x - {lo}\nr /= {s}\n"   # the closed branch does not read r
    _COS = "f{i} = cos(u)\nf{i} += 1.0\n"   # u's last use: for arrays cos writes over it
    _F = "f{i} /= {two_s}\n"   # after M's (1 + cos)/pi^2
    _SERIES = _COS + _F + """\
z = PI2 * r * r
F{i} = 0.5 * r * (%s)
M{i} = {lo} * F{i} + {s} * (0.5 * r * r * (%s))
""" % (_horner([cf for cf, _ in _BUMP_SERIES]), _horner([ca for _, ca in _BUMP_SERIES]))
    # M's terms in t, sn and 1 + cos come first: then arrays build F in t and sn
    _CLOSED = "sn = sin(u)\n" + _COS + """\
M{i} = {s} * (0.25 * (t * t - 1.0) + 0.5 * (t * sn / PI + f{i} / PI2))
sn /= PI
F{i} = t
F{i} += 1.0
F{i} += sn
F{i} *= 0.5
M{i} += {c} * F{i}
""" + _F
    _LINES = {"series": _T + _INSIDE + _R + _SERIES, "closed": _T + _INSIDE + _CLOSED,
              "kernel": _T + """\
if t <= -1.0 or t >= 1.0:
    F{i} = 0.0 if t < 0.0 else 1.0
    f{i} = 0.0
    M{i} = 0.0 if t < 0.0 else {m_hi}
else:   # and NaN
""" + _indent(_INSIDE + _R) + "    if r < 0.25:   # the series, Horner in z = (pi r)^2\n"
              + _indent(_SERIES, 2) + "    else:\n" + _indent(_CLOSED, 2)}

    def __init__(self, center: float, half_width: float):
        if not half_width > 0:
            raise DistributionError(f"bump half_width must be > 0, got {half_width}")
        self.c, self.s = float(center), float(half_width)
        self.lo, self.hi = self.c - self.s, self.c + self.s

    def _kernel_values(self) -> dict:
        # M at t >= 1: the last M line at t = 1, whose bracket is 0.5 sin(pi)/pi
        return {"c": self.c, "s": self.s, "lo": self.lo, "two_s": 2.0 * self.s,
                "m_hi": self.c + self.s * (0.5 * (math.sin(math.pi) / math.pi))}

    def mean(self) -> float:
        return self.c

    def knots(self):
        return (self.lo, self.c, self.hi)

    def cuts(self):   # and the kernel's switch to the series, r = 1/4
        return (self.lo, self.lo + 0.25 * self.s, self.hi)

    def live_state(self, a: float) -> str:
        return "closed" if a >= self.lo + 0.25 * self.s else "series"


class _PwLinear:
    """Continuous piecewise-linear density through (xs[i], ys[i]). On segment k
    (the last with xs[k] <= x; hi and NaN take the last one), F and M are their
    values at knot k plus the segment's integral up to x, capped at their values
    at knot k + 1 (F's at most 1), which rounding could pass."""

    kind = "pw_linear"
    _IN = """\
k = bisect_right({xs}, x, 1, {top}) - 1
x0, y0, sl = {xs}[k], {ys}[k], {slopes}[k]
d = x - x0
f{i} = y0 + sl * d
F{i} = min({cum_mass}[k] + y0 * d + 0.5 * sl * d * d, {cum_mass}[k + 1])
M{i} = {cum_pm}[k] + (y0 * (x * x - x0 * x0) / 2.0 + sl * d * d * (x0 / 2.0 + d / 3.0))
M{i} = min(M{i}, {cum_pm}[k + 1])
"""
    _LINES = {"in": _IN, "kernel": """\
if x < {lo} or x > {hi}:
    F{i} = 0.0 if x < {lo} else 1.0
    f{i} = 0.0
    M{i} = 0.0 if x < {lo} else {m_hi}
else:   # on [lo, hi] f is its segment's line, lo included; NaN gives NaN
""" + _indent(_IN) + """\
    if x == {hi}:
        F{i} = 1.0
        M{i} = {m_hi}
"""}

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
        self.cum_mass = np.minimum(np.concatenate([[0.0], np.cumsum(seg_mass)]), 1.0)
        x0, y0, m, x = self.xs[:-1], self.ys[:-1], self.slopes, self.xs[1:]
        d = x - x0   # each segment's first moment, as the M line integrates it
        seg_pm = y0 * (x * x - x0 * x0) / 2.0 + m * d * d * (x0 / 2.0 + d / 3.0)
        self.cum_pm = np.concatenate([[0.0], np.cumsum(seg_pm)])

    def _kernel_values(self) -> dict:
        tables = {name: tuple(getattr(self, name).tolist())
                  for name in ("xs", "ys", "slopes", "cum_mass", "cum_pm")}
        return {"lo": self.lo, "hi": self.hi, "top": len(self.xs) - 1,
                "m_hi": float(self.cum_pm[-1]), **tables}

    def mean(self) -> float:
        return float(self.cum_pm[-1])

    def knots(self):
        return tuple(self.xs)

    def cuts(self):
        return (self.lo, self.hi)

    def live_state(self, a: float) -> str:
        return "in"


_KERNEL_GLOBALS = {"__name__": __name__, "cos": math.cos, "sin": math.sin, "min": min,
                   "bisect_right": bisect_right, "PI": math.pi, "PI2": _PI2}
_ARRAY_GLOBALS = {**_KERNEL_GLOBALS, "sin": np.sin, "min": np.minimum,
                  # cos writes over u, its last use: a temporary fewer per round
                  "cos": lambda u: np.cos(u, out=u),
                  "bisect_right": lambda a, x, lo, hi: np.searchsorted(a[lo:hi], x, "right") + lo}
_KERNEL_CODE: dict[tuple, types.CodeType] = {}  # (source, arrays) -> its function's code
_KERNEL_SHAPES: dict[tuple, tuple] = {}         # kernel_body's shape -> (lines, names read)


_SET = re.compile(r"(\s*)(\w+) = (.*)")
_AUGMENT = re.compile(r"(\s*)(\w+) ([-+*/])= (.*)")
_ATOM = re.compile(r"[\w.]+(\([\w., ]*\))?")   # a name, a number or a plain call


def _fold(lines: list[str]) -> list[str]:
    """The lines, each ``t = e`` followed by ``t op= e2`` (e2 not reading t)
    made one line ``t = (e) op (e2)``: for a float x the same operations in
    the same order, without a store and a load of t between them."""
    out = []
    for ln in lines:
        aug = _AUGMENT.fullmatch(ln)
        last = aug and out and _SET.fullmatch(out[-1])
        if last and last.group(1, 2) == aug.group(1, 2) and not re.search(rf"\b{aug[2]}\b", aug[4]):
            left, right = (e if _ATOM.fullmatch(e) else f"({e})" for e in (last[3], aug[4]))
            out[-1] = f"{last[1]}{last[2]} = {left} {aug[3]} {right}"
        else:
            out.append(ln)
    return out


class _Identities(ast.NodeTransformer):
    """Leaves out p * e, e * p and e / p for a name p ``ids`` binds to 1.0, and
    e - q for q bound to +0.0 or the product of two such: each is e to the bit,
    -0.0, infinities and NaN too."""

    def __init__(self, ids):
        self.ids = dict(ids)

    def _identity(self, op, q) -> bool:   # e op q is e
        match op, q:
            case ast.Mult() | ast.Div(), ast.Name(p):
                return self.ids.get(p) == 1.0
            case ast.Sub(), ast.BinOp(ast.Name(p), ast.Mult(), ast.Name(r)):
                return self.ids.get(p) == self.ids.get(r) == 0.0
            case ast.Sub(), ast.Name(p):
                return self.ids.get(p) == 0.0
        return False

    def visit(self, node):   # each node after its children
        node = self.generic_visit(node)
        match node:
            case ast.BinOp(ast.Name() as p, ast.Mult(), e) if self._identity(node.op, p):
                return e
            case ast.BinOp(e, op, q) if self._identity(op, q):
                return e
        return node


def compile_kernel(source: str, defaults, arrays: bool) -> types.FunctionType:
    """The one function ``source`` defines (the module's first constant), with
    ``defaults`` bound to its trailing parameters, for a float x (math's cos,
    sin, min, bisect_right) or for arrays (numpy's; tuple defaults as arrays).
    Each is compiled once, its text in ``linecache`` for ``inspect.getsource``."""
    code = _KERNEL_CODE.get((source, arrays))
    if code is None:
        filename = f"<talab kernel {hash(source):x}>"
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        code = _KERNEL_CODE[source, arrays] = compile(source, filename, "exec").co_consts[0]
    defaults = [np.array(v) if arrays and isinstance(v, tuple) else v for v in defaults]
    return types.FunctionType(code, _ARRAY_GLOBALS if arrays else _KERNEL_GLOBALS,
                              code.co_name, tuple(defaults))


# ---------------------------------------------------------------------------
# DistributionSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionSpec:
    """Immutable univariate distribution on a bounded support.

    Build through ``mixture`` at the bottom of this module, which ``uniform``
    and ``from_json_dict`` call. ``weights``/``parts`` always describe a
    mixture; a single-kind distribution is a one-component mixture.
    """

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
            if p.lo < self.support.lo - SUPPORT_TOL or p.hi > self.support.hi + SUPPORT_TOL:
                raise DistributionError(
                    f"component [{p.lo}, {p.hi}] escapes support "
                    f"[{self.support.lo}, {self.support.hi}]"
                )
        norm = self._quad_norm()
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise DistributionError(f"density integrates to {norm}, not 1")

    # -- construction-time checks ------------------------------------------

    def _quad_norm(self) -> float:
        """The knot-panel rule's integral of the density. Each node runs the
        array lines of the piece it lies in, near a cut too, and only a node
        beyond the outer cuts the scalar kernel: a check to 1e-8 needs no bit
        for bit agreement with the kernel."""
        x, w = self._quadrature
        cuts = self.kernel_pieces[0]
        k = np.searchsorted(cuts, x, "right")
        k[k == len(cuts)] = 0
        return float(np.sum(w * self._by_piece(x, k, 2)[1]))

    def interior_knots(self) -> list[float]:
        """The components' knots strictly inside the support, sorted: their
        edges and pw_linear nodes, where the density or a derivative of it may
        jump, and the inner point the quadrature's panels also end at (a
        cosine bump's centre)."""
        lo, hi = self.support.lo, self.support.hi
        return sorted({k for p in self.parts for k in p.knots() if lo < k < hi})

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
        # a bump is C^1 everywhere and vanishes smoothly at its edges; a uniform
        # is C^1 only if it spans the support, and a pw_linear has kinks
        return all(w == 0 or p.kind == "cosine_bump" or p.kind == "uniform"
                   and abs(p.lo - lo) < 1e-12 and abs(p.hi - hi) < 1e-12
                   for w, p in zip(self.weights, self.parts))

    # -- pointwise evaluation ------------------------------------------------

    def rows(self, x, n: int):
        """The first n of F, f, M at x: by ``kernel`` for a float, by ``_vector``
        for an array (each row shaped as x). Every read of them goes through here."""
        if isinstance(x, np.ndarray):
            return self._vector(x, n)
        return self.kernel(float(x))[:n]

    def cdf(self, x):
        return self.rows(x, 1)[0]

    def pdf(self, x):
        self._check_domain(x)
        return self.rows(x, 2)[1]

    def partial_mean(self, x):
        """M(x) = integral of t * pdf(t) over [lo, min(x, hi)]."""
        return self.rows(x, 3)[2]

    def _vector(self, x: np.ndarray, n: int) -> list[np.ndarray]:
        """The first n of rows F, f, M at points x: by the lines for arrays of
        the piece of ``kernel_pieces`` each point lies inside, or by the scalar
        kernel on or near a cut, beyond the outer cuts and at NaN."""
        flat = np.asarray(x, dtype=float).reshape(-1)
        k = np.searchsorted(self.kernel_pieces[0], flat, "right")
        lo, hi = self._piece_ends
        k[~((flat > lo.take(k)) & (flat < hi.take(k)))] = 0
        return [row.reshape(x.shape) for row in self._by_piece(flat, k, n)]

    def _by_piece(self, x: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
        """The first n of rows F, f, M at flat points x: x[j] by piece k[j]'s
        lines for arrays, or by the scalar kernel where k[j] is 0."""
        out = np.empty((n, x.size))
        counts = np.bincount(k)
        for i in np.flatnonzero(counts):
            sel = np.flatnonzero(k == i) if counts[i] < x.size else slice(None)
            rows = (self._lines(i, n)(x[sel]) if i else
                    np.array([self.kernel(v)[:n] for v in x[sel].tolist()]).T)
            for o, v in zip(out, rows):
                o[sel] = v
        return out

    def _at(self, k: int, x: np.ndarray):
        """(F, f) at points x, by piece k's lines for arrays when every x lies
        inside the piece, else by ``_vector``."""
        lo, hi = self._piece_ends[:, k]
        if lo < x.min() and x.max() < hi:    # NaN fails both
            return self._lines(k, 2)(x)
        return self._vector(x, 2)

    @cached_property
    def _piece_ends(self) -> np.ndarray:
        """Rows lo and hi: the ends of piece k of ``kernel_pieces`` as shrunk at
        column k, and NaN, between which no point lies, at k = 0 and len(cuts)."""
        ends = [(math.nan, math.nan)]
        return np.array(ends + [piece[:2] for piece in self.kernel_pieces[1]] + ends).T

    @cached_property
    def _part_values(self) -> tuple[dict, ...]:
        """Each component's kernel parameters, its weight ``w`` first."""
        return tuple({"w": w, **p._kernel_values()} for w, p in zip(self.weights, self.parts))

    @cached_property
    def kernel_pieces(self) -> tuple[list[float], list[tuple[float, float, tuple[str, ...]]]]:
        """(cuts, pieces): the kernel's pieces. The cuts are the components'
        edges and each cosine bump's switch to its series, sorted; x lies in
        piece k = bisect_right(cuts, x). ``pieces[k - 1]``, 1 <= k < len(cuts),
        is (lo, hi, states): the open interval (cuts[k - 1], cuts[k]) shrunk by
        ``_ROW_MARGIN`` of the support top on each side, inside which no
        rounding of x flips a branch of a component's lines, and each
        component's state there: "below" (the component lies wholly below the
        piece), "above", or the branch its lines take (``live_state``)."""
        cuts = sorted({c for p in self.parts for c in p.cuts()})
        margin = _ROW_MARGIN * self.support.hi
        return cuts, [(a + margin, b - margin,
                       tuple("below" if p.hi <= a else "above" if p.lo > a else p.live_state(a)
                             for p in self.parts)) for a, b in zip(cuts, cuts[1:])]

    def kernel_body(self, sums: tuple[str, ...], first: int, states: tuple[str, ...] | None,
                    arrays: bool) -> tuple[str, dict]:
        """(lines, params): body lines that set the first len(sums) of F, f, M
        at x under the names ``sums``, and each parameter they read and its value.
        Components are numbered from ``first``, so two laws' lines can share one
        body. Each sum runs in component order from 0.0, as sum().

        ``states`` (one of ``kernel_pieces``) keeps each live component's branch
        alone and folds the others into constants: F = 1, f = 0 and M = m_hi for
        a component wholly below x, 0 for one wholly above, and for a float x a
        uniform's density. The weighted constants before a sum's first live term
        are summed from 0.0 into ``{sum}_head`` and a later one is added where
        its term stood; the zeros are left out (a sum is never -0.0, so adding
        +0.0 moves no bit). For a float x a piece's lines also leave out a sum's
        0.0 start before a uniform's or cosine bump's term whose weight and lo
        are >= +0.0 (never -0.0 there; 0.0 + e is e for any other e), and each
        identity a parameter of 1.0 or +0.0 makes (``_Identities``). Where the
        states hold, every sum keeps the full lines' bits. For ``arrays`` each
        live term adds the sum so far to itself in place: a + b is b + a. Lines
        are formatted once per shape: kinds, states, ``sums``, ``first``,
        ``arrays``, those signs and identities."""
        args, memo = (sums, first, states, arrays), self.__dict__.setdefault("_bodies", {})
        if args in memo:   # each law's lines and numbers are built once per args
            return memo[args]
        piece = states is not None and not arrays   # copysign(1.0, v) > 0.0: v >= +0.0
        states = states or ("kernel",) * len(self.parts)
        clear = tuple(piece and p.kind != "pw_linear" and math.copysign(1.0, w) > 0.0
                      and math.copysign(1.0, p.lo) > 0.0 for w, p in zip(self.weights, self.parts))
        ids = () if not piece else tuple(
            (f"{k}{i}", v) for i, part in enumerate(self._part_values, first)
            for k, v in part.items() if type(v) is float and v in (0.0, 1.0)
            and math.copysign(1.0, v) > 0.0)
        key = (tuple(p.kind for p in self.parts), states, sums, first, arrays, clear, ids)
        shape = _KERNEL_SHAPES.get(key)    # then the names follow the values
        names, values, body = [], [], []
        terms = {total: [] for total in sums}   # (component, its term's letter or None, constant)
        for i, (p, part, state) in enumerate(zip(self.parts, self._part_values, states), first):
            w, fixed = part["w"], getattr(p, "fixed", {}) if piece else {}
            if state in ("below", "above"):
                for total, c in zip(sums[::2], (1.0, part["m_hi"]) if state == "below" else ()):
                    terms[total].append((i, None, w * c))
                continue
            values += part.values()
            for total, t in zip(sums, "FfM"):
                terms[total].append((i, None, w * part[fixed[t]]) if t in fixed else (i, t, None))
            if shape is None:
                names += [f"{k}{i}" for k in part]
                source = p._LINES[state].format(i=i, **{k: f"{k}{i}" for k in part})
                unread = {f"{t}{i}" for t in "FfM"[len(sums):] + "".join(fixed)}
                kept = [ln for ln in source.splitlines()
                        if ln.lstrip().split(" ", 1)[0] not in unread]
                body += kept if arrays else _fold(kept)
        for total in sums:
            seq = terms[total]
            n = next((k for k, (_, t, _) in enumerate(seq) if t), len(seq))
            head = 0.0
            for _, _, c in seq[:n]:
                head += c
            values += [head] * bool(n) + [c for _, t, c in seq[n:] if not t]
            if shape is not None:
                continue
            acc = f"{total}_head" if n else None if seq and clear[seq[0][0] - first] else "0.0"
            names += [acc] * bool(n) + [f"{total}_c{i}" for i, t, _ in seq[n:] if not t]
            if not arrays:
                body.append(f"{total} = " + " + ".join([acc] * bool(acc) + [
                    f"w{i} * {t}{i}" if t else f"{total}_c{i}" for i, t, _ in seq[n:]]))
                continue
            for i, t, _ in seq[n:]:   # the first is a live component's, never a constant
                if t:      # a live term takes the sum so far: a + b is b + a
                    body += [f"{t}{i} *= w{i}", f"{t}{i} += {acc}"]
                    acc = f"{t}{i}"
                else:
                    body.append(f"{acc} += {total}_c{i}")
            body.append(f"{total} = {acc}")
        if shape is None:
            if ids:
                body = ast.unparse(_Identities(ids).visit(ast.parse("\n".join(body)))).splitlines()
            text = "".join(f"    {ln}\n" for ln in body)
            used = set(re.findall(r"\w+", text))
            shape = _KERNEL_SHAPES[key] = text, [(j, k) for j, k in enumerate(names) if k in used]
        return memo.setdefault(args, (shape[0], {k: values[j] for j, k in shape[1]}))

    def compile_lines(self, sums: tuple[str, ...], states: tuple[str, ...] | None, arrays: bool):
        """x -> the ``sums`` at x, from ``kernel_body``'s lines in ``states``,
        compiled for a float x or for arrays (``compile_kernel``)."""
        body, params = self.kernel_body(sums, 0, states, arrays)
        return compile_kernel(f"def kernel(x, {', '.join(params)}):\n{body}"
                              f"    return {', '.join(sums)},\n", params.values(), arrays)

    @cached_property
    def kernel(self):
        """x -> (F(x), f(x), M(x)) at a scalar x, in one straight-line call."""
        return self.compile_lines(("F", "f", "M"), None, False)

    def _lines(self, k: int, n: int):
        """Piece k's lines for arrays, x -> the first n of F, f, M, built on
        first use (threads that race build equal ones)."""
        built = self.__dict__.setdefault("_array_lines", {})
        if (k, n) not in built:
            built[k, n] = self.compile_lines(("F", "f", "M")[:n],
                                             self.kernel_pieces[1][k - 1][2], True)
        return built[k, n]

    def __getstate__(self):   # compiled lines do not pickle: a copy compiles its own
        return {k: v for k, v in self.__dict__.items() if k not in ("kernel", "_array_lines")}

    def _check_domain(self, x):
        """Refuses x, a float or an array, unless every point lies in the
        support: the comparisons fail on NaN, so NaN is refused."""
        x = np.asarray(x)
        if x.size and not (self.support.lo - SUPPORT_TOL <= x.min()
                           and x.max() <= self.support.hi + SUPPORT_TOL):
            raise DistributionError(f"x={x} outside support [{self.support.lo}, {self.support.hi}]")

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
        own interval and the cuts of ``kernel_pieces``: each row lies in one piece.

        The running max keeps F monotone where rounding does not. F(lo) = 0, so
        every level in (0, 1) at or below the last row has a bracket row j >= 1
        with F[j-1] < u <= F[j], and that row's F rises.
        """
        lo, hi = self.support.lo, self.support.hi
        grids = [np.linspace(lo, hi, _TABLE_POINTS)]
        grids += [np.linspace(p.lo, p.hi, _PART_TABLE_POINTS) for p in self.parts]
        # np.unique's sort and mask: np.unique imports numpy.ma on its first call
        xs = np.sort(np.concatenate(grids + [np.clip(self.kernel_pieces[0], lo, hi)]))
        xs = xs[np.concatenate([[True], xs[1:] != xs[:-1]])]
        fs = np.maximum.accumulate(self.cdf(xs))
        # a flat row gives inf, as does a rise of a few subnormals (as where a
        # pw_linear density rises from 0 to 1e-311). No level falls in a flat
        # row; one in such a rise starts at the row's lower end, where a slope
        # of 0 puts it. No level in [2^-53, 1) falls in either.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope = np.diff(xs) / np.diff(fs)
        slope[np.isinf(slope)] = 0.0
        return xs, fs, slope

    def quantile(self, q):
        """Leftmost x with cdf(x) >= q (flat-region infimum); q=1 maps to the support top.

        Levels are bracketed by a guide-table search of the cdf table and
        refined by safeguarded Newton steps, then bisection, on the lines of
        the piece their table row lies in (module docstring); the result has
        the bits of the same iteration on the law's own ``cdf`` and ``pdf``."""
        if isinstance(q, np.ndarray):
            q = np.asarray(q, dtype=float)   # no copy of float64; _invert reads its bits
            top = q.max() if q.size else 0.0
            if q.size and not (q.min() >= 0.0 and top <= 1.0):
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
    def _row_pieces(self) -> np.ndarray:
        """The piece of ``kernel_pieces`` each row j, [x[j-1], x[j]], of the cdf
        table lies in. Entry 0 is unused: levels fall in rows 1 and up."""
        xt = self._cdf_table[0]
        return np.concatenate([[0], np.searchsorted(self.kernel_pieces[0], xt[:-1], "right")])

    def _invert(self, q: np.ndarray) -> np.ndarray:
        """Table bracket, then safeguarded Newton, then bisection; elementwise.

        Each level's iterations depend on that level alone, so a result does not
        depend on the other levels in the array. Newton and bisection stay in a
        level's table row, so the levels are grouped by the piece of their row
        (``_row_pieces``), and each round evaluates a group's iterates by
        ``_at``. Only the start is checked against the support: every later x
        lies in its bracket. Converged levels leave the working arrays, whose
        temporaries each Monte Carlo thread pays, once an eighth of them is
        done; before, each is frozen at its result (a = b = x), which every
        round gives again.
        """
        xt, ft, slope = self._cdf_table
        finished = []                 # (positions, results), written out at the end
        # levels above the rounded F(hi) map to hi, like q = 1
        idx = np.flatnonzero((q > 0.0) & (q < 1.0) & (q <= ft[-1]))
        # the first row above the float below u (u > 0: its bits less one) is
        # the first row with F >= u
        j = self._row_search((q.take(idx).view(np.int64) - 1).view(float))
        pieces = self._row_pieces.take(j)
        counts = np.bincount(pieces)
        groups = []
        for k in np.flatnonzero(counts):
            sel = np.flatnonzero(pieces == k) if counts[k] < idx.size else slice(None)
            groups.append((int(k), idx[sel], j[sel]))
        groups.sort(key=lambda g: g[1].size)
        del idx, j, pieces            # the groups' arrays are the loop's alone
        tiny = self.support.width * _X_ABS_TOL
        while groups:
            k, idx, j = groups.pop()
            u = q.take(idx)
            subnormal = u.min() < _NEWTON_MIN_LEVEL
            b = xt.take(j)
            j -= 1
            a = xt.take(j)
            x = u - ft.take(j)        # linear interpolation inside the bracket
            x *= slope.take(j)
            x += a
            del j
            self._check_domain(x)
            for _ in range(_NEWTON_STEPS):
                if not idx.size:
                    break
                r, f = self._at(k, x)
                r -= u
                below = r < 0.0
                a = select(below, x, a)
                b = select(below, b, x)
                with np.errstate(divide="ignore", invalid="ignore"):
                    r /= f            # the Newton step
                x -= r
                # a step that leaves the bracket (inf or NaN where f = 0) bisects instead
                inside = (x >= a) & (x <= b)
                if not inside.all():
                    np.copyto(x, 0.5 * (a + b), where=~inside)
                tol = _X_REL_TOL * np.abs(x) + tiny
                conv = np.abs(r) <= tol
                conv &= inside
                if subnormal:
                    conv &= u >= _NEWTON_MIN_LEVEL
                done = conv | (b - a <= tol)
                del r, f, tol         # before the next cdf call allocates
                if done.any():
                    end = np.flatnonzero(done)
                    res = select(conv.take(end), x.take(end), b.take(end))
                    finished.append((idx.take(end), res))
                    if 8 * end.size < idx.size:
                        a[end] = b[end] = x[end] = res
                    else:
                        keep = np.flatnonzero(~done)
                        idx, u, x, a, b = (v.take(keep) for v in (idx, u, x, a, b))
            while idx.size:
                mid = 0.5 * (a + b)
                ge = self._at(k, mid)[0] >= u
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


def _part_from(kind: str, params: list[float], lo: float, hi: float):
    """The component of a kind and params, which must lie in its declared
    [lo, hi]: a uniform spans it and takes no params."""
    if kind == "uniform":
        if params:
            raise DistributionError(f"uniform takes no params, got {len(params)}")
        part = _Uniform(lo, hi)
    elif kind == "cosine_bump":
        if len(params) != 2:
            raise DistributionError("cosine_bump needs params [center, half_width]")
        part = _CosineBump(params[0], params[1])
    elif kind == "pw_linear":
        if len(params) < 4 or len(params) % 2:
            raise DistributionError("pw_linear needs params [x0, y0, x1, y1, ...]")
        arr = np.asarray(params, dtype=float).reshape(-1, 2)
        part = _PwLinear(arr[:, 0], arr[:, 1])
    else:
        raise DistributionError(f"unknown distribution kind {kind!r}")
    if part.lo < lo - SUPPORT_TOL or part.hi > hi + SUPPORT_TOL:
        raise DistributionError(f"{kind} [{part.lo}, {part.hi}] escapes its declared "
                                f"interval [{lo}, {hi}]")
    return part


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
    SupportInterval(lo, hi)     # a bad support is refused before the params are read
    params = [float(v) for v in obj["params"]]
    if kind == "mixture":
        if not params:
            raise DistributionError("mixture params are empty")
        pos = 1
        components = []
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
            components.append((w, _CODE_KINDS[int(code)], body, plo, phi))
        if pos != len(params):
            raise DistributionError("trailing data in mixture encoding")
        return mixture(components, (lo, hi))
    return mixture([(1.0, kind, params, lo, hi)], (lo, hi))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def uniform(lo: float, hi: float) -> DistributionSpec:
    return mixture([(1.0, "uniform", [], lo, hi)], (lo, hi))


def mixture(components, support: tuple[float, float]) -> DistributionSpec:
    """The mixture on ``support`` of (weight, kind, params, lo, hi) components,
    each read as a JSON mixture's (``_part_from``): it lies in its [lo, hi], and
    a uniform spans it. Every law is built here."""
    return DistributionSpec(SupportInterval(*support),
                            tuple(float(c[0]) for c in components),
                            tuple(_part_from(*c[1:]) for c in components))


# ---------------------------------------------------------------------------
# sorted-interval search
# ---------------------------------------------------------------------------


class SortedIndex:
    """``np.searchsorted(breaks, x, "right")``, exactly, by an indexed search.

    This is the guide table of Devroye (1986), section III.2.4. With n breaks,
    [lo, hi] = [breaks[0], breaks[-1]] is cut into n - 1 equal buckets (more
    where breaks cluster, below), plus one for hi and above, and keys and
    breaks go through the same monotone
    map to a bucket: x - lo clipped to [0, hi - lo], times the scale, truncated.
    A break in a lower (higher) bucket than a key therefore lies below (above)
    it, and the answer for a key in bucket k is ``first[k]`` (the breaks in
    lower buckets) plus at most the widest bucket's count. A fixed number of
    vectorised bisection steps, the bit length of that count, finish the
    search. NaN keys sort last, as in numpy.

    Breaks that cluster (schedule nodes near the series start, cdf-table rows
    below an atom) would make every key pay for the fullest bucket. So the
    bucket count is doubled, up to 4096, while a bucket holds more than three
    breaks. If one still does, and it would save two steps or more, a second
    level cuts each bucket k that holds more than three into 8 x its count
    equal parts (one part otherwise), plus one for the rounding of the map: the
    part is floor((t - k) C_k), t the scaled position before truncation (t - k
    is exact). That map is monotone too, and its parts replace the buckets.

    Calls with fewer than 1,024 keys, no more keys than breaks, or fewer than
    two breaks go straight to ``np.searchsorted``: below that a directory costs
    more to build than it saves on a short-lived table (a schedule searched
    once by a few hundred keys). It is built on the first larger call and is
    only read after that. Threads that make the first large call
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
    def _slot(x: np.ndarray, lo: float, span: float, scale: float, parts) -> np.ndarray:
        t = x - lo
        np.fmin(t, span, out=t)   # +inf and NaN go to the top bucket
        np.fmax(t, 0.0, out=t)
        t *= scale
        k = t.astype(np.intp)
        if parts is None:
            return k
        count, base = parts
        t -= k
        t *= count.take(k)
        j = t.astype(np.intp)
        j += base.take(k)
        return j

    def _directory(self):
        """The bucket directory, built on first use (needs two or more breaks)."""
        if self._dir is None:
            b = self.breaks
            n = b.size
            lo = float(b[0])
            span = float(b[-1]) - lo
            buckets = n - 1
            while True:
                # span * scale rounds to buckets within an ulp: buckets 0 .. buckets
                scale = buckets / span if span > 0.0 else 0.0
                if not (math.isfinite(span) and math.isfinite(scale)):
                    span = scale = 0.0    # one bucket
                full = np.bincount(self._slot(b, lo, span, scale, None), minlength=buckets + 1)
                if full.max() <= 3 or scale == 0.0 or 2 * buckets > 4096:
                    break
                buckets *= 2
            parts, slots = None, buckets + 1
            if full.max() > 3:
                count = np.where(full > 3, 8.0 * full, 1.0)
                sizes = count.astype(np.intp) + 1
                fine = (count, np.cumsum(sizes) - sizes)
                if np.bincount(self._slot(b, lo, span, scale, fine)).max() <= full.max() // 4:
                    parts, slots = fine, int(sizes.sum())
            first = np.searchsorted(self._slot(b, lo, span, scale, parts), np.arange(slots))
            depth = int(np.diff(first, append=n).max()).bit_length()
            # steps probe b[pos + step - 1]; +inf past the end is never before a key
            padded = np.concatenate([b, np.full((1 << depth) - 1, np.inf)])
            steps = tuple((1 << i, padded[(1 << i) - 1:]) for i in reversed(range(depth)))
            self._dir = (lo, span, scale, parts, first.astype(np.int32), steps)
        return self._dir

    def __call__(self, x):
        b = self.breaks
        size = np.size(x)
        if size < _INDEX_MIN_KEYS or size <= b.size or b.size < 2:
            return np.searchsorted(b, x, "right")
        lo, span, scale, parts, first, steps = self._directory()
        x = np.asarray(x, dtype=float)
        keys = x.reshape(-1)
        pos = first.take(self._slot(keys, lo, span, scale, parts)).astype(np.intp)
        before = np.empty(keys.shape, dtype=bool)
        for step, tail in steps:
            # is break pos + step - 1 at or before the key? (always, for a NaN key)
            np.less(keys, tail.take(pos), out=before)
            np.logical_not(before, out=before)
            pos += before * step
        np.minimum(pos, b.size, out=pos)
        return pos.reshape(x.shape)[()]
