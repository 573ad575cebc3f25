"""The generated scalar kernels against the evaluators they replaced.

Each law's kernel (``DistributionSpec.kernel``) returns (F, f, M) at a scalar
from its components' source lines, written out; the scalar
``cdf``/``pdf``/``partial_mean`` and ``StrongBidLaw.eval3`` run it, and the ODE
right-hand side holds both laws' lines itself. The reference below is the code
it replaced, copied here: one ``eval3_s`` per component (the pw_linear's with
its knot caps), summed with ``sum()`` in component order, and the right-hand
side built on that sum. Kernel, strong law and solves must equal the reference
bit for bit. The vector ``cdf``, ``pdf`` and ``partial_mean`` must equal the
kernel bit for bit, on each kind and on the family members (F exactly 0 and 1
at and beyond the support ends), NaN must give NaN F and M, and M must match
quadrature of the density. The written-out
DOP853 stages must reproduce the loop over the tableau bit for bit, an rhs call
must make no ``eval3`` or ``kernel`` call, and the sources of a kernel and of
the rhs must be readable, with the laws' numbers bound rather than written
into them. An operation the scalar lines leave out as an identity must give
its operand bit for bit, at signed zeros, infinities and NaN too.
"""

import ast
import functools
import inspect
import math
import pickle
import struct
import traceback

import numpy as np
import pytest
from scipy import integrate

from talab import dist, equilibrium
from talab.equilibrium import StrongBidLaw, solve_ode
from talab.sequences import make_family

from conftest import cosine_bump, deviation_payoff, mixture_of, piecewise_linear, strong_rows


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# ---------------------------------------------------------------------------
# the reference: per-component evaluators and their sums
# ---------------------------------------------------------------------------


def _uniform_eval3(p, x):
    lo, hi, h = p.lo, p.hi, p.h
    if lo < x < hi:
        return (x - lo) * h, h, 0.5 * h * (x * x - lo * lo)
    f = h if x == lo or x == hi else 0.0
    if x <= lo:
        return 0.0, f, 0.0
    if x >= hi:
        return 1.0, f, 0.5 * h * (hi * hi - lo * lo)
    return x, f, x


_SERIES = tuple(((-1) ** (k + 1) / (math.factorial(2 * k) * (2 * k + 1)),
                 (-1) ** (k + 1) / (math.factorial(2 * k) * (2 * k + 2)))
                for k in range(10, 0, -1))


def _bump_lower_series(r):
    z = math.pi * math.pi * r * r
    pf = pa = 0.0
    for cf, ca in _SERIES:
        pf = z * (cf + pf)
        pa = z * (ca + pa)
    return 0.5 * r * pf, 0.5 * r * r * pa


def _bump_a(t):
    return 0.25 * (t * t - 1.0) + 0.5 * (
        t * math.sin(math.pi * t) / math.pi
        + (math.cos(math.pi * t) + 1.0) / (math.pi * math.pi))


def _bump_eval3(p, x):
    t = (x - p.c) / p.s
    if t <= -1.0 or t >= 1.0:
        return (0.0, 0.0, 0.0) if t < 0.0 else (1.0, 0.0, p.c + p.s * _bump_a(1.0))
    u = math.pi * t
    cs = math.cos(u)
    r = (x - p.lo) / p.s
    if r < 0.25:
        F, A = _bump_lower_series(r)
        return F, (1.0 + cs) / (2.0 * p.s), p.lo * F + p.s * A
    sn = math.sin(u)
    F = 0.5 * (1.0 + t + sn / math.pi)
    a = 0.25 * (t * t - 1.0) + 0.5 * (t * sn / math.pi + (cs + 1.0) / (math.pi * math.pi))
    return F, (1.0 + cs) / (2.0 * p.s), p.c * F + p.s * a


def _pw_eval3(p, x):
    if x < p.lo or x > p.hi:
        return (0.0, 0.0, 0.0) if x < p.lo else (1.0, 0.0, float(p.cum_pm[-1]))
    # on [lo, hi] f is its segment's line, lo included; NaN gives NaN
    i = min(max(int(np.searchsorted(p.xs, x, side="right")) - 1, 0), len(p.xs) - 2)
    x0, y0, m = p.xs[i], p.ys[i], p.slopes[i]
    d = x - x0
    f = float(y0 + m * d)
    if x == p.hi:
        return 1.0, f, float(p.cum_pm[-1])
    seg = y0 * (x * x - x0 * x0) / 2.0 + m * d * d * (x0 / 2.0 + d / 3.0)
    # each capped at its value at knot i + 1
    F = min(float(p.cum_mass[i] + y0 * d + 0.5 * m * d * d), float(p.cum_mass[i + 1]))
    return F, f, min(float(p.cum_pm[i] + seg), float(p.cum_pm[i + 1]))


def _ref_sweep(law):
    """(weight, evaluator) pairs of the law's components."""
    ev = {"uniform": _uniform_eval3, "cosine_bump": _bump_eval3, "pw_linear": _pw_eval3}
    return [(w, functools.partial(ev[p.kind], p)) for w, p in zip(law.weights, law.parts)]


def ref_kernel(law, x):
    sweep = _ref_sweep(law)
    return tuple(sum(w * e(x)[k] for w, e in sweep) for k in range(3))


def ref_eval3(law, b):
    c = p = m = 0.0
    for w, ev in _ref_sweep(law.dist):
        F, f, M = ev(b)
        c += w * F
        p += w * f
        m += w * M
    z = law.zero_bid_prob
    s = 1.0 - z
    return z + s * c, s * p, s * m


def ref_rhs_factory(weak, law, n_weak, piece=None):
    """The reference rhs, which serves a piece's calls too (``piece`` unread)."""
    nm1 = float(n_weak - 1)
    weak_sweep = _ref_sweep(weak)
    v_lo, v_hi = weak.support.lo - 1e-12, weak.support.hi + 1e-12

    def rhs(v, b):
        Fv = fv = 0.0
        for w, ev in weak_sweep:
            F, f, _ = ev(v)
            Fv += w * F
            fv += w * f
        if Fv <= 0.0 or v <= 0.0:
            raise equilibrium._OutOfBand
        if v < v_lo or v > v_hi:
            weak._check_domain(v)
        Gb, gb, Mb = ref_eval3(law, b)
        if b <= v:
            raise equilibrium._OutOfBand
        m = Mb / Gb if Gb > 0.0 else 0.0
        if m >= v:
            raise equilibrium._OutOfBand
        if gb <= 0.0:
            raise equilibrium._OutOfBand
        return nm1 * (fv / Fv) * (Gb / gb) * (v - m) / (b - v)

    return rhs


# (name, single-component law, points to check); edges of the bump sit at
# t = (x - c)/s = -1 and 1 exactly
_BUMP = cosine_bump(1.0, 0.5)
_PW = piecewise_linear([0.0, 0.5, 1.2, 2.2], [0.5, 1.0, 0.3, 0.4])
CASES = [
    ("uniform", dist.uniform(0.5, 2.0), [0.0, 0.5, 0.75, 1.3, 2.0, 2.5]),
    ("bump", _BUMP, [0.0, 0.25, 0.5, 0.5 + 1e-9, 0.8, 1.0, 1.37, 1.5 - 1e-12, 1.5, 1.75, 3.0]),
    ("bump_off_grid", cosine_bump(2.0, 0.05), [1.94, 1.95, 1.9500001, 2.0, 2.049, 2.05, 2.2]),
    ("pw_linear", _PW, [0.0, 0.1, 0.5, 0.9, 1.2, 1.7, 2.2, 2.5]),
    # density > 0 at lo and 0 at hi, on one segment; 0 at lo and > 0 at hi;
    # flat; 0 at both ends
    ("pw_linear_falling", piecewise_linear([0.0, 2.0], [1.0, 0.0]),
     [0.0, 1e-9, 0.7, 1.99, 2.0, 2.4]),
    ("pw_linear_rising", piecewise_linear([0.5, 1.1, 2.0], [0.0, 0.5, 1.0]),
     [0.0, 0.5, 0.5 + 1e-9, 1.1, 2.0 - 1e-9, 2.0, 3.0]),
    ("pw_linear_flat", piecewise_linear([0.0, 1.0], [1.0, 1.0]), [0.0, 0.3, 1.0, 1.5]),
    ("pw_linear_zero_ends", piecewise_linear([0.0, 0.3, 0.7, 1.0], [0.0, 1.0, 0.4, 0.0]),
     [0.0, 0.2, 0.3, 0.6, 0.7, 1.0 - 1e-9, 1.0, 1.2]),
]


# The eval3_s in the names below is the per-component evaluator these tests
# checked before each law's kernel replaced it.


def test_bump_edges_are_exact():
    part = _BUMP.parts[0]
    assert (0.5 - part.c) / part.s == -1.0 and (1.5 - part.c) / part.s == 1.0


def _strong_laws():
    member = make_family("slow_drain", k=2.0, w_bar=2.5, size=8).member(5)
    every_kind = mixture_of([
        (0.3, _PW),
        (0.2, piecewise_linear([0.0, 1.1, 2.2], [0.0, 1.0, 0.0])),
        (0.2, dist.uniform(0.0, 2.2)),
        (0.3, _BUMP),
    ], support=(0.0, 2.2))
    return {"slow_drain_5": member, "every_kind": every_kind}


def _vector_points(law) -> list[float]:
    """Random points in each piece of the law's kernel, each cut and its float
    neighbours, points beyond the support, and NaN."""
    rng = np.random.default_rng(26)
    cuts, pieces = law.kernel_pieces
    lo, hi = law.support.lo, law.support.hi
    xs = [x for a, b, _ in pieces if a < b for x in rng.uniform(a, b, 8).tolist()]
    xs += [y for c in cuts for y in (math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf))]
    return xs + [lo - 1.0, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
                 hi + 1.0, math.inf, -math.inf, math.nan]


# the vector F, f and M against the kernel on the family members, a law of
# every kind and a bump whose lower edge rounds below c - s (one and two ulps
# above it the kernel takes its t <= -1 branch, the series lines would not);
# their points are drawn in the test (``_vector_points``)
ORACLE_CASES = [(f"{kind}[{l}]", member, None)
                for kind in ("slow_drain", "smoothed_discrete", "fast_drain", "split_atom")
                for l, member in enumerate(make_family(kind, k=2.0, w_bar=2.5, size=12).members(), 1)
                ] + [("every_kind", _strong_laws()["every_kind"], None),
                     ("bump_edge_below", cosine_bump(0.3, 0.24), None)]


@pytest.mark.parametrize("name,law,points", CASES + ORACLE_CASES,
                         ids=[c[0] for c in CASES + ORACLE_CASES])
def test_eval3_s_matches_cdf_pdf_bitwise(name, law, points):
    # the vector F, f and M are the kernel's bit for bit (this also catches a
    # host whose numpy sin and cos differ from libm's); so are the law's scalar
    # cdf and pdf
    points = _vector_points(law) if points is None else points
    xs = np.array(points)
    want = np.array([law.kernel(x) for x in points])
    every = np.ones(xs.shape, dtype=bool)
    inside = (xs >= law.support.lo) & (xs <= law.support.hi)   # pdf refuses the rest
    for got, col, at in ((law.cdf(xs), 0, every), (law.partial_mean(xs), 2, every),
                         (law.pdf(xs[inside]), 1, inside)):
        assert np.array_equal(got.view(np.int64), want[at, col].view(np.int64)), (name, col)
    part = law.parts[0]
    for x, (F, f, _) in zip(points, want.tolist()):
        if len(law.parts) == 1 and (x <= part.lo or x >= part.hi):
            assert F == (0.0 if x <= part.lo else 1.0), (name, x)
        assert bits(law.cdf(x)) == bits(F), (name, x)
        if law.support.lo <= x <= law.support.hi:     # pdf refuses points outside the support
            assert bits(law.pdf(x)) == bits(f), (name, x)


def test_pw_linear_vector_forms_reach_one_at_the_top():
    # the knot tables' last F can round to 1 - 2^-53 (about a third of random
    # laws); at and beyond hi the vector F and M are the kernel's 1.0 and mean
    rng = np.random.default_rng(51)
    short = 0
    for _ in range(500):
        size = int(rng.integers(2, 6))
        xs = np.cumsum(rng.uniform(0.05, 1.5, size))
        law = piecewise_linear(xs, rng.uniform(0.0, 1.0, size) + 0.01)
        part, hi = law.parts[0], law.support.hi
        short += part.cum_mass[-1] < 1.0
        points = [hi, math.nextafter(hi, math.inf), hi + 1.0, math.inf]
        F_v, M_v = law.cdf(np.array(points)), law.partial_mean(np.array(points))
        for x, F, M in zip(points, F_v, M_v):
            want = law.kernel(x)
            top = (bits(1.0), bits(part.mean()))
            assert (bits(F), bits(M)) == (bits(want[0]), bits(want[2])) == top
    assert short > 50


@pytest.mark.parametrize("name,law,points", CASES, ids=[c[0] for c in CASES])
def test_eval3_s_nan_like_separate_calls(name, law, points):
    # NaN in gives NaN F, as in the vector cdf, and NaN M
    F, _, M = law.kernel(math.nan)
    assert math.isnan(F) and math.isnan(law.cdf(np.array([math.nan]))[0])
    assert math.isnan(law.cdf(math.nan)) and math.isnan(M)


def _quad_pm(law, x):
    """First moment of a one-component law over [lo, x], by tight adaptive quadrature."""
    part = law.parts[0]
    hi = min(x, part.hi)
    if hi <= part.lo:
        return 0.0
    pts = [k for k in part.knots() if part.lo < k < hi]
    val, _ = integrate.quad(lambda t: t * law.pdf(t), part.lo, hi,
                            points=pts or None, limit=200, epsabs=1e-14, epsrel=1e-13)
    return val


@pytest.mark.parametrize("name,law,points", CASES, ids=[c[0] for c in CASES])
def test_eval3_s_partial_mean_matches_quadrature(name, law, points):
    for x in points:
        assert law.kernel(x)[2] == pytest.approx(_quad_pm(law, x), rel=0, abs=1e-12), (name, x)


@pytest.mark.parametrize("zero_bid_prob", [0.0, 0.25])
@pytest.mark.parametrize("name", ["slow_drain_5", "every_kind"])
def test_strong_eval3_matches_separate_calls(name, zero_bid_prob):
    base = _strong_laws()[name]
    law = StrongBidLaw(base, zero_bid_prob)
    knots = [k for p in base.parts for k in p.knots()]
    grid = [i * base.support.hi / 97 for i in range(98)]
    points = sorted(set(knots + grid + [0.0, base.support.hi]))
    for b in points:
        got = law.eval3(b)
        want = strong_rows(law, b)
        assert [bits(g) for g in got] == [bits(w) for w in want], (name, b)
        # mean_below reads G and M from eval3: the quotient of the separate calls
        mean = 0.0 if want[0] <= 0.0 else want[2] / want[0]
        assert bits(law.mean_below(b)) == bits(mean), (name, b)
    assert law.mean_below(-1e-300) == law.mean_below(-1.0) == 0.0
    # on an array of all the points, eval3 gives each scalar call's bits
    rows = law.eval3(np.array(points))
    for i, b in enumerate(points):
        assert _same([r[i] for r in rows], law.eval3(b)), (name, b)
    # raw_bid_payoff reads G and M from one eval3 call, G = 0 below bid 0
    raws = np.array([-0.5, 0.0, *grid[1:-1:8], base.support.hi])
    v = np.array([[0.4], [1.9]])
    G, _, M = strong_rows(law, raws)
    want = v * G - M
    got = equilibrium.raw_bid_payoff(v, raws, base, law, 3)
    assert got.tobytes() == want.tobytes(), name


def _tableau_stepper(rhs):
    """The DOP853 attempt and dense output as loops over the _DOP_* rows with sum()."""
    A, C = equilibrium._DOP_A, equilibrium._DOP_C

    def weigh(row, stage):
        return sum(w * stage[j] for j, w in enumerate(row) if w)

    def attempt(v, b, h, k1):
        stage = [k1]
        for i in range(1, 12):
            stage.append(rhs(v + C[i] * h, b + h * weigh(A[i], stage)))
        return (b + h * weigh(A[12], stage), weigh(equilibrium._DOP_E5, stage),
                weigh(equilibrium._DOP_E3, stage), tuple(stage))

    def dense(v, b, h, stages):
        stage = list(stages)
        for i in range(13, 16):
            stage.append(rhs(v + C[i] * h, b + h * weigh(A[i], stage)))
        return tuple(h * weigh(row, stage) for row in equilibrium._DOP_D)

    return attempt, dense


def test_written_out_stages_match_tableau_loop(monkeypatch, u01, u02):
    members = make_family("slow_drain", k=2.0, w_bar=2.5, size=8)
    cases = [
        (u01, StrongBidLaw(u02), 2),
        (u01, StrongBidLaw(members.member(3), 0.25), 3),
        (u01, StrongBidLaw(_strong_laws()["every_kind"]), 2),
    ]

    def solve_all():
        out = []
        for weak, law, n in cases:
            bid, report = solve_ode(weak, law, n)
            out.append((bid.grid.tobytes(), bid.values.tobytes(), bid.slopes.tobytes(),
                        bid.bumps.tobytes(), report))
        return out

    fused = solve_all()
    monkeypatch.setattr(equilibrium, "_dop853", _tableau_stepper)
    assert solve_all() == fused


def test_rhs_weak_sweep_matches_separate_calls():
    weak = mixture_of([(0.6, dist.uniform(0.0, 1.0)), (0.25, cosine_bump(0.6, 0.3)),
                         (0.15, piecewise_linear([0.0, 1.0], [1.0, 0.0]))])
    law = StrongBidLaw(_strong_laws()["every_kind"], 0.25)
    rhs = equilibrium._rhs_factory(weak, law, 3)
    for v in (0.05, 0.3, 0.6, 0.9, 1.0):
        b = 1.3 * v
        G, g, M = strong_rows(law, b)
        want = 2.0 * (weak.pdf(v) / weak.cdf(v)) * (G / g) * (v - M / G) / (b - v)
        assert bits(rhs(v, b)) == bits(want), v
    # above the weak support the density check of DistributionSpec.pdf still fires
    with pytest.raises(dist.DistributionError, match="outside support"):
        rhs(1.01, 1.5)


# ---------------------------------------------------------------------------
# the kernels against the reference
# ---------------------------------------------------------------------------


def _family_members():
    return {f"{kind}[{l}]": member for kind in ("slow_drain", "smoothed_discrete", "split_atom")
            for l, member in enumerate(make_family(kind, k=2.0, w_bar=2.5, size=8).members(), 1)}


def _oracle_points(law, seed):
    """Random points over the support and a little beyond it, every component's
    ends (and a bump's centre and r = 1/4 point) and the support's ends with
    their float neighbours, and NaN."""
    lo, hi = law.support.lo, law.support.hi
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo), 300).tolist()
    for p in law.parts:
        marks = [p.lo, p.hi]
        if p.kind == "cosine_bump":
            marks += [p.c, p.lo + 0.25 * p.s]
        for x in marks + [lo, hi]:
            xs += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
    return xs + [math.nan]


def _same(got, want):
    return [bits(g) for g in got] == [bits(w) for w in want]


_ORACLE_LAWS = {**{name: law for name, law, _ in CASES},
                "every_kind": _strong_laws()["every_kind"], **_family_members()}


@pytest.mark.parametrize("name", sorted(_ORACLE_LAWS))
def test_kernel_matches_reference_bitwise(name):
    law = _ORACLE_LAWS[name]
    for x in _oracle_points(law, len(name)):
        want = ref_kernel(law, x)
        assert _same(law.kernel(x), want), (name, x)
        if law.support.lo <= x <= law.support.hi:
            got = (law.cdf(x), law.pdf(x), law.partial_mean(x))
            assert _same(got, want), (name, x)


def test_oracle_points_reach_the_bump_branches():
    # t = -1 and t = 1 exactly, and r at 1/4 and just below it, on the bump case
    part = _BUMP.parts[0]
    xs = _oracle_points(_BUMP, 0)
    ts = {(x - part.c) / part.s for x in xs}
    rs = {(x - part.lo) / part.s for x in xs}
    assert {-1.0, 1.0} <= ts
    assert 0.25 in rs and any(0.25 - 1e-15 < r < 0.25 for r in rs)


@pytest.mark.parametrize("zero_bid_prob", [0.0, 0.25])
def test_family_strong_eval3_matches_reference(zero_bid_prob):
    for name, member in _family_members().items():
        law = StrongBidLaw(member, zero_bid_prob)
        for b in _oracle_points(member, 7):
            assert _same(law.eval3(b), ref_eval3(law, b)), (name, b)


def _solve_cases():
    u01 = dist.uniform(0.0, 1.0)
    cases = [(u01, StrongBidLaw(make_family(kind, k=2.0, w_bar=2.5, size=8).member(5), zb), n)
             for kind in ("slow_drain", "smoothed_discrete", "split_atom")
             for n in (2, 5) for zb in (0.0, 0.25)]
    cases.append((piecewise_linear([0.0, 0.4, 1.0], [0.6, 1.4, 0.9]),
                  StrongBidLaw(dist.uniform(0.0, 2.0)), 3))
    cases.append((u01, StrongBidLaw(piecewise_linear([0.0, 1.0, 3.0], [1.0, 0.5, 0.0])), 2))
    # both laws of every kind but the uniform on the weak side: where the weak
    # law's lines end and the strong law's begin, a name one of them clobbers shows
    weak = mixture_of([(0.6, piecewise_linear([0.0, 0.4, 1.0], [0.6, 1.4, 0.9])),
                         (0.4, cosine_bump(0.5, 0.3))])
    cases += [(weak, StrongBidLaw(_strong_laws()["every_kind"], zb), n)
              for n in (2, 3) for zb in (0.0, 0.25)]
    return cases


def test_solves_match_reference_rhs(monkeypatch):
    def solve_all():
        out = []
        for weak, law, n in _solve_cases():
            bid, report = solve_ode(weak, law, n)
            out.append((bid.grid.tobytes(), bid.values.tobytes(), bid.slopes.tobytes(),
                        bid.bumps.tobytes(), report))
        return out

    generated = solve_all()
    built = {"full": 0, "piece": 0}

    def reference(weak, law, n_weak, piece=None):
        built["full" if piece is None else "piece"] += 1
        return ref_rhs_factory(weak, law, n_weak)

    # the reference serves every call: the full rhs's and each piece's
    monkeypatch.setattr(equilibrium, "_rhs_factory", reference)
    assert solve_all() == generated
    assert built["full"] == len(_solve_cases()) and built["piece"] > built["full"], built


def test_rhs_makes_no_eval3_or_kernel_call(monkeypatch):
    # the strong law's lines are written into the rhs and into each piece's:
    # inside an rhs call, a piece's or the full one (a piece's fallback
    # included), no StrongBidLaw.eval3 runs and no law's kernel is fetched
    # (outside one, the series start takes the strong law's mean below b0
    # through eval3)
    calls = {"rhs": 0, "piece": 0, "inside": 0, "outside": 0}
    active = [0]
    eval3, kernel = StrongBidLaw.eval3, dist.DistributionSpec.kernel.func

    def count():
        calls["inside" if active[0] else "outside"] += 1

    def counting_eval3(self, b):
        count()
        return eval3(self, b)

    def counting_kernel(self):
        count()
        return kernel(self)

    monkeypatch.setattr(StrongBidLaw, "eval3", counting_eval3)
    monkeypatch.setattr(dist.DistributionSpec, "kernel", property(counting_kernel))
    factory = equilibrium._rhs_factory

    def counted_factory(weak, law, n_weak, piece=None):
        built = factory(weak, law, n_weak, piece)

        def counted(v, b):
            calls["rhs" if piece is None else "piece"] += 1
            active[0] += 1
            try:
                return built(v, b)
            finally:
                active[0] -= 1

        return counted

    monkeypatch.setattr(equilibrium, "_rhs_factory", counted_factory)
    weak, law, n = _solve_cases()[3]
    solve_ode(weak, law, n)
    assert calls["piece"] > 1000 and calls["rhs"] > 0, calls
    assert calls["outside"] > 0 and calls["inside"] == 0, calls


def ref_verify_best_response(bid, weak, strong, n_weak):
    """verify_best_response as it was before it evaluated each law once over
    all its points: one deviation_payoff (conftest) call per grid, and the raw
    bids' payoffs from separate cdf and partial_mean calls."""
    eq = equilibrium
    law = eq.as_strong_law(strong)
    v_bar = weak.support.hi
    v_grid = np.linspace(v_bar / eq._BR_VALUES, v_bar, eq._BR_VALUES)
    dev_grid = np.linspace(0.0, v_bar, eq._BR_REPORTS)
    pi = deviation_payoff(v_grid[:, None], dev_grid, bid, weak, law, n_weak)
    pi_eq = deviation_payoff(v_grid, v_grid, bid, weak, law, n_weak)
    regret = pi - pi_eq[:, None]
    i, j = np.unravel_index(np.argmax(regret), regret.shape)
    max_regret = float(regret[i, j])
    worst = (float(v_grid[i]), float(dev_grid[j]))
    top = bid.b_top
    if law.dist.support.hi > top:
        raws = np.linspace(top, law.dist.support.hi, eq._BR_RAW_BIDS + 1)[1:]
        G, _, M = strong_rows(law, raws)
        pi_raw = v_grid[:, None] * G - M
        raw_regret = pi_raw - pi_eq[:, None]
        ri, rj = np.unravel_index(np.argmax(raw_regret), raw_regret.shape)
        if float(raw_regret[ri, rj]) > max_regret:
            max_regret = float(raw_regret[ri, rj])
            worst = (float(v_grid[ri]), float(raws[rj]))
    arg = np.argmax(pi, axis=1)
    nearest = np.searchsorted(dev_grid, v_grid)
    nearest = np.clip(nearest, 1, dev_grid.size - 1)
    nearest = np.where(
        np.abs(dev_grid[nearest - 1] - v_grid) <= np.abs(dev_grid[nearest] - v_grid),
        nearest - 1,
        nearest,
    )
    return eq.BestResponseReport(max_regret=max(max_regret, 0.0), worst_pair=worst,
                                 grid_shape=(v_grid.size, dev_grid.size),
                                 max_argmax_offset=int(np.max(np.abs(arg - nearest))))


def test_best_response_matches_separate_calls():
    # one cdf and partial_mean call over all the points gives the report of
    # the per-grid calls, field for field and max_regret bit for bit; the
    # cases include schedules that end below the strong support top (raw bids)
    raw = 0
    for weak, law, n in _solve_cases():
        bid, _ = solve_ode(weak, law, n)
        got, want = equilibrium.verify_best_response(bid, weak, law, n), \
            ref_verify_best_response(bid, weak, law, n)
        assert got == want and got.max_regret.hex() == want.max_regret.hex(), (law, n)
        assert [bits(x) for x in got.worst_pair] == [bits(x) for x in want.worst_pair]
        raw += law.dist.support.hi > bid.b_top
    assert raw > 0


# ---------------------------------------------------------------------------
# the pieces: each piece's lines and rhs against the full kernel and rhs
# ---------------------------------------------------------------------------


def _piece_laws(kind):
    if kind == "every_kind":
        return {kind: _strong_laws()[kind]}
    return {f"{kind}[{l}]": member
            for l, member in enumerate(make_family(kind, k=2.0, w_bar=2.5, size=12).members(), 1)}


# U[0, 2.5] reaches the strong support top, so that bids in and above the atom
# have values in the band below them
_PIECE_WEAK = {"u01": dist.uniform(0.0, 1.0), "mixture": _solve_cases()[-1][0],
               "u025": dist.uniform(0.0, 2.5)}


def _piece_ends(law, k):
    """The ends of piece k of the law's kernel, inside which it claims its states."""
    return law.kernel_pieces[1][k - 1][:2]


def _inner_ulps(lo, hi, count=3):
    """The first ``count`` floats inside (lo, hi) from each end."""
    xs, a, b = [], lo, hi
    for _ in range(count):
        a, b = math.nextafter(a, math.inf), math.nextafter(b, -math.inf)
        xs += [x for x in (a, b) if lo < x < hi]
    return xs


def _marks(law):
    """Each component's edges and each bump's r = 1/4 point, and their float neighbours."""
    xs = []
    for p in law.parts:
        marks = [p.lo, p.hi] + ([p.lo + 0.25 * p.s] if p.kind == "cosine_bump" else [])
        for x in marks:
            xs += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
    return xs


def _piece_points(law, k, rng):
    """Random points inside piece k, its ends, every mark, NaN and the
    midpoints of the pieces beside it (or points beyond the outer cuts)."""
    lo, hi = _piece_ends(law, k)
    cuts, _ = law.kernel_pieces
    outside = [0.5 * (cuts[k - 2] + cuts[k - 1]) if k > 1 else cuts[0] - 0.1,
               0.5 * (cuts[k] + cuts[k + 1]) if k + 1 < len(cuts) else cuts[-1] + 0.1]
    inside = rng.uniform(lo, hi, 6).tolist() + _inner_ulps(lo, hi) if lo < hi else []
    return inside + [lo, hi] + _marks(law) + [math.nan] + outside


def _outcome(rhs, v, b):
    try:
        return bits(rhs(v, b))
    except equilibrium._OutOfBand:
        return "out of band"
    except (ZeroDivisionError, OverflowError, dist.DistributionError) as exc:
        return type(exc).__name__




# the lower edge of cosine_bump(0.3, 0.24) rounds below c - s: one and two ulps
# above it the kernel still takes its t <= -1 branch, which a piece without its
# margin would not. In the two laws after it the first live term of a piece's
# sums is -0.0 (a weight of -0.0), or M's is near the piece's lower end (a
# subnormal weight times the M < 0 of a uniform from lo = -1e-12, which the
# support tolerance admits), where the kernel's sums from 0.0 are +0.0
_SIGNED_ZERO_LAWS = [
    mixture_of([(-0.0, dist.uniform(0.0, 1.0)), (1.0, dist.uniform(1.0, 2.0))]),
    dist.mixture([(5e-324, "uniform", [], -1e-12, 1e-6), (1.0, "uniform", [], 5e-7, 1e-6)],
                 (0.0, 1e-6))]


@pytest.mark.parametrize("law", [*_PIECE_WEAK.values(), _strong_laws()["every_kind"],
                                 cosine_bump(0.3, 0.24), *_SIGNED_ZERO_LAWS,
                                 *_piece_laws("slow_drain").values()])
def test_piece_lines_match_kernel_bitwise(law):
    # inside each piece, at random points and the floats next to its ends, the
    # lines of its states give the kernel's F, f and M, compiled for a float and
    # run on each point, and compiled for arrays and run on the points as one
    rng = np.random.default_rng(3)
    for k, (lo, hi, states) in enumerate(law.kernel_pieces[1], 1):
        piece = law.compile_lines(("F", "f", "M"), states, False)
        piece_v = law.compile_lines(("F", "f", "M"), states, True)
        xs = rng.uniform(lo, hi, 40).tolist() + _inner_ulps(lo, hi)
        for x in xs:
            assert _same(piece(x), law.kernel(x)), (k, states, x)
        got = [np.broadcast_to(v, (len(xs),)).tolist() for v in piece_v(np.array(xs))]
        assert all(_same(g, law.kernel(x)) for x, g in zip(xs, zip(*got))), (k, states)


@pytest.mark.parametrize("zero_bid_prob", [0.0, 0.25])
@pytest.mark.parametrize("kind", ["slow_drain", "smoothed_discrete", "fast_drain",
                                  "split_atom", "every_kind"])
def test_piece_rhs_matches_full_rhs_bitwise(kind, zero_bid_prob):
    # each piece's rhs, as a step takes it, against the full rhs at points inside
    # the piece pair (each with a partner in the band where one exists), at its
    # ends, at every mark of either law and its neighbours, at NaN and outside
    # the pair, where the piece falls back to the full rhs: the same value, bit
    # for bit, or the same exception
    rng = np.random.default_rng(len(kind))
    seen = {"pieces": 0, "values": 0, "calls": 0}
    for name, member in _piece_laws(kind).items():
        law = StrongBidLaw(member, zero_bid_prob)
        b_cuts, _ = member.kernel_pieces
        for weak_name, weak in _PIECE_WEAK.items():
            full = equilibrium._rhs_factory(weak, law, 3)
            at = equilibrium._piece_steppers(weak, law, 3, full)
            v_cuts, _ = weak.kernel_pieces
            for i in range(1, len(b_cuts)):
                p_lo, p_hi = _piece_ends(member, i)
                for j in range(1, len(v_cuts)):
                    q_lo, q_hi = _piece_ends(weak, j)
                    rhs = at(0.5 * (v_cuts[j - 1] + v_cuts[j]), 0.5 * (b_cuts[i - 1] + b_cuts[i]))[0]
                    assert rhs is not full
                    seen["pieces"] += 1
                    pairs = []
                    for b in _piece_points(member, i, rng):
                        vs = rng.uniform(q_lo, q_hi, 2).tolist()
                        if b == b and b > 0.0:   # and v in the band below it
                            lo, hi = max(law.mean_below(min(b, member.support.hi)), q_lo), min(b, q_hi)
                            vs += [0.5 * (lo + hi)] if lo < hi else []
                        pairs += [(v, b) for v in vs]
                    for v in _piece_points(weak, j, rng):   # b just above v is in the band
                        lo = max(v, p_lo) if v == v else p_lo
                        if lo < p_hi:
                            pairs += [(v, lo + u * (p_hi - lo)) for u in (1e-3, rng.uniform())]
                    for v, b in pairs:
                        got = _outcome(rhs, v, b)
                        assert got == _outcome(full, v, b), (name, weak_name, i, j, v, b)
                        seen["values"] += isinstance(got, bytes)
                        seen["calls"] += 1
    # the pairs reach the band: a good share of them compare values, not exceptions
    assert seen["values"] > 0.1 * seen["calls"], seen


def _float_literals(source: str) -> set[float]:
    return {n.value for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Constant) and isinstance(n.value, float)}


def test_kernel_source_is_readable_with_numbers_bound():
    law = mixture_of([(0.37, dist.uniform(0.0, 1.3)), (0.63, cosine_bump(0.73, 0.29))])
    bump = law.parts[1]
    numbers = {0.37, 0.63, 1.3, bump.c, bump.s, bump.lo, bump.hi, 2.0 * bump.s}
    source = inspect.getsource(law.kernel)
    assert source.startswith("def kernel(x, ") and "return F, f, M" in source
    assert "cos(u)" in source and "F = 0.0 + w0 * F0 + w1 * F1" in source
    assert not numbers & _float_literals(source)
    assert numbers - {bump.hi} <= set(law.kernel.__defaults__)
    # the rhs: the weak law's F and f lines, the band checks, then the strong
    # law's lines as components 2 and 3 and the atom, every number bound
    strong = mixture_of([(0.41, dist.uniform(0.0, 2.3)), (0.59, cosine_bump(1.17, 0.53))])
    sbump = strong.parts[1]
    strong_law = StrongBidLaw(strong, 0.23)
    atom = strong_rows(strong_law, 0.0)[0]      # G at bid 0, where F = 0: the atom
    strong_numbers = {0.41, 0.59, 2.3, sbump.c, sbump.s, sbump.lo, sbump.hi, 2.0 * sbump.s,
                      atom, 1.0 - atom}
    rhs = equilibrium._rhs_factory(law, strong_law, 2)
    source = inspect.getsource(rhs)
    assert "M0" not in source and "M1" not in source and "eval3" not in source
    assert source.index("check_domain(x)") < source.index("t = (x - c3) / s3")
    assert "G = 0.0 + w2 * F2 + w3 * F3" in source and "M = 0.0 + w2 * M2 + w3 * M3" in source
    assert "Gb = atom + scale * G" in source
    assert not (numbers | strong_numbers) & _float_literals(source)
    assert (numbers | strong_numbers) - {bump.hi, sbump.hi} <= set(rhs.__defaults__)
    # a traceback through the rhs shows its line
    with pytest.raises(dist.DistributionError) as info:
        rhs(1.5, 1.8)
    assert "check_domain(x)" in "".join(traceback.format_exception(info.value))


def test_piece_source_depends_on_shape_only():
    # a piece's rhs holds only its live components' branches, and no literal
    # the full rhs lacks (which holds no law's number, as
    # test_kernel_source_is_readable_with_numbers_bound checks), so
    # it is compiled once per shape: two members of a family share the code
    # of each piece their states agree on
    weak = dist.uniform(0.0, 1.0)
    fam = make_family("slow_drain", k=2.0, w_bar=2.5, size=8)
    codes = []
    for l in (3, 6):
        member = fam.member(l)
        law = StrongBidLaw(member, 0.23)
        at = equilibrium._piece_steppers(weak, law, 2, equilibrium._rhs_factory(weak, law, 2))
        full = _float_literals(inspect.getsource(equilibrium._rhs_factory(weak, law, 2)))
        pieces = {}
        for k, (lo, hi, states) in enumerate(member.kernel_pieces[1], 1):
            rhs = at(0.5, 0.5 * (lo + hi))[0]
            source = inspect.getsource(rhs)
            assert "return full(x, b)" in source and "check_domain" not in source
            assert _float_literals(source) <= full, k
            assert source.count("t = (x - c") == states.count("series") + states.count("closed")
            assert ("sin(u)" in source) == ("closed" in states)
            pieces[states] = rhs.__code__
        codes.append(pieces)
    shared = codes[0].keys() & codes[1].keys()
    assert shared and all(codes[0][key] is codes[1][key] for key in shared)


_SPECIALS = [0.0, -0.0, 1.0, -2.5, 5e-324, -5e-324, 1e308, math.inf, -math.inf, math.nan]


def test_left_out_identities_keep_every_bit():
    # each operation _Identities leaves out gives its operand to the bit, at
    # signed zeros, subnormals, infinities and NaN; the others stay
    source = """\
def k(x, y, one, zero, half):
    a = one * x + x * one - zero
    b = (x - zero) / one * y
    c = x * x - zero * zero
    d = y / one * (one * half)
    return a, b, c, d, x - half * zero
"""
    tree = dist._Identities((("one", 1.0), ("zero", 0.0))).visit(ast.parse(source))
    text = ast.unparse(tree)
    assert "one" not in text.split(":", 1)[1] and text.count("zero") == 2, text
    assert "x - half * zero" in text and "* half" in text
    full, left_out = {}, {}
    exec(source, full)
    exec(text, left_out)
    for x in _SPECIALS:
        for y in _SPECIALS:
            assert [bits(r) for r in left_out["k"](x, y, 1.0, 0.0, 0.5)] \
                == [bits(r) for r in full["k"](x, y, 1.0, 0.0, 0.5)], (x, y)


@pytest.mark.parametrize("zero_bid_prob, n_weak", [(0.0, 2), (0.25, 3)])
def test_piece_rhs_leaves_out_identities(zero_bid_prob, n_weak):
    # weak U[0, 1] against U[0, 2]: a weight of 1.0, supports from 0.0 and
    # U[0, 1]'s density 1.0 leave no operation on them; neither does N - 1 at
    # N = 2 nor an atom of 0; inside the piece the sums start from their first
    # term, and a uniform's density is a bound constant
    weak, law = dist.uniform(0.0, 1.0), StrongBidLaw(dist.uniform(0.0, 2.0), zero_bid_prob)
    full = equilibrium._rhs_factory(weak, law, n_weak)
    rhs = equilibrium._piece_steppers(weak, law, n_weak, full)(0.5, 0.7)[0]
    source = inspect.getsource(rhs)
    body = source.split("return full(x, b)", 1)[1]
    assert "0.0 +" not in body and "F0 = x\n" in body and "f = f_head\n" in body
    assert not {"w0", "lo0", "h0", "w1", "lo1"} & set(rhs.__code__.co_varnames)
    if zero_bid_prob:
        assert "Gb = atom + scale * G" in body and "nm1 * (f / F)" in body
    else:
        assert "Gb = F1\n" in body and "gb = gb_head\n" in body and "atom" not in body
        assert "return (f / F) * (Gb / gb)" in body
    assert not _float_literals(source) - _float_literals(inspect.getsource(full))


def test_law_pickles_after_its_kernel_is_built():
    law = _strong_laws()["every_kind"]
    before = law.kernel(1.1)
    copy = pickle.loads(pickle.dumps(law))
    assert "kernel" not in copy.__dict__ and _same(copy.kernel(1.1), before)


def test_tableau_is_scipys():
    # the written-out coefficients are the doubles of scipy's DOP853 tableau
    from scipy.integrate._ivp import dop853_coefficients as dop

    def same(ours, theirs):
        return np.asarray(ours, dtype=float).tobytes() == np.asarray(theirs).tobytes()

    assert same(equilibrium._DOP_C, dop.C)
    assert all(same(equilibrium._DOP_A[i], dop.A[i, :i]) for i in range(16))
    assert same(equilibrium._DOP_E5, dop.E5[:12]) and dop.E5[12] == 0.0
    assert same(equilibrium._DOP_E3, dop.E3[:12]) and dop.E3[12] == 0.0
    assert same(equilibrium._DOP_D, dop.D)
