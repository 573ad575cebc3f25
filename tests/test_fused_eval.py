"""The fused scalar evaluators against independent references.

``eval3_s`` returns (F, f, M) of one component from shared subexpressions; it
is the only scalar evaluator, and the scalar ``cdf``/``pdf``/``partial_mean``,
``StrongBidLaw.eval3`` and the ODE right-hand side sum it over the components.
F and f must match the vector ``cdf_v``/``pdf_v`` (F exactly 0 and 1 at and
beyond the support ends) and NaN must give NaN F and M, as in ``cdf_v``; M
must match quadrature of the vector density. The sums must equal the
separate calls bit for bit, and the written-out Dormand-Prince stages must
reproduce the loop over the tableau bit for bit.
"""

import math
import struct

import numpy as np
import pytest
from scipy import integrate

from talab import dist, equilibrium
from talab.equilibrium import StrongBidLaw, solve_ode
from talab.sequences import make_family

from conftest import beta_poly, piecewise_linear


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# (name, single-component law, points to check); edges of the bump sit at
# t = (x - c)/s = -1 and 1 exactly
_BUMP = dist.cosine_bump(1.0, 0.5)
_PW = piecewise_linear([0.0, 0.5, 1.2, 2.2], [0.5, 1.0, 0.3, 0.4])
CASES = [
    ("uniform", dist.uniform(0.5, 2.0), [0.0, 0.5, 0.75, 1.3, 2.0, 2.5]),
    ("bump", _BUMP, [0.0, 0.25, 0.5, 0.5 + 1e-9, 0.8, 1.0, 1.37, 1.5 - 1e-12, 1.5, 1.75, 3.0]),
    ("bump_off_grid", dist.cosine_bump(2.0, 0.05), [1.94, 1.95, 1.9500001, 2.0, 2.049, 2.05, 2.2]),
    ("pw_linear", _PW, [0.0, 0.1, 0.5, 0.9, 1.2, 1.7, 2.2, 2.5]),
    ("beta_a1", beta_poly(0.0, 2.0, 1.0, 2.5), [0.0, 1e-9, 0.7, 1.99, 2.0, 2.4]),
    ("beta_b1", beta_poly(0.5, 2.0, 2.0, 1.0), [0.0, 0.5, 1.1, 2.0 - 1e-9, 2.0, 3.0]),
    ("beta_a1_b1", beta_poly(0.0, 1.0, 1.0, 1.0), [0.0, 0.3, 1.0, 1.5]),
    ("beta_interior", beta_poly(0.0, 1.0, 2.0, 3.0), [0.0, 0.2, 0.6, 1.0, 1.2]),
]


def test_bump_edges_are_exact():
    part = _BUMP.parts[0]
    assert (0.5 - part.c) / part.s == -1.0 and (1.5 - part.c) / part.s == 1.0


@pytest.mark.parametrize("name,law,points", CASES, ids=[c[0] for c in CASES])
def test_eval3_s_matches_cdf_pdf_bitwise(name, law, points):
    # F and f against the vector forms; the law's scalar cdf and pdf are them bit for bit
    part = law.parts[0]
    for x, F_v, f_v in zip(points, part.cdf_v(np.array(points)), part.pdf_v(np.array(points))):
        F, f, _ = part.eval3_s(x)
        assert F == pytest.approx(F_v, rel=1e-14, abs=1e-16), (name, x)
        assert f == pytest.approx(f_v, rel=1e-14, abs=1e-15), (name, x)
        if x <= part.lo or x >= part.hi:
            assert F == (0.0 if x <= part.lo else 1.0), (name, x)
        assert bits(law.cdf(x)) == bits(F), (name, x)
        if part.lo <= x <= part.hi:     # pdf refuses points outside the support
            assert bits(law.pdf(x)) == bits(f), (name, x)


@pytest.mark.parametrize("name,law,points", CASES, ids=[c[0] for c in CASES])
def test_eval3_s_nan_like_separate_calls(name, law, points):
    # NaN in gives NaN F, as in the vector cdf, and NaN M
    part = law.parts[0]
    F, _, M = part.eval3_s(math.nan)
    assert math.isnan(F) and math.isnan(part.cdf_v(np.array([math.nan]))[0])
    assert math.isnan(law.cdf(math.nan)) and math.isnan(M)


def _quad_pm(part, x):
    """First moment of the component over [lo, x], by tight adaptive quadrature."""
    hi = min(x, part.hi)
    if hi <= part.lo:
        return 0.0
    pts = [k for k in part.knots() if part.lo < k < hi]
    val, _ = integrate.quad(lambda t: t * part.pdf_v(np.array([t]))[0], part.lo, hi,
                            points=pts or None, limit=200, epsabs=1e-14, epsrel=1e-13)
    return val


@pytest.mark.parametrize("name,law,points", CASES, ids=[c[0] for c in CASES])
def test_eval3_s_partial_mean_matches_quadrature(name, law, points):
    part = law.parts[0]
    for x in points:
        assert part.eval3_s(x)[2] == pytest.approx(_quad_pm(part, x), rel=0, abs=1e-12), (name, x)


def _strong_laws():
    member = make_family("slow_drain", k=2.0, w_bar=2.5, size=8).member(5)
    every_kind = dist.mixture([
        (0.3, _PW),
        (0.2, beta_poly(0.0, 2.2, 1.0, 2.0)),
        (0.2, dist.uniform(0.0, 2.2)),
        (0.3, _BUMP),
    ], support=(0.0, 2.2))
    return {"slow_drain_5": member, "every_kind": every_kind}


@pytest.mark.parametrize("zero_bid_prob", [0.0, 0.25])
@pytest.mark.parametrize("name", ["slow_drain_5", "every_kind"])
def test_strong_eval3_matches_separate_calls(name, zero_bid_prob):
    base = _strong_laws()[name]
    law = StrongBidLaw(base, zero_bid_prob)
    knots = [k for p in base.parts for k in p.knots()]
    grid = [i * base.support.hi / 97 for i in range(98)]
    for b in sorted(set(knots + grid + [0.0, base.support.hi])):
        got = law.eval3(b)
        want = (law.cdf(b), law.pdf(b), law.partial_mean(b))
        assert [bits(g) for g in got] == [bits(w) for w in want], (name, b)


def _tableau_stepper(rhs):
    """The Dormand-Prince attempt as a loop over the _DP_* rows with sum()."""
    A, C = equilibrium._DP_A, equilibrium._DP_C
    B5, B4, E = equilibrium._DP_B5, equilibrium._DP_B4, equilibrium._DP_E

    def step(v, b, h, k1):
        stage = [k1] + [0.0] * 6
        for i in range(1, 7):
            bi = b + h * sum(a * stage[j] for j, a in enumerate(A[i]))
            stage[i] = rhs(v + C[i] * h, bi)
        b5 = b + h * sum(w * stage[i] for i, w in enumerate(B5) if w)
        b4 = b + h * sum(w * stage[i] for i, w in enumerate(B4) if w)
        e = h * sum(w * stage[i] for i, w in enumerate(E) if w)
        return b5, b4, stage[-1], e

    return step


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
    monkeypatch.setattr(equilibrium, "_dp_stepper", _tableau_stepper)
    assert solve_all() == fused


def test_rhs_weak_sweep_matches_separate_calls():
    weak = dist.mixture([(0.6, dist.uniform(0.0, 1.0)), (0.25, dist.cosine_bump(0.6, 0.3)),
                         (0.15, beta_poly(0.0, 1.0, 1.0, 2.0))])
    law = StrongBidLaw(_strong_laws()["every_kind"], 0.25)
    rhs = equilibrium._rhs_factory(weak, law, 3)
    for v in (0.05, 0.3, 0.6, 0.9, 1.0):
        b = 1.3 * v
        G, g, M = law.cdf(b), law.pdf(b), law.partial_mean(b)
        want = 2.0 * (weak.pdf(v) / weak.cdf(v)) * (G / g) * (v - M / G) / (b - v)
        assert bits(rhs(v, b)) == bits(want), v
    # above the weak support the density check of DistributionSpec.pdf still fires
    with pytest.raises(dist.DistributionError, match="outside support"):
        rhs(1.01, 1.5)
