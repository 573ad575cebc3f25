import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate

from talab import dist, sequences
from talab.dist import DistributionError
from talab.equilibrium import StrongBidLaw
from talab.mechanisms import sa_reserve_closed_form
from talab.rng import uniform_stream
from talab.sequences import FAMILY_KINDS, make_family

from conftest import (cosine_bump, mixtures, piecewise_linear, quad_cdf, quad_partial_mean,
                      to_json_dict)


# ---------------------------------------------------------------------------
# rng stream contract
# ---------------------------------------------------------------------------


def test_stream_partition_independence():
    full = uniform_stream(7, 0, 64)
    parts = np.concatenate([uniform_stream(7, 0, 10), uniform_stream(7, 10, 30),
                            uniform_stream(7, 40, 24)])
    assert np.array_equal(full, parts)


def test_stream_determinism():
    a = uniform_stream(123, 5, 100)
    b = uniform_stream(123, 5, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, uniform_stream(124, 5, 100))


# ---------------------------------------------------------------------------
# cdf / pdf / quantile
# ---------------------------------------------------------------------------


def test_uniform_cdf_examples(u01):
    assert u01.cdf(0.5) == 0.5
    assert u01.cdf(0.0) == 0.0
    assert u01.cdf(1.0) == 1.0


def test_boundary_cdf_zero(test_distributions):
    for d in test_distributions.values():
        assert d.cdf(d.support.lo) == 0.0
        assert d.cdf(d.support.hi) == pytest.approx(1.0, abs=1e-12)


def test_mixture_cdf_derived(gap_mixture):
    # frozen from the numeric-integration oracle of the constructed density
    assert gap_mixture.cdf(1.0) == pytest.approx(0.25, abs=1e-12)
    assert gap_mixture.cdf(1.0) == pytest.approx(quad_cdf(gap_mixture, 1.0), abs=1e-9)


def test_cdf_matches_quadrature(test_distributions):
    for name, d in test_distributions.items():
        lo, hi = d.support.lo, d.support.hi
        for x in np.linspace(lo + 0.07 * (hi - lo), hi - 0.03 * (hi - lo), 7):
            assert d.cdf(x) == pytest.approx(quad_cdf(d, x), abs=1e-8), name


def test_partial_mean_matches_quadrature(test_distributions):
    for name, d in test_distributions.items():
        lo, hi = d.support.lo, d.support.hi
        for x in np.linspace(lo + 0.11 * (hi - lo), hi, 5):
            assert d.partial_mean(x) == pytest.approx(quad_partial_mean(d, x), abs=1e-8), name


@settings(max_examples=40, deadline=None)
@given(mixtures())
def test_scalar_cdf_and_partial_mean_on_random_mixtures(d):
    # 41 even points plus the interior knots, where the density or its slope may
    # jump; the quadrature oracles split at the knots below each point
    xs = np.union1d(np.linspace(d.support.lo, d.support.hi, 41), d.interior_knots()).tolist()
    cdf = [d.cdf(x) for x in xs]
    pm = [d.partial_mean(x) for x in xs]
    assert np.all(np.diff(cdf) >= 0.0)
    assert np.all(np.diff(pm) >= 0.0)
    assert max(abs(f - quad_cdf(d, x)) for f, x in zip(cdf, xs)) <= 1e-9
    assert max(abs(m - quad_partial_mean(d, x)) for m, x in zip(pm, xs)) <= 1e-9


@pytest.mark.parametrize("lo, hi, ys", [
    (0.003, 1.064, [0.87, 0.86, 0.0, 0.0]),     # F summed to 1 + 2^-52 on the flat tail
    (0.281, 1.141, [0.47, 0.0, 0.6]),           # M summed past its knot value an ulp left of it
])
def test_pw_linear_cdf_and_partial_mean_never_fall(lo, hi, ys):
    # the grid of the random-mixture test, whose knots and even points can
    # differ by an ulp: each segment's sums are capped at the next knot's values
    d = piecewise_linear(np.linspace(lo, hi, len(ys)), ys)
    xs = np.union1d(np.linspace(lo, hi, 41), d.interior_knots())
    for cdf, pm in (([d.cdf(x) for x in xs.tolist()], [d.partial_mean(x) for x in xs.tolist()]),
                    (d.cdf(xs), d.partial_mean(xs))):
        assert np.all(np.diff(cdf) >= 0.0) and max(cdf) == 1.0
        assert np.all(np.diff(pm) >= 0.0) and pm[-1] == d.mean


def test_uniform_pdf_examples(u01):
    assert u01.pdf(0.3) == 1.0


def test_pdf_domain_error(u01):
    with pytest.raises(DistributionError):
        u01.pdf(1.5)


@pytest.mark.parametrize("law", ["uniform", "slow_drain"])
@pytest.mark.parametrize("x", [math.nan, np.array([0.5, math.nan]), np.array([math.nan, 0.5])],
                         ids=["scalar", "vector-last", "vector-first"])
def test_pdf_refuses_nan(u01, law, x):
    # a NaN is outside every support, as a scalar and inside an array alike
    d = u01 if law == "uniform" else make_family("slow_drain", 2.0, 2.5, 8).member(3)
    with pytest.raises(DistributionError, match="outside support"):
        d.pdf(x)


def test_quantile_examples(u01, gap_mixture, test_distributions):
    assert u01.quantile(0.25) == pytest.approx(0.25, abs=1e-12)
    # leftmost point of the flat cdf region
    assert gap_mixture.quantile(0.25) == pytest.approx(0.1, abs=1e-10)
    for d in test_distributions.values():
        assert d.quantile(1.0) == pytest.approx(d.support.hi, abs=1e-10)
        assert d.quantile(0.0) == d.support.lo


def test_bump_cdf_edges(gap_mixture):
    # sin(+-pi)/pi is not 0 in floating point: the vector cdf must still be
    # exactly 0 and 1 at and beyond the bump edges, like the scalar one
    for c, s in ((2.0, 0.1), (1.0, 0.4), (0.0625, 0.0625)):
        law = cosine_bump(c, s)
        b = law.parts[0]
        xs = np.array([b.lo - 1.0, b.lo - 1e-9, b.lo, b.hi, b.hi + 1e-9, b.hi + 1.0])
        vec = law.cdf(xs)
        assert vec.tolist() == [law.kernel(float(x))[0] for x in xs]
        assert vec.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert gap_mixture.quantile(np.array([0.25]))[0] == pytest.approx(0.1, abs=1e-10)


@pytest.mark.parametrize("s", [0.1, 1.0, math.nextafter(2.0, 0.0), math.nextafter(0.5, 0.0), 3e-5])
def test_bump_clipped_argument_keeps_bits(s):
    # the vector F, f and M against the scalar kernel, bit for bit, at each edge
    # and its neighbours, across and beyond the bump, far away and at NaN: the
    # points near an edge go to the kernel, and 1e308 - c must not overflow
    # into a wrong branch
    law = cosine_bump(3.0 * s, s)
    b = law.parts[0]
    edges = np.array([b.lo, b.lo + 0.25 * s, b.c, b.hi])
    xs = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                         b.c + s * np.linspace(-1.5, 1.5, 301), [1e308, np.nan, np.inf]])
    want = np.array([law.kernel(x) for x in xs.tolist()])
    for got, col in ((law.cdf(xs), 0), (law.partial_mean(xs), 2)):
        assert np.array_equal(got.view(np.int64), want[:, col].view(np.int64))
    inside = (xs >= b.lo) & (xs <= b.hi)   # pdf refuses points outside the support
    got = law.pdf(xs[inside])
    assert np.array_equal(got.view(np.int64), want[inside, 1].view(np.int64))


@pytest.mark.parametrize("size", [1, 7, 1000])
def test_one_plus_cos_of_pi_is_plus_zero(size):
    # the inverse cdf's bump density has no mask: beyond the bump its argument
    # is +-pi, and 1 + cos(+-pi) must be exactly +0.0, from libm and from
    # numpy's loops over short and long arrays
    assert math.cos(math.pi) == -1.0 and math.cos(-math.pi) == -1.0
    for angle in (np.pi, -np.pi):
        assert np.cos(angle) == -1.0
        c = np.cos(np.full(size, angle))
        assert np.all(c == -1.0)
        z = 1.0 + c
        assert np.all(z == 0.0) and not np.any(np.signbit(z))


@pytest.mark.parametrize("c, s", [(0.6, 0.6), (1.0, 0.4), (2.0, 0.05)])
def test_bump_lower_edge_relative_accuracy(c, s):
    # F and M near the lower edge against quadrature of f = sin^2(pi r/2)/s in
    # r = (x - lo)/s; 0.5 (1 + t + sin(pi t)/pi) is off by a factor 3e7 at r = 1e-8
    law = cosine_bump(c, s)
    b = law.parts[0]
    below, above = math.nextafter(0.25, 0.0), math.nextafter(0.25, 1.0)
    for r in (1e-8, 1e-4, 1e-2, 0.2, below, above):
        x = b.lo + r * s
        r = (x - b.lo) / s          # the r that x represents
        F_ref = integrate.quad(lambda p: math.sin(0.5 * math.pi * p) ** 2, 0.0, r,
                               epsabs=0.0, epsrel=2e-14)[0]
        M_ref = integrate.quad(lambda p: (b.lo + s * p) * math.sin(0.5 * math.pi * p) ** 2,
                               0.0, r, epsabs=0.0, epsrel=2e-14)[0]
        F, _, M = law.kernel(x)
        # the series (r < 0.25) is at the rounding floor; above it the closed
        # form's t = (x - c)/s carries the rounding of x - c
        rel = 1e-15 if r < 0.25 else 1e-14
        assert law.cdf(np.array([x]))[0] == F, r
        assert F == pytest.approx(F_ref, rel=rel, abs=0.0), r
        assert M == pytest.approx(M_ref, rel=rel, abs=0.0), r


def test_cdf_quantile_roundtrip(test_distributions):
    qs = np.linspace(0.01, 0.99, 23)
    for name, d in test_distributions.items():
        xs = d.quantile(qs)
        assert np.all(np.abs(d.cdf(xs) - qs) < 1e-9), name


def test_quantile_rejects_bad_level(u01):
    # NaN too, on the affine path and on the cdf table's (which returned the
    # support top for it)
    table = make_family("slow_drain", 2.0, 2.5, 8).member(3)
    for law, level in [(u01, 1.5), (u01, math.nan), (table, math.nan),
                       (table, np.array([0.5, math.nan]))]:
        with pytest.raises(DistributionError, match=r"in \[0, 1\]"):
            law.quantile(level)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_ks_bound(test_distributions):
    # KS statistic below 1.63/sqrt(n) (1% level) for inverse-cdf sampling
    n = 100_000
    for name in ("u01", "floored_mixture", "pw_linear"):
        d = test_distributions[name]
        xs = np.sort(d.quantile(uniform_stream(2024, 0, n)))
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        F = d.cdf(xs)
        ks = max(np.max(np.abs(F - ecdf_hi)), np.max(np.abs(F - ecdf_lo)))
        assert ks < 1.63 / math.sqrt(n), (name, ks)


def test_sample_mean_clt(floored_mixture):
    n = 1_000_000
    xs = floored_mixture.quantile(uniform_stream(5, 0, n))
    se = xs.std(ddof=1) / math.sqrt(n)
    assert abs(xs.mean() - floored_mixture.mean) < 4 * se


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------


def test_uniform_order_stats(u01):
    assert u01.order_statistic_mean(2, 1) == pytest.approx(2 / 3, abs=1e-10)
    assert u01.order_statistic_mean(2, 2) == pytest.approx(1 / 3, abs=1e-10)
    assert u01.order_statistic_mean(5, 1) == pytest.approx(5 / 6, abs=1e-10)
    # 1 - x^n has a boundary layer of width about 1/n at the top, which plain
    # 20-point Gauss-Legendre misses by 5.6e-9 at n = 100 and 7.2e-4 at n = 1000
    for n in (100, 1000):
        assert u01.order_statistic_mean(n, 1) == pytest.approx(n / (n + 1), abs=1e-14), n
        assert u01.order_statistic_mean(n, 2) == pytest.approx((n - 1) / (n + 1), abs=1e-14), n


def test_order_stat_second_below_first(test_distributions):
    for name, d in test_distributions.items():
        for n in (2, 3, 5):
            assert d.order_statistic_mean(n, 2) < d.order_statistic_mean(n, 1), name


def test_order_stat_rank_rejected(u01):
    with pytest.raises(DistributionError):
        u01.order_statistic_mean(4, 3)


def test_order_stat_monte_carlo_oracle(floored_mixture):
    n = 200_000
    draws = floored_mixture.quantile(uniform_stream(11, 0, 3 * n)).reshape(n, 3)
    top = np.sort(draws, axis=1)[:, ::-1]
    for rank in (1, 2):
        est = top[:, rank - 1]
        se = est.std(ddof=1) / math.sqrt(n)
        assert abs(est.mean() - floored_mixture.order_statistic_mean(3, rank)) < 4 * se


# ---------------------------------------------------------------------------
# conditional means
# ---------------------------------------------------------------------------


# E[w | w <= b] is read through StrongBidLaw.mean_below, the bid ODE's m(b)
def test_mean_below_uniform(u01, u02):
    assert StrongBidLaw(u01).mean_below(0.8) == pytest.approx(0.4, abs=1e-12)
    assert StrongBidLaw(u02).mean_below(2.0) == pytest.approx(u02.mean, abs=1e-12)


def test_mean_below_total_mean(test_distributions):
    for name, d in test_distributions.items():
        assert StrongBidLaw(d).mean_below(d.support.hi) == pytest.approx(d.mean, abs=1e-10), name


def test_mean_below_small_b_slope(u02):
    # conditional-mean ratio tends to 1/2 at the bottom of the support
    b = 1e-4
    ratio = StrongBidLaw(u02).mean_below(b) / b
    assert ratio == pytest.approx(0.5, abs=1e-6)
    # independent quadrature oracle at the same point
    from scipy import integrate

    num, _ = integrate.quad(lambda t: t * u02.pdf(t), 0.0, b, epsabs=1e-16)
    assert ratio == pytest.approx(num / u02.cdf(b) / b, abs=1e-9)


def test_mean_below_strictly_below_b(floored_mixture):
    law = StrongBidLaw(floored_mixture)
    bs = np.linspace(1e-3, floored_mixture.support.hi, 1000)
    vals = np.array([law.mean_below(float(b)) for b in bs])
    assert np.all(vals < bs)
    assert np.all(np.diff(vals) > -1e-12)


def _tail_mean(strong, r):
    """E[w | w >= r] as ``sa_reserve_closed_form``'s surplus holds it: against
    weak U[0, r] at N = 2, G(r) E[v_(1:2)] + (1 - G(r)) E[w | w >= r]."""
    weak, g = dist.uniform(0.0, r), strong.cdf(r)
    surplus = sa_reserve_closed_form(weak, strong, 2, r)["surplus"]
    return (surplus - g * weak.order_statistic_mean(2, 1)) / (1.0 - g)


def test_mean_above(u02, floored_mixture):
    assert _tail_mean(u02, 1.0) == pytest.approx(1.5, abs=1e-12)
    # r = 0 is refused (a weak law needs r >= v_bar > 0); here (r + 2) / 2 rounds to the mean
    assert _tail_mean(u02, 2.0**-60) == pytest.approx(u02.mean, abs=1e-12)
    # rejection-sampling oracle near the atom bump
    r = 1.95
    n = 400_000
    xs = floored_mixture.quantile(uniform_stream(21, 0, n))
    kept = xs[xs >= r]
    se = kept.std(ddof=1) / math.sqrt(len(kept))
    assert abs(kept.mean() - _tail_mean(floored_mixture, r)) < 3 * se


# ---------------------------------------------------------------------------
# construction and serialization
# ---------------------------------------------------------------------------


def test_invalid_constructions():
    with pytest.raises(DistributionError):
        dist.uniform(1.0, 1.0)
    with pytest.raises(DistributionError):
        dist.uniform(-0.5, 1.0)
    with pytest.raises(DistributionError, match="unknown distribution kind 'beta_poly'"):
        dist.from_json_dict({"kind": "beta_poly", "params": [2.0, 3.0], "support": [0.0, 1.0]})
    with pytest.raises(DistributionError):
        piecewise_linear([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(DistributionError):
        dist.mixture([(0.6, "uniform", [], 0.0, 1.0), (0.6, "uniform", [], 0.0, 1.0)], (0.0, 1.0))


@pytest.mark.parametrize("obj", [
    {"kind": "cosine_bump", "params": [1.0, math.nan], "support": [0.0, 2.0]},
    {"kind": "mixture", "params": [2, math.nan, 0, 0, 0.0, 1.0, 0.5, 0, 0, 0.0, 1.0],
     "support": [0.0, 1.0]},
    {"kind": "pw_linear", "params": [0.0, 1.0, 0.5, math.nan, 1.0, 1.0], "support": [0.0, 1.0]},
    {"kind": "pw_linear", "params": [0.0, 1.0, math.nan, 1.0, 1.0, 1.0], "support": [0.0, 1.0]},
], ids=["bump-half_width", "mixture-weight", "pw_linear-density", "pw_linear-knot"])
def test_non_finite_parameters_refused(obj):
    # NaN fails no order comparison, so each check must be written to fail it;
    # a NaN density reaches the norm check
    with pytest.raises(DistributionError):
        dist.from_json_dict(obj)


# 0.5 U[0, 1] + 0.5 of a triangle on [0, 0.5], that component declared on [lo, hi]
def _triangle_mixture(lo, hi):
    return {"kind": "mixture", "support": [0.0, 1.0],
            "params": [2, 0.5, 0, 0, 0.0, 1.0, 0.5, 3, 6, 0.0, 0.0, 0.25, 4.0, 0.5, 0.0, lo, hi]}


@pytest.mark.parametrize("obj, message", [
    ({"kind": "uniform", "params": [5.0, 7.0], "support": [0.0, 1.0]},
     "uniform takes no params, got 2"),
    ({"kind": "mixture", "params": [1, 1.0, 0, 2, 5.0, 7.0, 0.0, 1.0], "support": [0.0, 1.0]},
     "uniform takes no params, got 2"),
    (_triangle_mixture(0.9, 0.95),
     r"pw_linear \[0.0, 0.5\] escapes its declared interval \[0.9, 0.95\]"),
], ids=["uniform-params", "mixture-uniform-params", "mixture-pw_linear-outside"])
def test_component_must_lie_in_its_declared_interval(obj, message):
    # one rule for every kind: a uniform spans its interval and takes no
    # params, a bump or a pw_linear lies inside it
    with pytest.raises(DistributionError, match=message):
        dist.from_json_dict(obj)
    assert dist.from_json_dict(_triangle_mixture(0.0, 0.5)).parts[1].hi == 0.5


def test_positivity_and_smoothness_flags(gap_mixture, floored_mixture):
    assert not gap_mixture.interior_positive
    assert floored_mixture.interior_positive
    assert floored_mixture.density_c1
    assert not piecewise_linear([0, 1, 2], [0.2, 1.0, 0.2]).density_c1


def test_json_roundtrip(test_distributions):
    for name, d in test_distributions.items():
        d2 = dist.from_json_dict(json.loads(json.dumps(to_json_dict(d))))
        xs = np.linspace(d.support.lo, d.support.hi, 41)
        assert np.array_equal(d.cdf(xs), d2.cdf(xs)), name
        assert to_json_dict(d) == to_json_dict(d2), name


def test_json_schema_shape(u02):
    obj = to_json_dict(u02)
    assert set(obj) == {"kind", "params", "support"}
    assert obj["support"] == [0.0, 2.0]
    assert all(isinstance(v, float) for v in obj["params"])


def test_quadrature_reproducible(floored_mixture):
    a = floored_mixture.order_statistic_mean(3, 2)
    b = floored_mixture.order_statistic_mean(3, 2)
    assert a == b


def test_gauss_legendre_literals_are_leggauss_20():
    # written out so that no run imports numpy.polynomial (tests/test_startup.py)
    x, w = np.polynomial.legendre.leggauss(20)
    assert dist._GL_X.tobytes() == x.tobytes()
    assert dist._GL_W.tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# knot-panel quadrature, held to scipy's adaptive quad
# ---------------------------------------------------------------------------

_QUADRATURE_CASES = (
    [pytest.param(lambda kind=kind, l=l: make_family(kind, 2.0, 2.5, 20).member(l),
                  id=f"{kind}[{l}]") for kind in FAMILY_KINDS for l in (1, 8, 13, 20)]
    + [pytest.param(lambda: piecewise_linear([0.0, 0.5, 1.0, 2.0], [0.2, 1.0, 0.6, 0.2]),
                    id="pw_linear")]
)


def _adaptive(d, fn):
    val, _ = integrate.quad(fn, d.support.lo, d.support.hi, points=d.interior_knots() or None,
                            limit=200, epsabs=1e-12, epsrel=1e-10)
    return val


@pytest.mark.parametrize("make_law", _QUADRATURE_CASES)
def test_quadrature_matches_adaptive_quad(make_law):
    # the norms of the narrowest atoms sit near 1 + 1e-10 by either rule
    d = make_law()
    assert abs(d._quad_norm() - _adaptive(d, d.pdf)) <= 1e-9
    for n in (2, 3, 5):
        top = d.support.lo + _adaptive(d, lambda x: 1.0 - d.cdf(x) ** n)
        second = d.support.lo + _adaptive(
            d, lambda x: 1.0 - d.cdf(x) ** n - n * d.cdf(x) ** (n - 1) * (1.0 - d.cdf(x)))
        assert abs(d.order_statistic_mean(n, 1) - top) <= 1e-12, n
        assert abs(d.order_statistic_mean(n, 2) - second) <= 1e-12, n


@pytest.mark.parametrize("hi", [1.0, 2.5])
def test_norm_check_refuses_a_density_off_by_1e_7(hi):
    support = dist.SupportInterval(0.0, hi)
    part = dist._Uniform(0.0, hi)
    dist.DistributionSpec(support, (1.0,), (part,))     # exact: accepted
    part.h *= 1.0 + 1e-7                                # f scaled by 1 + 1e-7
    with pytest.raises(DistributionError, match=r"density integrates to 1\.000000(1|09)"):
        dist.DistributionSpec(support, (1.0,), (part,))


def test_norm_check_refuses_a_bump_off_by_1e_7():
    # a member-like law whose atom is split_atom[20]'s width: some of its nodes
    # lie within the kernel's margin of the bump's switch to its series
    support = dist.SupportInterval(0.0, 2.5)
    weights = (0.05, 0.01, 0.94)

    def parts():
        return (dist._CosineBump(0.025, 0.025), dist._Uniform(0.0, 2.5),
                dist._CosineBump(2.0, 0.2 * 2.0**-19))

    dist.DistributionSpec(support, weights, parts())    # exact: accepted
    heavy = parts()
    values = heavy[2]._kernel_values()     # the atom's f scaled by 1 + 1e-7
    heavy[2]._kernel_values = lambda: {**values, "two_s": values["two_s"] / (1.0 + 1e-7)}
    with pytest.raises(DistributionError, match=r"density integrates to 1\.00000009[34]"):
        dist.DistributionSpec(support, weights, heavy)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_norm_check_runs_the_piece_lines_inside_the_outer_cuts(kind, monkeypatch):
    # each node between the outer cuts runs its piece's lines for arrays, the
    # nodes within the kernel's margin of a cut too: none reaches the scalar kernel
    seen = []
    scalar = dist.DistributionSpec.kernel.func

    def kernel(self):
        run = scalar(self)
        return lambda x: seen.append(x) or run(x)

    recording = functools.cached_property(kernel)
    recording.__set_name__(dist.DistributionSpec, "kernel")
    monkeypatch.setattr(dist.DistributionSpec, "kernel", recording)
    fam = make_family(kind, 2.0, 2.5, 20)
    for l in range(1, 21):
        seen.clear()
        law = sequences._build_member.__wrapped__(fam, l)   # built afresh, not cached
        cuts = law.kernel_pieces[0]
        assert not [x for x in seen if cuts[0] <= x <= cuts[-1]], l
        assert abs(law._quad_norm() - 1.0) <= 1e-9, l
