import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate

from talab import dist
from talab.dist import DistributionError
from talab.rng import uniform_stream
from talab.sequences import FAMILY_KINDS, make_family

from conftest import (beta_poly, mixtures, piecewise_linear, quad_cdf, quad_partial_mean,
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


def test_uniform_pdf_examples(u01):
    assert u01.pdf(0.3) == 1.0


def test_pdf_domain_error(u01):
    with pytest.raises(DistributionError):
        u01.pdf(1.5)


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
        b = dist.cosine_bump(c, s).parts[0]
        xs = np.array([b.lo - 1.0, b.lo - 1e-9, b.lo, b.hi, b.hi + 1e-9, b.hi + 1.0])
        vec = b.cdf_v(xs)
        assert vec.tolist() == [b.eval3_s(float(x))[0] for x in xs]
        assert vec.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert gap_mixture.quantile(np.array([0.25]))[0] == pytest.approx(0.1, abs=1e-10)


@pytest.mark.parametrize("s", [0.1, 1.0, math.nextafter(2.0, 0.0), math.nextafter(0.5, 0.0), 3e-5])
def test_bump_clipped_argument_keeps_bits(s):
    # the vector forms clip x - c to [-s, s] before dividing by s: that gives
    # the bits of (x - c)/s clipped to [-1, 1], and of its |t| <= 1 test, at
    # each edge and its neighbours, far away and at NaN
    b = dist.cosine_bump(3.0 * s, s).parts[0]
    edges = np.array([b.lo, b.c, b.hi])
    xs = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                         b.c + s * np.linspace(-1.5, 1.5, 301), [1e308, np.nan, np.inf]])
    with np.errstate(over="ignore", invalid="ignore"):
        t = (xs - b.c) / s
    inside = np.abs(t) <= 1.0
    t = np.clip(t, -1.0, 1.0)
    F = np.clip(0.5 * (t + 1.0 + np.sin(np.pi * t) / np.pi), 0.0, 1.0)
    f = np.where(inside, (np.cos(np.pi * t) + 1.0) / (2.0 * s), 0.0)
    for got, want in ((b.cdf_v(xs), F), (b.pdf_v(xs), f)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("c, s", [(0.6, 0.6), (1.0, 0.4), (2.0, 0.05)])
def test_bump_lower_edge_relative_accuracy(c, s):
    # F and M near the lower edge against quadrature of f = sin^2(pi r/2)/s in
    # r = (x - lo)/s; 0.5 (1 + t + sin(pi t)/pi) is off by a factor 3e7 at r = 1e-8
    b = dist.cosine_bump(c, s).parts[0]
    below, above = math.nextafter(0.25, 0.0), math.nextafter(0.25, 1.0)
    for r in (1e-8, 1e-4, 1e-2, 0.2, below, above):
        x = b.lo + r * s
        r = (x - b.lo) / s          # the r that x represents
        F_ref = integrate.quad(lambda p: math.sin(0.5 * math.pi * p) ** 2, 0.0, r,
                               epsabs=0.0, epsrel=2e-14)[0]
        M_ref = integrate.quad(lambda p: (b.lo + s * p) * math.sin(0.5 * math.pi * p) ** 2,
                               0.0, r, epsabs=0.0, epsrel=2e-14)[0]
        F, _, M = b.eval3_s(x)
        # the series (r < 0.25) is at the rounding floor; above it the closed
        # form's t = (x - c)/s carries the rounding of x - c
        rel = 1e-15 if r < 0.25 else 1e-14
        assert F == pytest.approx(b.cdf_v(np.array([x]))[0], rel=0.0, abs=5e-16), r
        assert F == pytest.approx(F_ref, rel=rel, abs=0.0), r
        assert M == pytest.approx(M_ref, rel=rel, abs=0.0), r


def test_cdf_quantile_roundtrip(test_distributions):
    qs = np.linspace(0.01, 0.99, 23)
    for name, d in test_distributions.items():
        xs = d.quantile(qs)
        assert np.all(np.abs(d.cdf(xs) - qs) < 1e-9), name


def test_quantile_rejects_bad_level(u01):
    with pytest.raises(DistributionError):
        u01.quantile(1.5)


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


def test_mean_below_uniform(u01, u02):
    assert u01.mean_below(0.8) == pytest.approx(0.4, abs=1e-12)
    assert u02.mean_below(2.0) == pytest.approx(u02.mean, abs=1e-12)


def test_mean_below_total_mean(test_distributions):
    for name, d in test_distributions.items():
        assert d.mean_below(d.support.hi) == pytest.approx(d.mean, abs=1e-10), name


def test_mean_below_small_b_slope(u02):
    # conditional-mean ratio tends to 1/2 at the bottom of the support
    b = 1e-4
    ratio = u02.mean_below(b) / b
    assert ratio == pytest.approx(0.5, abs=1e-6)
    # independent quadrature oracle at the same point
    from scipy import integrate

    num, _ = integrate.quad(lambda t: t * u02.pdf(t), 0.0, b, epsabs=1e-16)
    assert ratio == pytest.approx(num / u02.cdf(b) / b, abs=1e-9)


def test_mean_below_strictly_below_b(floored_mixture):
    bs = np.linspace(1e-3, floored_mixture.support.hi, 1000)
    vals = np.array([floored_mixture.mean_below(float(b)) for b in bs])
    assert np.all(vals < bs)
    assert np.all(np.diff(vals) > -1e-12)


def test_mean_below_domain_error(u02):
    with pytest.raises(DistributionError):
        u02.mean_below(2.5)


def test_mean_above(u02, floored_mixture):
    assert u02.mean_above(1.0) == pytest.approx(1.5, abs=1e-12)
    assert u02.mean_above(0.0) == pytest.approx(u02.mean, abs=1e-12)
    with pytest.raises(DistributionError):
        u02.mean_above(2.0)
    # rejection-sampling oracle near the atom bump
    r = 1.95
    n = 400_000
    xs = floored_mixture.quantile(uniform_stream(21, 0, n))
    kept = xs[xs >= r]
    se = kept.std(ddof=1) / math.sqrt(len(kept))
    assert abs(kept.mean() - floored_mixture.mean_above(r)) < 3 * se


# ---------------------------------------------------------------------------
# construction and serialization
# ---------------------------------------------------------------------------


def test_invalid_constructions():
    with pytest.raises(DistributionError):
        dist.uniform(1.0, 1.0)
    with pytest.raises(DistributionError):
        dist.uniform(-0.5, 1.0)
    with pytest.raises(DistributionError):
        beta_poly(0.0, 1.0, 0.5, 2.0)
    with pytest.raises(DistributionError):
        piecewise_linear([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(DistributionError):
        dist.mixture([(0.6, dist.uniform(0, 1)), (0.6, dist.uniform(0, 1))])


@pytest.mark.parametrize("obj", [
    {"kind": "cosine_bump", "params": [1.0, math.nan], "support": [0.0, 2.0]},
    {"kind": "beta_poly", "params": [math.nan, 2.0], "support": [0.0, 1.0]},
    {"kind": "mixture", "params": [2, math.nan, 0, 0, 0.0, 1.0, 0.5, 0, 0, 0.0, 1.0],
     "support": [0.0, 1.0]},
    {"kind": "pw_linear", "params": [0.0, 1.0, 0.5, math.nan, 1.0, 1.0], "support": [0.0, 1.0]},
], ids=["bump-half_width", "beta-a", "mixture-weight", "pw_linear-density"])
def test_non_finite_parameters_refused(obj):
    # NaN fails no order comparison, so each check must be written to fail it;
    # a NaN density reaches the norm check
    with pytest.raises(DistributionError):
        dist.from_json_dict(obj)


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


# ---------------------------------------------------------------------------
# knot-panel quadrature, held to scipy's adaptive quad
# ---------------------------------------------------------------------------

_QUADRATURE_CASES = (
    [pytest.param(lambda kind=kind, l=l: make_family(kind, 2.0, 2.5, 20).member(l),
                  id=f"{kind}[{l}]") for kind in FAMILY_KINDS for l in (1, 8, 13, 20)]
    + [pytest.param(lambda a=a, b=b: beta_poly(0.0, 1.0, a, b), id=f"beta({a}, {b})")
       for a, b in ((1.0001, 500.0), (1.01, 1.01), (50.0, 50.0), (1000.0, 1000.0))]
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


@pytest.mark.parametrize("a, b", [(1.0001, 500.0), (1000.0, 1000.0)])
def test_norm_check_refuses_a_density_off_by_1e_7(a, b):
    support = dist.SupportInterval(0.0, 1.0)
    part = dist._BetaPoly(0.0, 1.0, a, b)
    dist.DistributionSpec("beta_poly", support, (1.0,), (part,))    # exact: accepted
    part.log_norm -= math.log1p(1e-7)                                # f scaled by 1 + 1e-7
    with pytest.raises(DistributionError, match=r"density integrates to 1\.000000(1|09)"):
        dist.DistributionSpec("beta_poly", support, (1.0,), (part,))


def test_beta_with_large_exponents_vector_forms():
    # 1/B(1000, 1000) overflows a double; the vector pdf works in log space
    d = beta_poly(0.0, 1.0, 1000.0, 1000.0)
    x = np.concatenate([np.linspace(0.0, 1.0, 2001), 0.5 + np.linspace(-0.1, 0.1, 2001)])
    vec = d.pdf(x)
    scalar = np.array([d.pdf(float(xi)) for xi in x])
    assert np.max(vec) > 30.0
    np.testing.assert_allclose(vec, scalar, rtol=1e-12, atol=0.0)
    u = np.concatenate([uniform_stream(3, 0, 20_000), [1e-12, 0.5, 1.0 - 1e-12]])
    assert np.max(np.abs(d.cdf(d.quantile(u)) - u)) <= 1e-12
