import math

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline, PPoly

from talab import dist
from talab import equilibrium as eq


def piecewise_linear(xs, ys):
    params = [float(c) for xy in zip(xs, ys) for c in xy]
    return dist.from_json_dict({"kind": "pw_linear", "params": params,
                                "support": [xs[0], xs[-1]]})


def cosine_bump(center, half_width):
    """The raised-cosine law on [center - half_width, center + half_width]."""
    return dist.from_json_dict({"kind": "cosine_bump", "params": [center, half_width],
                                "support": [center - half_width, center + half_width]})


def mixture_of(laws, support=None):
    """The mixture of (weight, one-component law) pairs, on the components'
    hull unless ``support`` is given: the laws' own components, not rebuilt."""
    weights = tuple(float(w) for w, _ in laws)
    parts = tuple(part for _, law in laws for part in law.parts)
    assert len(parts) == len(weights), "nested mixtures are not supported"
    if support is None:
        support = (min(p.lo for p in parts), max(p.hi for p in parts))
    return dist.DistributionSpec(dist.SupportInterval(*support), weights, parts)


def _own_params(part) -> list:
    """A component's parameters in the JSON encoding of its kind."""
    if part.kind == "uniform":
        return []
    if part.kind == "cosine_bump":
        return [part.c, part.s]
    return np.column_stack([part.xs, part.ys]).ravel().tolist()


def to_json_dict(d) -> dict:
    """The JSON encoding of a law that ``dist.from_json_dict`` reads: a single
    kind for one component that spans the support, else a mixture."""
    first = d.parts[0]
    if len(d.parts) == 1 and (first.lo, first.hi) == (d.support.lo, d.support.hi):
        kind, params = first.kind, _own_params(first)
    else:
        codes = {kind: code for code, kind in dist._CODE_KINDS.items()}
        kind, params = "mixture", [len(d.parts)]
        for w, p in zip(d.weights, d.parts):
            own = _own_params(p)
            params += [w, codes[p.kind], len(own), *own, p.lo, p.hi]
    return {"kind": kind, "params": [float(v) for v in params],
            "support": [d.support.lo, d.support.hi]}


def strong_rows(law, b):
    """(G, g, M) of a strong bid law at bids b, a float or an array, from its
    base law's own cdf, pdf and partial_mean and its atom z, never from
    ``eval3``: G = z + (1 - z) F, or 0 below bid 0, g = (1 - z) f, or 0 off the
    base law's support, and M = (1 - z) times the base law's."""
    base, z = law.dist, law.zero_bid_prob
    s = 1.0 - z
    lo, hi = base.support.lo, base.support.hi
    if isinstance(b, np.ndarray):
        inside = (b >= lo) & (b <= hi)
        g = np.zeros(b.shape)
        g[inside] = s * base.pdf(b[inside])
        return np.where(b < 0.0, 0.0, z + s * base.cdf(b)), g, s * base.partial_mean(b)
    g = s * base.pdf(b) if lo <= b <= hi else 0.0
    return (0.0 if b < 0.0 else z + s * base.cdf(b)), g, s * base.partial_mean(b)


def deviation_payoff(v_true, v_report, bid, weak, strong, n_weak: int):
    """Expected payoff of a weak bidder of value v reporting v_report.

    pi(r | v) = F(r)^(N-1) * integral over [0, b(r)] of (v - s) dG(s),
    with the inner integral in closed form v*G(b) - M(b)."""
    r = np.asarray(v_report, dtype=float)
    v = np.asarray(v_true, dtype=float)
    b = bid(r)
    G, _, M = strong_rows(eq.as_strong_law(strong), b)
    win1 = weak.cdf(r) ** (n_weak - 1)
    out = win1 * (v * G - M)
    return float(out) if out.ndim == 0 else out


def bid_ode_rhs(b: float, v: float, weak, strong, n_weak: int) -> float:
    """Equilibrium bid slope H(b, v) through the solver's own right-hand side;
    EquilibriumError outside the open band v < b < m^-1(v) or for v outside
    (0, v_bar]."""
    if not 0.0 < v <= weak.support.hi:
        raise eq.EquilibriumError(f"v={v} outside (0, {weak.support.hi}]")
    try:
        return eq._rhs_factory(weak, eq.as_strong_law(strong), n_weak)(v, b)
    except eq._OutOfBand:
        raise eq.EquilibriumError(f"(b, v)=({b}, {v}) outside the bid band") from None


@st.composite
def components(draw, top):
    kind = draw(st.sampled_from(["uniform", "cosine_bump", "pw_linear"]))
    if kind == "cosine_bump":
        s = draw(st.floats(0.01 * top, 0.5 * top))
        c = draw(st.floats(s, top - s))
        return cosine_bump(c, s)
    lo = draw(st.floats(0.0, 0.8 * top))
    hi = draw(st.floats(lo + 0.1 * top, top))
    if kind == "uniform":
        return dist.uniform(lo, hi)
    ys = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=5)
              .filter(lambda v: sum(v) > 0.1))
    return piecewise_linear(np.linspace(lo, hi, len(ys)), ys)


@st.composite
def mixtures(draw):
    top = draw(st.floats(0.5, 3.0))
    parts = draw(st.lists(components(top), min_size=1, max_size=4))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(parts),
                               max_size=len(parts))))
    w /= w.sum()
    return mixture_of(list(zip(w.tolist(), parts)))


@pytest.fixture(scope="session")
def u01():
    return dist.uniform(0.0, 1.0)


@pytest.fixture(scope="session")
def u02():
    return dist.uniform(0.0, 2.0)


@pytest.fixture(scope="session")
def gap_mixture():
    # 0.25 mass uniform on [0, 0.1], 0.75 mass raised-cosine bump at 2 (half-width 0.1)
    return mixture_of(
        [(0.25, dist.uniform(0.0, 0.1)), (0.75, cosine_bump(2.0, 0.1))],
        support=(0.0, 2.1),
    )


@pytest.fixture(scope="session")
def floored_mixture():
    # strong-side style law: low bump + uniform floor + atom bump, positive everywhere
    return mixture_of(
        [
            (0.05, cosine_bump(0.125, 0.125)),
            (0.01, dist.uniform(0.0, 2.5)),
            (0.94, cosine_bump(2.0, 0.05)),
        ],
        support=(0.0, 2.5),
    )


@pytest.fixture(scope="session")
def test_distributions(u01, u02, gap_mixture, floored_mixture):
    pw = piecewise_linear([0.0, 0.5, 1.0, 2.0], [0.2, 1.0, 0.6, 0.2])
    return {
        "u01": u01,
        "u02": u02,
        "gap_mixture": gap_mixture,
        "floored_mixture": floored_mixture,
        "pw_linear": pw,
        # a density that vanishes at both ends of its support
        "triangle": piecewise_linear([0.0, 0.3, 1.0], [0.0, 1.0, 0.0]),
        "bump": cosine_bump(1.0, 0.4),
    }


def quad_cdf(d, x):
    """Independent cdf oracle: adaptive quadrature of the density."""
    from scipy import integrate

    lo = d.support.lo
    if x <= lo:
        return 0.0
    pts = [k for k in d.interior_knots() if k < x]
    val, _ = integrate.quad(d.pdf, lo, x, points=pts or None, limit=200,
                            epsabs=1e-13, epsrel=1e-11)
    return val


def quad_partial_mean(d, x):
    """Independent first-moment oracle."""
    from scipy import integrate

    lo = d.support.lo
    if x <= lo:
        return 0.0
    pts = [k for k in d.interior_knots() if k < x]
    val, _ = integrate.quad(lambda t: t * d.pdf(t), lo, x, points=pts or None,
                            limit=200, epsabs=1e-13, epsrel=1e-11)
    return val


# where the solver samples each interval's defect: the six interior nodes of the
# 8-point Gauss-Lobatto rule, the roots of P7' mapped to [0, 1]
GATE_THETAS = tuple((np.sort(np.polynomial.legendre.Legendre.basis(7).deriv().roots()) + 1.0) / 2.0)
DENSE_THETAS = tuple(np.linspace(0.0, 1.0, 34)[1:-1])

# theta^2 (1 - theta)^2 times 1, theta, theta (1 - theta) and theta^2 (1 - theta):
# the dense output's terms F3 ... F6, as ascending power coefficients in theta
_P = np.polynomial.polynomial
BUMP_BASIS = [_P.polymul(_P.polypow([0.0, 1.0, -1.0], 2), f)
               for f in ([1.0], [0.0, 1.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0, -1.0])]


def schedule_ppoly(bid) -> PPoly:
    """Independent form of a bid schedule: scipy's cubic Hermite spline through
    its nodes and slopes, plus on interval i the sum of bumps[i, j] times the
    j-th ``BUMP_BASIS`` polynomial, expanded into powers of s = theta h, as a
    scipy ``PPoly``."""
    cubic = CubicHermiteSpline(bid.grid, bid.values, bid.slopes)
    h, rows = np.diff(bid.grid), np.asarray(bid.bumps)
    c = np.vstack([np.zeros((4, h.size)), cubic.c])     # rows: s^7 ... s^0
    for j, poly in enumerate(BUMP_BASIS):
        for power, coef in enumerate(poly):
            c[7 - power] += coef * rows[:, j] / h**power
    return PPoly(c, bid.grid)


def schedule_defects(bid, weak, law, n_weak, thetas=GATE_THETAS):
    """Independent defect oracle: signed (b' - H(b, v)) / (1 + |H|) of a bid
    schedule at a + theta h of each interval [a, a + h] from its series-start
    node on, through ``__call__``, the derivative of ``schedule_ppoly`` and
    ``bid_ode_rhs``; one row per theta."""
    deriv = schedule_ppoly(bid).derivative()
    a, h = bid.grid[1:-1], np.diff(bid.grid[1:])
    rows = []
    for theta in thetas:
        x = a + theta * h
        H = np.array([bid_ode_rhs(float(b), float(v), weak, law, n_weak)
                      for v, b in zip(x, bid(x))])
        rows.append((deriv(x) - H) / (1.0 + np.abs(H)))
    return np.array(rows)


def defect_model_sup(samples) -> np.ndarray:
    """Per interval, the largest |d| on a fine grid of the degree-7 defect model
    d(theta) = theta (1 - theta) q(theta), q of degree 5, that takes the six
    ``schedule_defects`` rows at ``GATE_THETAS``: the model the solver bounds,
    evaluated through Lagrange weights rather than the solver's bound."""
    t = np.asarray(GATE_THETAS)
    theta = np.linspace(0.0, 1.0, 2001)[:, None]
    weights = [np.prod([(theta - t[m]) / (t[j] - t[m]) for m in range(t.size) if m != j], axis=0)
               * theta * (1.0 - theta) / (t[j] * (1.0 - t[j])) for j in range(t.size)]
    model = sum(w * np.asarray(samples)[j] for j, w in enumerate(weights))
    return np.abs(model).max(axis=0)
