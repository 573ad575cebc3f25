import math

import numpy as np
import pytest

from talab import dist
from talab.equilibrium import bid_ode_rhs


@pytest.fixture(scope="session")
def u01():
    return dist.uniform(0.0, 1.0)


@pytest.fixture(scope="session")
def u02():
    return dist.uniform(0.0, 2.0)


@pytest.fixture(scope="session")
def gap_mixture():
    # 0.25 mass uniform on [0, 0.1], 0.75 mass raised-cosine bump at 2 (half-width 0.1)
    return dist.mixture(
        [(0.25, dist.uniform(0.0, 0.1)), (0.75, dist.cosine_bump(2.0, 0.1))],
        support=(0.0, 2.1),
    )


@pytest.fixture(scope="session")
def floored_mixture():
    # strong-side style law: low bump + uniform floor + atom bump, positive everywhere
    return dist.mixture(
        [
            (0.05, dist.cosine_bump(0.125, 0.125)),
            (0.01, dist.uniform(0.0, 2.5)),
            (0.94, dist.cosine_bump(2.0, 0.05)),
        ],
        support=(0.0, 2.5),
    )


@pytest.fixture(scope="session")
def test_distributions(u01, u02, gap_mixture, floored_mixture):
    pw = dist.piecewise_linear([0.0, 0.5, 1.0, 2.0], [0.2, 1.0, 0.6, 0.2])
    bp = dist.beta_poly(0.0, 1.0, 2.0, 3.0)
    return {
        "u01": u01,
        "u02": u02,
        "gap_mixture": gap_mixture,
        "floored_mixture": floored_mixture,
        "pw_linear": pw,
        "beta_poly": bp,
        "bump": dist.cosine_bump(1.0, 0.4),
    }


def quad_cdf(d, x):
    """Independent cdf oracle: adaptive quadrature of the density."""
    from scipy import integrate

    lo = d.support.lo
    if x <= lo:
        return 0.0
    pts = [k for k in d._interior_knots() if k < x]
    val, _ = integrate.quad(d.pdf, lo, x, points=pts or None, limit=200,
                            epsabs=1e-13, epsrel=1e-11)
    return val


def quad_partial_mean(d, x):
    """Independent first-moment oracle."""
    from scipy import integrate

    lo = d.support.lo
    if x <= lo:
        return 0.0
    pts = [k for k in d._interior_knots() if k < x]
    val, _ = integrate.quad(lambda t: t * d.pdf(t), lo, x, points=pts or None,
                            limit=200, epsabs=1e-13, epsrel=1e-11)
    return val


GAUSS_THETAS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


def schedule_defects(bid, weak, law, n_weak, thetas=GAUSS_THETAS):
    """Independent defect oracle: signed (b' - H(b, v)) / (1 + |H|) of a bid
    schedule at a + theta h of each interval [a, a + h] from its series-start
    node on, through ``__call__``, ``deriv`` and the public right-hand side;
    one row per theta."""
    a, h = bid.grid[1:-1], np.diff(bid.grid[1:])
    rows = []
    for theta in thetas:
        x = a + theta * h
        H = np.array([bid_ode_rhs(float(b), float(v), weak, law, n_weak)
                      for v, b in zip(x, bid(x))])
        rows.append((bid.deriv(x) - H) / (1.0 + np.abs(H)))
    return np.array(rows)
