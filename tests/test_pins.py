"""A standing bit ledger: sha256 pins of bid schedules and inverse cdfs.

The solver and the inverse cdf are refactored often, and each refactor must
keep every bit. The tests elsewhere compare schedules only with references
built in the same run, so a change that moves a schedule by an ulp would pass
them. These pins hash the outputs themselves:

* ``SOLVE_PINS``: the grid, values, slopes, bumps and ``SolveReport`` (floats as
  ``float.hex``) of weak U[0, 1] against members 1-13 of each family, at N = 2
  and 5 and zero-bid probability 0 and 0.25, and against U[0, 2] at N = 2 and 5.
  A solve that fails adds its exception's type, message and report.
* ``SOLVE_PINS_N4``: the same solves at N = 4. N - 1 = 3 is no power of two, so
  an rhs that reorders a product moves these bits where N = 2 and 5, whose
  N - 1 scales exactly, may not.
* ``QUANTILE_PINS``: the inverse cdf of members 1-12 of slow_drain and
  smoothed_discrete at 32,768 fixed levels and on the optimal auction's
  20,001-level ironing grid.

Re-record a pin only in a change that moves it on purpose, and say why.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from talab import dist
from talab.equilibrium import EquilibriumError, StrongBidLaw, solve_ode
from talab.myerson import QUANTILE_GRID_SIZE
from talab.sequences import make_family

SOLVE_PINS = {
    "slow_drain": "ec10ef64016e97277910863fd6464103d0b212445ba41f07d852999a33413a69",
    "fast_drain": "841b3b087a72406cba6e4101e5720c74924a86f349c2b9ab04c67aec1660376a",
    "smoothed_discrete": "6a2c2e7c3f482838b17bc31e0b80ec83914de02ee775ea2b17d4a035785a47c3",
    "split_atom": "4743a330aa3123aeba35e0c2ea277cf1c20bd4caa7da67f2f1519a1665a7ba4d",
    "U[0,2]": "c340f8ca4ef3c6d7daebc5398af3b0b2f3d51b4476c0dae554e3693227306936",
}

SOLVE_PINS_N4 = {
    "slow_drain": "bcfd8c60ae4b7907517d6bae7bae37fdccd6b3ea44f7464fea183814afff82ed",
    "fast_drain": "856f927d5d5f630e2ed122167965d1e101cd479dcf3fddc7eda09c04777aaab4",
    "smoothed_discrete": "bacf89bbc84d901ce06e9ab366955fe1ffb59c53239e9f72f806bdd92a24f5a8",
    "split_atom": "e1e13d5ea079be3dcc61b48c49258a7120d90580188833383b69a04a4a0cca20",
    "U[0,2]": "9cfe7bed898e979fd78471ba6b1779e7aabd7591017aa4825bed97ac9e18774f",
}

QUANTILE_PINS = {
    "slow_drain": "108128e3c2a216cf0d15686c44a0f4c7d414597cdf645fa1642e69640f60e3b9",
    "smoothed_discrete": "82d7114690dfb9608215cccdde68f63718fe6bdb03197d32b5744563759b204a",
}


def _report_text(report) -> str:
    return repr([v.hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(report)]) if report else "None"


def _strong_laws(name):
    if name == "U[0,2]":
        return [dist.uniform(0.0, 2.0)]
    return make_family(name, k=2.0, w_bar=2.5, size=13).members()


def _solve_digest(name, ns) -> str:
    weak, digest = dist.uniform(0.0, 1.0), hashlib.sha256()
    for member in _strong_laws(name):
        for n in ns:
            for zero_bid in ((0.0,) if name == "U[0,2]" else (0.0, 0.25)):
                try:
                    bid, report = solve_ode(weak, StrongBidLaw(member, zero_bid), n)
                except EquilibriumError as exc:
                    digest.update(f"{type(exc).__name__}: {exc} "
                                  f"{_report_text(getattr(exc, 'report', None))}".encode())
                    continue
                for a in (bid.grid, bid.values, bid.slopes, bid.bumps):
                    digest.update(a.tobytes())
                digest.update(_report_text(report).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", SOLVE_PINS)
def test_solve_pins(name):
    assert _solve_digest(name, (2, 5)) == SOLVE_PINS[name]


@pytest.mark.parametrize("name", SOLVE_PINS_N4)
def test_solve_pins_n4(name):
    assert _solve_digest(name, (4,)) == SOLVE_PINS_N4[name]


# fixed levels in [0, 1): the fractional parts of l times the golden ratio's inverse
_LEVELS = np.modf(np.arange(1, 32769) * 0.6180339887498949)[0]
_IRONING_GRID = np.linspace(0.0, 1.0, QUANTILE_GRID_SIZE + 1)


@pytest.mark.parametrize("name", QUANTILE_PINS)
def test_quantile_pins(name):
    digest = hashlib.sha256()
    for member in make_family(name, k=2.0, w_bar=2.5, size=12).members():
        digest.update(member.quantile(_LEVELS).tobytes())
        digest.update(member.quantile(_IRONING_GRID).tobytes())
    assert digest.hexdigest() == QUANTILE_PINS[name]
