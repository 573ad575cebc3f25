"""talab: a numerical laboratory for two-stage tournament auctions with a strong bidder.

Modules map one-to-one onto the lab's concerns:

* ``dist``        value distributions, order statistics, conditional means
* ``equilibrium`` symmetric bid-schedule solver and best-response verification
* ``mechanisms``  per-draw auction outcomes and deterministic Monte Carlo
* ``myerson``     virtual values, ironing, optimal-auction revenue benchmark
* ``sequences``   families converging to an atom, reserve rules, limit experiments
* ``cli``         config-driven command-line front end
"""

from .dist import DistributionSpec, SupportInterval
from .equilibrium import (
    BidFunction,
    SolveOptions,
    StrongBidLaw,
    solve_ode,
    verify_best_response,
)
from .mechanisms import (
    AuctionSpec,
    DiscreteAtomSpec,
    RevenueEstimate,
    run_once,
    sa_reserve_closed_form,
    simulate,
)
from .myerson import ironed_virtual, oa_revenue, single_buyer_reserve, virtual_value
from .sequences import FamilySpec, ReserveRule, make_family, run_limit_experiment

__version__ = "0.1.0"

__all__ = [
    "AuctionSpec",
    "BidFunction",
    "DiscreteAtomSpec",
    "DistributionSpec",
    "FamilySpec",
    "ReserveRule",
    "RevenueEstimate",
    "SolveOptions",
    "StrongBidLaw",
    "SupportInterval",
    "__version__",
    "ironed_virtual",
    "make_family",
    "oa_revenue",
    "run_limit_experiment",
    "run_once",
    "sa_reserve_closed_form",
    "simulate",
    "single_buyer_reserve",
    "solve_ode",
    "verify_best_response",
    "virtual_value",
]
