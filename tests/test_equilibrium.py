import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.interpolate import CubicHermiteSpline

from talab import dist
from talab import equilibrium as eq
from talab.equilibrium import (
    BandEscape,
    BidFunction,
    EquilibriumError,
    SolveOptions,
    StrongBidLaw,
    as_strong_law,
    deviation_payoff,
    initial_bid_ratio,
    raw_bid_payoff,
    solve_ode,
    verify_best_response,
)
from talab.mechanisms import AuctionSpec, DiscreteAtomSpec, MechanismError
from talab.sequences import make_family

from conftest import beta_poly, bid_ode_rhs, schedule_defects


@pytest.fixture(scope="module")
def uniform_solution(u01, u02):
    bid, report = solve_ode(u01, u02, 2)
    return bid, report


@pytest.fixture(scope="module")
def bump_member():
    # slow-drain style strong law, index 3 sharpness
    l = 3
    d, e, a, eta = 0.15 * l**-1.5, 0.02 / l**2, 1 / l, 0.4 * 2.0 ** (1 - l)
    return dist.mixture(
        [
            (d, dist.cosine_bump(a / 2, a / 2)),
            (e, dist.uniform(0.0, 2.5)),
            (1 - d - e, dist.cosine_bump(2.0, eta)),
        ],
        support=(0.0, 2.5),
    )


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------


def test_rhs_hand_value(u01, u02):
    # (N-1) * 1/(b-v) * f/F * G/g * (v - m(b)) = 1 * 10 * 2 * 0.6 * 0.2
    assert bid_ode_rhs(0.6, 0.5, u01, u02, 2) == pytest.approx(2.4, rel=1e-12)


def test_rhs_pole_at_lower_edge(u01, u02):
    vals = [bid_ode_rhs(0.5 + eps, 0.5, u01, u02, 2) for eps in (1e-2, 1e-4, 1e-6)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 1e5


def test_rhs_vanishes_at_upper_edge(u01, u02):
    # upper edge of the band for U[0,2] is b = 2v
    vals = [bid_ode_rhs(1.0 - eps, 0.5, u01, u02, 2) for eps in (1e-2, 1e-4, 1e-6)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-4


def test_rhs_domain_errors(u01, u02):
    with pytest.raises(EquilibriumError):
        bid_ode_rhs(0.4, 0.5, u01, u02, 2)  # b <= v
    with pytest.raises(EquilibriumError):
        bid_ode_rhs(1.2, 0.5, u01, u02, 2)  # m(b) >= v
    with pytest.raises(EquilibriumError):
        bid_ode_rhs(0.6, 0.0, u01, u02, 2)  # v outside (0, v_bar]


def test_ratio_rhs_origin_limit(u01, u02):
    # along b = beta v, lim H(beta v, v) = (N-1) beta/(beta-1) (1 - beta/2) as v -> 0;
    # at beta = 4/3, N = 2 it is 4/3
    beta = 4.0 / 3.0
    limit = 1.0 * beta / (beta - 1.0) * (1.0 - 0.5 * beta)
    assert limit == pytest.approx(4.0 / 3.0, rel=1e-12)
    v = 1e-7
    assert bid_ode_rhs(beta * v, v, u01, u02, 2) == pytest.approx(limit, abs=1e-6)


# ---------------------------------------------------------------------------
# ODE solver
# ---------------------------------------------------------------------------


def test_solver_exact_uniform_instances(u01, u02):
    # constant-ratio closed form b(v) = 2N/(N+1) v solves the uniform instance
    vs = np.linspace(1e-3, 1.0, 400)
    for n in range(2, 9):
        bid, report = solve_ode(u01, u02, n)
        assert np.max(np.abs(bid(vs) - 2.0 * n / (n + 1.0) * vs)) < 1e-9, n
        assert report.max_ode_residual < 1e-6, n


def test_initial_slope(u01, u02, bump_member):
    for n in (2, 3, 5):
        bid, _ = solve_ode(u01, u02, n)
        v = 1e-3
        assert abs(bid(v) / v - initial_bid_ratio(n)) <= 1e-2
    bid, _ = solve_ode(u01, bump_member, 2)
    assert abs(bid(1e-3) / 1e-3 - 4.0 / 3.0) <= 1e-2


def test_overbidding_and_band(u01, bump_member):
    law = as_strong_law(bump_member)
    bid, _ = solve_ode(u01, bump_member, 2)
    interior = bid.grid[1:]
    vals = bid.values[1:]
    assert np.all(vals > interior)
    # below the band ceiling, every node
    assert np.all(np.array([law.mean_below(float(b)) for b in vals]) < interior)


def test_monotone_values(u01, bump_member):
    bid, _ = solve_ode(u01, bump_member, 2)
    assert np.all(np.diff(bid.values) > 0)


def test_residual_invariant(u01, bump_member):
    _, report = solve_ode(u01, bump_member, 2)
    assert report.max_ode_residual <= 1e-6


def test_solver_tolerance_refinement(u01, bump_member):
    # halving the error tolerances must not move the solution (step-control sanity)
    coarse, _ = solve_ode(u01, bump_member, 2, SolveOptions(rk_tolerance=1e-8))
    fine, _ = solve_ode(u01, bump_member, 2, SolveOptions(rk_tolerance=1e-11))
    vs = np.linspace(0.0, 1.0, 2001)
    assert np.max(np.abs(coarse(vs) - fine(vs))) < 1e-6


def test_solve_counters_uniform(u01, u02):
    bid, report = solve_ode(u01, u02, 2)
    assert report.accepted_steps == bid.grid.size - 2
    assert report.v0 == bid.grid[1]
    steps = np.diff(bid.grid[1:])
    assert report.min_step == pytest.approx(steps.min(), rel=1e-9)
    assert bid.grid[1] <= report.min_step_v < 1.0
    for n in (report.rejected_error, report.rejected_band, report.rejected_residual):
        assert isinstance(n, int) and n >= 0


def test_solve_counters_residual_gate(u01, bump_member):
    loose = solve_ode(u01, bump_member, 2)[1]
    tight = solve_ode(u01, bump_member, 2, SolveOptions(residual_tolerance=5e-9))[1]
    assert 0 < loose.rejected_residual < tight.rejected_residual
    assert loose.accepted_steps < tight.accepted_steps
    assert tight.min_step <= loose.min_step


def test_solve_counters_repeat(u01, bump_member):
    law = StrongBidLaw(bump_member, zero_bid_prob=0.25)
    first = solve_ode(u01, law, 3)[1]
    assert solve_ode(u01, law, 3)[1] == first
    assert first.rejected_error > 0 and first.rejected_band > 0


@pytest.mark.parametrize("case, gate", [
    ("sqrt_edge", "defect"),         # beta(1, 1.5) density: sqrt edge at v_bar
    ("sqrt_edge_n5", "defect"),      # the same at N = 5
    ("fast_drain_4_z06", "band"),    # bids run into the strong support top
])
def test_underflow_names_gate_and_reports_counters(u01, u02, case, gate):
    fast = make_family("fast_drain", 2.0, 2.5, 8)
    sqrt_edge = beta_poly(0.0, 1.0, 1.0, 1.5)
    weak, strong, n = {
        "sqrt_edge": (sqrt_edge, u02, 3),
        "sqrt_edge_n5": (sqrt_edge, u02, 5),
        "fast_drain_4_z06": (u01, StrongBidLaw(fast.member(4), 0.6), 3),
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(BandEscape, match=f"the {gate} gate rejected the last attempt") as err:
            solve_ode(weak, strong, n)
    report = err.value.report
    assert math.isnan(report.max_ode_residual)
    assert report.v0 > 0.0 and report.accepted_steps > 0
    assert report.min_step < 1e-9
    counts = (f"{report.rejected_error} error-estimate, {report.rejected_band} band, "
              f"{report.rejected_residual} defect")
    assert counts in str(err.value)
    assert (report.rejected_band if gate == "band" else report.rejected_residual) > 0


def test_underflow_after_accepted_step_names_no_gate(u01, u02, monkeypatch):
    # v0 = 1.72e-8 puts the step floor at 1e-12 (not 1e-4 * v0); the first 14
    # attempts are rejected by the band gate (h 1.72e-8 -> 1.0498e-12); the
    # next is accepted with an error estimate just under its bound, so the
    # controller shrinks h by 0.9, below h_min, with no rejection since
    real_stepper = eq._dp_stepper

    def stepper(rhs):
        step, calls = real_stepper(rhs), []

        def attempt(v, b, h, k1):
            calls.append(h)
            if len(calls) <= 14:
                raise eq._OutOfBand
            b5, _, k_end = step(v, b, h, k1)
            return b5, b5 + 0.999e-13, k_end   # atol = 1e-13 at v_bar = 1

        return attempt

    monkeypatch.setattr(eq, "_dp_stepper", stepper)
    with pytest.raises(BandEscape, match="no attempt was rejected since the last accepted step") as err:
        solve_ode(u01, u02, 2, SolveOptions(v0_fraction=1.72e-8))
    report = err.value.report
    assert (report.accepted_steps, report.rejected_band) == (1, 14)


@pytest.mark.parametrize("l", [1, 5, 8])
def test_defect_gate_fails_a_perturbed_node(u01, l):
    # the leading defect term is antisymmetric about the midpoint, where it
    # vanishes. Nudge the slope at one node of the worst interval by 2 tol
    # (1 + |H|) in the sign that grows both of its Gauss-point defects: the
    # midpoint residual moves by about tol / 2 and stays under the gate, the
    # Gauss-point defect passes it, and the solver's gate rejects the schedule
    tol = SolveOptions().residual_tolerance
    law = StrongBidLaw(make_family("slow_drain", 2.0, 2.5, 8).member(l), 0.0)
    bid, report = solve_ode(u01, law, 2)
    gauss = schedule_defects(bid, u01, law, 2)
    j = int(np.argmax(np.abs(gauss).max(axis=0)))   # interval [grid[j+1], grid[j+2]]
    i, sign = (j + 1, 1.0) if j >= 1 else (j + 2, -1.0)   # an interior node past v0
    slopes = bid.slopes.copy()
    slopes[i] += sign * np.sign(gauss[0, j]) * 2.0 * tol * (1.0 + abs(slopes[i]))
    nudged = BidFunction(bid.grid, bid.values, slopes)

    midpoint = np.abs(schedule_defects(nudged, u01, law, 2, (0.5,))).max()
    assert midpoint <= tol                    # the midpoint gate passes it
    assert np.abs(schedule_defects(nudged, u01, law, 2)).max() > tol
    rhs = eq._rhs_factory(u01, law, 2)
    g, b, k = nudged.grid, nudged.values, nudged.slopes
    gate = max(eq._gauss_defect(rhs, g[m], b[m], b[m + 1], k[m], k[m + 1], g[m + 1] - g[m])
               for m in range(1, g.size - 1))
    assert gate > tol and report.max_ode_residual <= tol


def test_solution_extends_to_top(u01, bump_member):
    law = as_strong_law(bump_member)
    bid, _ = solve_ode(u01, bump_member, 2)
    v_bar = 1.0
    assert bid.grid[-1] == v_bar
    assert v_bar < bid.b_top
    assert law.mean_below(bid.b_top) < v_bar  # below the band ceiling m^-1(v_bar)


@pytest.mark.parametrize("slope, refused", [(-0.5, True), (-1e-12, True), (0.0, False),
                                            (6.0, False), (6.0 + 1e-9, True), (12.0, True)])
def test_bid_function_monotone_slopes(slope, refused):
    # secant 2 on every interval; node 3's slope is an end slope of intervals 2
    # and 3. Fritsch-Carlson: [0, 3 x secant] keeps the cubic monotone; a slope
    # of -0.5 or 12 makes it turn down between nodes
    grid = np.linspace(0.0, 1.0, 6)
    slopes = np.full(6, 2.0)
    slopes[3] = slope
    if slope in (-0.5, 12.0):
        x = np.linspace(grid[2], grid[4], 2001)
        assert np.any(np.diff(CubicHermiteSpline(grid, 2.0 * grid, slopes)(x)) < 0)
    if refused:
        with pytest.raises(EquilibriumError, match="monotone"):
            BidFunction(grid, 2.0 * grid, slopes)
    else:
        BidFunction(grid, 2.0 * grid, slopes)


def test_strength_warning():
    weak = dist.uniform(0.0, 1.0)
    strong = dist.uniform(0.0, 1.5)  # E[w] = 0.75 < 1
    with pytest.warns(RuntimeWarning, match="strength assumption"):
        solve_ode(weak, strong, 2)


# ---------------------------------------------------------------------------
# payoffs and best response
# ---------------------------------------------------------------------------


def test_payoff_zero_report(uniform_solution, u01, u02):
    bid, _ = uniform_solution
    assert deviation_payoff(0.7, 0.0, bid, u01, u02, 2) == 0.0


def test_payoff_closed_form_uniform(uniform_solution, u01, u02):
    # for G = U[0,2] and N = 2: pi(r | v) = r (v b(r) - b(r)^2 / 2) / 2
    bid, _ = uniform_solution
    for v, r in [(0.5, 0.3), (0.8, 0.8), (0.2, 0.9)]:
        b = bid(r)
        expect = r * (v * b - 0.5 * b * b) / 2.0
        assert deviation_payoff(v, r, bid, u01, u02, 2) == pytest.approx(expect, rel=1e-10)


def test_payoff_matches_quadrature(uniform_solution, u01, u02):
    bid, _ = uniform_solution
    v, r = 0.6, 0.45
    b = bid(r)
    inner, _ = integrate.quad(lambda s: (v - s) * u02.pdf(s), 0.0, b, epsabs=1e-13)
    expect = u01.cdf(r) ** 1 * inner
    assert deviation_payoff(v, r, bid, u01, u02, 2) == pytest.approx(expect, rel=1e-9)


def test_argmax_at_truth(uniform_solution, u01, u02):
    bid, _ = uniform_solution
    dev = np.linspace(0.0, 1.0, 200)
    for v in np.arange(0.1, 0.95, 0.1):
        pays = deviation_payoff(v, dev, bid, u01, u02, 2)
        j = int(np.argmax(pays))
        assert abs(dev[j] - v) <= dev[1] - dev[0] + 1e-12


def test_best_response_equilibrium(uniform_solution, u01, u02):
    bid, _ = uniform_solution
    report = verify_best_response(bid, u01, u02, 2)
    assert report.max_regret <= 1e-4
    assert report.max_argmax_offset <= 1


def test_best_response_detects_perturbation(uniform_solution, u01, u02):
    bid, _ = uniform_solution
    scaled = BidFunction(bid.grid, bid.values * 1.1, bid.slopes * 1.1)
    report = verify_best_response(scaled, u01, u02, 2)
    assert report.max_regret > 1e-3


def test_truthful_bidding_not_equilibrium(u01, u02):
    grid = np.linspace(0.0, 1.0, 101)
    truthful = BidFunction(grid, grid.copy(), np.ones_like(grid))
    report = verify_best_response(truthful, u01, u02, 2)
    assert report.max_regret > 1e-3  # overbidding is strictly profitable


def test_raw_bids_above_top_suboptimal(uniform_solution, u01, u02):
    bid, _ = uniform_solution
    v = 0.9
    eq = deviation_payoff(v, v, bid, u01, u02, 2)
    for raw in (bid.b_top + 0.1, 1.9):
        assert raw_bid_payoff(v, raw, u01, u02, 2) < eq


# ---------------------------------------------------------------------------
# zero-bid atom (auctioneer intervention) equilibrium
# ---------------------------------------------------------------------------


def test_intervention_equilibrium_verifies(u01):
    strong = dist.mixture(
        [(0.003125, dist.uniform(0.0, 2.5)), (0.996875, dist.cosine_bump(2.0, 0.05))],
        support=(0.0, 2.5),
    )
    law = StrongBidLaw(strong, zero_bid_prob=0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bid, report = solve_ode(u01, law, 2)
    assert report.max_ode_residual <= 1e-6
    assert verify_best_response(bid, u01, law, 2).max_regret <= 1e-4
    # massive overbidding: the zero atom makes winning the first stage a free option
    assert bid(0.5) > 1.5


# ---------------------------------------------------------------------------
# discrete two-point benchmark
# ---------------------------------------------------------------------------


def test_discrete_precondition(u01):
    # the all-in equilibrium (bid k whenever v > 0) needs p*k > v_bar
    with pytest.raises(MechanismError, match="not guaranteed") as err:
        AuctionSpec("ta_discrete", 2, u01, DiscreteAtomSpec(k=2.0, p=0.4))
    assert err.value.field == "strong"
    AuctionSpec("ta_discrete", 2, u01, DiscreteAtomSpec(k=2.0, p=0.51))
