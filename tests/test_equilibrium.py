import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.interpolate import CubicHermiteSpline

from talab import dist
from talab import equilibrium as eq
from talab.equilibrium import (
    BandEscape,
    BidFunction,
    EquilibriumError,
    InputError,
    SolveOptions,
    StrongBidLaw,
    as_strong_law,
    initial_bid_ratio,
    raw_bid_payoff,
    solve_ode,
    verify_best_response,
)
from talab.mechanisms import AuctionSpec, DiscreteAtomSpec
from talab.sequences import make_family

from conftest import (GATE_THETAS, bid_ode_rhs, cosine_bump, deviation_payoff, mixture_of,
                      piecewise_linear, schedule_defects, schedule_ppoly)


@pytest.fixture(scope="module")
def uniform_solution(u01, u02):
    bid, report = solve_ode(u01, u02, 2)
    return bid, report


@pytest.fixture(scope="module")
def bump_member():
    # slow-drain style strong law, index 3 sharpness
    l = 3
    d, e, a, eta = 0.15 * l**-1.5, 0.02 / l**2, 1 / l, 0.4 * 2.0 ** (1 - l)
    return mixture_of(
        [
            (d, cosine_bump(a / 2, a / 2)),
            (e, dist.uniform(0.0, 2.5)),
            (1 - d - e, cosine_bump(2.0, eta)),
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
    # the counter counts the defect gate's rejections: none when the gate cannot
    # reject, some at the default tolerance. A tighter gate takes more and
    # smaller steps; the defect also sets the proposed step, so it need not
    # reject more often. The smallest step is the one cut at a knot of the
    # strong law, whose size depends on where the knot falls: compare medians
    off = solve_ode(u01, bump_member, 2, SolveOptions(residual_tolerance=1.0))[1]
    loose_bid, loose = solve_ode(u01, bump_member, 2)
    tight_bid, tight = solve_ode(u01, bump_member, 2, SolveOptions(residual_tolerance=5e-9))
    assert off.rejected_residual == 0 < loose.rejected_residual
    assert 0 < tight.rejected_residual
    assert off.accepted_steps <= loose.accepted_steps < tight.accepted_steps
    assert np.median(np.diff(tight_bid.grid)) < np.median(np.diff(loose_bid.grid))


def test_solve_counters_repeat(u01, bump_member):
    law = StrongBidLaw(bump_member, zero_bid_prob=0.25)
    first = solve_ode(u01, law, 3)[1]
    assert solve_ode(u01, law, 3)[1] == first
    assert first.rejected_error > 0 and first.rejected_band > 0


@pytest.mark.parametrize("case, gate", [
    ("weak_jump", "defect"),         # the weak density jumps at v = 0.4
    ("weak_jump_n5", "defect"),      # the same at N = 5
    ("fast_drain_4_z06", "band"),    # bids run into the strong support top
])
def test_underflow_names_gate_and_reports_counters(u01, u02, case, gate):
    fast = make_family("fast_drain", 2.0, 2.5, 8)
    jump = mixture_of([(0.5, dist.uniform(0.0, 0.4)), (0.5, u01)])
    weak, strong, n = {
        "weak_jump": (jump, u02, 3),
        "weak_jump_n5": (jump, u02, 5),
        "fast_drain_4_z06": (u01, StrongBidLaw(fast.member(4), 0.6), 5),
    }[case]
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
    if case.startswith("weak_jump"):
        assert "step size underflow at v=0.4 " in str(err.value)


def test_underflow_after_accepted_step_names_no_gate(u01, u02, monkeypatch):
    # v0 = 1.72e-8 puts the step floor at 1e-12 (not 1e-4 * v0); the first 14
    # attempts are rejected by the band gate (h 1.72e-8 -> 1.0498e-12); the
    # next is accepted with an error estimate |h e5| just under its bound, so
    # the controller shrinks h by 0.9, below h_min, with no rejection since
    real_stepper = eq._dop853
    calls = []   # over every piece's stepper

    def stepper(rhs):
        attempt, dense = real_stepper(rhs)

        def wrapped(v, b, h, k1):
            calls.append(h)
            if len(calls) <= 14:
                raise eq._OutOfBand
            b8, _, _, stages = attempt(v, b, h, k1)
            return b8, 0.999e-13 / h, 0.0, stages   # atol = 1e-13 at v_bar = 1

        return wrapped, dense

    monkeypatch.setattr(eq, "_dop853", stepper)
    with pytest.raises(BandEscape, match="no attempt was rejected since the last accepted step") as err:
        solve_ode(u01, u02, 2, SolveOptions(v0_fraction=1.72e-8))
    report = err.value.report
    assert (report.accepted_steps, report.rejected_band) == (1, 14)
    assert len(calls) == 15


def _perturbed_worst_interval(u01, l, shape):
    # Perturb the worst interval [grid[m], grid[m+1]] of a solved schedule so
    # that its defect exceeds the gate where one set of sample points cannot
    # see it. The perturbation adds to the interval's four bump coefficients
    # and, for the midpoint shape, kappa to both its end slopes; it is solved,
    # through the defect's response to each, to leave the defect at the blind
    # nodes alone and to move it by 2 x the gate at one seen node:
    # node: the three nodes left of the midpoint are blind;
    # midpoint: the outer four nodes are blind, the two middle ones see it.
    # Either way the solver's gate, which samples all six, rejects the piece
    tol = SolveOptions().residual_tolerance
    law = StrongBidLaw(make_family("slow_drain", 2.0, 2.5, 8).member(l), 0.0)
    bid, report = solve_ode(u01, law, 2)
    gate_rows = schedule_defects(bid, u01, law, 2)
    j = int(np.argmax(np.abs(gate_rows).max(axis=0)))   # rows start at grid[1]
    m = j + 1
    h = bid.grid[m + 1] - bid.grid[m]
    blind, seen = ([0, 1, 2], [3, 4, 5]) if shape == "node" else ([0, 1, 4, 5], [2, 3])
    unknowns = 4 if shape == "node" else 5

    def nudged_by(x):
        slopes, bumps = bid.slopes.copy(), bid.bumps.copy()
        bumps[m] += x[:4]
        if unknowns == 5:
            slopes[m:m + 2] += x[4]
        return BidFunction(bid.grid, bid.values, slopes, bumps)

    size = tol * (1.0 + abs(bid.slopes[m]))
    scale = np.array([h, h, h, h, 1.0])[:unknowns] * size
    response = np.column_stack([
        (schedule_defects(nudged_by(scale * e), u01, law, 2) - gate_rows)[:, j]
        for e in np.eye(unknowns)])
    target = np.zeros(unknowns)
    target[-1] = 2.0 * tol * np.sign(gate_rows[seen[-1], j])
    nudged = nudged_by(scale * np.linalg.solve(response[blind + seen[-1:]], target))

    moved = (schedule_defects(nudged, u01, law, 2) - gate_rows)[:, j]
    assert np.abs(moved[blind]).max() <= tol / 10
    assert np.abs(schedule_defects(nudged, u01, law, 2)[seen, j]).max() > tol
    rhs = eq._rhs_factory(u01, law, 2)
    g, b, k, e = nudged.grid, nudged.values, nudged.slopes, nudged.bumps
    assert eq._defect_bound(rhs, g[m], b[m], b[m + 1], k[m], k[m + 1], h, tuple(e[m])) > tol
    assert report.max_ode_residual <= tol


@pytest.mark.parametrize("l", [1, 5, 8])
def test_defect_gate_fails_a_perturbed_node(u01, l):
    _perturbed_worst_interval(u01, l, "node")


@pytest.mark.parametrize("l", [1, 5, 8])
def test_defect_gate_fails_a_midpoint_perturbation(u01, l):
    _perturbed_worst_interval(u01, l, "midpoint")


def _flat_piece_bound(D):
    # An rhs H(v, b) = -D(x), x = theta - 1/2, against the flat piece b = 1, whose
    # b' is 0, gives the defect D / (1 + |D|): for D of the model's form, the
    # model the gate fits through its six samples is D itself (to the
    # normalisation's 1e-7 at D's scale of 1e-6)
    v0, h = 0.3, 0.01

    def rhs(v, b):
        return -D((v - v0) / h - 0.5)

    return eq._defect_bound(rhs, v0, 1.0, 1.0, 0.0, 0.0, h, (0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("a, c, beta", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, -7.0, 0.0),
                                        (0.3, 5.0, -2.0), (-1.0, 12.0, 4.0), (0.0, 1.0, 0.0)])
def test_defect_bound_covers_its_model(a, c, beta):
    # D = s (1/4 - x^2)(a + beta x + c x^2) is of the model's form, theta (1 - theta)
    # times a polynomial of degree 5: the bound holds D's largest value on the
    # interval and exceeds it by at most the Lebesgue constant of the six nodes
    s = 1e-6

    def D(x):
        return s * (0.25 - x * x) * (a + x * (beta + x * c))

    bound = _flat_piece_bound(D)
    x = np.linspace(-0.5, 0.5, 20001)
    sup = np.abs(D(x)).max()
    assert sup * (1 - 1e-6) <= bound <= 1.9 * sup * (1 + 1e-6)
    if a == 1.0 and c == 0.0 and beta == 0.0:
        # a pure midpoint peak: the nearest nodes see 0.956 of it, the bound 1.81 x it
        samples = np.abs(D(np.asarray(GATE_THETAS) - 0.5))
        assert abs(samples.max() - (0.25 - 0.10465 ** 2) * s) <= 1e-5 * s   # node 1/2 + 0.10465
        assert abs(bound - eq._LEBESGUE * samples.max()) <= 1e-6 * bound


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
def test_defect_bound_covers_degree_seven_models(q):
    # the full model: theta (1 - theta) times any quintic q; Lagrange
    # interpolation through the six nodes is exact for it
    P = np.polynomial.polynomial
    s = 1e-6

    def D(x):
        return s * (0.25 - x * x) * P.polyval(x, q)

    x = np.linspace(-0.5, 0.5, 20001)
    sup = np.abs(D(x)).max()
    if sup < 1e-3 * s:
        return
    bound = _flat_piece_bound(D)
    assert sup * (1 - 1e-6) <= bound <= eq._LEBESGUE * sup * (1 + 1e-6)


def test_bump_is_the_dormand_prince_continuous_extension(u01):
    # one accepted step, its 16 stages recorded, against scipy's DOP853: every
    # stage's argument from scipy's tableau, the returned node, slope and bump
    # row from the step, and scipy's order-7 dense output (its D matrix) against
    # the cubic Hermite of the step plus the bump term and the returned schedule
    from scipy.integrate._ivp import dop853_coefficients as dop
    from scipy.integrate._ivp.rk import Dop853DenseOutput

    law = StrongBidLaw(make_family("slow_drain", 2.0, 2.5, 8).member(5), 0.0)
    bid, _ = solve_ode(u01, law, 2)
    m = bid.grid.size // 2
    v, b, h, k1 = bid.grid[m], bid.values[m], bid.grid[m + 1] - bid.grid[m], bid.slopes[m]
    rhs, args, stages = eq._rhs_factory(u01, law, 2), [(v, b)], [k1]

    def recording(x, y):
        args.append((x, y))
        stages.append(rhs(x, y))
        return stages[-1]

    attempt, dense = eq._dop853(recording)
    b8, _, _, first = attempt(v, b, h, k1)
    k13 = recording(v + h, b8)
    bump = dense(v, b, h, first + (k13,))
    assert (b8, k13, bump) == (bid.values[m + 1], bid.slopes[m + 1], tuple(bid.bumps[m]))
    K = np.asarray(stages)
    assert K.shape == (16,)
    for i in range(1, 16):
        x, y = args[i]
        assert x == v + dop.C[i] * h if i != 12 else x == v + h
        assert y == pytest.approx(b + h * (dop.A[i, :i] @ K[:i]), rel=1e-15, abs=0)
    F = np.empty((7, 1))
    F[0], F[1], F[2] = b8 - b, h * k1 - (b8 - b), 2 * (b8 - b) - h * (k13 + k1)
    F[3:, 0] = h * (dop.D @ K)
    # the two sums round differently, each within a few ulps of its terms' size
    assert np.all(np.abs(F[3:, 0] - bump) <= 1e-14 * h * (np.abs(dop.D) @ np.abs(K)))
    assert np.any(F[3:] != 0.0)
    theta = np.linspace(0.1, 0.9, 9)
    scipy_dense = Dop853DenseOutput(v, v + h, np.array([b]), F)(v + theta * h)[0]
    hermite = ((1 + 2 * theta) * (1 - theta) ** 2 * b + theta**2 * (3 - 2 * theta) * b8
               + h * theta * (1 - theta) * ((1 - theta) * k1 - theta * k13))
    u = theta**2 * (1 - theta) ** 2
    term = u * (bump[0] + theta * bump[1] + theta * (1 - theta) * bump[2]
                + theta**2 * (1 - theta) * bump[3])
    assert np.abs(hermite + term - scipy_dense).max() <= 1e-14 * b8
    assert np.abs(bid(v + theta * h) - scipy_dense).max() <= 1e-14 * b8


@pytest.mark.parametrize("kind, l, zero", [("slow_drain", 8, 0.0), ("split_atom", 8, 0.25),
                                          ("fast_drain", 11, 0.0)])
def test_steps_end_just_past_strong_knots(u01, kind, l, zero):
    # the strong law's density is not smooth at its knots: no accepted step
    # has a knot inside it, by the chord from its start to its end, farther
    # than 2^-8 of the chord from either end
    law = StrongBidLaw(make_family(kind, 2.0, 2.5, 13).member(l), zero)
    bid, _ = solve_ode(u01, law, 2)
    b = bid.values[1:]
    crossed = 0
    for knot in law.dist.interior_knots():
        i = np.searchsorted(b, knot, "right") - 1
        if 0 <= i < b.size - 1:
            th = (knot - b[i]) / (b[i + 1] - b[i])
            assert not 2.0 ** -8 < th < 1.0 - 2.0 ** -8, (knot, th)
            crossed += 1
    assert crossed >= 2


@pytest.mark.parametrize("n_weak", [2, 5])
def test_defect_gate_holds_across_a_weak_knot(n_weak):
    # the weak density has a kink at v = 1/2, so H is not smooth across it and
    # the three-sample model misses the defect of the step that crosses it
    # (1.1e-6 at N = 5 without the 31-point samples there)
    weak = piecewise_linear([0.0, 0.5, 1.0], [0.5, 1.5, 0.5])
    law = StrongBidLaw(dist.uniform(0.0, 2.0))
    bid, report = solve_ode(weak, law, n_weak)
    thetas = np.linspace(0.005, 0.995, 199)
    dense = np.abs(schedule_defects(bid, weak, law, n_weak, thetas)).max()
    assert report.max_ode_residual <= SolveOptions().residual_tolerance
    assert dense <= SolveOptions().residual_tolerance


def test_step_floor_follows_v0(u01):
    # from the atom start at v0 = 1e-11 this solve needs steps below 1e-12 v_bar
    # right after the start; a floor of 1e-12 v_bar would stop it, the floor
    # 1e-4 v0 lets it finish
    law = StrongBidLaw(make_family("slow_drain", 2.0, 2.5, 13).member(11), 0.25)
    bid, report = solve_ode(u01, law, 8)
    assert report.v0 < 1e-9 and report.min_step < 1e-12 and report.min_step_v == report.v0
    assert report.max_ode_residual <= SolveOptions().residual_tolerance
    assert verify_best_response(bid, u01, law, 8).max_regret <= 1e-4


# Accepted steps and rhs calls (then StrongBidLaw.eval3 calls, one per rhs call)
# that the Dormand-Prince 4(5) stepper DOP853 replaced made on these solves
# (members 1, 4 and 8 of each family, size 8, N = 2 and 5, zero-bid probability 0
# and 0.25; summed over the 12 solves of each family): slow_drain 7,414 steps and
# 70,464 calls, smoothed_discrete 2,159 steps and 20,614 calls. The counts are
# deterministic
DP5_COUNTS = {"slow_drain": (7414, 70464), "smoothed_discrete": (2159, 20614)}


# DOP853's rhs calls on the same solves. A call a piece hands to the full rhs
# counts once, so these are also the calls of a solve that steps with the full
# rhs alone: the pieces change no step
DOP853_CALLS = {"slow_drain": 56779, "smoothed_discrete": 15862}


@pytest.mark.parametrize("kind", sorted(DP5_COUNTS))
def test_step_budget(u01, kind, monkeypatch):
    # DOP853 takes at most half the steps and 0.85 x the rhs calls of the
    # stepper it replaced. Every call a solve makes counts once, whether it
    # goes to a piece's rhs or to the full one; a piece's fallback to the full
    # rhs is the same call
    calls = {"full": 0, "piece": 0, "fallback": 0}
    depth = [0]
    factory = eq._rhs_factory

    def counted_factory(weak, law, n_weak, piece=None):
        built = factory(weak, law, n_weak, piece)

        def counted(v, b):
            calls["fallback" if depth[0] else "full" if piece is None else "piece"] += 1
            depth[0] += 1
            try:
                return built(v, b)
            finally:
                depth[0] -= 1

        return counted

    monkeypatch.setattr(eq, "_rhs_factory", counted_factory)
    fam = make_family(kind, 2.0, 2.5, 8)
    steps = sum(solve_ode(u01, StrongBidLaw(fam.member(l), zero), n)[1].accepted_steps
                for l in (1, 4, 8) for n in (2, 5) for zero in (0.0, 0.25))
    dp5_steps, dp5_calls = DP5_COUNTS[kind]
    total = calls["full"] + calls["piece"]
    assert steps <= 0.5 * dp5_steps, steps
    assert total <= 0.85 * dp5_calls, calls
    assert total == DOP853_CALLS[kind], calls
    # the series starts' calls go to the full rhs, nearly all others to pieces
    assert calls["full"] == 12 and calls["fallback"] < 0.1 * calls["piece"], calls


def test_solution_extends_to_top(u01, bump_member):
    law = as_strong_law(bump_member)
    bid, _ = solve_ode(u01, bump_member, 2)
    v_bar = 1.0
    assert bid.grid[-1] == v_bar
    assert v_bar < bid.b_top
    assert law.mean_below(bid.b_top) < v_bar  # below the band ceiling m^-1(v_bar)


@pytest.mark.parametrize("slope, refused", [(-0.5, True), (-1e-12, True), (0.0, False),
                                            (6.0, False), (6.0 + 1e-9, False), (7.0, False),
                                            (8.0, False), (8.0 + 1e-9, True), (12.0, True)])
def test_bid_function_monotone_slopes(slope, refused):
    # secant 2 on every interval; node 3's slope is an end slope of intervals 2
    # and 3, whose other end slope is 2. Fritsch and Carlson's box [0, 3 x secant]
    # ends at 6; the cubic stays monotone up to 8 (at 8, b'(theta) = 2 (2 - 3 theta)^2
    # on interval 3, touching zero), and the exact rule accepts up to 8. A slope
    # of -0.5, 8 + 1e-9 or 12 makes the cubic turn down between nodes
    grid = np.linspace(0.0, 1.0, 6)
    slopes = np.full(6, 2.0)
    slopes[3] = slope
    if slope in (-0.5, 7.0, 12.0):
        x = np.linspace(grid[2], grid[4], 2001)
        falls = np.diff(CubicHermiteSpline(grid, 2.0 * grid, slopes)(x)) < 0
        assert np.any(falls) == refused
    if refused:
        with pytest.raises(EquilibriumError, match="monotone"):
            BidFunction(grid, 2.0 * grid, slopes)
    else:
        BidFunction(grid, 2.0 * grid, slopes)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12), st.randoms(use_true_random=False))
def test_bid_function_accepts_fritsch_carlson_box(size, rnd):
    # every cubic with each slope in [0, 3 x the secant] of its intervals, the
    # box's corners and edges included, passes the exact rule with zero bumps
    grid = np.cumsum([0.0] + [10.0 ** rnd.uniform(-12, 0) for _ in range(size)])
    values = np.cumsum([0.0] + [10.0 ** rnd.uniform(-12, 1) for _ in range(size)])
    secant = np.diff(values) / np.diff(grid)
    top = 3.0 * np.minimum(np.append(secant, np.inf), np.insert(secant, 0, np.inf))
    slopes = np.array([rnd.choice([0.0, t, rnd.uniform(0.0, t)]) for t in top])
    BidFunction(grid, values, slopes)


@pytest.mark.parametrize("bump, refused", [(0.0, False), (-2.0, False), (-3.0, True),
                                           (2.0, False), (3.0, True)])
def test_bid_function_monotone_bumps(bump, refused):
    # end slopes 2 = the secant on every interval of width h = 0.2; the row
    # (e, 0, 0, 0) on interval 2 is the quartic e theta^2 (1 - theta)^2, which
    # adds (e/h) 2 theta (1 - theta)(1 - 2 theta) to b', whose extremes are
    # +-(e/h) sqrt(3)/9: b' dips to 2 - 0.962 |e| inside, below 0 at |e| = 3
    # while every end slope stays 2 and the node values rise
    grid = np.linspace(0.0, 1.0, 6)
    arrays = {"grid": grid, "values": 2.0 * grid, "slopes": np.full(6, 2.0),
              "bumps": np.zeros((5, 4))}
    arrays["bumps"][2, 0] = bump
    x = np.linspace(grid[2], grid[3], 2001)
    falls = np.diff(schedule_ppoly(SimpleNamespace(**arrays))(x)) < 0
    assert np.any(falls) == refused
    if refused:
        with pytest.raises(EquilibriumError, match="monotone"):
            BidFunction(**arrays)
    else:
        BidFunction(**arrays)


@pytest.mark.parametrize("shape", [(5,), (5, 3)])
def test_bid_function_takes_only_rows_of_four(shape):
    # one row of four per interval is the only form; zero bumps of any other
    # shape, a 1-D quartic coefficient among them, are refused
    grid = np.linspace(0.0, 1.0, 6)
    with pytest.raises(EquilibriumError, match="one row of four bumps per interval"):
        BidFunction(grid, 2.0 * grid, np.full(6, 2.0), np.zeros(shape))
    assert BidFunction(grid, 2.0 * grid, np.full(6, 2.0)).bumps.shape == (5, 4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), st.integers(0, 4))
def test_bid_function_monotone_rows_of_four(row, i):
    # end slopes 2 = the secant on every interval of width 0.2; a row of four on
    # interval i. The exact rule must agree with scipy's PPoly: the least b' at
    # 10^5 + 1 points and at the real roots of b'' that PPoly.roots finds (it can
    # miss some when the leading coefficient is tiny), wherever that least value
    # is clear of zero by more than b'' can bend it between the points (|b''| is
    # at most about 10^3 here)
    grid = np.linspace(0.0, 1.0, 6)
    arrays = {"grid": grid, "values": 2.0 * grid, "slopes": np.full(6, 2.0),
              "bumps": np.zeros((5, 4))}
    arrays["bumps"][i] = row
    ppoly = schedule_ppoly(SimpleNamespace(**arrays))
    x = np.concatenate([np.linspace(0.0, 1.0, 100_001), ppoly.derivative(2).roots()])
    low = ppoly.derivative()(x[(x >= 0.0) & (x <= 1.0)]).min()
    if abs(low) < 1e-6:
        return
    if low < 0.0:
        with pytest.raises(EquilibriumError, match="monotone"):
            BidFunction(**arrays)
    else:
        BidFunction(**arrays)


def test_strength_warning():
    # the solve report is the only channel for the model's notes
    weak = dist.uniform(0.0, 1.0)
    strong = dist.uniform(0.0, 1.5)  # E[w] = 0.75 < 1
    _, report = solve_ode(weak, strong, 2)
    assert any(note.startswith("strength assumption violated") for note in report.warnings)


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
    strong = mixture_of(
        [(0.003125, dist.uniform(0.0, 2.5)), (0.996875, cosine_bump(2.0, 0.05))],
        support=(0.0, 2.5),
    )
    law = StrongBidLaw(strong, zero_bid_prob=0.25)
    bid, report = solve_ode(u01, law, 2)
    assert report.max_ode_residual <= 1e-6
    assert verify_best_response(bid, u01, law, 2).max_regret <= 1e-4
    # massive overbidding: the zero atom makes winning the first stage a free option
    assert bid(0.5) > 1.5


@pytest.mark.parametrize("bad", [1.0, -0.25, math.nan])
def test_zero_bid_prob_outside_unit_interval_is_an_input_error(u02, bad):
    # a bad input, not a solver failure: the error names the field at fault
    with pytest.raises(InputError, match="zero_bid_prob must be in") as err:
        StrongBidLaw(u02, zero_bid_prob=bad)
    assert err.value.field == "zero_bid_prob" and not isinstance(err.value, EquilibriumError)


def test_strong_side_that_is_no_law_is_an_input_error(u01):
    with pytest.raises(InputError, match="not a strong-side law: float") as err:
        as_strong_law(2.0)
    assert err.value.field == "strong" and not isinstance(err.value, EquilibriumError)
    with pytest.raises(InputError, match="not a strong-side law"):
        solve_ode(u01, "U[0,2]", 2)


# ---------------------------------------------------------------------------
# discrete two-point benchmark
# ---------------------------------------------------------------------------


def test_discrete_precondition(u01):
    # the all-in equilibrium (bid k whenever v > 0) needs p*k > v_bar
    with pytest.raises(InputError, match="not guaranteed") as err:
        AuctionSpec("ta_discrete", 2, u01, DiscreteAtomSpec(k=2.0, p=0.4))
    assert err.value.field == "strong"
    AuctionSpec("ta_discrete", 2, u01, DiscreteAtomSpec(k=2.0, p=0.51))
