"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Tolerances are pinned
here; a red line means the corresponding guarantee does not hold as built.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from talab import dist
from talab.cli import run as cli_run
from talab.equilibrium import (
    BandEscape,
    BidFunction,
    EquilibriumError,
    SolveOptions,
    StrongBidLaw,
    initial_bid_ratio,
    solve_ode,
    verify_best_response,
)
from talab.mechanisms import (
    AuctionSpec,
    DiscreteAtomSpec,
    sa_reserve_closed_form,
    simulate,
)
from talab.myerson import oa_revenue
from talab.sequences import (
    FamilySpec,
    ReserveRule,
    check_atom_convergence,
    check_low_drain,
    make_family,
    run_limit_experiment,
)

from conftest import (DENSE_THETAS, beta_poly, bid_ode_rhs, defect_model_sup, schedule_defects,
                      schedule_ppoly)

K = 2.0
W_BAR = 2.5
N_BIG = 1_000_000


def report(num: int, passed: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {detail}", flush=True)
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def u01():
    return dist.uniform(0.0, 1.0)


@pytest.fixture(scope="module")
def u02():
    return dist.uniform(0.0, 2.0)


@pytest.fixture(scope="module")
def slow8():
    return make_family("slow_drain", K, W_BAR, 8)


@pytest.fixture(scope="module")
def solved_instances(u01, u02, slow8):
    """criterion-2 instance grid: (N, strong) with solve time and verification."""
    bump3 = slow8.member(3)
    out = {}
    for n_weak in (2, 3, 5):
        for name, strong in (("u02", u02), ("bump3", bump3)):
            t0 = time.monotonic()
            bid, rep = solve_ode(u01, strong, n_weak)
            br = verify_best_response(bid, u01, strong, n_weak)
            out[(n_weak, name)] = {
                "bid": bid,
                "strong": strong,
                "regret": br.max_regret,
                "seconds": time.monotonic() - t0,
            }
    return out


def dop853_reference(weak, strong, n_weak, start):
    """Dense DOP853 solution of the bid ODE from the node start = (v0, b0) to v_bar.

    An explicit Runge-Kutta method of another order than solve_ode's, with its
    own error estimator and step control (Hairer, Norsett & Wanner, Solving
    ODEs I, II.10). Outside the band the rhs is nan: scipy's error norm is then
    not < 1, so it rejects the step and shrinks it instead of leaving the band.
    """
    def rhs(v, b):
        try:
            return [bid_ode_rhs(b[0], v, weak, strong, n_weak)]
        except EquilibriumError:
            return [math.nan]

    sol = solve_ivp(rhs, (start[0], weak.support.hi), [start[1]], method="DOP853",
                    rtol=1e-10, atol=1e-13, dense_output=True)
    assert sol.success, sol.message
    return lambda v: sol.sol(v)[0]


@pytest.fixture(scope="module")
def criterion5_solves(u01, slow8):
    """criterion-5 cases: (name, law, N, solve_ode schedule, solve report) on
    slow_drain members and one smooth mixture."""
    laws = [(f"l={l}/N={n}/zero={zero}", StrongBidLaw(slow8.member(l), zero), n)
            for l in (3, 5, 8) for n in (2, 5) for zero in (0.0, 0.25)]
    mixture = dist.mixture(
        [(0.3, dist.uniform(0.0, 2.0)), (0.7, beta_poly(0.0, 2.0, 2.0, 1.5))],
        support=(0.0, 2.0),
    )
    laws.append(("mixture/N=2", StrongBidLaw(mixture), 2))
    return [(name, law, n_weak, *solve_ode(u01, law, n_weak))
            for name, law, n_weak in laws]


@pytest.fixture(scope="module")
def reference_cases(u01, criterion5_solves):
    """criterion-5 cases: (name, solve_ode schedule, DOP853 reference from its
    series-start node)."""
    out = []
    for name, law, n_weak, bid, _ in criterion5_solves:
        ref = dop853_reference(u01, law, n_weak, (bid.grid[1], bid.values[1]))
        out.append((name, bid, ref))
    return out


def reference_gap(bid, ref, start: float) -> float:
    vs = np.linspace(start, 1.0, 1001)
    return float(np.max(np.abs(bid(vs) - ref(vs))))


@pytest.fixture(scope="module")
def p6_table(u01, slow8):
    t0 = time.monotonic()
    table = run_limit_experiment("P6", slow8, u01, 2, n=N_BIG, seed=600)
    table_seconds = time.monotonic() - t0
    return table, table_seconds


@pytest.fixture(scope="module")
def p5_table(u01, slow8):
    return run_limit_experiment("P5", slow8, u01, 2, n=N_BIG, seed=500)


def test_criterion_1_discrete_example(u01):
    spec = AuctionSpec("ta_discrete", 2, u01, DiscreteAtomSpec(k=K, p=0.75))
    t0 = time.monotonic()
    out = simulate(spec, N_BIG, seed=1)
    seconds = time.monotonic() - t0
    rev = out["revenue"]
    err = abs(rev.mean - 0.75 * K)
    ok = err <= 3 * rev.std_error and seconds < 10.0
    report(1, ok, f"revenue {rev.mean:.5f} vs 1.5 ({err / rev.std_error:.2f} SE), "
                  f"{seconds:.1f}s")


def test_criterion_2_equilibrium_validity(solved_instances):
    details = []
    ok = True
    for (n_weak, name), inst in solved_instances.items():
        good = inst["regret"] <= 1e-4 * 1.0 and inst["seconds"] < 60.0
        ok = ok and good
        details.append(f"N={n_weak}/{name}: regret {inst['regret']:.1e} "
                       f"({inst['seconds']:.1f}s)")
    report(2, ok, "; ".join(details))


def test_criterion_3_initial_slope(solved_instances):
    worst = 0.0
    for (n_weak, _), inst in solved_instances.items():
        v = 1e-3
        err = abs(inst["bid"](v) / v - initial_bid_ratio(n_weak))
        worst = max(worst, err)
    report(3, worst <= 1e-2, f"max slope error {worst:.2e} (tolerance 1e-2)")


def test_criterion_4_overbidding(solved_instances):
    violations = 0
    for inst in solved_instances.values():
        bid = inst["bid"]
        violations += int(np.sum(bid.values[1:] <= bid.grid[1:]))
    report(4, violations == 0, f"{violations} interior nodes with b(v) <= v")


def test_criterion_5_solver_cross_validation(reference_cases):
    gaps = {name: reference_gap(bid, ref, bid.grid[1]) for name, bid, ref in reference_cases}
    worst = max(gaps, key=gaps.get)
    report(5, all(g <= 1e-3 for g in gaps.values()),
           f"sup|b_ode - b_dop853| <= {gaps[worst]:.2e} over {len(gaps)} cases "
           f"(worst {worst}; tolerance 1e-3)")


def test_criterion_5_reported_defect_is_the_schedules(u01, criterion5_solves):
    # max_ode_residual bounds the defect of the schedule the solver returns:
    # recomputed from the schedule alone, through the model the gate fits to
    # its three samples and at 32 points of every interval, the defect stays
    # within it, and it stays within the gate. The bound (even peak plus odd
    # peak) is at most twice the model's largest value
    tol = SolveOptions().residual_tolerance
    for name, law, n_weak, bid, rep in criterion5_solves:
        model = defect_model_sup(schedule_defects(bid, u01, law, n_weak)).max()
        dense = np.abs(schedule_defects(bid, u01, law, n_weak, DENSE_THETAS)).max()
        assert max(model, dense) <= rep.max_ode_residual <= tol, (name, model, dense)
        assert rep.max_ode_residual <= 2.0 * model, name


# fast_drain members 6-8 with no zero-bid atom, where the series start meets a
# strong density rising off a small floor, and the two atom starts at v0 = 1e-10
ATOM_EDGE_CASES = (
    [("fast_drain", l, 0.0, n) for l in (6, 7, 8) for n in (2, 3, 5, 8)]
    + [("slow_drain", 8, 0.25, 8), ("split_atom", 8, 0.25, 8)]
)


@pytest.mark.parametrize("kind, l, zero, n_weak", ATOM_EDGE_CASES)
def test_atom_edge_cases_solve(u01, kind, l, zero, n_weak):
    law = StrongBidLaw(make_family(kind, K, W_BAR, 8).member(l), zero)
    bid, rep = solve_ode(u01, law, n_weak)
    assert verify_best_response(bid, u01, law, n_weak).max_regret <= 1e-4
    assert rep.max_ode_residual <= SolveOptions().residual_tolerance
    if zero > 0.0:   # the atom start; test_step_floor_follows_v0 pins its floor
        assert rep.v0 < 1e-9
    if (kind, l, n_weak) == ("fast_drain", 8, 3):
        ref = dop853_reference(u01, law, n_weak, (bid.grid[1], bid.values[1]))
        assert reference_gap(bid, ref, bid.grid[1]) <= 1e-3   # criterion 5's bound


# solves that stopped with BandEscape under the cubic schedule's Gauss-point
# gate: the quartic schedule, whose steps are cut just past the strong law's
# knots, finishes them within the defect bound
NEWLY_FINISHED = (
    [("fast_drain", 11, 0.0, n) for n in (2, 3, 5, 8)]
    + [("slow_drain", 12, 0.0, 3), ("slow_drain", 12, 0.0, 8), ("split_atom", 12, 0.25, 2)]
)


@pytest.mark.parametrize("kind, l, zero, n_weak", NEWLY_FINISHED)
def test_deep_members_solve(u01, kind, l, zero, n_weak):
    law = StrongBidLaw(make_family(kind, K, W_BAR, 12).member(l), zero)
    bid, rep = solve_ode(u01, law, n_weak)
    assert verify_best_response(bid, u01, law, n_weak).max_regret <= 1e-4
    model = defect_model_sup(schedule_defects(bid, u01, law, n_weak)).max()
    dense = np.abs(schedule_defects(bid, u01, law, n_weak, DENSE_THETAS)).max()
    assert max(model, dense) <= rep.max_ode_residual <= SolveOptions().residual_tolerance


def test_family_grid_schedules_are_monotone(u01):
    # members 1-13 of the four families at N = 2, 3, 5, 8 and zero-bid
    # probability 0 and 0.25 (416 solves): every solve returns a schedule or
    # stops with BandEscape, never on the monotonicity rule, and each returned
    # schedule rises at 5 points inside every interval of its independent form
    theta = np.linspace(0.1, 0.9, 5)[:, None]
    solved = 0
    for kind in ("fast_drain", "slow_drain", "smoothed_discrete", "split_atom"):
        fam = make_family(kind, K, W_BAR, 13)
        for l, n_weak, zero in itertools.product(range(1, 14), (2, 3, 5, 8), (0.0, 0.25)):
            try:
                bid, _ = solve_ode(u01, StrongBidLaw(fam.member(l), zero), n_weak)
            except BandEscape:
                continue
            solved += 1
            g = bid.grid
            slope = schedule_ppoly(bid).derivative()(g[:-1] + theta * np.diff(g))
            assert np.all(slope >= 0.0), (kind, l, n_weak, zero)
    assert solved >= 390


def test_criterion_5_rejects_scaled_schedule(reference_cases):
    # the same comparison must fail a schedule 1% off (slow_drain l=8, N=2 among them)
    gaps = {}
    for name, bid, ref in reference_cases:
        scaled = BidFunction(bid.grid, 1.01 * bid.values, 1.01 * bid.slopes)
        gaps[name] = reference_gap(scaled, ref, bid.grid[1])
    assert "l=8/N=2/zero=0.0" in gaps
    assert all(g > 1e-3 for g in gaps.values()), gaps


def test_criterion_6_tournament_limit(p6_table):
    table, seconds = p6_table
    gaps = np.array([r.gap for r in table.rows])
    decreasing = bool(np.all(np.diff(gaps[-4:]) < 0))
    ok = decreasing and gaps[-1] <= 0.1 * K and seconds < 600.0
    report(6, ok, f"gaps {np.array2string(gaps, precision=4)}, final {gaps[-1]:.4f} "
                  f"(<= {0.1 * K}), {seconds:.0f}s")


def test_criterion_7_oa_benchmark(p5_table, p6_table, u01, u02, solved_instances):
    oa_gap = p5_table.gap
    ok = oa_gap <= 0.05 * K
    dominance = []
    for r6, r5 in zip(p6_table[0].rows, p5_table.rows):
        slack = 3 * (r6.revenue_se + r5.revenue_se)
        dominance.append(r6.revenue <= r5.revenue + slack)
    # baseline instance
    bid = solved_instances[(2, "u02")]["bid"]
    ta = simulate(AuctionSpec("ta", 2, u01, u02, bid_fn=bid), N_BIG, seed=700)
    oa = oa_revenue(u01, u02, 2, N_BIG, seed=701)
    slack = 3 * (ta["revenue"].std_error + oa.std_error)
    dominance.append(ta["revenue"].mean <= oa.mean + slack)
    ok = ok and all(dominance)
    report(7, ok, f"OA final gap {oa_gap:.4f} (<= {0.05 * K}); "
                  f"TA<=OA holds in {sum(dominance)}/{len(dominance)} instances")


def test_criterion_8_reserve_closed_form(u01, u02):
    cf = sa_reserve_closed_form(u01, u02, 2, 1.5)
    exact = cf["revenue"] == pytest.approx(0.625, abs=1e-12)
    agree = []
    for i, r in enumerate(np.linspace(1.0, 1.9, 5)):
        cf_r = sa_reserve_closed_form(u01, u02, 2, float(r))
        spec = AuctionSpec("sa_reserve", 2, u01, u02, reserve=float(r))
        out = simulate(spec, 400_000, seed=800 + i)
        agree.append(
            abs(out["revenue"].mean - cf_r["revenue"]) <= 3 * out["revenue"].std_error
            and abs(out["surplus"].mean - cf_r["surplus"]) <= 3 * out["surplus"].std_error
        )
    report(8, exact and all(agree),
           f"r=1.5 formula {cf['revenue']:.6f} (exact 0.625: {exact}); "
           f"MC agreement at {sum(agree)}/5 reserves")


def test_criterion_9_undershoot_overshoot(u01):
    fam = make_family("slow_drain", K, W_BAR, 16)
    under = run_limit_experiment("P8", fam, u01, 2,
                                 rule=ReserveRule("constant", value=0.8 * K))
    over = run_limit_experiment("P9", fam, u01, 2,
                                rule=ReserveRule("constant", value=1.1 * K))
    e_under = under.gap / under.target
    e_over_r = over.gap / over.target
    e_over_s = abs(over.rows[-1].surplus - 2.0 / 3.0) / (2.0 / 3.0)
    ok = e_under < 0.02 and e_over_r < 0.02 and e_over_s < 0.02
    report(9, ok, f"undershoot rev err {e_under:.3%}; overshoot rev err "
                  f"{e_over_r:.3%}, surplus err {e_over_s:.3%} (all < 2%)")


def test_criterion_10_convergence_from_below(u01):
    details = []
    ok = True
    for p in (0.0, 0.5, 1.0):
        fam = FamilySpec("split_atom", K, W_BAR, 16, split_p=p)
        table = run_limit_experiment("P10", fam, u01, 2,
                                     rule=ReserveRule("quantile_below"))
        target_s = p * (2.0 / 3.0) + (1.0 - p) * K
        e_r = table.gap / table.target
        e_s = abs(table.rows[-1].surplus - target_s) / target_s
        ok = ok and e_r < 0.02 and e_s < 0.02
        details.append(f"p={p}: rev {e_r:.2%}, sur {e_s:.2%}")
    report(10, ok, "; ".join(details) + " (all < 2%)")


def test_criterion_11_intervention(u01):
    fam = make_family("smoothed_discrete", K, W_BAR, 8)
    table = run_limit_experiment("S8", fam, u01, 2, n=400_000, seed=1100,
                                 intervention_p=0.75)
    rel = table.gap / table.target
    report(11, rel < 0.05, f"final revenue {table.rows[-1].revenue:.4f} vs "
                           f"target {table.target}, err {rel:.3%} (< 5%)")


def test_criterion_12_family_checkers(slow8):
    fast = make_family("fast_drain", K, W_BAR, 8)
    smoothed = make_family("smoothed_discrete", K, W_BAR, 8)
    split = FamilySpec("split_atom", K, W_BAR, 8, split_p=0.5)
    slow_atom = check_atom_convergence(slow8)["passed"]
    slow_drain_ok = check_low_drain(slow8)
    fast_drain_ok = check_low_drain(fast)
    agreement = all(
        check_low_drain(f)["trend_agreement"] for f in (slow8, fast, smoothed, split)
    )
    ok = (slow_atom and slow_drain_ok["eq4_passed"] and slow_drain_ok["cond_passed"]
          and not fast_drain_ok["eq4_passed"] and agreement)
    report(12, ok, f"slow passes both: {slow_atom and slow_drain_ok['eq4_passed']}; "
                   f"fast fails drain: {not fast_drain_ok['eq4_passed']}; "
                   f"trend agreement everywhere: {agreement}")


def test_criterion_13_determinism(tmp_path, u01, slow8):
    checks = []

    # (a) the criterion-1 estimator, twice and across thread counts
    spec = AuctionSpec("ta_discrete", 2, u01, DiscreteAtomSpec(k=K, p=0.75))
    runs = [simulate(spec, 200_000, seed=1, threads=t) for t in (1, 8, 1)]
    checks.append(runs[0] == runs[1] == runs[2])

    # (b) a tournament experiment row with threads 1 vs 8
    small = make_family("slow_drain", K, W_BAR, 2)
    t1 = run_limit_experiment("P6", small, u01, 2, n=50_000, seed=2, threads=1)
    t8 = run_limit_experiment("P6", small, u01, 2, n=50_000, seed=2, threads=8)
    checks.append(t1.rows == t8.rows)

    # (c) the optimal-auction estimator across thread counts
    checks.append(
        oa_revenue(u01, slow8.member(4), 2, 100_000, seed=3, threads=1)
        == oa_revenue(u01, slow8.member(4), 2, 100_000, seed=3, threads=8)
    )

    # (d) CLI outputs byte-identical across invocations and --threads {1, 8}
    cfg = {
        "version": "1",
        "n_weak": 2,
        "weak": {"kind": "uniform", "params": [], "support": [0, 1]},
        "strong": {"family": {"kind": "slow_drain", "k": K, "w_bar": W_BAR, "size": 3}},
        "sweep": {"prop": "P9", "rule": {"kind": "constant", "value": 1.1 * K}},
        "mc": {"n": 1000, "seed": 4},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    bodies = []
    for sub, threads in (("a", "1"), ("b", "8"), ("c", "1")):
        out = tmp_path / sub
        assert cli_run(["sweep", "--config", str(cfg_path), "--out-dir", str(out),
                        "--threads", threads]) == 0
        bodies.append(next(out.glob("sweep_table.*.csv")).read_bytes()
                      + next(out.glob("sweep.*.json")).read_bytes())
    checks.append(bodies[0] == bodies[1] == bodies[2])

    report(13, all(checks),
           f"engine reruns/threads: {checks[0]}, experiment threads: {checks[1]}, "
           f"oa threads: {checks[2]}, cli bytes: {checks[3]}")
