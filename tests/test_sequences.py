import math
import sys

import numpy as np
import pytest

from talab import dist, myerson, sequences
from talab.equilibrium import InputError
from talab.mechanisms import sa_reserve_closed_form
from talab.sequences import (
    FamilySpec,
    ReserveRule,
    block_steps,
    check_atom_convergence,
    check_low_drain,
    from_below_reserves,
    make_family,
    run_limit_experiment,
)

from conftest import mixture_of

K, W_BAR = 2.0, 2.5


@pytest.fixture(scope="module")
def slow8():
    return make_family("slow_drain", K, W_BAR, 8)


@pytest.fixture(scope="module")
def slow16():
    return make_family("slow_drain", K, W_BAR, 16)


@pytest.fixture(scope="module")
def fast8():
    return make_family("fast_drain", K, W_BAR, 8)


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------


def test_members_are_valid_distributions(slow8, fast8):
    for fam in (slow8, fast8):
        for member in fam.members():
            assert member.interior_positive
            assert member.density_c1
            assert member.support.hi == W_BAR


@pytest.mark.parametrize("kind", sequences.FAMILY_KINDS)
def test_a_member_is_built_once_with_one_norm_check(kind, monkeypatch):
    counts = {"__post_init__": 0, "_quad_norm": 0}
    for name in counts:
        real = getattr(dist.DistributionSpec, name)

        def counted(self, real=real, name=name):
            counts[name] += 1
            return real(self)

        monkeypatch.setattr(dist.DistributionSpec, name, counted)
    fam = make_family(kind, K, W_BAR, 8)
    sequences._build_member.__wrapped__(fam, 5)   # built afresh, not cached
    assert counts == {"__post_init__": 1, "_quad_norm": 1}


def test_schedules_shrink(slow8):
    for fn in (slow8.low_mass, slow8.floor_mass, slow8.low_width, slow8.atom_width):
        vals = [fn(l) for l in range(1, 9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_strength_index_reported(slow8):
    l0 = slow8.strength_index(v_bar=1.0)
    assert l0 is not None
    for l in range(l0, slow8.size + 1):
        assert slow8.member(l).mean >= 1.0


def test_smoothed_discrete_two_point_limit():
    fam = FamilySpec("smoothed_discrete", K, W_BAR, 8, atom_share=0.75)
    last = fam.member(8)
    # mass splits (1-p) near zero, p near k as widths shrink
    assert last.cdf(0.2) == pytest.approx(0.25, abs=0.01)
    assert last.cdf(2.1) - last.cdf(1.9) == pytest.approx(0.75, abs=0.01)


def test_split_atom_cdf_at_k():
    for p in (0.0, 0.5, 1.0):
        fam = FamilySpec("split_atom", K, W_BAR, 12, split_p=p)
        assert fam.member(12).cdf(K) == pytest.approx(p, abs=0.01)


def test_family_validation():
    with pytest.raises(InputError):
        make_family("nope", K, W_BAR, 8)
    with pytest.raises(InputError):
        make_family("slow_drain", 3.0, 2.5, 8)  # k above w_bar


@pytest.mark.parametrize("field", ["k", "w_bar"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_family_refuses_non_finite_bounds(field, value):
    # refused at construction, naming the field, not later by a member's law
    bounds = {"k": K, "w_bar": W_BAR, field: value}
    with pytest.raises(InputError) as err:
        make_family("slow_drain", bounds["k"], bounds["w_bar"], 8)
    assert err.value.field == field


def test_family_kind_fields():
    # each kind-specific field takes its default on its own kind only, and a
    # value given for another kind is refused at the field
    assert FamilySpec("smoothed_discrete", K, W_BAR, 8).atom_share == 1.0
    assert FamilySpec("split_atom", K, W_BAR, 8).split_p == 0.5
    slow = FamilySpec("slow_drain", K, W_BAR, 8)
    assert slow.atom_share is None and slow.split_p is None
    for field, kind in (("atom_share", "split_atom"), ("split_p", "smoothed_discrete")):
        with pytest.raises(InputError) as err:
            FamilySpec(kind, K, W_BAR, 8, **{field: 0.4})
        assert err.value.field == field


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def test_atom_checker_slow_drain(slow8):
    report = check_atom_convergence(slow8)
    masses = report["masses"]
    tail = masses[len(masses) // 2 :]
    assert all(b >= a - 1e-12 for a, b in zip(tail, tail[1:]))
    assert masses[-1] >= 0.99
    assert report["passed"]


def test_atom_checker_degenerate_constant():
    fam = make_family("slow_drain", K, W_BAR, 4)
    member = fam.member(4)
    masses = [
        float(member.cdf(K + 0.1) - member.cdf(K - 0.1)) for _ in range(4)
    ]
    assert max(masses) - min(masses) == 0.0  # constant member, constant mass


def test_atom_checker_fails_fast_drain(fast8):
    report = check_atom_convergence(fast8)
    assert not report["passed"]
    assert report["masses"][-1] < 0.8  # bounded away from 1 by the fixed low mass


def test_drain_checker_slow_vs_fast(slow8, fast8):
    ok = check_low_drain(slow8)
    assert ok["eq4_passed"] and ok["cond_passed"] and ok["trend_agreement"]
    bad = check_low_drain(fast8)
    assert not bad["eq4_passed"]
    assert bad["trend_agreement"]


def test_drain_ratio_decreases_toward_zero(slow8):
    series = check_low_drain(slow8)["ratios"][(0.4 * 0.7 * K, 0.7 * K)]
    tail = series[len(series) // 2 :]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    assert series[-1] < 0.1 * series[0]


def test_drain_equivalence_trend_everywhere(slow8, fast8):
    sd = make_family("smoothed_discrete", K, W_BAR, 8)
    sp = FamilySpec("split_atom", K, W_BAR, 8, split_p=0.5)
    for fam in (slow8, fast8, sd, sp):
        assert check_low_drain(fam)["trend_agreement"], fam.kind


# ---------------------------------------------------------------------------
# reserve rules
# ---------------------------------------------------------------------------


def test_from_below_window_and_monotonicity(slow16):
    rs = from_below_reserves(slow16)
    assert np.all(np.diff(rs) > 0)
    assert np.all(rs < K)
    for l in (2, 4, 8, 16):
        member = slow16.member(l)
        g_r = member.cdf(rs[l - 1])
        g_k = member.cdf(K)
        assert g_k - 1.0 / l < g_r < g_k, l


def test_from_below_split_family_limits():
    for p in (0.0, 0.5, 1.0):
        fam = FamilySpec("split_atom", K, W_BAR, 16, split_p=p)
        rs = from_below_reserves(fam)
        g_last = fam.member(16).cdf(rs[-1])
        assert g_last == pytest.approx(p, abs=0.01)


def test_block_steps_bound(slow16):
    eps = 0.5
    rs, ns = block_steps(slow16, eps)
    assert np.all(np.diff(ns) >= 0)
    u01 = dist.uniform(0.0, 1.0)
    for l in range(1, slow16.size + 1):
        member = slow16.member(l)
        cf = sa_reserve_closed_form(u01, member, 2, float(rs[l - 1]))
        n_blk = int(ns[l - 1])
        bound = (1.0 - 1.0 / n_blk) * (K - eps / n_blk)
        assert cf["revenue"] >= bound - 1e-12, l


def test_rule_validation():
    with pytest.raises(InputError):
        ReserveRule("constant")
    with pytest.raises(InputError):
        ReserveRule("block_steps")
    with pytest.raises(InputError):
        ReserveRule("mystery", value=1.0)


# ---------------------------------------------------------------------------
# limit experiments (closed-form rows; tournament rows live in acceptance)
# ---------------------------------------------------------------------------


def test_p8_undershoot(slow16, u01):
    table = run_limit_experiment("P8", slow16, u01, 2,
                                 rule=ReserveRule("constant", value=0.8 * K))
    assert table.target == 0.8 * K
    assert table.gap / table.target < 0.02
    # surplus recovers the full atom value in the limit
    assert abs(table.rows[-1].surplus - K) / K < 0.02


def test_p9_overshoot(slow16, u01):
    table = run_limit_experiment("P9", slow16, u01, 2,
                                 rule=ReserveRule("constant", value=1.1 * K))
    assert table.target == pytest.approx(1.0 / 3.0)
    assert table.gap / table.target < 0.02
    assert abs(table.rows[-1].surplus - 2.0 / 3.0) / (2.0 / 3.0) < 0.02


def test_p10_convergence_from_below(u01):
    for p in (0.0, 0.5, 1.0):
        fam = FamilySpec("split_atom", K, W_BAR, 16, split_p=p)
        table = run_limit_experiment("P10", fam, u01, 2,
                                     rule=ReserveRule("quantile_below"))
        target_r = p / 3.0 + (1.0 - p) * K
        target_s = p * 2.0 / 3.0 + (1.0 - p) * K
        assert table.target == pytest.approx(target_r, rel=1e-9)
        assert table.gap / target_r < 0.02, p
        assert abs(table.rows[-1].surplus - target_s) / target_s < 0.02, p
        assert not any("outside the cdf window" in note for note in table.notes)


def test_p7_block_bound_recorded(slow16, u01):
    table = run_limit_experiment("P7", slow16, u01, 2,
                                 rule=ReserveRule("block_steps", eps=0.5))
    assert table.notes[-1] == "block lower bound holds"
    assert table.gap < 0.05 * K
    # the realized reserves climb toward k
    assert table.rows[-1].revenue > table.rows[0].revenue


def test_refusals(slow16, fast8, u01):
    with pytest.raises(InputError, match="drain"):
        run_limit_experiment("P6", fast8, u01, 2, n=10)
    with pytest.raises(InputError, match="constant rule with value in"):
        run_limit_experiment("P8", slow16, u01, 2,
                             rule=ReserveRule("constant", value=2.5))
    with pytest.raises(InputError, match="split_atom"):
        run_limit_experiment("P10", slow16, u01, 2, rule=ReserveRule("quantile_below"))
    with pytest.raises(InputError, match="p\\*k > v_bar"):
        sd = make_family("smoothed_discrete", K, W_BAR, 4)
        run_limit_experiment("S8", sd, u01, 2, intervention_p=0.4, n=10)
    with pytest.raises(InputError, match="atom"):
        run_limit_experiment("P6", slow16, dist.uniform(0.0, 2.2), 2, n=10)


def test_small_tournament_experiment(u01):
    # P6 smoke at desk scale: 3 indices, small n; gap shrinks along the family
    fam = make_family("slow_drain", K, W_BAR, 3)
    table = run_limit_experiment("P6", fam, u01, 2, n=20_000, seed=1)
    gaps = [r.gap for r in table.rows]
    assert gaps[-1] < gaps[0]
    assert all(r.max_regret <= 1e-4 for r in table.rows)


def test_smoothed_discrete_tournament_revenue(u01):
    # tournament revenue on the smoothed two-point family approaches p*k
    
    from talab.equilibrium import solve_ode
    from talab.mechanisms import AuctionSpec, simulate

    fam = FamilySpec("smoothed_discrete", K, W_BAR, 6, atom_share=0.75)
    member = fam.member(6)
    bid, _ = solve_ode(u01, member, 2)
    out = simulate(AuctionSpec("ta", 2, u01, member, bid_fn=bid), 400_000, seed=66)
    assert abs(out["revenue"].mean - 0.75 * K) / (0.75 * K) < 0.03


def test_surplus_tracking_experiment(u01):
    # surplus must track revenue wherever revenue is within 0.1 k of the atom
    # value; slow_drain members 6-8 at N = 2 are (member 8: k - R = 0.069)
    fam = make_family("slow_drain", K, W_BAR, 8)
    table = run_limit_experiment("P4", fam, u01, 2, n=20_000, seed=2)
    assert any(abs(r.revenue - K) <= 0.1 * K for r in table.rows)
    assert table.notes[-1] == "surplus-tracks-revenue check passed"
    assert all(r.surplus >= r.revenue - 1e-9 for r in table.rows)


def test_p5_irons_the_weak_law_once(slow8, monkeypatch):
    # a size-8 P5 sweep irons the weak law once and each member once (9
    # calls, not 16), and its rows are oa_revenue's per member, bit for bit
    weak = mixture_of([(0.5, dist.uniform(0.0, 0.4)), (0.5, dist.uniform(0.0, 1.0))])
    iron = myerson.ironed_virtual
    ironed = []

    def counted(d):
        ironed.append(d)
        return iron(d)

    # every name the function is reachable by, whatever the import style
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "talab" and getattr(mod, "ironed_virtual", None) is iron:
            monkeypatch.setattr(mod, "ironed_virtual", counted)
    table = run_limit_experiment("P5", slow8, weak, 2, n=5_000, seed=3)
    assert len(ironed) == 9 and sum(d is weak for d in ironed) == 1
    monkeypatch.undo()
    for row in table.rows:
        est = myerson.oa_revenue(weak, slow8.member(row.index), 2, 5_000, 3 * 2**64 + row.index)
        assert (row.revenue, row.revenue_se) == (est.mean, est.std_error)


def test_adjacent_seeds_share_no_row_stream(slow8, u01, monkeypatch):
    # each row's Philox key, as P5's Monte Carlo receives it: sweeps at seeds
    # s and s + 1 draw every row from a stream of its own (with key seed + l,
    # 7 of their 8 rows would share one)
    estimate = sequences.oa_estimate
    keys = []

    def recorded(psi_w, psi_s, n_weak, n, seed, threads):
        keys.append(seed)
        return estimate(psi_w, psi_s, n_weak, n, seed, threads)

    monkeypatch.setattr(sequences, "oa_estimate", recorded)
    for seed in (5, 6, 2**64 - 1):
        run_limit_experiment("P5", slow8, u01, 2, n=100, seed=seed)
    assert len(keys) == 24 and len(set(keys)) == 24
    assert max(keys) < 2**128
