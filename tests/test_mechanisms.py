import hashlib
import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate

import talab.mechanisms as mech
from talab.equilibrium import BidFunction, solve_ode
from talab.mechanisms import (
    AuctionSpec,
    DiscreteAtomSpec,
    MechanismError,
    sa_reserve_closed_form,
    simulate,
    simulate_draws,
)
from talab.myerson import oa_revenue
from talab.rng import uniform_block

# ---------------------------------------------------------------------------
# scalar reference: one auction at a time, rule by rule, in the draw layout of
# the mechanisms module docstring; the block engine must match it bit for bit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Draw:
    v: np.ndarray
    w: float
    tie_u: float
    intervention_u: float


@dataclass(frozen=True)
class Outcome:
    winner: str                # "weak" or "strong"
    winner_index: int | None   # weak bidder index, None for the strong bidder
    price: float
    surplus: float             # winner's value

    def __post_init__(self):
        assert self.winner in ("weak", "strong")
        assert self.price >= 0.0 and self.surplus >= 0.0


def _pick_max(values: np.ndarray, tie_u: float) -> int:
    ties = np.flatnonzero(values == values.max())
    return int(ties[min(int(tie_u * ties.size), ties.size - 1)])


def run_once(spec: AuctionSpec, draw: Draw) -> Outcome:
    v, w = np.asarray(draw.v, dtype=float), float(draw.w)
    assert v.shape == (spec.n_weak,)
    if spec.kind == "sa":
        allv = np.append(v, w)
        i = _pick_max(allv, draw.tie_u)
        price = float(np.sort(allv)[-2])
        if i < spec.n_weak:
            return Outcome("weak", i, price, float(v[i]))
        return Outcome("strong", None, price, w)

    if spec.kind == "sa_reserve":
        v_sorted = np.sort(v)
        if w >= spec.reserve:
            return Outcome("strong", None, max(spec.reserve, float(v_sorted[-1])), w)
        i = _pick_max(v, draw.tie_u)
        return Outcome("weak", i, float(v_sorted[-2]), float(v[i]))

    if spec.kind == "ta_discrete":
        k = spec.strong.k
        bids = np.where(v > 0.0, k, 0.0)
        i = _pick_max(bids, draw.tie_u)
        top_bid = float(bids[i])
        strong_bid = k if w >= k else 0.0
        if strong_bid >= top_bid:  # second-stage ties go to the strong bidder
            return Outcome("strong", None, top_bid, w)
        return Outcome("weak", i, strong_bid, float(v[i]))

    # ta / ta_intervention
    bids = spec.bid_fn(v)
    i = _pick_max(bids, draw.tie_u)
    top_bid = float(bids[i])
    strong_bid = w
    if spec.kind == "ta_intervention" and draw.intervention_u >= spec.intervention_p:
        strong_bid = 0.0
    weak_wins = top_bid > strong_bid or (top_bid == strong_bid and draw.tie_u < 0.5)
    price = min(top_bid, strong_bid)
    if weak_wins:
        return Outcome("weak", i, price, float(v[i]))
    return Outcome("strong", None, price, w)


def draw_from_uniforms(spec: AuctionSpec, u: np.ndarray) -> Draw:
    n = spec.n_weak
    assert u.shape == (spec.stride,)
    v = spec.weak.quantile(u[:n])
    if isinstance(spec.strong, DiscreteAtomSpec):
        w = spec.strong.k if u[n] < spec.strong.p else 0.0
    else:
        w = float(spec.strong.quantile(float(u[n])))
    return Draw(v=v, w=w, tie_u=float(u[n + 1]), intervention_u=float(u[n + 2]))


@pytest.fixture(scope="module")
def doubling_bid():
    grid = np.linspace(0.0, 1.0, 51)
    return BidFunction(grid, 2.0 * grid, np.full_like(grid, 2.0))


@pytest.fixture(scope="module")
def solved_ta(u01, u02):
    bid, _ = solve_ode(u01, u02, 2)
    return AuctionSpec("ta", 2, u01, u02, bid_fn=bid)


# ---------------------------------------------------------------------------
# run_once rules
# ---------------------------------------------------------------------------


def test_ta_single_draw(u01, u02, doubling_bid):
    spec = AuctionSpec("ta", 2, u01, u02, bid_fn=doubling_bid)
    out = run_once(spec, Draw(np.array([0.4, 0.3]), w=0.5, tie_u=0.9, intervention_u=0.0))
    assert out.winner == "weak" and out.winner_index == 0
    assert out.price == 0.5
    assert out.surplus == 0.4


def test_ta_strong_wins(u01, u02, doubling_bid):
    spec = AuctionSpec("ta", 2, u01, u02, bid_fn=doubling_bid)
    out = run_once(spec, Draw(np.array([0.4, 0.3]), w=1.2, tie_u=0.9, intervention_u=0.0))
    assert out.winner == "strong"
    assert out.price == pytest.approx(0.8)
    assert out.surplus == 1.2


def test_ta_discrete_tie_goes_to_strong(u01):
    spec = AuctionSpec("ta_discrete", 2, u01, DiscreteAtomSpec(k=2.0, p=0.75))
    out = run_once(spec, Draw(np.array([0.4, 0.3]), w=2.0, tie_u=0.1, intervention_u=0.0))
    assert out.winner == "strong"
    assert out.price == 2.0
    out = run_once(spec, Draw(np.array([0.4, 0.3]), w=0.0, tie_u=0.1, intervention_u=0.0))
    assert out.winner == "weak"
    assert out.price == 0.0


def test_sa_reserve_branches(u01, u02):
    spec = AuctionSpec("sa_reserve", 2, u01, u02, reserve=1.5)
    out = run_once(spec, Draw(np.array([0.7, 0.2]), w=1.9, tie_u=0.0, intervention_u=0.0))
    assert out.winner == "strong" and out.price == 1.5 and out.surplus == 1.9
    out = run_once(spec, Draw(np.array([0.7, 0.2]), w=1.1, tie_u=0.0, intervention_u=0.0))
    assert out.winner == "weak" and out.price == pytest.approx(0.2) and out.surplus == 0.7


def test_sa_price_is_second_highest(u01, u02):
    spec = AuctionSpec("sa", 2, u01, u02)
    out = run_once(spec, Draw(np.array([0.7, 0.2]), w=0.5, tie_u=0.0, intervention_u=0.0))
    assert out.winner == "weak" and out.price == 0.5 and out.surplus == 0.7


def test_intervention_zeroing(u01, u02, doubling_bid):
    spec = AuctionSpec("ta_intervention", 2, u01, u02, intervention_p=0.75,
                       bid_fn=doubling_bid)
    # intervention_u >= p: the strong bid is replaced by zero
    out = run_once(spec, Draw(np.array([0.4, 0.3]), w=1.9, tie_u=0.9, intervention_u=0.8))
    assert out.winner == "weak" and out.price == 0.0
    out = run_once(spec, Draw(np.array([0.4, 0.3]), w=1.9, tie_u=0.9, intervention_u=0.2))
    assert out.winner == "strong" and out.price == pytest.approx(0.8)


def test_first_stage_tie_uniform(u01, u02, doubling_bid):
    spec = AuctionSpec("ta", 2, u01, u02, bid_fn=doubling_bid)
    d = Draw(np.array([0.4, 0.4]), w=0.1, tie_u=0.6, intervention_u=0.0)
    assert run_once(spec, d).winner_index == 1
    d = Draw(np.array([0.4, 0.4]), w=0.1, tie_u=0.4, intervention_u=0.0)
    assert run_once(spec, d).winner_index == 0


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_validation(u01, u02, doubling_bid):
    with pytest.raises(MechanismError, match="bid schedule"):
        AuctionSpec("ta", 2, u01, u02)
    with pytest.raises(MechanismError, match="r >= v_bar"):
        AuctionSpec("sa_reserve", 2, u01, u02, reserve=0.5)
    with pytest.raises(MechanismError, match="intervention_p"):
        AuctionSpec("ta_intervention", 2, u01, u02, bid_fn=doubling_bid)
    with pytest.raises(MechanismError, match="two-point"):
        AuctionSpec("ta_discrete", 2, u01, u02)
    with pytest.raises(MechanismError, match="exceed"):
        AuctionSpec("ta_discrete", 2, u01, DiscreteAtomSpec(k=0.8, p=0.9))
    with pytest.raises(MechanismError):
        AuctionSpec("sa", 1, u01, u02)


# ---------------------------------------------------------------------------
# simulate: determinism and parity
# ---------------------------------------------------------------------------


def test_simulate_deterministic_and_thread_invariant(solved_ta):
    a = simulate(solved_ta, 50_000, seed=7, threads=1)
    b = simulate(solved_ta, 50_000, seed=7, threads=8)
    c = simulate(solved_ta, 50_000, seed=7, threads=3)
    assert a == b == c
    assert a != simulate(solved_ta, 50_000, seed=8)


def crafted_block(n: int, stride: int, bid_fn=None) -> np.ndarray:
    """Replicate uniforms for U[0,1] weak and U[0,2] strong laws: uniform rows
    plus rows built for the tie paths.

    Rows 0-199 are plain uniforms. Rows 200-399 copy one weak uniform into two
    or more bidders (often the top one); 400-599 set weak uniforms to 0.0 (zero
    bids under ta_discrete, all of them in some rows); 600-799 put the strong
    value at the top weak value (w = 2 u_N); 800-999 put it at the top weak bid
    when a bid schedule is given, else at the top weak value too, with ties.
    From row 200 on, tie breakers cycle through 0, 0.25, 0.5, 0.75 and 0.999.
    """
    rng = np.random.default_rng(100 + n)
    u = rng.random((1000, stride))
    weak = u[:, :n]
    for r in range(200, 400):
        k = int(rng.integers(2, n + 1))
        who = rng.choice(n, size=k, replace=False)
        weak[r, who] = weak[r].max() if r % 3 else weak[r, who[0]]
    for r in range(400, 600):
        weak[r, rng.random(n) < (1.0 if r % 5 == 0 else 0.5)] = 0.0
    for r in range(800, 1000, 2):
        weak[r, : 2 if r % 4 else n] = weak[r].max()
    top = weak.max(axis=1)
    u[600:800, n] = top[600:800] / 2.0
    top_bid = top[800:] if bid_fn is None else bid_fn(top[800:])
    u[800:, n] = top_bid / 2.0
    u[200:, n + 1] = np.resize([0.0, 0.25, 0.5, 0.75, 0.999], 800)
    return u


def test_block_matches_run_once(u01, u02, solved_ta, doubling_bid):
    # a schedule that stops at v = 0.6: every value above bids 1.2, so first-stage
    # ties come from different values and the tie breaker decides the surplus
    capped = BidFunction(np.linspace(0.0, 0.6, 31), np.linspace(0.0, 1.2, 31),
                         np.full(31, 2.0))
    for n in (2, 3, 5):
        bid = solved_ta.bid_fn if n == 2 else solve_ode(u01, u02, n)[0]
        specs = [
            AuctionSpec("ta", n, u01, u02, bid_fn=bid),
            AuctionSpec("sa", n, u01, u02),
            AuctionSpec("sa_reserve", n, u01, u02, reserve=1.5),
            AuctionSpec("ta", n, u01, u02, bid_fn=capped),
            AuctionSpec("ta_intervention", n, u01, u02, intervention_p=0.75,
                        bid_fn=doubling_bid),
            AuctionSpec("ta_intervention", n, u01, u02, intervention_p=0.75,
                        bid_fn=capped),
            AuctionSpec("ta_discrete", n, u01, DiscreteAtomSpec(k=2.0, p=0.75)),
        ]
        for spec in specs:
            blocks = [uniform_block(31, 0, 400, spec.stride),
                      crafted_block(n, spec.stride, spec.bid_fn)]
            for u in blocks:
                scalars = [run_once(spec, draw_from_uniforms(spec, row)) for row in u]
                rev, sur = mech._block_outcomes(spec, u)
                assert np.array_equal([o.price for o in scalars], rev), (n, spec.kind)
                assert np.array_equal([o.surplus for o in scalars], sur), (n, spec.kind)


def test_crafted_block_hits_tie_paths(u01, u02, doubling_bid):
    """The crafted rows reach every tie path the engine has."""
    for n in (2, 3, 5):
        u = crafted_block(n, n + 3, doubling_bid)
        v = u01.quantile(u[:, :n])
        w = u02.quantile(u[:, n])
        bids = doubling_bid(v)
        top = bids.max(axis=1)
        n_top = (bids == top[:, None]).sum(axis=1)
        assert (n_top == 2).sum() > 20 and (n_top == n).sum() > 20
        assert ((v == 0.0).all(axis=1)).sum() > 10 and ((v == 0.0).sum(axis=1) == 1).sum() > 10
        assert (w == v.max(axis=1)).sum() > 150
        assert ((top == w) & (n_top > 1)).sum() > 20
        assert {0.0, 0.25, 0.5, 0.75, 0.999} <= set(u[:, n + 1])


def test_ta_revenue_identity_per_draw(solved_ta):
    # per draw, revenue = min(b(v_max), w)
    u = uniform_block(13, 0, 2000, solved_ta.stride)
    v = solved_ta.weak.quantile(u[:, :2])
    w = solved_ta.strong.quantile(u[:, 2])
    rev, _ = mech._block_outcomes(solved_ta, u)
    expect = np.minimum(solved_ta.bid_fn(v.max(axis=1)), w)
    assert np.array_equal(rev, expect)


def test_price_never_exceeds_winning_bid(solved_ta):
    # revenue <= surplus side condition: price <= winner's bid, surplus = winner value
    u = uniform_block(17, 0, 2000, solved_ta.stride)
    rev, sur = mech._block_outcomes(solved_ta, u)
    v = solved_ta.weak.quantile(u[:, :2])
    w = solved_ta.strong.quantile(u[:, 2])
    winning_bid = np.maximum(solved_ta.bid_fn(v.max(axis=1)), w)
    assert np.all(rev <= winning_bid + 1e-12)


def test_surplus_identity_and_expected_payoffs(solved_ta):
    # ex post, surplus is exactly the winner's value; a weak winner CAN pay above
    # value (overbidding), so only expected payoffs are nonnegative, per side
    n = 200_000
    u = uniform_block(19, 0, n, solved_ta.stride)
    v = solved_ta.weak.quantile(u[:, :2])
    w = solved_ta.strong.quantile(u[:, 2])
    rev, sur = mech._block_outcomes(solved_ta, u)
    weak_win = solved_ta.bid_fn(v.max(axis=1)) > w
    assert np.array_equal(sur, np.where(weak_win, v.max(axis=1), w))
    weak_pay = np.where(weak_win, sur - rev, 0.0)
    strong_pay = np.where(~weak_win, sur - rev, 0.0)
    assert np.any(sur - rev < 0)  # ex-post losses do occur for weak winners
    for pay in (weak_pay, strong_pay):
        se = pay.std(ddof=1) / math.sqrt(n)
        assert pay.mean() > -3 * se


# ---------------------------------------------------------------------------
# Monte Carlo vs oracles
# ---------------------------------------------------------------------------


def test_discrete_revenue_matches_atom_value(u01):
    spec = AuctionSpec("ta_discrete", 2, u01, DiscreteAtomSpec(k=2.0, p=0.75))
    out = simulate(spec, 1_000_000, seed=42)
    r = out["revenue"]
    assert abs(r.mean - 1.5) <= 3 * r.std_error
    s = out["surplus"]
    assert abs(s.mean - (1.5 + 0.25 * 0.5)) <= 3 * s.std_error


def test_sa_revenue_matches_quadrature(u01, u02):
    # E[second-highest of (v1, v2, w)] via the survival function of the median
    def surv(t):
        a = min(t, 1.0)
        c = t / 2.0
        both = a * a + 2 * a * c - 2 * a * a * c
        return 1.0 - both

    expect, _ = integrate.quad(surv, 0.0, 2.0, points=[1.0], epsabs=1e-12)
    assert expect == pytest.approx(7.0 / 12.0, abs=1e-10)
    out = simulate(AuctionSpec("sa", 2, u01, u02), 1_000_000, seed=3)
    r = out["revenue"]
    assert abs(r.mean - expect) <= 3 * r.std_error


def test_ta_revenue_matches_quadrature(solved_ta):
    # E[min(b(v_max), w)] with v_max density N F^(N-1) f
    bid = solved_ta.bid_fn
    g = solved_ta.strong

    def integrand(v):
        b = bid(v)
        inner = g.partial_mean(b) + b * (1.0 - g.cdf(b))
        return inner * 2.0 * v

    expect, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, limit=200)
    out = simulate(solved_ta, 1_000_000, seed=11)
    r = out["revenue"]
    assert abs(r.mean - expect) <= 3 * r.std_error
    # frozen closed-form for the exact uniform equilibrium b = 4v/3
    assert expect == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_revenue_below_surplus(solved_ta, u01, u02):
    for spec in (solved_ta, AuctionSpec("sa", 2, u01, u02)):
        out = simulate(spec, 100_000, seed=5)
        assert out["revenue"].mean <= out["surplus"].mean


# ---------------------------------------------------------------------------
# reserve closed forms
# ---------------------------------------------------------------------------


def test_reserve_closed_form_values(u01, u02):
    cf = sa_reserve_closed_form(u01, u02, 2, 1.5)
    assert cf["revenue"] == pytest.approx(0.625, abs=1e-12)
    assert cf["surplus"] == pytest.approx(0.9375, abs=1e-12)


def test_reserve_at_support_top(u01, u02):
    cf = sa_reserve_closed_form(u01, u02, 2, 2.0)
    assert cf["revenue"] == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_reserve_precondition(u01, u02):
    with pytest.raises(MechanismError, match="r >= v_bar"):
        sa_reserve_closed_form(u01, u02, 2, 0.5)


def test_reserve_closed_form_vs_monte_carlo(u01, u02):
    for i, r in enumerate(np.linspace(1.0, 1.9, 5)):
        cf = sa_reserve_closed_form(u01, u02, 2, float(r))
        spec = AuctionSpec("sa_reserve", 2, u01, u02, reserve=float(r))
        out = simulate(spec, 400_000, seed=100 + i)
        for key in ("revenue", "surplus"):
            est = out[key]
            assert abs(est.mean - cf[key]) <= 3 * est.std_error, (r, key)


# sha256 of the per-draw revenue and surplus bytes, and the optimal-auction
# estimate as hex floats, for U[0,1] weak against U[0,2] strong at N = 2:
# 3 blocks of 2**15 replicates plus a ragged tail of 5. The path has no libm
# call (affine inverse cdf, the exact schedule 4v/3 as a spline on a squared
# grid, rules and hull lookups), so the bits hold on any IEEE-754 machine; an
# engine change that moves one of them fails here.
ENGINE_PINS = {
    "ta": "4b6ae34417b96ad23bac862f669644b4195740ae5ada8ba3fcf13586062214f2",
    "sa": "78a1d10138536cb3b50186e6b3cb04509ae35fc57916725717c61d445425e2a3",
    "sa_reserve": "833d5c59fe927fe53b6fbfd677fbd2d013d6cd662b564b2d2e96e698951d65d5",
    "ta_intervention": "34ab9104dffe41b3776b0b216be0eb2b0161fb4ba0effc3ca3397df0fc2d8fe7",
    "ta_discrete": "be9c5e0f16a641166cd3dba9646eeeff96790c7d37660a99fa7a3861655a1767",
}
OA_PIN = ("0x1.7f1ae6657ae41p-1", "0x1.c5c8be2c68dd2p-10")


def test_engine_bits_pinned(u01, u02):
    grid = np.linspace(0.0, 1.0, 201) ** 2
    bid = BidFunction(grid, 4.0 / 3.0 * grid, np.full_like(grid, 4.0 / 3.0))
    specs = {
        "ta": AuctionSpec("ta", 2, u01, u02, bid_fn=bid),
        "sa": AuctionSpec("sa", 2, u01, u02),
        "sa_reserve": AuctionSpec("sa_reserve", 2, u01, u02, reserve=1.2),
        "ta_intervention": AuctionSpec("ta_intervention", 2, u01, u02,
                                       intervention_p=0.75, bid_fn=bid),
        "ta_discrete": AuctionSpec("ta_discrete", 2, u01, DiscreteAtomSpec(2.0, 0.75)),
    }
    n = 3 * (1 << 15) + 5
    for kind, spec in specs.items():
        rev, sur = simulate_draws(spec, n, seed=2024)
        assert hashlib.sha256(rev.tobytes() + sur.tobytes()).hexdigest() == ENGINE_PINS[kind], kind
    est = oa_revenue(u01, u02, 2, n, seed=2024)
    assert (est.mean.hex(), est.std_error.hex()) == OA_PIN


def test_revenue_estimate_fields(solved_ta):
    out = simulate(solved_ta, 1000, seed=9)
    est = out["revenue"]
    assert est.n == 1000 and est.seed == 9
    rev, _ = simulate_draws(solved_ta, 1000, seed=9)
    assert est.std_error == pytest.approx(rev.std(ddof=1) / math.sqrt(1000), rel=1e-12)
