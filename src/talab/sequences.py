"""Families of strong-value laws converging to an atom, reserve rules, and
the limit experiments.

A family {G_l} concentrates mass on an atom k > v_bar as the index l grows.
Members are mixtures of raised-cosine bumps over a small uniform floor (the
floor keeps densities strictly positive and C^1, weight >= 1e-4). Builders:

* ``slow_drain``        low-value bump sliding to 0 with mass shrinking slower
                        than the floor: satisfies both convergence conditions
                        (mass to the atom; low-value mass draining slowly);
* ``fast_drain``        fixed low-value mass spread over a fixed interval:
                        violates the slow-drain condition (and keeps mass away
                        from the atom);
* ``smoothed_discrete`` two-point law smoothed out: atom_share mass at k, the
                        rest near 0, widths halving;
* ``split_atom``        atom mass split just below / just above k so that
                        G_l(k) -> split_p (the reserve-from-below experiments).

Checkers quantify the two convergence conditions on a finite index range:
``check_atom_convergence`` (mass of [k-tol, k+tol] -> 1) and
``check_low_drain`` ((G(c2)-G(c1))/G(c2) -> 0 for 0 < c1 < c2 < k, together
with the equivalent conditional-mean diagnostic E[w | w <= c2] -> 0).

``run_limit_experiment`` reproduces the limit results at desk scale. Each
experiment (a ``sweep.prop`` value in a config) is one entry of ``_PROPS``, and
the entry states all it does: the mechanism its rows run on every member
(equilibrium solve + Monte Carlo for the tournament variants, exact closed
forms for the reserve second-price auction, the optimal-auction benchmark),
whether its family must also drain slowly, the reserve rule it takes, its
target and its notes. No step reads the prop's name.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dist
from .dist import DistributionSpec
from .equilibrium import (InputError, SolveOptions, StrongBidLaw, check_bid_ode, solve_ode,
                          verify_best_response)
from .mechanisms import (AuctionSpec, check_auction, check_block_bidders, sa_reserve_closed_form,
                         simulate)
from .myerson import check_oa, ironed_virtual, oa_estimate

FAMILY_KINDS = ("slow_drain", "fast_drain", "smoothed_discrete", "split_atom")
# the field only one kind reads: (that kind, the field's default there)
_KIND_FIELDS = {"atom_share": ("smoothed_discrete", 1.0), "split_p": ("split_atom", 0.5)}


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    k: float
    w_bar: float
    size: int
    atom_share: float | None = None   # smoothed_discrete mass at the atom
    split_p: float | None = None      # split_atom limit of G_l(k)

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise InputError(f"unknown family kind {self.kind!r}; expected one of "
                             f"{FAMILY_KINDS}", "kind")
        if not 0.0 < self.w_bar < math.inf:   # NaN fails too
            raise InputError(f"w_bar must be finite and positive, got {self.w_bar}", "w_bar")
        if not 0.0 < self.k < self.w_bar:
            raise InputError(f"need 0 < k < w_bar, got k={self.k}, w_bar={self.w_bar}", "k")
        if self.size < 2:
            raise InputError(f"family needs at least 2 members, got {self.size}", "size")
        for name, (kind, default) in _KIND_FIELDS.items():
            if getattr(self, name) is None and self.kind == kind:
                object.__setattr__(self, name, default)
            elif getattr(self, name) is not None and self.kind != kind:
                raise InputError(f"{name} is read only by the {kind} family, not by "
                                 f"{self.kind}", name)
        if self.atom_share is not None and not 0.0 < self.atom_share <= 1.0:
            raise InputError(f"atom_share must be in (0, 1], got {self.atom_share}",
                             "atom_share")
        if self.split_p is not None and not 0.0 <= self.split_p <= 1.0:
            raise InputError(f"split_p must be in [0, 1], got {self.split_p}", "split_p")

    # per-index schedules -----------------------------------------------------

    def floor_mass(self, l: int) -> float:
        # one power faster than the low mass so the drain ratio falls like 1/l;
        # hard positivity floor 1e-4 (reached beyond l = 18)
        return max(1e-4, 0.15 * l**-2.5)

    def low_mass(self, l: int) -> float:
        if self.kind == "slow_drain" or self.kind == "split_atom":
            return 0.15 * l**-1.5
        if self.kind == "fast_drain":
            return 0.25
        return (1.0 - self.atom_share) * (1.0 - self.floor_mass(l))

    def low_width(self, l: int) -> float:
        if self.kind == "fast_drain":
            return 0.6 * self.k
        return 1.0 / l

    def atom_width(self, l: int) -> float:
        room = self.w_bar - self.k
        if self.kind == "split_atom":
            base = min(0.2, 0.4 * room)
        else:
            base = min(0.4, 0.8 * room)
        return max(base * 2.0 ** (1 - l), 1e-7)

    def member(self, l: int) -> DistributionSpec:
        if not 1 <= l <= self.size:
            raise InputError(f"index {l} outside 1..{self.size}")
        return _build_member(self, l)

    def members(self):
        return [self.member(l) for l in range(1, self.size + 1)]

    def strength_index(self, v_bar: float) -> int | None:
        """First index whose member satisfies E[w] >= v_bar, if any."""
        for l in range(1, self.size + 1):
            if self.member(l).mean >= v_bar:
                return l
        return None


@lru_cache(maxsize=256)
def _build_member(fam: FamilySpec, l: int) -> DistributionSpec:
    eps = fam.floor_mass(l)
    delta = fam.low_mass(l)
    eta = fam.atom_width(l)
    a = fam.low_width(l)
    span = (0.0, fam.w_bar)            # the support, and each component's interval
    comps = []
    if delta > 0.0:
        comps.append((delta, "cosine_bump", [a / 2.0, a / 2.0], *span))
    comps.append((eps, "uniform", [], *span))
    atom_mass = 1.0 - delta - eps
    if atom_mass <= 0.0:
        raise InputError(f"no mass left for the atom at index {l}")
    if fam.kind == "split_atom":
        p = fam.split_p
        if p > 0.0:
            comps.append((p * atom_mass, "cosine_bump", [fam.k - eta, eta], *span))
        if p < 1.0:
            comps.append(((1.0 - p) * atom_mass, "cosine_bump", [fam.k + eta, eta], *span))
    else:
        comps.append((atom_mass, "cosine_bump", [fam.k, eta], *span))
    return dist.mixture(comps, span)


make_family = FamilySpec   # make_family(kind, k, w_bar, size), the public constructor name


# ---------------------------------------------------------------------------
# convergence checkers
# ---------------------------------------------------------------------------


def _last_half(series: list[float]) -> list[float]:
    return series[len(series) // 2 :]


def _nonincreasing(series: list[float]) -> bool:
    return all(b <= a + 1e-9 for a, b in zip(series, series[1:]))


def check_atom_convergence(fam: FamilySpec) -> dict:
    """Mass of [k-tol, k+tol], tol = 0.05 k, per index; passes when it climbs
    to >= 0.99."""
    tol = 0.05 * fam.k
    lo, hi = max(fam.k - tol, 0.0), min(fam.k + tol, fam.w_bar)
    masses = [float(member.cdf(hi) - member.cdf(lo)) for member in fam.members()]
    tail = _last_half(masses)
    passed = _nonincreasing([-m for m in tail]) and masses[-1] >= 0.99
    return {"tol": tol, "masses": masses, "passed": passed}


_DRAIN_FRACTIONS = ((0.4, 0.3), (0.7, 0.3), (0.4, 0.5), (0.7, 0.5), (0.4, 0.7), (0.7, 0.7))


def _series_vanishes(series: list[float]) -> bool:
    # vanishing = still falling late, small in absolute terms, and far below
    # the early peak (a plateau fails the third test even when it is small)
    tail = _last_half(series)
    return (
        _nonincreasing(tail)
        and series[-1] <= 0.2
        and series[-1] <= 0.3 * max(max(series), 1e-300)
    )


def check_low_drain(fam: FamilySpec) -> dict:
    """Low-value drain diagnostics per index.

    For each pair (c1, c2) = (a c2, b k), (a, b) in ``_DRAIN_FRACTIONS``:
    ratio_l = (G_l(c2) - G_l(c1)) / G_l(c2). The equivalent conditional-mean
    diagnostic E[w_l | w_l <= c2] / c2 is reported for each distinct c2; both
    must vanish along the family.
    """
    pairs = tuple((a * b * fam.k, b * fam.k) for a, b in _DRAIN_FRACTIONS)

    members = fam.members()
    ratios = {}
    for c1, c2 in pairs:
        series = []
        for member in members:
            g2 = member.cdf(c2)
            series.append(float((g2 - member.cdf(c1)) / g2) if g2 > 0 else 0.0)
        ratios[(c1, c2)] = series

    cond_means = {}
    for c2 in sorted({c2 for _, c2 in pairs}):
        cond_means[c2] = [float(m.mean_below(c2) / c2) for m in members]

    ratio_ok = {pair: _series_vanishes(s) for pair, s in ratios.items()}
    cond_ok = {c2: _series_vanishes(s) for c2, s in cond_means.items()}
    eq4_passed = all(ratio_ok.values())
    cond_passed = all(cond_ok.values())

    # the two diagnostics must tell the same story, pairwise and overall
    agree = eq4_passed == cond_passed
    for (c1, c2), s in ratios.items():
        tail_r = _last_half(s)
        tail_c = _last_half(cond_means[c2])
        dir_r = tail_r[-1] < tail_r[0] + 1e-12
        dir_c = tail_c[-1] < tail_c[0] + 1e-12
        agree = agree and (dir_r == dir_c) and (ratio_ok[(c1, c2)] == cond_ok[c2])

    return {
        "pairs": list(pairs),
        "ratios": ratios,
        "cond_means": cond_means,
        "eq4_passed": eq4_passed,
        "cond_passed": cond_passed,
        "trend_agreement": agree,
    }


# ---------------------------------------------------------------------------
# reserve rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReserveRule:
    """Per-index reserve prices for the second-price auction experiments.

    kinds: ``constant`` (fixed level, used for both under- and overshooting),
    ``quantile_below`` (approach k from below through the cdf window
    G_l(k) - 1/l < G_l(r_l) < G_l(k)), ``block_steps`` (r_l = k - eps/n on
    index blocks where G_l(k - eps/n) <= 1/n).
    """

    kind: str
    value: float | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "quantile_below", "block_steps"):
            raise InputError(f"unknown reserve rule {self.kind!r}", "kind")
        if self.kind == "constant" and self.value is None:
            raise InputError("constant rule needs a value", "value")
        if self.kind == "block_steps" and (self.eps is None or self.eps <= 0):
            raise InputError("block_steps rule needs eps > 0", "eps")


def from_below_reserves(fam: FamilySpec) -> np.ndarray:
    """Reserves approaching k from below inside the window
    G_l(k) - 1/l < G_l(r_l) < G_l(k), strictly increasing with r_l < k."""
    out = np.empty(fam.size)
    prev = 0.0
    k = fam.k
    for l in range(1, fam.size + 1):
        member = fam.member(l)
        g_at_k = member.cdf(k)
        offset = min(1.0 / (2 * l), 0.002)
        cand = member.quantile(max(g_at_k - offset, 0.0))
        cand = max(cand, k - k * 2.0 ** -(l + 1))      # stay close to k even when
        cand = max(cand, prev + 1e-12 * k)             # the window is slack
        cand = min(cand, k * (1.0 - 1e-13))
        out[l - 1] = cand
        prev = cand
    return out


def block_steps(fam: FamilySpec, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(reserves, block indices): r_l = k - eps/n, with the block index n
    stepped up once G_l(k - eps/(n+1)) <= 1/(n+1)."""
    counts = np.empty(fam.size, dtype=int)
    n = 1
    for l in range(1, fam.size + 1):
        member = fam.member(l)
        while member.cdf(fam.k - eps / (n + 1)) <= 1.0 / (n + 1):
            n += 1
        counts[l - 1] = n
    return fam.k - eps / counts, counts


# ---------------------------------------------------------------------------
# limit experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitRow:
    index: int
    revenue: float
    revenue_se: float
    surplus: float
    surplus_se: float
    target: float
    gap: float
    method: str
    max_regret: float

    # the sweep table's columns, one per field in field order
    COLUMNS = ("l", "R_mean", "R_se", "S_mean", "S_se", "target", "gap", "solver_method",
               "max_regret")

    def as_dict(self) -> dict:
        return dict(zip(self.COLUMNS, dataclasses.astuple(self)))


@dataclass(frozen=True)
class LimitTable:
    prop: str
    rows: tuple[LimitRow, ...]
    target: float
    gap: float
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class _Prop:
    mechanism: str           # what each row runs: ta, ta_intervention, oa or sa_reserve
    drain: bool              # the family must also drain slowly, not only reach the atom
    rule: str | None = None  # the reserve-rule kind the prop takes
    below: float | None = 0.0        # lim G_l(r_l) under a reserve; None: the family's split_p
    surplus_note: str | None = None  # the surplus-target note, formatted with its value
    tracks: bool = False             # check that surplus tracks revenue near the atom


_PROPS = {
    # tournament run, checking that surplus tracks revenue near the atom
    "P4": _Prop("ta", drain=True, tracks=True),
    # optimal-auction revenue approaches the atom value k
    "P5": _Prop("oa", drain=False),
    # tournament revenue approaches k
    "P6": _Prop("ta", drain=True),
    # block reserve sequence k - eps/n achieves revenue approaching k
    "P7": _Prop("sa_reserve", drain=True, rule="block_steps"),
    # constant reserve below k: revenue flattens at the reserve level
    "P8": _Prop("sa_reserve", drain=True, rule="constant",
                surplus_note="surplus target: {:.6g} (full atom value despite the low reserve)"),
    # constant reserve above k: revenue collapses to the weak second order
    # statistic, surplus to the first
    "P9": _Prop("sa_reserve", drain=True, rule="constant", below=1.0,
                surplus_note="surplus target: E[v_(1:N)] = {:.6g}"),
    # reserve approaching k from below through the cdf window, on a family with
    # G_l(k) -> p: revenue mixes the two regimes with weight p
    "P10": _Prop("sa_reserve", drain=True, rule="quantile_below", below=None,
                 surplus_note="surplus target: {:.6g}"),
    # announced randomized zeroing of the strong bid: revenue approaches p * k
    # without any slow-drain requirement
    "S8": _Prop("ta_intervention", drain=False),
}
PROPS = tuple(_PROPS)


def _require(condition: bool, message: str, field: str | None = None):
    if not condition:
        raise InputError(message, field)


def _checker_gate(prop: str, fam: FamilySpec, need_drain: bool):
    # the conditions concern the family's limit; judge them at a canonical
    # depth even when the experiment itself runs on a short index range
    if fam.size < 8:
        fam = dataclasses.replace(fam, size=8)
    atom = check_atom_convergence(fam)
    _require(
        atom["passed"],
        f"{prop} requires convergence to the atom at k; family kind "
        f"{fam.kind!r} fails the mass checker (final mass {atom['masses'][-1]:.3f})",
    )
    if need_drain:
        drain = check_low_drain(fam)
        _require(
            drain["eq4_passed"],
            f"{prop} requires the low-value mass to drain slowly; family kind "
            f"{fam.kind!r} fails the drain checker",
        )


def _strength_notes(fam: FamilySpec, v_bar: float) -> list[str]:
    l0 = fam.strength_index(v_bar)
    if l0 is None:
        return [f"no member satisfies E[w] >= v_bar = {v_bar}"]
    if l0 > 1:
        return [f"members below index {l0} violate E[w] >= v_bar = {v_bar}"]
    return []


def check_experiment(prop: str, fam: FamilySpec, weak: DistributionSpec, n_weak: int,
                     rule: ReserveRule | None = None, intervention_p: float | None = None):
    """Refuse an experiment outside its model before any computation; the
    error's ``field`` names the argument at fault (``fam.k`` for the family's
    atom). The family checkers are computed, so ``run_limit_experiment``
    applies them."""
    _require(prop in _PROPS, f"unknown experiment {prop!r}; expected one of {PROPS}", "prop")
    entry = _PROPS[prop]
    v_bar, k = weak.support.hi, fam.k
    _require(k > v_bar, f"atom k={k} must exceed the weak support top {v_bar}", "fam.k")
    if entry.mechanism == "oa":  # the optimal auction also sells to fewer weak bidders
        check_oa(weak, fam.member(1), n_weak)
    else:  # Monte Carlo tournaments, and closed-form rows through check_auction's bound
        check_block_bidders(n_weak, 2)
    if entry.mechanism in ("ta", "ta_intervention"):  # rows solve the bid ODE
        check_bid_ode(weak, fam.member(1), n_weak)
    if entry.mechanism == "ta_intervention":  # each row runs it against a member
        check_auction("ta_intervention", n_weak, weak, fam.member(1),
                      intervention_p=intervention_p)
        _require(intervention_p * k > v_bar,
                 f"{prop} requires p*k > v_bar, got {intervention_p * k:.6g} <= {v_bar}",
                 "intervention_p")
    else:
        _require(intervention_p is None, f"{prop} does not take intervention_p",
                 "intervention_p")
    if entry.rule is None:
        _require(rule is None, f"{prop} does not take a reserve rule", "rule")
        return
    _require(rule is not None, f"{prop} requires a reserve rule", "rule")
    _require(rule.kind == entry.rule, f"{prop} uses the {entry.rule} rule", "rule")
    if rule.kind == "block_steps":
        _require(rule.eps < k - v_bar,
                 f"block eps must keep reserves above v_bar: eps < {k - v_bar}", "rule.eps")
    elif rule.kind == "quantile_below":
        _require(fam.kind == "split_atom",
                 f"{prop} needs a split_atom family (G_l(k) converging to the chosen p)",
                 "fam.kind")
    elif entry.below:   # a constant reserve above k, so all the strong mass is under it
        _require(rule.value > k, f"{prop} needs a constant rule with value above k = {k}", "rule")
        _require(rule.value <= fam.w_bar,
                 f"overshoot level {rule.value} above the strong support top {fam.w_bar}",
                 "rule.value")
    else:
        _require(v_bar < rule.value < k, f"{prop} needs a constant rule with value in "
                 f"(v_bar, k) = ({v_bar}, {k})", "rule")


def run_limit_experiment(
    prop: str,
    fam: FamilySpec,
    weak: DistributionSpec,
    n_weak: int,
    *,
    rule: ReserveRule | None = None,
    n: int = 200_000,
    seed: int = 0,
    threads: int = 1,
    intervention_p: float | None = None,
    solver: SolveOptions = SolveOptions(),
) -> LimitTable:
    """Per-index revenue/surplus table for one limit result, with its target."""
    check_experiment(prop, fam, weak, n_weak, rule, intervention_p)
    entry = _PROPS[prop]
    _checker_gate(prop, fam, entry.drain)
    v_bar, k = weak.support.hi, fam.k

    # the prop's target, and the notes that precede its rows: a reserve
    # auction's limit is g E[v_(2:N)] + (1 - g) r for revenue, with r the
    # constant reserve or k, and g E[v_(1:N)] + (1 - g) k for surplus
    target = k
    notes = _strength_notes(fam, v_bar) if entry.mechanism in ("ta", "ta_intervention") else []
    if entry.mechanism == "ta_intervention":
        target = intervention_p * k
    elif entry.mechanism == "sa_reserve":
        g = fam.split_p if entry.below is None else entry.below
        r_inf = float(rule.value) if entry.rule == "constant" else k
        target = g * weak.order_statistic_mean(n_weak, 2) + (1.0 - g) * r_inf
        if entry.surplus_note is not None:
            ev1 = weak.order_statistic_mean(n_weak, 1)
            notes.append(entry.surplus_note.format(g * ev1 + (1.0 - g) * k))

    reserves = None
    if entry.rule == "block_steps":
        reserves, counts = block_steps(fam, float(rule.eps))
    elif entry.rule == "quantile_below":
        reserves = from_below_reserves(fam)
    elif entry.rule == "constant":
        reserves = np.full(fam.size, float(rule.value))
    rows = _rows(entry.mechanism, fam, weak, n_weak, target, reserves, n, seed, threads,
                 solver, intervention_p)

    # the notes each prop reads off its rows
    if entry.tracks:
        gamma = 0.1 * k
        misses = [f"index {r.index}: revenue within {gamma:.3g} of k but "
                  f"surplus off by {abs(r.surplus - k):.3g}" for r in rows
                  if abs(r.revenue - k) <= gamma and abs(r.surplus - k) > 1.5 * gamma]
        notes += misses + ["surplus-tracks-revenue check " + ("failed" if misses else "passed")]
    if entry.rule == "block_steps":
        bounds = (1.0 - 1.0 / counts) * (k - float(rule.eps) / counts)
        low = [f"index {r.index}: revenue {r.revenue:.6g} below block bound {b:.6g}"
               for r, b in zip(rows, bounds.tolist()) if r.revenue < b - 1e-12]
        notes += low + ["block lower bound " + ("violated" if low else "holds")]
    elif entry.rule == "quantile_below":
        for r, r_l in zip(rows, reserves.tolist()):
            member = fam.member(r.index)
            g_r, g_k = member.cdf(r_l), member.cdf(k)
            if not (g_k - 1.0 / r.index < g_r < g_k):
                notes.append(f"index {r.index}: reserve outside the cdf window")
    return LimitTable(prop, tuple(rows), target, abs(rows[-1].revenue - target),
                      tuple(notes))


def _rows(mechanism, fam, weak, n_weak, target, reserves, n, seed, threads, solver,
          intervention_p) -> list[LimitRow]:
    """One row per member: ``mechanism`` run against it, row l drawing with the
    Philox key seed * 2^64 + l, below 2^128, so no two (seed, row) pairs share a
    stream. ``oa`` estimates the optimal auction (the weak law ironed once),
    ``sa_reserve`` takes its closed form at the member's reserve, and the
    tournaments solve the bid ODE, check its best response and simulate."""
    psi_w = ironed_virtual(weak) if mechanism == "oa" and n_weak > 0 else None
    p = intervention_p if mechanism == "ta_intervention" else None
    rows = []
    for l in range(1, fam.size + 1):
        member, key = fam.member(l), seed * 2**64 + l
        if mechanism == "oa":
            est = oa_estimate(psi_w, ironed_virtual(member), n_weak, n, key, threads)
            out = (est.mean, est.std_error, math.nan, math.nan, "oa", math.nan)
        elif mechanism == "sa_reserve":
            cf = sa_reserve_closed_form(weak, member, n_weak, float(reserves[l - 1]))
            out = (cf["revenue"], 0.0, cf["surplus"], 0.0, "closed_form", math.nan)
        else:
            law = StrongBidLaw(member, zero_bid_prob=0.0 if p is None else 1.0 - p)
            bid, _ = solve_ode(weak, law, n_weak, solver)
            br = verify_best_response(bid, weak, law, n_weak)
            est = simulate(AuctionSpec(mechanism, n_weak, weak, member, intervention_p=p,
                                       bid_fn=bid), n, key, threads)
            rev, sur = est["revenue"], est["surplus"]
            out = (rev.mean, rev.std_error, sur.mean, sur.std_error, "ode", br.max_regret)
        revenue, revenue_se, surplus, surplus_se, method, regret = out
        rows.append(LimitRow(l, revenue, revenue_se, surplus, surplus_se, target,
                             abs(revenue - target), method, regret))
    return rows
