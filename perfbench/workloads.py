"""The benchmark's workloads.

Each workload's constructor is its set-up: it builds the laws, solves the bid
schedules it needs and writes its configs. ``ops()`` is the fixed list of
operations of one pass; each operation returns a result that ``check`` gates
and ``fingerprint`` reduces to bytes, which must repeat exactly on every pass.
``final_checks`` runs once after timing and gates the deterministic outputs
against independent references; ``gate_ops`` are extra operations (thread
identity) that count as attempted. Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from talab import cli, dist, mechanisms, myerson, sequences
from talab import equilibrium as eq

import gates

N_WEAK = 2
V_BAR = 1.0
K_ATOM, W_BAR = 2.0, 2.5
P_ATOM = 0.75            # ta_discrete atom probability and intervention_p
RESERVE = 1.2


def _warm(laws):
    """Evaluate each law once so lazily built per-law state counts as set-up."""
    for law in laws:
        law.cdf(np.array([0.5]))
        law.quantile(np.array([0.5]))


def tournament_revenue(bid, n_weak: int, strong, p: float = 1.0) -> float:
    """p * E[min(b(max v), w)] for U[0, 1] weak values, by Gauss-Legendre quadrature.

    E[min(B, w)] = B (1 - G(B)) + M(B), with M the partial mean of the strong
    law; the density of the top weak value is N x^(N-1). No Monte Carlo and no
    inverse cdf are involved.
    """
    nodes, weights = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, 1.0, 513)
    lo, hi = edges[:-1, None], edges[1:, None]
    x = (0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)).ravel()
    wq = (0.5 * (hi - lo) * weights).ravel()
    b = bid(x)
    m = b * (1.0 - strong.cdf(b)) + strong.partial_mean(b)
    return p * float(np.sum(wq * n_weak * x ** (n_weak - 1) * m))


def _estimate_bytes(*estimates) -> bytes:
    return np.array([(e.mean, e.std_error) for e in estimates]).tobytes()


class McUniform:
    """The Monte Carlo engine on uniform laws, whose inverse cdf is affine."""

    name = "mc_uniform"
    unit = "draws"
    N_DRAWS = 1 << 20
    THREAD_N = 3 * (1 << 15) + 5      # several blocks and a ragged tail

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.weak = dist.uniform(0.0, V_BAR)
        self.strong = dist.uniform(0.0, 2.0 * V_BAR)
        _warm((self.weak, self.strong))
        self.bid, _ = eq.solve_ode(self.weak, self.strong, N_WEAK)
        law_i = eq.StrongBidLaw(self.strong, zero_bid_prob=1.0 - P_ATOM)
        bid_i, _ = eq.solve_ode(self.weak, law_i, N_WEAK)
        AS = mechanisms.AuctionSpec
        self.specs = {
            "ta": AS("ta", N_WEAK, self.weak, self.strong, bid_fn=self.bid),
            "sa": AS("sa", N_WEAK, self.weak, self.strong),
            "sa_reserve": AS("sa_reserve", N_WEAK, self.weak, self.strong, reserve=RESERVE),
            "ta_intervention": AS("ta_intervention", N_WEAK, self.weak, self.strong,
                                  intervention_p=P_ATOM, bid_fn=bid_i),
            "ta_discrete": AS("ta_discrete", N_WEAK, self.weak,
                              mechanisms.DiscreteAtomSpec(K_ATOM, P_ATOM)),
        }
        # exact (revenue, surplus) for U[0,1]^2 against U[0,2]; None = not gated
        g_r = RESERVE / 2.0
        self.exact = {
            "ta": (2.0 / 3.0, None),
            "sa": (7.0 / 12.0, 9.0 / 8.0),
            "sa_reserve": (g_r / 3.0 + (1.0 - g_r) * RESERVE,
                           g_r * 2.0 / 3.0 + (1.0 - g_r) * (RESERVE + 2.0) / 2.0),
            "ta_intervention": (tournament_revenue(bid_i, N_WEAK, self.strong, P_ATOM), None),
            "ta_discrete": (P_ATOM * K_ATOM, None),
            "oa": (143.0 / 192.0, None),
        }

    def _seed(self, i: int) -> int:
        return 16 * self.seed + i

    def ops(self):
        out = []
        for i, (kind, spec) in enumerate(self.specs.items()):
            out.append((kind, lambda spec=spec, s=self._seed(i):
                        mechanisms.simulate(spec, self.N_DRAWS, s, threads=1)))
        out.append(("oa", lambda s=self._seed(len(out)): myerson.oa_revenue(
            self.weak, self.strong, N_WEAK, self.N_DRAWS, s, threads=1)))
        return out

    def work(self) -> int:
        return len(self.exact) * self.N_DRAWS

    def fingerprint(self, name, result) -> bytes:
        if name == "oa":
            return _estimate_bytes(result)
        return _estimate_bytes(result["revenue"], result["surplus"])

    def check(self, name, result):
        rev_exact, sur_exact = self.exact[name]
        if name == "oa":
            return gates.within_z(result.mean, result.std_error, rev_exact)
        rev, sur = result["revenue"], result["surplus"]
        fail = gates.within_z(rev.mean, rev.std_error, rev_exact)
        if fail is None and sur_exact is not None:
            fail = gates.within_z(sur.mean, sur.std_error, sur_exact)
        return fail

    def final_checks(self) -> dict[str, str]:
        out = {}
        fail = gates.anchor(self.bid, N_WEAK, V_BAR)
        if fail:
            out["ta"] = fail
        cf = mechanisms.sa_reserve_closed_form(self.weak, self.strong, N_WEAK, RESERVE)
        rev, sur = self.exact["sa_reserve"]
        if abs(cf["revenue"] - rev) > 1e-12 or abs(cf["surplus"] - sur) > 1e-12:
            out["sa_reserve"] = f"closed form {cf} disagrees with ({rev}, {sur})"
        return out

    def gate_ops(self):
        seed = self._seed(15)

        def draws():
            spec = self.specs["ta_intervention"]
            one = mechanisms.simulate_draws(spec, self.THREAD_N, seed, threads=1)
            two = mechanisms.simulate_draws(spec, self.THREAD_N, seed, threads=2)
            return gates.identical(np.stack(one), np.stack(two), "simulate threads=2")

        def oa():
            one = myerson.oa_revenue(self.weak, self.strong, N_WEAK, self.THREAD_N, seed, 1)
            two = myerson.oa_revenue(self.weak, self.strong, N_WEAK, self.THREAD_N, seed, 2)
            return gates.identical(_estimate_bytes(one), _estimate_bytes(two),
                                   "oa_revenue threads=2")

        return [("threads_simulate", draws), ("threads_oa", oa)]


class SolveGrid:
    """Equilibrium solves with their best-response checks; no Monte Carlo.

    Each pass solves every member of both families at both zero-bid
    probabilities once; the seed decides which two members go to each N, so
    every pass does the same amount of work per family on different inputs.
    """

    name = "solve_grid"
    unit = "solves"
    NS = (2, 3, 5, 8)
    FAMILIES = ("slow_drain", "smoothed_discrete")
    ZERO_BID = (0.0, 0.25)

    def __init__(self, seed: int, workdir: Path):
        self.weak = dist.uniform(0.0, V_BAR)
        rng = np.random.default_rng(seed)
        self.cases = []          # (label, law, n_weak)
        for kind in self.FAMILIES:
            fam = sequences.make_family(kind, K_ATOM, W_BAR, 8)
            members = fam.members()
            for zb in self.ZERO_BID:
                perm = rng.permutation(len(members))
                for j, l0 in enumerate(perm):
                    n_weak = self.NS[j // 2]
                    law = eq.StrongBidLaw(members[l0], zero_bid_prob=zb)
                    self.cases.append((f"{kind}[{l0 + 1}] zb={zb} N={n_weak}",
                                       law, n_weak))
        anchor = dist.uniform(0.0, 2.0 * V_BAR)
        for n_weak in self.NS:
            self.cases.append((f"anchor N={n_weak}", eq.StrongBidLaw(anchor), n_weak))

    def ops(self):
        def solve(law, n_weak):
            bid, report = eq.solve_ode(self.weak, law, n_weak)
            return bid, report, eq.verify_best_response(bid, self.weak, law, n_weak)

        return [(label, lambda law=law, n=n_weak: solve(law, n))
                for label, law, n_weak in self.cases]

    def work(self) -> int:
        return len(self.cases)

    def fingerprint(self, name, result) -> bytes:
        bid, report, br = result
        return bid.values.tobytes() + np.array([report.max_ode_residual,
                                                br.max_regret]).tobytes()

    def check(self, name, result):
        bid, report, br = result
        fail = gates.residual(report.max_ode_residual) or gates.regret(br.max_regret, V_BAR)
        if fail is None and name.startswith("anchor"):
            fail = gates.anchor(bid, int(name.rsplit("=", 1)[1]), V_BAR)
        return fail

    def final_checks(self) -> dict[str, str]:
        return {}

    def gate_ops(self):
        return []


class Sweep:
    """``talab sweep`` run in-process through ``cli.run``, as a user runs it."""

    name = "sweep"
    unit = "rows"
    N_DRAWS = 1 << 15
    SIZE = 8
    PROPS = {
        "P6": {"prop": "P6"},
        "P5": {"prop": "P5"},
        "S8": {"prop": "S8", "intervention_p": P_ATOM},
        "P7": {"prop": "P7", "rule": {"kind": "block_steps", "eps": 0.5}},
    }
    THREAD_N = 2 * (1 << 15) + 3

    def __init__(self, seed: int, workdir: Path):
        self.weak = dist.uniform(0.0, V_BAR)
        self.members = sequences.make_family("slow_drain", K_ATOM, W_BAR, self.SIZE).members()
        _warm(self.members)
        self.mc_seed = 16 * seed
        self.argv = {}
        for prop, sweep in self.PROPS.items():
            cfg = {
                "version": "1",
                "n_weak": N_WEAK,
                "weak": {"kind": "uniform", "params": [], "support": [0.0, V_BAR]},
                "strong": {"family": {"kind": "slow_drain", "k": K_ATOM, "w_bar": W_BAR,
                                      "size": self.SIZE}},
                "sweep": sweep,
                "mc": {"n": self.N_DRAWS, "seed": 0},
            }
            out_dir = workdir / prop
            out_dir.mkdir(parents=True, exist_ok=True)
            path = workdir / f"{prop}.json"
            path.write_text(json.dumps(cfg))
            self.argv[prop] = (["sweep", "--config", str(path), "--out-dir", str(out_dir),
                                "--threads", "1", "--seed", str(self.mc_seed)], out_dir)
        self.first: dict[str, dict] = {}

    def ops(self):
        def sweep(argv, out_dir):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.run(argv)
            if rc != 0:
                raise RuntimeError(f"talab sweep exited {rc}")
            (body,) = out_dir.glob("sweep.*.json")
            (table,) = out_dir.glob("sweep_table.*.csv")
            return body.read_bytes(), table.read_bytes()

        return [(prop, lambda a=argv, d=out_dir: sweep(a, d))
                for prop, (argv, out_dir) in self.argv.items()]

    def work(self) -> int:
        return len(self.PROPS) * self.SIZE

    def fingerprint(self, name, result) -> bytes:
        return result[0] + result[1]

    def check(self, name, result):
        body = json.loads(result[0])
        self.first.setdefault(name, body)
        rows = body["rows"]
        if len(rows) != self.SIZE:
            return f"{len(rows)} rows, expected {self.SIZE}"
        if name == "P7" and "block lower bound holds" not in body["notes"]:
            return f"P7 notes: {body['notes']}"
        for row in rows:
            if name in ("P6", "S8"):
                fail = gates.regret(row["max_regret"], V_BAR)
                if fail:
                    return f"row {row['l']}: {fail}"
            if not (0.0 < row["R_mean"] < W_BAR and row["R_se"] >= 0.0):
                return f"row {row['l']}: implausible revenue {row['R_mean']}"
        return None

    def _bids(self, zero_bid):
        return [eq.solve_ode(self.weak, eq.StrongBidLaw(m, zero_bid_prob=zero_bid), N_WEAK)[0]
                for m in self.members]

    def final_checks(self) -> dict[str, str]:
        """Tournament rows against quadrature references of the solved schedules."""
        out = {}
        self.bids_p6 = self._bids(0.0)
        bids_s8 = self._bids(1.0 - P_ATOM)
        for prop, bids, p in (("P6", self.bids_p6, 1.0), ("S8", bids_s8, P_ATOM)):
            if prop not in self.first:
                continue
            for row, bid, member in zip(self.first[prop]["rows"], bids, self.members):
                ref = tournament_revenue(bid, N_WEAK, member, p)
                fail = gates.within_z(row["R_mean"], row["R_se"], ref)
                if fail:
                    out[prop] = f"row {row['l']}: {fail}"
                    break
        return out

    def gate_ops(self):
        def draws():
            member = self.members[-1]
            spec = mechanisms.AuctionSpec("ta", N_WEAK, self.weak, member,
                                          bid_fn=self.bids_p6[-1])
            one = mechanisms.simulate_draws(spec, self.THREAD_N, self.mc_seed, threads=1)
            two = mechanisms.simulate_draws(spec, self.THREAD_N, self.mc_seed, threads=2)
            return gates.identical(np.stack(one), np.stack(two), "simulate threads=2")

        return [("threads_simulate", draws)]


WORKLOADS = {w.name: w for w in (Sweep, McUniform, SolveGrid)}
