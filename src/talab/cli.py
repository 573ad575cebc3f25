"""Command-line front end.

Subcommands: solve, verify, simulate, oa, sweep, check-family, report.
Each run reads and checks its config once, for its subcommand (``load_config``
refuses all that the config decides), then the subcommand only computes and
writes its files through the run's ``Outputs`` (which names them). Files are
written atomically (temp file + rename), and bodies contain nothing volatile,
so reruns with the same config are byte-identical. Wall-clock metadata goes
to a separate meta file.

Exit codes: 0 success, 2 config error (a config, or a ``report`` input, that
cannot be read or breaks a rule), 3 numeric failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config, read_json
from .dist import DistributionError
from .equilibrium import (
    BandEscape,
    BidFunction,
    EquilibriumError,
    InputError,
    StrongBidLaw,
    solve_ode,
    verify_best_response,
)
from .mechanisms import AuctionSpec, estimate, simulate_draws
from .myerson import oa_revenue, regularity_check, single_buyer_reserve
from .sequences import run_limit_experiment

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_NUMERIC_ERRORS = (EquilibriumError, InputError, DistributionError)


class VerificationFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def _atomic_write(path: str, data: bytes):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def write_json(path: str, obj: dict):
    body = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    _atomic_write(path, body.encode("utf-8"))


def write_csv(path: str, header: list[str], rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(x) for x in row])
    _atomic_write(path, buf.getvalue().encode("utf-8"))


def _fmt_cell(x):
    if isinstance(x, float):
        return repr(x)
    return x


class Outputs:
    """The files of one run. Each is ``<stem>.<config hash>.s<seed>.<ext>`` in
    the output directory, which is made at the first write; a JSON body also
    carries ``config_hash`` and ``seed``. ``files`` maps each file's name in
    the stdout listing to its path."""

    def __init__(self, out_dir: str, cfg: ExperimentConfig):
        self.out_dir = out_dir
        self.tag = f"{cfg.config_hash}.s{cfg.mc_seed}"
        self.header = {"config_hash": cfg.config_hash, "seed": cfg.mc_seed}
        self.files: dict[str, str] = {}

    def _path(self, name: str, stem: str, ext: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        self.files[name] = os.path.join(self.out_dir, f"{stem}.{self.tag}.{ext}")
        return self.files[name]

    def json(self, name: str, stem: str, body: dict):
        write_json(self._path(name, stem, "json"), {**self.header, **body})

    def csv(self, name: str, stem: str, header: list[str], rows):
        write_csv(self._path(name, stem, "csv"), header, rows)


def _estimate_dict(est) -> dict:
    return {"mean": est.mean, "se": est.std_error, "n": est.n, "seed": est.seed}


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _solve_report_dict(report) -> dict:
    # a failed solve reports a nan defect (and an inf smallest step if it
    # accepted none); JSON has neither, so they are written as null
    out = {k: None if isinstance(v, float) and not math.isfinite(v) else v
           for k, v in dataclasses.asdict(report).items()}
    out["warnings"] = list(report.warnings)
    return out


def _solve_and_write(cfg: ExperimentConfig, out: Outputs) -> tuple[BidFunction, list[str]]:
    """Solve against ``strong.dist`` and write the bid outputs. A solve that
    stops on a step-size underflow still writes its solve report (counters up
    to the failure, ``max_ode_residual`` null) before the error propagates."""
    try:
        bid, report = solve_ode(cfg.weak, cfg.strong_dist, cfg.n_weak, cfg.solver)
    except BandEscape as exc:
        if exc.report is not None:
            out.json("solve_report", "solve_report", _solve_report_dict(exc.report))
        raise
    out.csv("bid_csv", "bid_function", ["v", "b", "b_prime"], bid.csv_rows())
    out.json("bid_json", "bid_function", {"bid_function": bid.to_json_dict()})
    out.json("solve_report", "solve_report", _solve_report_dict(report))
    return bid, list(report.warnings)


# ---------------------------------------------------------------------------
# subcommands: each computes, writes through ``out`` and returns its warnings
# ---------------------------------------------------------------------------


def cmd_solve(cfg: ExperimentConfig, args, out: Outputs) -> list[str]:
    return _solve_and_write(cfg, out)[1]


def cmd_verify(cfg: ExperimentConfig, args, out: Outputs) -> list[str]:
    bid, notes = _solve_and_write(cfg, out)
    br = verify_best_response(bid, cfg.weak, cfg.strong_dist, cfg.n_weak)
    tol = cfg.verify_tolerance * cfg.weak.support.hi
    passed = br.max_regret <= tol
    out.json("best_response", "best_response", {
        "max_regret": br.max_regret,
        "worst_pair": list(br.worst_pair),
        "grid_shape": list(br.grid_shape),
        "max_argmax_offset": br.max_argmax_offset,
        "tolerance": tol,
        "passed": passed,
    })
    if not passed:
        raise VerificationFailure(
            f"max_regret {br.max_regret:.3g} exceeds tolerance {tol:.3g}"
        )
    return notes


def cmd_simulate(cfg: ExperimentConfig, args, out: Outputs) -> list[str]:
    mechanism = cfg.mechanism
    if args.per_draw and cfg.mc_n > 10_000:
        raise ConfigError([("mc.n", "per-draw output is limited to n <= 10000")])
    strong = cfg.strong_atom if mechanism == "ta_discrete" else cfg.strong_dist
    bid, notes = None, []
    if mechanism in ("ta", "ta_intervention"):
        law = strong
        if mechanism == "ta_intervention":
            law = StrongBidLaw(strong, zero_bid_prob=1.0 - cfg.intervention_p)
        bid, report = solve_ode(cfg.weak, law, cfg.n_weak, cfg.solver)
        notes = list(report.warnings)
    spec = AuctionSpec(mechanism, cfg.n_weak, cfg.weak, strong, reserve=cfg.reserve,
                       intervention_p=cfg.intervention_p, bid_fn=bid)
    rev, sur = simulate_draws(spec, cfg.mc_n, cfg.mc_seed, threads=args.threads)
    out.json("result", "simulate", {
        "mechanism": mechanism,
        "revenue": _estimate_dict(estimate(rev, cfg.mc_seed)),
        "surplus": _estimate_dict(estimate(sur, cfg.mc_seed)),
    })
    if args.per_draw:
        out.csv("draws", "draws", ["replicate", "revenue", "surplus"],
                ((i, float(r), float(s)) for i, (r, s) in enumerate(zip(rev, sur))))
    return notes


def cmd_oa(cfg: ExperimentConfig, args, out: Outputs) -> list[str]:
    strong = cfg.strong_dist
    weak = cfg.weak
    est = oa_revenue(weak, strong, cfg.n_weak, cfg.mc_n, cfg.mc_seed, threads=args.threads)
    out.json("result", "oa", {
        "revenue": est.mean,
        "se": est.std_error,
        "n": est.n,
        "regular_F": regularity_check(weak) if weak is not None else None,
        "regular_G": regularity_check(strong) if strong is not None else None,
        "reserve_single_buyer": single_buyer_reserve(strong) if strong is not None else None,
    })
    return []


_TABLE_HEADER = ["l", "R_mean", "R_se", "S_mean", "S_se", "target", "gap",
                 "solver_method", "max_regret"]


def cmd_sweep(cfg: ExperimentConfig, args, out: Outputs) -> list[str]:
    table = run_limit_experiment(cfg.sweep_prop, cfg.family, cfg.weak, cfg.n_weak,
                                 rule=cfg.sweep_rule, n=cfg.mc_n, seed=cfg.mc_seed,
                                 threads=args.threads, intervention_p=cfg.sweep_intervention_p,
                                 solver=cfg.solver)
    rows = [r.as_dict() for r in table.rows]
    out.csv("table", "sweep_table", _TABLE_HEADER,
            ([row[k] for k in _TABLE_HEADER] for row in rows))
    out.json("result", "sweep", {
        "prop": table.prop,
        "target": table.target,
        "gap": table.gap,
        "extrapolated": table.extrapolated,
        "notes": list(table.notes),
        "rows": rows,
    })
    return []


def cmd_check_family(cfg: ExperimentConfig, args, out: Outputs) -> list[str]:
    from .sequences import check_atom_convergence, check_low_drain

    atom = check_atom_convergence(cfg.family)
    drain = check_low_drain(cfg.family)
    out.json("result", "family_checks", {
        "atom_convergence": {"tol": atom["tol"], "masses": atom["masses"],
                             "passed": atom["passed"]},
        "low_drain": {
            "pairs": [list(p) for p in drain["pairs"]],
            "ratios": {f"{c1:.6g},{c2:.6g}": v for (c1, c2), v in drain["ratios"].items()},
            "cond_means": {f"{c2:.6g}": v for c2, v in drain["cond_means"].items()},
            "eq4_passed": drain["eq4_passed"],
            "cond_passed": drain["cond_passed"],
            "trend_agreement": drain["trend_agreement"],
        },
    })
    out.csv("table", "family_masses", ["l", "atom_mass"],
            ((l + 1, m) for l, m in enumerate(atom["masses"])))
    return []


def cmd_report(args):
    """Print a summary of a result JSON; refuse, as a config error naming the
    file, one that is not an object with a field in the form talab writes."""
    obj = read_json(args.input)
    problem = "not an object with a field to report"
    try:
        lines = _report_lines(obj) if isinstance(obj, dict) else []
    except (LookupError, TypeError, ValueError) as exc:
        lines, problem = [], f"{type(exc).__name__}: {exc}"
    if not lines:
        raise ConfigError([("", f"{args.input} is not a talab result: {problem}")])
    print("\n".join([f"report for {args.input}", *lines]))


def _report_lines(obj: dict) -> list[str]:
    lines = []
    for key in ("config_hash", "seed", "mechanism", "prop"):
        if key in obj:
            lines.append(f"  {key}: {obj[key]}")
    if "revenue" in obj and isinstance(obj["revenue"], dict):
        r = obj["revenue"]
        lines.append(f"  revenue: {r['mean']:.6g} +- {r['se']:.2g} (n={r['n']})")
    elif "revenue" in obj:
        lines.append(f"  revenue: {obj['revenue']:.6g} +- {obj.get('se', 0):.2g}")
    if "surplus" in obj and isinstance(obj["surplus"], dict):
        s = obj["surplus"]
        lines.append(f"  surplus: {s['mean']:.6g} +- {s['se']:.2g}")
    if "accepted_steps" in obj:
        defect = obj["max_ode_residual"]
        lines.append("  solve: " + ("failed (step size underflow)" if defect is None
                                    else f"max defect bound {defect:.3g}")
                     + f", series start v0 = {obj['v0']:.6g}")
        smallest = ("none" if obj["min_step"] is None
                    else "{min_step:.3g} at v = {min_step_v:.6g}".format(**obj))
        lines.append("  steps: {accepted_steps} accepted; rejected {rejected_error} error, "
                     "{rejected_band} band, {rejected_residual} defect; smallest "
                     .format(**obj) + smallest)
    if "max_regret" in obj:
        lines.append(f"  max_regret: {obj['max_regret']:.3g} "
                     f"(passed: {obj.get('passed')})")
    if "rows" in obj:
        lines.append(f"  rows: {len(obj['rows'])}, target {obj.get('target'):.6g}, "
                     f"final gap {obj.get('gap'):.6g}")
        for row in obj["rows"]:
            lines.append(f"    l={row['l']}: R={row['R_mean']:.6g} "
                         f"S={row['S_mean']:.6g} gap={row['gap']:.6g}")
    if "atom_convergence" in obj:
        a = obj["atom_convergence"]
        lines.append(f"  atom masses -> {a['masses'][-1]:.4f} (passed: {a['passed']})")
        d = obj["low_drain"]
        lines.append(f"  drain: eq4={d['eq4_passed']} cond={d['cond_passed']} "
                     f"agree={d['trend_agreement']}")
    return lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_DISPATCH = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "oa": cmd_oa,
    "sweep": cmd_sweep,
    "check-family": cmd_check_family,
}


def _dispatch(cfg: ExperimentConfig, args, out: Outputs) -> list[str]:
    """The subcommand's warnings. The one refusal of a config that only a run
    can make, an ``mc.n`` whose per-replicate outputs cannot be allocated, is
    filed at ``mc.n``."""
    try:
        return _DISPATCH[args.command](cfg, args, out)
    except InputError as exc:
        if exc.field != "n":
            raise
        raise ConfigError([("mc.n", str(exc))]) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talab",
        description="numerical laboratory for two-stage tournament auctions",
    )
    parser.add_argument("--version", action="version", version=f"talab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's Monte Carlo seed")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out-dir", default=".", help="output directory")
    sub.choices["simulate"].add_argument("--per-draw", action="store_true",
                                         help="also write per-draw CSV (n <= 10000)")
    rep = sub.add_parser("report")
    rep.add_argument("input", help="a result JSON produced by another subcommand")
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        if args.command == "report":
            cmd_report(args)
            return 0
        cfg = load_config(args.config, args.command, args.seed)
        out = Outputs(args.out_dir, cfg)
        notes = _dispatch(cfg, args, out)
    except ConfigError as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except VerificationFailure as exc:
        _emit_error("verification", exc)
        return EXIT_VERIFY
    except _NUMERIC_ERRORS as exc:
        _emit_error("numeric", exc)
        return EXIT_NUMERIC

    listing = sorted(out.files.items())
    out.json("run_meta", "run_meta", {
        "command": args.command,
        "wall_time_s": time.monotonic() - t0,
        "talab_version": __version__,
        "numpy_version": np.__version__,
    })
    for name, path in listing:
        print(f"{name}: {path}")
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    return 0


def _emit_error(kind: str, exc: Exception):
    payload = {"error": {"type": kind, "message": str(exc)}}
    if isinstance(exc, ConfigError):
        payload["error"]["violations"] = [
            {"path": path, "message": msg} for path, msg in exc.errors
        ]
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
