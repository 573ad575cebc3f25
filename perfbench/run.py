"""talab benchmark: one workload, timed from outside the library.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics: set-up time (median over fresh
interpreters) and the mean time of one pass, both in reference seconds (wall
time rescaled by the host's measured speed, see calib.py), work per reference
second and peak resident memory. ``--trace 1`` alternates untraced and traced
passes and prints per-layer self times and counts from the traced ones, plus
the tracing overhead. Every operation is gated; the last stdout line is the
JSON result. README.md maps each metric to its layer and workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

import calib
import gates
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_PASSES = 3

# per-layer metric -> unit, as BENCHMARK.json declares them; ".self_s" names
# read a span's self time, the others a counter, except those computed in
# layer_metrics
PER_LAYER = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def metadata() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    import numpy
    import scipy

    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def time_setups(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, reference) seconds from spawning a fresh interpreter until its
    set-up reports ready, each rescaled by the reference interpreters spawned
    just before and just after it (calib.py)."""
    setup = [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)]
    times = []
    before = calib.time_ready(calib.INTERPRETER, ROOT)
    for _ in range(SETUP_REPEATS):
        elapsed = calib.time_ready(setup, ROOT)
        after = calib.time_ready(calib.INTERPRETER, ROOT)
        times.append((elapsed, calib.interpreter_to_ref(elapsed, before, after)))
        before = after
    return times


class Run:
    """Timed passes over one workload, with every operation gated."""

    def __init__(self, wl):
        self.wl = wl
        self.ops = wl.ops()
        self.attempted = 0
        self.failures: dict[tuple, str] = {}    # (pass number or "gate", name) -> why
        self._first: dict[str, bytes] = {}
        self._passes = 0

    def one_pass(self) -> tuple[float, float]:
        """Run every operation once; return the pass's wall and reference seconds."""
        results = []
        wall = ref = 0.0
        gc.collect()
        before = calib.sample()
        for name, fn in self.ops:
            t0 = time.perf_counter()
            try:
                results.append((name, fn()))
            except Exception as exc:  # a raising operation is a failed one
                results.append((name, exc))
            dt = time.perf_counter() - t0
            after = calib.sample()
            wall += dt
            ref += calib.to_ref(dt, before, after)
            before = after
        self._passes += 1
        for name, result in results:
            self.attempted += 1
            if isinstance(result, Exception):
                fail = f"raised {result!r}"
            else:
                fp = self.wl.fingerprint(name, result)
                fail = self.wl.check(name, result) or gates.identical(
                    fp, self._first.setdefault(name, fp), "result across passes")
            if fail:
                self.failures[(self._passes, name)] = fail
        return wall, ref

    def finish(self):
        """Once-per-run reference gates and the extra gate operations."""
        try:
            finals = self.wl.final_checks()
        except Exception as exc:
            finals = {name: f"reference check raised {exc!r}" for name, _ in self.ops}
        for name, fail in finals.items():
            # outputs repeat exactly, so a wrong output fails in every pass
            for p in range(1, self._passes + 1):
                self.failures.setdefault((p, name), fail)
        for name, fn in self.wl.gate_ops():
            self.attempted += 1
            try:
                fail = fn()
            except Exception as exc:
                fail = f"raised {exc!r}"
            if fail:
                self.failures[("gate", name)] = fail


def timed_passes(seconds: float, one_pass) -> None:
    """Call one_pass until the next pass would end after ``seconds``."""
    start = time.perf_counter()
    passes = 0
    while True:
        t0 = time.perf_counter()
        one_pass()
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and now + (now - t0) > start + seconds:
            return


def layer_metrics(tracer, scale: float) -> dict[str, float]:
    """Per-layer values of one traced pass; times in reference seconds."""
    selfs = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = selfs.get(name[: -len(".self_s")], 0.0) * scale
        else:
            out[name] = float(counts.get(name, 0))
    nodes = counts.get("equilibrium.solve_ode.nodes", 0)
    out["equilibrium.rhs_evals_per_node"] = (
        counts.get("equilibrium.eval3.calls", 0) / nodes if nodes else 0.0)
    out["equilibrium.max_ode_residual"] = tracer.max_residual
    return out


def _rounded(xs) -> list[float]:
    return [round(x, 3) for x in xs]


def measure(cls, args, workdir: Path) -> tuple[dict, Run, list[str]]:
    lines = [f"workload {cls.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}"]
    if not args.trace:
        setups = time_setups(args.workload, args.seed)
        run = Run(cls(args.seed, workdir))
        passes = []
        timed_passes(args.seconds, lambda: passes.append(run.one_pass()))
        run.finish()
        wall = statistics.fmean(w for w, _ in passes)
        ref = statistics.fmean(r for _, r in passes)
        work = run.wl.work()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup = statistics.median(r for _, r in setups)
        metrics = {
            "setup_s": (setup, "s"),
            "wall_ref_s": (ref, "s"),
            "work_per_ref_s": (work / ref, "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        lines += [
            f"  setup_s         {setup:.4f} s   median of {len(setups)} fresh "
            f"interpreters {_rounded(r for _, r in setups)} (reference seconds)",
            f"  wall_ref_s      {ref:.4f} s   mean of {len(passes)} passes "
            f"{_rounded(r for _, r in passes)} (reference seconds)",
            f"  {cls.unit}_per_s {work / ref:.6g} {cls.unit}/s   "
            f"(work_per_ref_s; {work} {cls.unit} per pass)",
            f"  peak_rss_mb     {rss_mb:.1f} MB",
            f"  wall_s          {wall:.4f} s   as measured, host at {wall / ref:.2f}x "
            f"the reference time {_rounded(w for w, _ in passes)}",
            f"  setup wall      {_rounded(w for w, _ in setups)} s as measured",
        ]
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, run, lines

    tracer = Tracer().install()
    try:
        wl = cls(args.seed, workdir)
    finally:
        tracer.restore()
    construct_s = tracer.self_times().get("dist.construct", 0.0)
    setup_spans = tracer.dump()
    run = Run(wl)
    plain, traced, layers = [], [], []

    def alternate():
        if len(plain) <= len(traced):
            plain.append(run.one_pass())
            return
        tracer.reset()
        tracer.install()
        try:
            wall, ref = run.one_pass()
        finally:
            tracer.restore()
        traced.append(ref)
        layers.append(layer_metrics(tracer, ref / wall))

    timed_passes(args.seconds, alternate)   # at least one traced pass
    run.finish()
    # means over the traced passes, as for wall_ref_s; counts repeat exactly
    per_layer = {k: statistics.fmean(m[k] for m in layers) for k in PER_LAYER}
    per_layer["dist.construct.self_s"] = construct_s
    per_layer["trace.wall_s"] = statistics.fmean(traced)
    per_layer["trace.overhead_s"] = (statistics.fmean(traced)
                                     - statistics.fmean(r for _, r in plain))
    trace_file = workdir.parent / f"trace.{cls.name}.s{args.seed}.json"
    trace_file.write_text(json.dumps({"setup": setup_spans, "last_pass": tracer.dump()}))
    lines.append(f"  {len(plain)} untraced, {len(traced)} traced passes; spans in "
                 f"{trace_file.relative_to(ROOT)}")
    lines += [f"  {k:42s} {per_layer[k]:.6g} {u}" for k, u in PER_LAYER.items()]
    return {k: {"value": per_layer[k], "unit": u} for k, u in PER_LAYER.items()}, run, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "mc_uniform", "solve_grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "talab" / "__init__.py").is_file():
        print(f"error: no talab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore", RuntimeWarning)  # model-assumption notes
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, workdir)
            print("ready", flush=True)
            return 0
        metrics, run, lines = measure(WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run.failures)
    lines.append(f"  failed_frac  {failed / run.attempted:.4g}   ({failed} of "
                 f"{run.attempted} operations)")
    lines += [f"  FAILED pass {p} {name}: {why}"
              for (p, name), why in list(run.failures.items())[:20]]
    print("meta " + json.dumps(metadata(), sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
