"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads sweep mc_uniform --seeds 1-10 [--trace 1]
        [--trajectory perfbench/trajectory.json --label TEXT]

Each run lasts BENCHMARK.json's ``run_seconds``. For each workload and metric
it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, which BENCHMARK.json's bounds are judged against. ``--trajectory``
appends the summaries, with the run metadata, as one labelled point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trajectory", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report, meta = {}, None
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            meta = meta or next((json.loads(ln[5:]) for ln in lines if ln.startswith("meta ")),
                                None)
            result["seed"], result["run_s"] = seed, time.perf_counter() - t0
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"run {result['run_s']:.1f} s", flush=True)
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        report[workload] = summary
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + (
                "  OVER a third" if s["spread"] > bound / 3 else "")
            print(f"  {name:42s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}{flag}")
    if args.trajectory:
        points = json.loads(args.trajectory.read_text()) if args.trajectory.exists() else []
        points.append({
            "label": args.label, "meta": meta, "seconds": bench["run_seconds"],
            "seeds": args.seeds, "trace": args.trace,
            "workloads": {w: {name: {k: s[k] for k in ("median", "q1", "q3", "spread")}
                              for name, s in by_metric.items()}
                          for w, by_metric in report.items()},
        })
        args.trajectory.write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
