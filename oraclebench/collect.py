"""Run the benchmark once per seed on each workload and summarise each metric
by its median and quartiles across the seeds.

    python3 oraclebench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 --save

The spread of a metric is (Q3 - Q1) / median, with quartiles as
statistics.quantiles(values, n=4) gives them. Each spread is printed next to
the metric's bound in BENCHMARK.json. With --save the summary replaces the
`end_to_end` (or, with --trace 1, `per_layer`, or the one --section names)
entry of each workload in baseline.json; the other entries are kept.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
BENCHMARK = HERE.parent / "BENCHMARK.json"
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def composition(name: str) -> dict:
    """What one pass of the workload runs."""
    wl = bench.WORKLOADS[name]
    records = sum(wl.counts.values())
    return {
        "why": wl.why,
        "instances": {kind: {"count": n, "size": bench.SIZES[kind]} for kind, n in wl.counts.items()},
        "modelspace_run": f"--pipeline {wl.pipeline} --use-case {wl.use_case} "
                          "--provider mock-oracle --preset paper",
        "records_per_pass": records,
        "verdict_tail": {"percentile": bench.tail_percentile(records), "samples": records},
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stdout}")
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", action="store_true")
    parser.add_argument("--section", help="baseline.json entry to write (default: "
                        "end_to_end, or per_layer with --trace 1)")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    section = args.section or ("per_layer" if args.trace else "end_to_end")
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}

    for workload in workloads:
        values: dict[str, list[float]] = {}
        units = {}
        for seed in args.seeds:
            result = run_once(workload, seed, seconds, args.trace)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                if n in bounds or args.trace == 0), flush=True)
        summary = {name: {"unit": units[name], **summarise(v)} for name, v in values.items()}
        print(f"{workload}: median [Q1, Q3] spread / bound over seeds {args.seeds}")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + (
                "  (spread above a third of the bound)" if s["spread"] > bound / 3 else "")
            print(f"  {name:<40} {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                  f"{s['spread']:.3f}{flag}")
        if args.save:
            entry = baseline.setdefault("workloads", {}).setdefault(workload, {})
            entry["composition"] = composition(workload)
            entry[section] = {"seeds": args.seeds, "seconds": seconds, "metrics": summary}
            BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
