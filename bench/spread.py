#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload numerics --seeds 1-10 [--trace 0]

Runs one seed at a time with BENCHMARK.json's run_seconds and prints, per
metric, the median of the runs and the distance between the first and
third quartiles (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound.  Writes the runs and the summary to
.bench_work/spread/<workload>-trace<t>.json; with --record, also stores the
summary and the first run's environment in bench/baseline.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--record", action="store_true", help="store the summary in bench/baseline.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}", flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "spread": spread, "bound": bounds.get(name), "values": values}
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
        print(f"{name:42s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}{flag}")
    out_dir = ROOT / ".bench_work" / "spread"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    if args.record:
        path = ROOT / "bench" / "baseline.json"
        baseline = json.loads(path.read_text()) if path.exists() else {}
        record = json.loads((ROOT / ".bench_work" / "results" / f"{args.workload}-seed{args.seeds[0]}-trace{args.trace}.json").read_text())
        baseline.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "environment": record["environment"],
            "seeds": args.seeds,
            "runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed")} for r in runs],
            "metrics": {k: {x: v[x] for x in ("median", "spread", "values")} for k, v in summary.items()},
        }
        path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
