"""Steadiness mode: repeat one workload on several seeds and summarise.

    python3 perfbench/steady.py --workload score_large [--runs 10] [--out summary.json]

Each run is `perfbench/run.py` with its own seed (1, 2, ..., runs), one
after another.  For every metric this prints the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, i.e. the
distance between the quartiles as a share of the median, against the
metric's bound in BENCHMARK.json.  A metric is steady when its spread is
below a third of its bound.
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


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    values: dict[str, list[float]] = {}
    failures = 0
    elapsed: list[float] = []
    for seed in range(1, args.runs + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        elapsed.append(time.perf_counter() - start)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "metrics": {}}
        if proc.returncode != 0 or not result["correct"]:
            failures += 1
            print(f"seed {seed}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({elapsed[-1]:.1f} s): " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in list(result["metrics"].items())[:8]), flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"workload": args.workload, "runs": args.runs, "failed_runs": failures,
               "seconds": spec["run_seconds"], "elapsed_s": elapsed, "metrics": {}}
    print(f"\nelapsed per run: median {statistics.median(elapsed):.1f} s, "
          f"max {max(elapsed):.1f} s")
    print(f"\n{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    steady = True
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        s = summarise(vals)
        bound = bounds.get(name)
        s["bound"] = bound
        summary["metrics"][name] = s
        flag = ""
        if bound is not None:
            flag = "steady" if s["spread"] < bound / 3 else (
                "within bound" if s["spread"] <= bound else "TOO WIDE")
            steady &= s["spread"] <= bound
        print(f"{name:<44} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
              f"{s['spread']:>8.4f} {bound if bound is not None else '':>6} {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if steady and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
