"""Run one workload over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 clusterbench/spread.py --workload cold_release --seeds 1 2 3 4 5

Each seed runs ``clusterbench/run.py`` once, in sequence.  For every metric
the report gives the median of the per-run values and their spread: the
distance between the first and third quartile (``statistics.quantiles``,
``n=4``) as a share of the median.  ``BENCHMARK.json`` supplies the
default run length and the bounds the spreads are held against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> float:
    """Interquartile range over the median (0 when the median is 0)."""
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric.get("bound")
              for metric in spec["end_to_end"]}
    values = {}
    failures = 0
    for seed in args.seeds:
        start = time.monotonic()
        completed = subprocess.run(
            [sys.executable, str(ROOT / "clusterbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        wall = time.monotonic() - start
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = completed.returncode == 0 and result.get("correct") is True
        failures += not ok
        print(f"seed {seed}: exit {completed.returncode} correct "
              f"{result.get('correct')} attempted {result.get('attempted')} "
              f"wall {wall:.1f}s", flush=True)
        if not ok:
            print(completed.stderr[-2000:], file=sys.stderr)
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
        print("    " + " ".join(f"{name}={metric['value']:.4g}" for name, metric
                                in result.get("metrics", {}).items()),
              flush=True)
    for name, series in values.items():
        if len(series) < 2:
            continue
        bound = bounds.get(name)
        share = spread(series)
        verdict = ""
        if bound:
            verdict = "ok" if share < bound / 3 else (
                "within bound" if share <= bound else "OVER BOUND")
        print(f"{name:34s} median {statistics.median(series):12.6g} "
              f"spread {share:7.4f} bound {bound} {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
