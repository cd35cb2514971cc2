"""Steadiness check: repeat the benchmark over seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workloads eval_zoo gateway_http --seeds 1 2 3 4 5

Runs every workload once per seed, one run at a time, then reruns the
first seed.  For each end-to-end metric it prints the median and the
distance between the first and third quartile as a share of the median,
next to a third of the metric's bound from ``BENCHMARK.json``.  It exits
non-zero when a spread (other than ``setup_s``'s) exceeds its bound, or
when the exact work counters, or ``ok_pct``, ``ex_pct``, ``em_pct`` and
``tokens_per_query``, differ between the two runs of the first seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import quartile_spread  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("ok_pct", "ex_pct", "em_pct", "tokens_per_query")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One benchmark run: (final result line, detail document)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit status {done.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=None, help="write every run's figures to this JSON file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failures: list[str] = []
    everything: dict = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, detail = run_once(workload, seed, args.seconds)
            runs.append((seed, result, detail))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()
            ), flush=True)
        first_seed = args.seeds[0]
        repeat, repeat_detail = run_once(workload, first_seed, args.seconds)
        first = runs[0]
        if repeat_detail["counters"] != first[2]["counters"]:
            failures.append(f"{workload}: counters differ on seed {first_seed}:"
                            f" {first[2]['counters']} vs {repeat_detail['counters']}")
        for name in EXACT:
            if repeat["metrics"][name]["value"] != first[1]["metrics"][name]["value"]:
                failures.append(f"{workload}: {name} differs on seed {first_seed}")
        everything[workload] = [
            {"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()},
             "counters": detail["counters"], "host": detail["host"]}
            for seed, result, detail in runs
        ]
        print(f"\n{workload}: {len(runs)} seeds, counters repeat on seed {first_seed}:"
              f" {repeat_detail['counters'] == first[2]['counters']}")
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for _, result, _ in runs]
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            mark = "ok" if spread <= bound / 3 else ("WITHIN BOUND" if spread <= bound else "TOO WIDE")
            if spread > bound and name != "setup_s":
                failures.append(f"{workload}: {name} spread {spread:.4f} > bound {bound}")
            print(f"  {name:18s} median {statistics.median(values):12.5g}"
                  f"  spread {spread:7.4f}  bound/3 {bound / 3:7.4f}  {mark}")
        print()
    if args.out:
        Path(args.out).write_text(json.dumps(everything, indent=1))
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
