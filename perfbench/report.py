"""Traced runs of every workload, side by side.

Usage, from the repository root::

    python3 perfbench/report.py --seed 1 --seconds 30

Runs ``run.py --trace 1`` once per workload, one after another, and
prints each per-layer metric in one column per workload, then the three
ROADMAP re-anchor findings as measured from outside the engine. Exits 1
if any run fails its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import FINDINGS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("read-hot", "publish", "read-write")


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"{workload}: run failed with exit code {completed.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    results = {w: traced_run(w, args.seed, args.seconds) for w in WORKLOADS}
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'per-layer metric':<44}" + "".join(f"{w:>14}" for w in WORKLOADS) + "  unit")
    for name in names:
        cells = "".join(f"{results[w]['metrics'][name]['value']:>14.4f}" for w in WORKLOADS)
        print(f"{name:<44}{cells}  {results[WORKLOADS[0]]['metrics'][name]['unit']}")
    print()
    print(f"{'re-anchor finding':<36}{'workload':<12}{'measured':>12}  re-anchor")
    for finding, workload, name, anchor in FINDINGS:
        metric = results[workload]["metrics"][name]
        value = f"{metric['value']:.3f} {metric['unit']}"
        print(f"{finding:<36}{workload:<12}{value:>12}  {anchor}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
