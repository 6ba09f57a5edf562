"""Run-to-run spread of the benchmark: one run per seed, one at a time.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds 30]

For each end-to-end metric, and for the printed `raw_wall_s`,
`raw_setup_s`, `cal_s` and `refused_cases` lines, prints the median of the
runs and their spread: the
distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. Exits 1 if
a run fails or prints an incorrect result.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PRINTED_LINES = ("raw_wall_s", "raw_setup_s", "cal_s", "refused_cases")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent, timeout=200,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in lines:
            words = line.split()
            if words and words[0] in PRINTED_LINES:
                values.setdefault(words[0], []).append(float(words[1]))
        print(f"seed {seed}: " + " ".join(
            f"{name}={series[-1]:.4g}" for name, series in values.items()), flush=True)
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{args.workload} {name} median {median:.4g} spread {spread:.3f} "
              f"min {min(series):.4g} max {max(series):.4g} runs {len(series)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
