"""Compare two sets of benchmark results recorded with ``run.py --record``.

    python3 perfbench/compare.py parent.jsonl change.jsonl

For each workload and end-to-end metric it prints both sides' median and
quartiles and the change of the median, marking a change worse than the
metric's bound in ``BENCHMARK.json``.  Results from machines with different
fingerprints (CPU count, Python, numpy, scipy, platform) are reported as
"not comparable" and nothing else is compared.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    lines = Path(path).read_text().splitlines()
    return [entry for entry in map(json.loads, lines) if entry["trace"] == 0]


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    if not before or not after:
        print("nothing to compare: a file holds no untraced (--trace 0) results")
        return 2
    fingerprints = {json.dumps(e["fingerprint"], sort_keys=True) for e in before + after}
    if len(fingerprints) != 1:
        print("not comparable: results come from different machines")
        for fingerprint in sorted(fingerprints):
            print(f"  {fingerprint}")
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressions = 0
    for workload in sorted({e["workload"] for e in before} & {e["workload"] for e in after}):
        print(f"{workload}: {sum(e['workload'] == workload for e in before)} vs "
              f"{sum(e['workload'] == workload for e in after)} runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = [
                summary([e["metrics"][name]["value"] for e in runs if e["workload"] == workload])
                for runs in (before, after)
            ]
            (_, m0, _), (_, m1, _) = sides
            change = (m1 - m0) / m0 if m0 else 0.0
            worse = change if metric["better"] == "lower" else -change
            flag = "REGRESSION" if worse > metric["bound"] else ""
            regressions += bool(flag)
            print(f"  {name:<16} {sides[0][1]:>12.5g} [{sides[0][0]:.5g}, {sides[0][2]:.5g}]"
                  f" -> {sides[1][1]:>12.5g} [{sides[1][0]:.5g}, {sides[1][2]:.5g}]"
                  f" {change:+.1%} {flag}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
