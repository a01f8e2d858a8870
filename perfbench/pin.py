"""Pin the seed-0 outputs of compile-online and map-paper64 as expected values.

Run from the repository root, only after an intentional change to what the
compiler computes (as with ``benchmarks/golden/regenerate.py``)::

    python3 perfbench/pin.py

The benchmark checks every unit it runs at seed 0 against these outputs.
"""

import json
import sys

import run

#: Units pinned per workload: enough for runs of up to about 45 seconds.
PINNED_UNITS = {"compile-online": 8, "map-paper64": 4}


def main() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    pinned = {}
    for name, units in PINNED_UNITS.items():
        cls = run.WORKLOADS[name]
        workload = cls(0, units * cls.nominal_unit_s)
        workload.setup()
        workload.expected = []
        outputs = []
        for unit in run.run_units(workload):
            if unit.failed:
                sys.exit(f"{name}: a unit failed its invariants; nothing pinned")
            outputs.append(unit.outputs)
        pinned[name] = {"0": outputs}
        print(f"{name}: {len(outputs)} units pinned", flush=True)
    path = run.BENCH_DIR / "expected.json"
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
