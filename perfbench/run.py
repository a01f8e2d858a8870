"""OnePerc benchmark: one seeded workload per run, outputs checked, metrics printed.

Run from the repository root::

    python3 perfbench/run.py --workload compile-online --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics, from a second, traced pass
over the same inputs (see ``perfbench/layers.py``).  A ``fingerprint``
line before it records the machine; ``perfbench/compare.py`` compares
only results whose fingerprints match.

Each run is one process driving one request at a time (a closed loop).
A run executes a fixed number of units of work, ``round(seconds / nominal
unit seconds)`` and at least one, so every commit does the same work for
the same ``--seed`` and ``--seconds``.  The workloads, why each was chosen
and which layer metric should move which end-to-end metric are in
``perfbench/predictions.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
GIB = 2**30


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def import_seconds() -> float:
    """Seconds to import the compiler in a fresh interpreter."""
    code = (
        "import time; start = time.perf_counter(); import repro.experiments; "
        "print(time.perf_counter() - start)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True, timeout=60
    )
    return float(out.stdout)


def warm_up() -> None:
    """Compile a 4-qubit program so lazy imports finish before timing."""
    from repro import Pipeline, PipelineSettings
    from repro.circuits import make_benchmark

    Pipeline(PipelineSettings(fusion_success_rate=0.75)).compile(
        make_benchmark("qaoa", 4, seed=0), seed=0
    )


class Unit:
    """What one unit of work produced: outputs, check results, measures."""

    def __init__(self) -> None:
        self.wall = 0.0
        #: Comparable outputs: the traced pass must reproduce them exactly.
        self.outputs: dict = {}
        self.attempted = 0
        self.failed = 0
        #: Latency of each compiled (or mapped) circuit, keyed by circuit.
        self.latency: dict[str, float] = {}
        self.rsl_count = 0
        self.logical_layers = 0
        self.peak_memory_bytes = 0
        #: The pipeline's own timer, per pass, summed over the unit's compiles.
        self.pass_seconds: dict[str, float] = {}
        self.experiments: dict[str, dict] = {}

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"check failed: {what} {detail}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    #: Seconds one unit takes on the reference machine (2 CPUs, Python 3.11).
    nominal_unit_s = 1.0
    workers = 1

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.units = max(1, round(seconds / self.nominal_unit_s))

    def setup(self) -> None:
        """Input generation and reference loading; repeated, so idempotent."""

    def run_unit(self, index: int, unit: Unit) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Reproduce(Workload):
    """All registered experiments at bench scale, experiment seed 0.

    Seed 0 is the seed of the checked-in golden records, so every run is
    checked byte for byte against ``benchmarks/golden``.  The workload seed
    orders the experiments.  Other experiment seeds would change the
    Monte-Carlo work itself: a serial reproduction took 14.8 to 18.1 s over
    seeds 0 to 6, too wide a spread for a run that holds one unit.
    """

    nominal_unit_s = 13.5

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        from repro.experiments import experiment_names

        self.order = experiment_names()
        random.Random(seed).shuffle(self.order)

    def make_runner(self):
        from repro.experiments import SerialRunner

        return SerialRunner()

    def setup(self) -> None:
        from golden_records import GOLDEN_DIR, golden_canonical

        from repro.experiments import CompileJob, get_experiment

        self.golden: dict[str, str] = {}
        self.compile_jobs: dict[str, set[str]] = {}
        for name in self.order:
            if (GOLDEN_DIR / f"{name}.json").exists():
                self.golden[name] = golden_canonical(name)
            self.compile_jobs[name] = {
                job.key
                for job in get_experiment(name).build_jobs("bench", 0)
                if isinstance(job, CompileJob) and not job.baseline
            }
        warm_up()
        self.runner = self.make_runner()

    def run_unit(self, index: int, unit: Unit) -> None:
        from repro.experiments import canonical_json, get_experiment

        for name in self.order:
            records = []
            start = time.perf_counter()
            first = None
            try:
                for record in get_experiment(name).iter_records("bench", 0, self.runner):
                    if first is None:
                        first = time.perf_counter() - start
                    records.append(record)
            except Exception:
                traceback.print_exc()
                unit.check(name, False, "raised")
                continue
            elapsed = time.perf_counter() - start
            unit.experiments[name] = {
                "s": elapsed,
                "first_record_s": first,
                "jobs": len(records),
                "busy_s": sum(sum(r.timings.values()) for r in records),
            }
            text = canonical_json(records)
            unit.outputs[name] = text
            golden = self.golden.get(name)
            ok = golden is None or text == golden
            ok = ok and self.invariants(records)
            unit.check(name, ok, "records differ from benchmarks/golden or break an invariant")
            for record in records:
                fields = record.fields
                if record.job in self.compile_jobs[name]:
                    unit.latency[f"{name}/{record.job}"] = sum(record.timings.values())
                    unit.rsl_count += fields["rsl_count"]
                if isinstance(fields.get("logical_layers"), int):
                    unit.logical_layers += fields["logical_layers"]
                if isinstance(fields.get("peak_memory_bytes"), int):
                    unit.peak_memory_bytes += fields["peak_memory_bytes"]

    @staticmethod
    def invariants(records) -> bool:
        for record in records:
            rsl = record.fields.get("rsl_count")
            layers = record.fields.get("logical_layers")
            if isinstance(rsl, int) and isinstance(layers, int) and rsl < layers:
                log(f"{record.experiment}/{record.job}: {rsl} RSLs < {layers} layers")
                return False
        return True


class ReproduceProcess(Reproduce):
    """The same experiments on a warm two-worker process pool."""

    nominal_unit_s = 8.5
    workers = 2

    def make_runner(self):
        from repro.experiments import ProcessRunner, get_pool, shutdown_pools

        shutdown_pools()
        pool = get_pool("process", self.workers)
        # Two overlapping tasks make both workers start and warm up now.
        for future in [pool.submit(time.sleep, 0.2) for _ in range(self.workers)]:
            future.result()
        return ProcessRunner(max_workers=self.workers)

    def close(self) -> None:
        from repro.experiments import shutdown_pools

        shutdown_pools()


def unit_seeds(seed: int, units: int) -> list[tuple[int, int]]:
    """(circuit seed, compile seed) per unit; unit ``i`` never depends on ``units``."""
    rng = random.Random(seed)
    return [(rng.randrange(2**31), rng.randrange(2**31)) for _ in range(units)]


def load_expected(workload: str) -> dict:
    path = BENCH_DIR / "expected.json"
    return json.loads(path.read_text()).get(workload, {}) if path.exists() else {}


class CompileOnline(Workload):
    """qft-16 then qaoa-16 at fusion rate 0.75 through ``Pipeline.compile``."""

    name = "compile-online"
    nominal_unit_s = 5.5
    families = ("qft", "qaoa")
    qubits = 16

    def setup(self) -> None:
        from repro import Pipeline, PipelineSettings
        from repro.circuits import make_benchmark

        self.seeds = unit_seeds(self.seed, self.units)
        self.circuits = [
            {family: make_benchmark(family, self.qubits, seed=circuit_seed) for family in self.families}
            for circuit_seed, _ in self.seeds
        ]
        self.pipeline = Pipeline(PipelineSettings(fusion_success_rate=0.75))
        self.expected = load_expected(self.name).get(str(self.seed), [])
        warm_up()

    def run_unit(self, index: int, unit: Unit) -> None:
        compile_seed = self.seeds[index][1]
        for family in self.families:
            start = time.perf_counter()
            try:
                result = self.pipeline.compile(self.circuits[index][family], seed=compile_seed)
            except Exception:
                traceback.print_exc()
                unit.check(family, False, "raised")
                continue
            unit.latency[family] = time.perf_counter() - start
            for name, seconds in result.timings_by_pass.items():
                unit.pass_seconds[name] = unit.pass_seconds.get(name, 0.0) + seconds
            out = {
                "rsl_count": result.rsl_count,
                "fusion_count": result.fusion_count,
                "logical_layers": result.logical_layers,
            }
            unit.outputs[family] = out
            ok = result.rsl_count >= result.logical_layers
            ok = ok and result.reshape.renormalization_successes >= result.logical_layers
            if index < len(self.expected):
                ok = ok and out == self.expected[index][family]
            unit.check(family, ok, f"{out} (expected or invariant mismatch)")
            unit.rsl_count += result.rsl_count
            unit.logical_layers += result.logical_layers
            unit.peak_memory_bytes += result.metrics.get("peak_memory_bytes", 0)


class MapPaper64(Workload):
    """Table 3's 64-qubit paper-scale cells: translate -> offline-map."""

    name = "map-paper64"
    nominal_unit_s = 11.5
    qubits = 64

    def setup(self) -> None:
        from repro.experiments import table3

        self.table3 = table3
        self.seeds = unit_seeds(self.seed, self.units)
        self.budget = table3.SCALE_BUDGET["paper"]
        refresh = table3.SCALE_REFRESH["paper"]
        # (cell name, refresh period, enforced budget), as Table 3 builds them.
        self.cells = [
            (f"{family}/{mode}", family, every, budget)
            for family in table3.FAMILIES
            for mode, every, budget in (("raw", None, self.budget), ("refreshed", refresh, None))
        ]
        self.expected = load_expected(self.name).get(str(self.seed), [])
        warm_up()

    def run_unit(self, index: int, unit: Unit) -> None:
        circuit_seed = self.seeds[index][0]
        for cell, family, every, budget in self.cells:
            start = time.perf_counter()
            try:
                out = self.table3.map_case(family, self.qubits, every, budget, circuit_seed)
            except Exception:
                traceback.print_exc()
                unit.check(cell, False, "raised")
                continue
            elapsed = time.perf_counter() - start
            unit.outputs[cell] = out
            if out["budget_exceeded"]:
                ok = budget is not None and out["logical_layers"] is None
            else:
                # A mapping stopped by the budget is no compile: its seconds
                # count in wall_s only, not in the compile latency.
                unit.latency[cell] = elapsed
                ok = out["rsl_estimate"] >= out["logical_layers"] > 0
                ok = ok and (budget is None or out["peak_memory_bytes"] <= budget)
                unit.rsl_count += out["rsl_estimate"]
                unit.logical_layers += out["logical_layers"]
                unit.peak_memory_bytes += out["peak_memory_bytes"]
            if index < len(self.expected):
                ok = ok and out == self.expected[index][cell]
            unit.check(cell, ok, f"{out} (expected or invariant mismatch)")


WORKLOADS = {
    "reproduce-serial": Reproduce,
    "reproduce-process2": ReproduceProcess,
    "compile-online": CompileOnline,
    "map-paper64": MapPaper64,
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def run_units(workload: Workload) -> list[Unit]:
    units = []
    for index in range(workload.units):
        unit = Unit()
        start = time.perf_counter()
        workload.run_unit(index, unit)
        unit.wall = time.perf_counter() - start
        units.append(unit)
    return units


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its live child processes."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    me = str(os.getpid())
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # The parent pid is the second field after the ")" closing the name.
            if stat.read_text().rsplit(")", 1)[1].split()[1] != me:
                continue
            status = (stat.parent / "status").read_text()
        except (OSError, IndexError):
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024


def end_to_end(workload: Workload, units: list[Unit], setup_s: float) -> dict[str, float]:
    circuits = {key for u in units for key in u.latency}
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(u.wall for u in units),
        "compile_s.p50": geomean(
            statistics.median(u.latency[key] for u in units if key in u.latency) for key in circuits
        ),
        "peak_rss_mib": peak_rss_mib(),
        "rsl_count": sum(u.rsl_count for u in units),
        "logical_layers": sum(u.logical_layers for u in units),
        "peak_memory_gib": sum(u.peak_memory_bytes for u in units) / GIB,
    }


def experiment_layer(workload: Workload, units: list[Unit], names: list[str]) -> dict[str, float]:
    """The ``experiments`` rows, measured around each experiment's record stream."""
    out = {}
    for name in names:
        out[f"experiments.{name}.s"] = sum(u.experiments.get(name, {}).get("s", 0.0) for u in units)
    runs = [run for u in units for run in u.experiments.values()]
    busy = sum(run["busy_s"] for run in runs)
    wall = sum(u.wall for u in units)
    out["experiments.jobs"] = sum(run["jobs"] for run in runs)
    out["experiments.first_record_s"] = (
        statistics.median(run["first_record_s"] for run in runs if run["first_record_s"] is not None)
        if runs
        else 0.0
    )
    out["experiments.busy_s"] = busy
    out["experiments.idle_share"] = 1.0 - busy / (wall * workload.workers) if runs else 0.0
    return out


def traced_pass(
    workload: Workload, untraced: list[Unit], experiments: list[str]
) -> tuple[dict[str, float], list[bool]]:
    """Run the same units again under the layer wrappers; reconcile."""
    from layers import Tracer

    checks = []
    tracer = Tracer()
    if workload.workers == 1:
        with tracer:
            traced = run_units(workload)
    else:
        # Wrappers cannot reach pool workers: only the experiments rows.
        traced = run_units(workload)
    metrics = tracer.metrics()
    metrics.update(experiment_layer(workload, traced, experiments))
    metrics["trace.overhead_ratio"] = sum(u.wall for u in traced) / sum(u.wall for u in untraced) - 1
    metrics["trace.units"] = len(traced)

    same = [u.outputs for u in traced] == [u.outputs for u in untraced]
    if not same:
        log("traced outputs differ from untraced outputs")
    checks.append(same)
    if tracer.violations:
        log("; ".join(tracer.violations[:5]))
    checks.append(not tracer.violations)
    if isinstance(workload, CompileOnline):
        # The passes plus the compile's own time make up the compile ...
        parts = tracer.pass_seconds() + tracer.self_seconds["pipeline.compile"]
        whole = tracer.seconds["pipeline.compile"]
        checks.append(abs(parts - whole) <= 1e-6 * max(1.0, whole))
        if not checks[-1]:
            log(f"pipeline passes + self {parts:.6f}s != compile {whole:.6f}s")
        # ... and each pass's wrapper agrees with the pipeline's own timer,
        # which brackets the wrapper and so reads at most a little more.
        for name in {name for u in traced for name in u.pass_seconds}:
            own = sum(u.pass_seconds.get(name, 0.0) for u in traced)
            wrapped = tracer.seconds[f"pipeline.pass.{name}"]
            calls = tracer.calls[f"pipeline.pass.{name}"]
            checks.append(0.0 <= own - wrapped <= 1e-3 * calls)
            if not checks[-1]:
                log(f"pass {name}: wrapper {wrapped:.6f}s, pipeline timer {own:.6f}s")
    return metrics, checks + [u.failed == 0 for u in traced]


def fingerprint() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", type=Path, help="append the result as one JSON line, e.g. perfbench/results/x.jsonl"
    )
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro").is_dir():
        log(f"no compiler sources at {ROOT / 'src' / 'repro'}; run from a full checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "benchmarks"))  # golden_records: the goldens' reader
    sys.path.insert(0, str(BENCH_DIR))

    start = time.perf_counter()
    import repro.experiments  # noqa: F401  (import time is part of set-up)

    imports = [time.perf_counter() - start]
    imports += [import_seconds() for _ in range(SETUP_REPEATS - 1)]
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        setup_s = statistics.median(imports) + statistics.median(setups)
        units = run_units(workload)
        attempted = sum(u.attempted for u in units)
        failed = sum(u.failed for u in units)
        if args.trace:
            # The experiments with an ``experiments.<name>.s`` row.
            experiments = [
                m["name"].split(".")[1]
                for m in spec["per_layer"]
                if m["name"].startswith("experiments.") and m["name"].count(".") == 2
            ]
            values, checks = traced_pass(workload, units, experiments)
            attempted += len(checks)
            failed += checks.count(False)
            metric_specs = spec["per_layer"]
        else:
            values = end_to_end(workload, units, setup_s)
            metric_specs = spec["end_to_end"]
    finally:
        workload.close()

    names = {m["name"] for m in metric_specs}
    if names != set(values):
        log(f"metrics differ from BENCHMARK.json: {sorted(names ^ set(values))}")
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    machine = fingerprint()
    print("fingerprint " + json.dumps(machine, sort_keys=True))
    for m in metric_specs:
        print(f"  {m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}")
    if args.record is not None:
        with args.record.open("a") as stream:
            entry = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                     "trace": args.trace, "fingerprint": machine, **result}
            stream.write(json.dumps(entry, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
