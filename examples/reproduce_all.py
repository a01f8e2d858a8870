"""Regenerate every table and figure of the paper's evaluation.

Run:  python examples/reproduce_all.py [bench|paper] [output.md]
                                       [--runner serial|process]
                                       [--workers N] [--cache-dir DIR]

``bench`` (default) uses the scaled-down parameters (a few minutes);
``paper`` uses the paper's own parameters (minutes on 2 CPUs; four
experiments still abort, see EXPERIMENTS.md "Scales and determinism").
With an output path the report is also written as markdown —
EXPERIMENTS.md's measured sections were produced this way.

The experiment list comes from the registry (`repro.experiments.api`), so a
newly registered experiment shows up here with no edits; the runner flags
pick the execution backend (records are identical for every backend).
``--cache-dir`` points every experiment of the run at one shared disk
artifact cache (see ARCHITECTURE.md's "Artifact cache") — a re-run after a
crash or parameter-study iteration then skips every compilation stage it
has already seen, with records byte-identical either way.  ``--runner
process --workers N`` runs each experiment on N worker processes that
share that same cache directory.
"""

import argparse
import time

from repro.errors import ReproError
from repro.experiments import EXPERIMENT_REGISTRY, RUNNERS, make_runner
from repro.pipeline import DiskCache
from repro.pipeline.cache import cache_summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scale", nargs="?", default="bench", choices=("bench", "paper"))
    parser.add_argument("output", nargs="?", default=None, help="optional markdown path")
    parser.add_argument("--runner", default="serial", choices=list(RUNNERS))
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--cache-dir", default=None, help="shared disk artifact cache directory"
    )
    args = parser.parse_args()

    cache = DiskCache(args.cache_dir) if args.cache_dir else None
    try:
        runner = make_runner(args.runner, max_workers=args.workers, cache=cache)
    except ReproError as exc:  # bad runner option, e.g. --workers 0
        raise SystemExit(f"reproduce_all: {exc}") from exc
    sections: list[str] = []
    cache_hits = cache_misses = 0
    for name, experiment in EXPERIMENT_REGISTRY.items():
        start = time.perf_counter()
        result = experiment.run(args.scale, runner=runner)
        elapsed = time.perf_counter() - start
        header = f"== {name}: {experiment.description} (scale={args.scale}, {elapsed:.1f}s) =="
        print(header)
        print(result.text)
        print()
        sections.append(f"### {name}\n\n```\n{result.text}\n```\n")
        stats = result.cache_stats()  # per-record counts survive process pools
        cache_hits += stats["hits"]
        cache_misses += stats["misses"]
    if cache is not None:
        totals = cache_summary(cache_hits, cache_misses)
        print(
            f"cache ({args.cache_dir}): {totals['hits']} hits, "
            f"{totals['misses']} misses, hit rate {totals['hit_rate']:.0%}"
        )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(
                f"# Reproduced evaluation (scale = {args.scale})\n\n"
                + "\n".join(sections)
            )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
