#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer costs of the cluster.

Run from the repository root::

    python3 perfbench/run.py --workload durable-serve --seed 1 --seconds 45 --trace 0

``--workload`` is ``weighted-feed`` or ``durable-serve`` (``workloads.py``
says what each stresses and why), or ``all``, which runs each in its own
process and prints every result.

A run generates its inputs from ``--seed`` before any timing, then repeats
one round (``bench.py``) on them until ``--seconds`` have passed; a first
warm-up round is discarded.  With ``--trace 0`` the result holds the
end-to-end metrics, measured untraced.  With ``--trace 1`` rounds
alternate untraced and traced: spans wrapped around each layer's public
calls (``tracer.py``) give the per-layer metrics, and the two kinds of
round give the tracing overhead.  The spans of the last traced round are
written to ``perfbench/out/<workload>.spans.tsv``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``attempted`` counts ``run()`` calls, reads, HTTP requests and checks;
``failed`` counts failed checks and failed or non-200 requests.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Never used while developing or tuning a change: a claimed gain must
#: also hold on this seed.
HELD_OUT_SEED = 7919


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Each workload in its own process; every metric printed."""
    from bench import Tally, report

    tally = Tally()
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    for name in names:
        completed = subprocess.run(
            [
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{name}: exited {completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        tally.attempted += result["attempted"]
        tally.failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry["value"]
            units[f"{name}.{metric}"] = entry["unit"]
    report(tally, metrics, units)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing: {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Imported only now: they need the program's source on the path.
    from bench import Bench, declared_units, report, run_traced, run_untraced
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(
            f"--workload must be one of {', '.join(WORKLOADS)} or all"
        )

    bench = Bench(args.workload, args.seed)
    if args.trace:
        metrics = run_traced(bench, args.seconds)
        units = declared_units("per_layer")
    else:
        metrics = run_untraced(bench, args.seconds)
        units = declared_units("end_to_end")
    report(bench.tally, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
