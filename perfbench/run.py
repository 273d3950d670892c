"""Benchmark of the association-hypergraph system: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
whose ``metrics`` are the end-to-end metrics.  With ``--trace 1`` the
workload runs twice for half the time each, untraced and then traced,
and the metrics are the per-layer ones, including the tracing overhead
per end-to-end metric.
The exit code is 1 when a correctness check failed and 2 when the
program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_pass(name: str, ctx):
    """Run one workload pass and add ``success_rate`` to its metrics."""
    from hgbench.workloads import WORKLOADS

    ctx.workdir.mkdir(parents=True, exist_ok=True)
    result = WORKLOADS[name](ctx)
    accounting = result.accounting
    result.metrics["success_rate"] = accounting.succeeded / max(1, accounting.attempted)
    return result


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # One string-hash seed for every run: set and dict iteration order,
        # and with it the program's code paths, then repeat across runs.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    from hgbench import report
    from hgbench.spans import Tracer
    from hgbench.workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if args.trace:
            # Two half-length passes, one set-up each, keep a traced run
            # about as long as an untraced one.
            from hgbench import instrument

            seconds = args.seconds / 2
            untraced = _run_pass(args.workload, Context(
                args.seed, seconds, workdir / "plain", setup_repeats=1))
            tracer = Tracer()
            instrument.install(tracer)
            traced = _run_pass(args.workload, Context(
                args.seed, seconds, workdir / "traced", tracer, setup_repeats=1))
            results = [untraced, traced]
            metrics = report.layer_metrics(args.workload, untraced, traced, tracer)
            units = report.LAYER_UNITS
        else:
            untraced = _run_pass(args.workload, Context(args.seed, args.seconds, workdir))
            results = [untraced]
            metrics = {name: untraced.metrics[name] for name in report.END_TO_END_UNITS}
            units = report.END_TO_END_UNITS
        report.print_report(args.workload, results, metrics, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = all(result.correct for result in results)
    attempted = sum(result.accounting.attempted for result in results)
    failed = sum(result.accounting.failed for result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
