"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs a share of the same work twice, untraced and then with
span wrappers around every layer, and prints the per-layer metrics, the
span coverage of ``Engine.run`` and the tracing overhead; the spans are
written to ``.perfbench_out/spans-<workload>.npz``.  The last line of
stdout is one JSON object: ``correct``, ``attempted`` (jobs submitted),
``failed`` (jobs not completed) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS_DIR = ROOT / ".perfbench_out"
#: the traced mode runs 1/TRACE_SHARE of a run's units, untraced and traced
TRACE_SHARE = 3


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("replay", "esp", "replay_observed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # one thread: the benchmark is single-threaded and CPU time is its clock
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import measure, report
    from perfbench.spans import SpanRecorder

    units = measure.units_for(args.workload, args.seconds)
    lines: list[str] = []
    if not args.trace:
        sims = measure.run_units(args.workload, args.seed, units)
        metrics = report.end_to_end(sims, _peak_rss_mb())
        header = "end-to-end (no wrappers installed; host times at reference speed)"
        extra = report.format_lines(
            "host CPU times as measured (not gated)", report.host_times(sims)
        )
        extra += report.format_lines(
            "work counters (exact; not gated)",
            {k: (v, "count", len(sims)) for k, v in report.work_counters(sims).items()},
        )
        problems = [p for s in sims for p in s.problems]
        all_sims = sims
    else:
        # each unit runs untraced and then traced, back to back, so the
        # overhead estimate compares runs made under similar machine load
        units = max(1, units // TRACE_SHARE)
        untraced, sims = [], []
        recorder = SpanRecorder()
        for unit in range(units):
            untraced += measure.run_unit(args.workload, args.seed, unit, 1)
            recorder.install()
            try:
                sims += measure.run_unit(args.workload, args.seed, unit, 1)
            finally:
                recorder.remove()
        path = recorder.write(SPANS_DIR / f"spans-{args.workload}.npz")
        metrics = report.per_layer(
            recorder.summary(), len(recorder.useful_passes), sims, untraced
        )
        header = "per-layer (traced run)"
        extra = [f"spans: {len(recorder)} written to {path.relative_to(ROOT)}"]
        extra += [f"  not wrapped (missing): {m}" for m in recorder.missing]
        problems = [p for s in untraced + sims for p in s.problems]
        problems += [
            f"{t.label}: tracing changed the schedule"
            for t, u in zip(sims, untraced)
            if t.digest != u.digest
        ]
        all_sims = untraced + sims

    lines.append(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} units={units} "
        f"simulations={len(sims)} jobs={sum(s.jobs for s in sims)}"
    )
    lines += report.format_lines(header, metrics)
    lines += extra
    lines += report.digest_lines(sims)
    lines.append(f"checks: {'ok' if not problems else f'{len(problems)} failed'}")
    lines += [f"  {p}" for p in problems[:20]]
    print("\n".join(lines))
    print(json.dumps(report.result_line(metrics, all_sims, problems)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
