"""End-to-end and per-layer metrics, and their printed form.

A metric is ``name -> (value, unit, samples)``; the last stdout line
carries ``value`` and ``unit`` of each, the text above it also the sample
count.  Which metrics exist, and which end-to-end metric each per-layer
metric should move on which workload, is written down in ``README.md``.
"""

from __future__ import annotations

import statistics

import numpy as np

from perfbench.measure import REF_SECONDS, Simulation, combined_digest, outcomes

Metric = tuple[float, str, int]

#: end-to-end simulated outcomes: (name, unit)
OUTCOME_UNITS = (
    ("util_pct", "%"),
    ("makespan_min", "min"),
    ("mean_wait_s", "s"),
    ("mean_bsld", "ratio"),
    ("wait_jain", "index"),
    ("dyn_satisfied_pct", "%"),
)


def us_per_job(sims: list[Simulation], *, scaled: bool = True) -> float:
    """CPU µs of ``run()`` + ``metrics()``, summed over sims, per job.

    ``scaled`` puts each simulation's time at reference speed (see
    :data:`~perfbench.measure.REF_SECONDS`); otherwise it is raw CPU time.
    """
    total = sum(
        s.run_s * (REF_SECONDS / s.ref_run_s if scaled else 1.0) for s in sims
    )
    return 1e6 * total / sum(s.jobs for s in sims)


def _setups(sims: list[Simulation], *, scaled: bool) -> list[float]:
    return [
        t * (REF_SECONDS / s.ref_setup_s if scaled else 1.0)
        for s in sims
        for t in s.setup_times
    ]


def end_to_end(sims: list[Simulation], peak_rss_mb: float) -> dict[str, Metric]:
    setups = _setups(sims, scaled=True)
    metrics: dict[str, Metric] = {
        "us_per_job": (us_per_job(sims), "us", len(sims)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    pooled = outcomes(sims)
    for name, unit in OUTCOME_UNITS:
        metrics[name] = (pooled[name], unit, len(sims))
    return metrics


def host_times(sims: list[Simulation]) -> dict[str, Metric]:
    """Raw host CPU times and the reference kernel's speed (not gated)."""
    refs = [r for s in sims for r in (s.ref_setup_s, s.ref_run_s)]
    setups = _setups(sims, scaled=False)
    return {
        "us_per_job_raw": (us_per_job(sims, scaled=False), "us", len(sims)),
        "setup_s_raw": (statistics.median(setups), "s", len(setups)),
        "ref_kernel_ms": (1e3 * statistics.median(refs), "ms", len(refs)),
    }


def work_counters(sims: list[Simulation]) -> dict[str, int]:
    """Exact work counts read from the public scheduler stats and engine."""
    total = lambda key: sum(int(s.stats[key]) for s in sims)  # noqa: E731
    return {
        "sim.events": sum(s.events for s in sims),
        "maui.iteration_n": total("iterations"),
        "maui.iterations_skipped": total("iterations_skipped"),
        "maui.shard_passes_skipped": total("shard_passes_skipped"),
        "maui.jobs_started": total("jobs_started"),
        "maui.jobs_backfilled": total("jobs_backfilled"),
        "maui.dyn_granted": total("dyn_granted"),
        "maui.dyn_rejected": total("dyn_rejected"),
        "obs.ledger_decisions": sum(s.ledger_decisions for s in sims),
        "metrics.trace_violations": sum(s.trace_violations for s in sims),
    }


def per_layer(
    summary: dict[str, dict],
    useful_passes: int,
    traced: list[Simulation],
    untraced: list[Simulation],
) -> dict[str, Metric]:
    """Per-layer metrics from the traced run's span summary."""
    none = {"n": 0, "total_s": 0.0, "self_s": 0.0, "child_s": 0.0,
            "durations_ns": np.zeros(0)}
    get = lambda name: summary.get(name, none)  # noqa: E731

    def calls(name: str) -> Metric:
        return get(name)["n"], "count", get(name)["n"]

    def seconds(name: str) -> Metric:
        return get(name)["total_s"], "s", get(name)["n"]

    counts = work_counters(traced)
    runs = len(traced)
    iteration = get("maui.iteration")
    passes = iteration["n"]
    iter_us = iteration["durations_ns"] / 1e3
    engine = get("sim.Engine.run")
    obs = [v for k, v in summary.items() if k.startswith("obs.")]
    ingest = [get(k) for k in ("workloads.from_swf", "workloads.evolving_ify",
                               "workloads.make_esp_workload")]
    grants = get("rms.grant_dynamic")["n"]
    answered = grants + get("rms.reject_dynamic")["n"]
    return {
        "maui.iteration_n": calls("maui.iteration"),
        "maui.iteration_self_s": (iteration["self_s"], "s", passes),
        "maui.iteration_p50_us": (
            float(np.percentile(iter_us, 50)) if passes else 0.0, "us", passes
        ),
        "maui.iteration_p99_us": (
            float(np.percentile(iter_us, 99)) if passes else 0.0, "us", passes
        ),
        "maui.useful_pass_ratio": (
            useful_passes / passes if passes else 0.0, "ratio", passes
        ),
        "maui.iterations_skipped": (counts["maui.iterations_skipped"], "count", runs),
        "maui.shard_passes_skipped": (
            counts["maui.shard_passes_skipped"], "count", runs
        ),
        "obs.self_s": (sum(v["self_s"] for v in obs), "s", sum(v["n"] for v in obs)),
        "obs.ledger_decisions": (counts["obs.ledger_decisions"], "count", runs),
        "cluster.earliest_fit_n": calls("cluster.earliest_fit"),
        "cluster.earliest_fit_s": seconds("cluster.earliest_fit"),
        "cluster.add_claim_n": calls("cluster.add_claim"),
        "cluster.profile_copy_n": calls("cluster.profile_copy"),
        "maui.measure_delays_s": seconds("maui.measure_delays"),
        "maui.dfs_evaluate_n": calls("maui.dfs_evaluate"),
        "maui.prioritize_s": seconds("maui.prioritize"),
        "maui.dyn_grant_ratio": (
            grants / answered if answered else 0.0, "ratio", answered
        ),
        "rms.submit_s": seconds("rms.submit"),
        "rms.start_job_s": seconds("rms.start_job"),
        "rms.complete_job_s": seconds("rms.complete_job"),
        "rms.dyn_request_n": calls("rms.dyn_request"),
        "rms.grant_dynamic_n": calls("rms.grant_dynamic"),
        "rms.reject_dynamic_n": calls("rms.reject_dynamic"),
        "sim.events": (counts["sim.events"], "count", runs),
        "sim.self_s": (engine["self_s"], "s", engine["n"]),
        "sim.span_coverage_pct": (
            100.0 * engine["child_s"] / engine["total_s"] if engine["n"] else 0.0,
            "%",
            engine["n"],
        ),
        "workloads.ingest_s": (
            sum(v["total_s"] for v in ingest), "s", sum(v["n"] for v in ingest)
        ),
        "metrics.collect_s": seconds("metrics.collect"),
        "metrics.trace_violations": (
            counts["metrics.trace_violations"], "count", runs
        ),
        "bench.trace_overhead_us_per_job": (
            us_per_job(traced) - us_per_job(untraced), "us", runs
        ),
    }


def format_lines(title: str, metrics: dict[str, Metric]) -> list[str]:
    lines = [title]
    for name, (value, unit, samples) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<34} {shown:>14} {unit:<6} n={samples}")
    return lines


def digest_lines(sims: list[Simulation]) -> list[str]:
    lines = [f"schedule_digest {combined_digest(sims)}"]
    lines += [f"  {s.label:<16} {s.digest}" for s in sims]
    return lines


def result_line(
    metrics: dict[str, Metric], sims: list[Simulation], problems: list[str]
) -> dict:
    return {
        "correct": not problems,
        "attempted": sum(s.jobs for s in sims),
        "failed": sum(s.failed for s in sims),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _samples) in metrics.items()
        },
    }
