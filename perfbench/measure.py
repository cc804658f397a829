"""Simulations of the benchmark workloads and the outcomes they report.

Every simulation goes through the public API only: ``from_swf`` /
``make_esp_workload`` and ``evolving_ify`` build the workload,
``BatchSystem`` and ``Workload.submit_to`` set it up, and
``BatchSystem.run`` plus ``BatchSystem.metrics`` are the timed part.
Host times are process CPU seconds (``time.process_time``): the benchmark
is single-threaded, and CPU time does not count the time other processes on
a shared machine hold the processor.

On a shared machine the same work also runs up to ~1.9x slower for tens
of seconds at a time, when other tenants contend for caches and memory.
So every simulation is bracketed by :func:`reference_kernel`, fixed work
shaped like the simulator's that never changes with the program, and the
gated host times are scaled by ``REF_SECONDS / (kernel time around them)``:
they read as host time on the reference machine at its fast speed.  The
raw CPU times are kept and printed too.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import io
import time
from dataclasses import dataclass

import numpy as np

import repro.workloads as rw
from repro.experiments.configs import all_configurations
from repro.jobs.job import JobState
from repro.metrics import jains_fairness_index, validate_trace
from repro.system import BatchSystem

from perfbench import inputs

#: seconds of the ``--seconds`` budget charged per unit: about the host time
#: one unit takes, set-ups and checks included, on the reference machine
#: (2-vCPU Xeon VM, Python 3.11) when it runs slow.  A run measures
#: ``seconds / UNIT_SECONDS`` units, so its work is fixed by ``--seconds``
#: and never by the clock.  ``replay_observed`` gets a larger share of the
#: budget than its unit cost: its queueing metrics need the jobs.
UNIT_SECONDS = {"replay": 3.0, "esp": 3.75, "replay_observed": 3.75}
#: set-ups timed per simulation; the last one is run
SETUP_REPEATS = 3

#: bounded-slowdown threshold tau [s]
BSLD_TAU = 10.0
_COMPLETED = JobState.COMPLETED.value

clock = time.process_time

#: CPU seconds :func:`reference_kernel` takes on the reference machine at
#: its fast speed; measured host times are scaled to it
REF_SECONDS = 0.0065


class _Item:
    __slots__ = ("key", "tags", "log")

    def __init__(self, key: int) -> None:
        self.key = key
        self.tags: dict[int, int] = {}
        self.log: list[int] = []


def reference_kernel() -> int:
    """Fixed work shaped like the simulator's, to gauge the host's speed.

    Small slotted objects in a dict, a heap of events, and short numpy
    scans over a node-by-breakpoint matrix.  It depends on nothing in the
    program, so a change to the program never changes its time; only the
    machine does.
    """
    heap: list[tuple[int, int]] = []
    items: dict[int, _Item] = {}
    for i in range(4000):
        item = _Item(i)
        item.tags[i % 7] = i
        items[i] = item
        heapq.heappush(heap, (i * 7919 % 4001, i))
    total = 0
    while heap:
        _, i = heapq.heappop(heap)
        total += items[i].key
    matrix = np.arange(15 * 64, dtype=float).reshape(15, 64)
    for _ in range(200):
        total += int(np.minimum.accumulate(matrix, axis=1)[:, -1].sum())
    return total


def host_speed() -> float:
    """CPU seconds one :func:`reference_kernel` call takes right now."""
    t0 = clock()
    reference_kernel()
    return clock() - t0


@dataclass
class Simulation:
    """What one simulation reports; its job records are summarised, not kept."""

    label: str
    jobs: int
    setup_times: list[float]
    run_s: float
    #: reference-kernel seconds around the set-ups and around the run
    ref_setup_s: float
    ref_run_s: float
    events: int
    failed: int
    digest: str
    busy_core_s: float
    capacity_core_s: float
    makespan_s: float
    wait_sum: float
    started: int
    bsld_sum: float
    bsld_n: int
    user_waits: dict[str, list[float]]
    evolving: int
    satisfied: int
    trace_violations: int
    stats: dict
    ledger_decisions: int
    problems: list[str]


def schedule_digest(records) -> str:
    """sha256 of the sorted ``(submit, start, end, state)`` tuples."""
    rows = sorted(
        (r.submit_time, r.start_time, r.end_time, r.state) for r in records
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _build_replay(seed: int, unit: int, *, observed: bool):
    text, evolve_seed = inputs.replay_unit(seed, unit)

    def build():
        workload = rw.from_swf(io.StringIO(text), chunk_size=1 << 14)
        workload = rw.evolving_ify(workload, inputs.REPLAY_EVOLVING, seed=evolve_seed)
        system = BatchSystem(
            inputs.REPLAY_NODES,
            inputs.REPLAY_CORES_PER_NODE,
            inputs.replay_config(),
            telemetry=inputs.observed_telemetry() if observed else None,
        )
        workload.submit_to(system)
        return system, len(workload)

    return build


def _build_esp(configuration, seed: int):
    def build():
        workload = rw.make_esp_workload(
            total_cores=inputs.ESP_NODES * inputs.ESP_CORES_PER_NODE,
            dynamic=configuration.dynamic_workload,
            seed=seed,
        )
        system = BatchSystem(
            inputs.ESP_NODES, inputs.ESP_CORES_PER_NODE, configuration.maui
        )
        workload.submit_to(system)
        return system, len(workload)

    return build


def unit_builds(workload: str, seed: int, unit: int) -> list[tuple[str, object]]:
    """``(label, build)`` for each simulation of one unit of a workload."""
    if workload in ("replay", "replay_observed"):
        build = _build_replay(seed, unit, observed=workload == "replay_observed")
        return [(f"trace{unit}", build)]
    if workload == "esp":
        return [
            (f"{c.name}@{seed + unit}", _build_esp(c, seed + unit))
            for c in all_configurations()
        ]
    raise ValueError(f"unknown workload {workload!r}")


def units_for(workload: str, seconds: float) -> int:
    """Units a run of ``seconds`` measures (at least one)."""
    return max(1, round(seconds / UNIT_SECONDS[workload]))


def simulate(label: str, build, setup_repeats: int = SETUP_REPEATS) -> Simulation:
    """Set up ``setup_repeats`` times, then run and check the last set-up."""
    setup_times = []
    ref_before = host_speed()
    for _ in range(setup_repeats):
        system = None
        gc.collect()
        t0 = clock()
        system, jobs = build()
        setup_times.append(clock() - t0)
    ref_between = host_speed()
    gc.collect()
    t1 = clock()
    system.run()
    metrics = system.metrics()
    t2 = clock()
    ref_after = host_speed()

    records = metrics.records
    server = system.server
    problems: list[str] = []
    if server.queue or server.active_count or server.dyn_queue:
        problems.append(f"{label}: workload did not drain")
    if len(records) != jobs:
        problems.append(f"{label}: {len(records)} records for {jobs} jobs")
    failed = sum(1 for r in records if r.state != _COMPLETED)

    wait_sum = bsld_sum = 0.0
    started = bsld_n = 0
    user_waits: dict[str, list[float]] = {}
    for r in records:
        if r.start_time is None:
            continue
        wait = r.start_time - r.submit_time
        if wait < 0:
            problems.append(f"{label}: {r.job_id} started before submission")
        wait_sum += wait
        started += 1
        acc = user_waits.setdefault(r.user, [0.0, 0])
        acc[0] += wait
        acc[1] += 1
        if r.end_time is not None:
            run = r.end_time - r.start_time
            if run < 0:
                problems.append(f"{label}: {r.job_id} ended before it started")
            bsld_sum += max(1.0, (wait + run) / max(run, BSLD_TAU))
            bsld_n += 1

    makespan = metrics.workload_time
    utilization = metrics.utilization
    if not 0.0 < utilization <= 1.0 + 1e-9:
        problems.append(f"{label}: utilization {utilization} outside (0, 1]")
    stats = dict(system.scheduler.stats)
    if stats["jobs_started"] + stats["jobs_backfilled"] != jobs:
        problems.append(
            f"{label}: {stats['jobs_started']} + {stats['jobs_backfilled']} "
            f"starts for {jobs} jobs"
        )
    satisfied = metrics.satisfied_dyn_jobs
    if satisfied > stats["dyn_granted"]:
        problems.append(f"{label}: {satisfied} satisfied jobs without grants")
    if not system.config.dynamic_enabled and stats["dyn_granted"]:
        problems.append(f"{label}: grants with dynamic allocation disabled")

    ledger_decisions = 0
    telemetry = system.telemetry
    if telemetry is not None:
        if telemetry.windows.jobs_completed != jobs - failed:
            problems.append(f"{label}: windows folded the wrong job count")
        ledger_decisions = sum(telemetry.ledger.summary().values())
        if not ledger_decisions:
            problems.append(f"{label}: the decision ledger recorded nothing")

    return Simulation(
        label=label,
        jobs=jobs,
        setup_times=setup_times,
        run_s=t2 - t1,
        ref_setup_s=(ref_before + ref_between) / 2,
        ref_run_s=(ref_between + ref_after) / 2,
        events=system.engine.processed,
        failed=failed,
        digest=schedule_digest(records),
        busy_core_s=utilization * metrics.total_cores * makespan,
        capacity_core_s=metrics.total_cores * makespan,
        makespan_s=makespan,
        wait_sum=wait_sum,
        started=started,
        bsld_sum=bsld_sum,
        bsld_n=bsld_n,
        user_waits=user_waits,
        evolving=metrics.evolving_jobs,
        satisfied=satisfied,
        trace_violations=len(validate_trace(system.trace, system.cluster)),
        stats=stats,
        ledger_decisions=ledger_decisions,
        problems=problems,
    )


def run_unit(
    workload: str, seed: int, unit: int, setup_repeats: int = SETUP_REPEATS
) -> list[Simulation]:
    """Every simulation of one unit, in order."""
    return [
        simulate(label, build, setup_repeats)
        for label, build in unit_builds(workload, seed, unit)
    ]


def run_units(workload: str, seed: int, units: int) -> list[Simulation]:
    """Every simulation of units ``0 .. units-1``, in order."""
    return [sim for unit in range(units) for sim in run_unit(workload, seed, unit)]


def outcomes(sims: list[Simulation]) -> dict[str, float]:
    """Simulated outcomes pooled over the simulations of a run."""
    user_waits: dict[str, list[float]] = {}
    for sim in sims:
        for user, (total, count) in sim.user_waits.items():
            acc = user_waits.setdefault(user, [0.0, 0])
            acc[0] += total
            acc[1] += count
    evolving = sum(s.evolving for s in sims)
    pooled = {
        "util_pct": 100.0
        * sum(s.busy_core_s for s in sims)
        / sum(s.capacity_core_s for s in sims),
        "makespan_min": sum(s.makespan_s for s in sims) / len(sims) / 60.0,
        "mean_wait_s": sum(s.wait_sum for s in sims) / sum(s.started for s in sims),
        "mean_bsld": sum(s.bsld_sum for s in sims) / sum(s.bsld_n for s in sims),
        "wait_jain": jains_fairness_index(
            [total / count for total, count in user_waits.values()]
        ),
        "dyn_satisfied_pct": (
            100.0 * sum(s.satisfied for s in sims) / evolving if evolving else 0.0
        ),
    }
    return {name: float(value) for name, value in pooled.items()}


def combined_digest(sims: list[Simulation]) -> str:
    """sha256 over the per-simulation schedule digests, in run order."""
    return hashlib.sha256("".join(s.digest for s in sims).encode()).hexdigest()
