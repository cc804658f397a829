"""Differential oracle: delta scheduling passes ≡ full passes.

The scheduler elides the echo wake-up of a pass that reached its fixpoint
and, at any shard count, plans a shard by delta on its cached plan (see
``docs/PERFORMANCE.md``).  Both are pure work savings: on any workload the
schedule must equal the one from a scheduler that runs every wake-up as a
full pass and re-plans every shard every pass
(``iteration_skip_enabled=False``, ``shard_skip_enabled=False``).

Both sides run with the decision ledger attached, which takes the same
planning path as an unobserved run: the ledger dump and the event trace
must match byte for byte too.  The one trace difference allowed is the
``sched_iteration`` record, which marks a pass that ran, so an elided echo
leaves none.

Hypothesis draws small workloads that mix the mutations the cached plans
must notice: simultaneous submissions, evolving jobs (dynamic grants),
walltime extensions (the walltime epoch), ``qalter`` of queued jobs,
hold/release, ``after``/``afterok``/``afterany`` dependencies and ESP
Z-style top-priority jobs (the lockdown fallback), at 1, 2 and 4 shards,
with DFS off or capping grants at the paper's Dyn-500 target delay.
"""

import re
import tempfile
from pathlib import Path
from typing import NamedTuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import EvolvingWorkApp, FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.evolution import EvolutionProfile
from repro.jobs.job import Job, JobFlexibility, JobState
from repro.maui.config import DFSConfig, MauiConfig, PriorityWeightsConfig
from repro.obs import DecisionKind, Telemetry
from repro.rms.client import qalter
from repro.sim.events import EventKind
from repro.system import BatchSystem


class ExtendingApp:
    """Runs ``runtime`` seconds and asks for more walltime part-way."""

    def __init__(self, runtime: float, extra: float) -> None:
        self.runtime = runtime
        self.extra = extra

    def launch(self, ctx) -> None:
        ctx.after(self.runtime / 2, self._extend, ctx)
        ctx.after(self.runtime, ctx.finish)

    def _extend(self, ctx) -> None:
        if ctx.job.state is JobState.RUNNING:
            ctx.tm_extend_walltime(self.extra, lambda _alloc: None)


jobs_strategy = st.lists(
    st.tuples(
        st.sampled_from(["rigid", "rigid", "evolving", "extending", "top_priority"]),
        st.integers(min_value=1, max_value=12),  # cores (> 8 spans at 4 shards)
        st.sampled_from([20.0, 50.0, 90.0, 200.0, 450.0, 1000.0]),  # runtime
        st.sampled_from([0.0, 0.0, 5.0, 30.0, 60.0, 120.0, 300.0]),  # submit
        st.integers(min_value=0, max_value=3),  # user
        st.sampled_from([None] * 6 + ["after", "afterok", "afterany"]),
    ),
    min_size=2,
    max_size=24,
)

#: (time, kind, job index, value): qalter walltime/cores, or hold for a while
mutations_strategy = st.lists(
    st.tuples(
        st.sampled_from([3.0, 10.0, 45.0, 100.0, 250.0]),
        st.sampled_from(["walltime", "cores", "hold"]),
        st.integers(min_value=0, max_value=23),
        st.sampled_from([1, 2, 3]),
    ),
    max_size=4,
)


def build(desc, previous):
    kind, cores, runtime, _submit, user, dep_type = desc
    depends_on = None
    if dep_type is not None and previous:
        depends_on = previous[-1].job_id
    common = dict(
        request=ResourceRequest(cores=cores),
        walltime=runtime * 1.25 + 5,
        user=f"u{user}",
        depends_on=depends_on,
        dependency_type=dep_type or "afterok",
    )
    if kind == "evolving":
        job = Job(
            flexibility=JobFlexibility.EVOLVING,
            evolution=EvolutionProfile.single(0.2, ResourceRequest(cores=2), (0.5,)),
            **common,
        )
        return job, EvolvingWorkApp(runtime)
    if kind == "extending":
        return Job(**common), ExtendingApp(runtime, runtime / 2)
    if kind == "top_priority":
        return Job(top_priority=True, **common), FixedRuntimeApp(runtime)
    return Job(**common), FixedRuntimeApp(runtime)


def mutate(system, job, kind, value):
    if job.submit_time is None or job.state is not JobState.QUEUED:
        return
    if kind == "walltime":
        qalter(system.server, job, walltime=job.walltime / (value + 1))
    elif kind == "cores":
        qalter(system.server, job, cores=value)
    elif job.hold is None:
        system.server.hold_job(job)
        system.engine.after(20.0 * value, system.server.release_hold, job)


class Run(NamedTuple):
    tuples: list
    stats: dict
    ledger: str
    trace: list[str]


def schedule(jobs, mutations, shards, depth, delta, dfs_limit=None):
    config = MauiConfig(
        reservation_depth=depth,
        reservation_delay_depth=depth,
        scheduler_shards=shards,
        dfs=(
            DFSConfig()
            if dfs_limit is None
            else DFSConfig.target_delay_for_all(dfs_limit, interval=3600, decay=0)
        ),
    )
    telemetry = Telemetry(decision_ledger=True)
    system = BatchSystem(8, 4, config, telemetry=telemetry)
    system.scheduler.iteration_skip_enabled = delta
    system.scheduler.shard_skip_enabled = delta
    built: list[Job] = []
    for desc in jobs:
        job, app = build(desc, built)
        built.append(job)
        system.submit_at(desc[3], job, app)
    for time, kind, index, value in mutations:
        if index < len(built):
            system.engine.at(time, mutate, system, built[index], kind, value)
    # an ``after`` dependency on a cancelled job never resolves, so a run
    # may end with jobs still queued; both modes must leave the same ones
    system.run(max_events=200_000)
    return observed_run(system, built)


def observed_run(system, built) -> Run:
    """Schedule tuples, stats, ledger dump and trace of a finished run."""
    # job ids come from a process-global counter: compare in build order
    names = {job.job_id: f"J{i}" for i, job in enumerate(built)}

    def rename(text):
        return re.sub(r"job\.\d+", lambda m: names[m.group(0)], text)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.jsonl"
        system.telemetry.ledger.export_jsonl(path)
        ledger = rename(path.read_text())
    trace = [
        rename(repr((e.time, e.kind.value, e.payload)))
        for e in system.trace
        if e.kind is not EventKind.SCHED_ITERATION
    ]
    return Run(
        [(j.submit_time, j.start_time, j.end_time, j.state) for j in built],
        system.scheduler.stats,
        ledger,
        trace,
    )


def assert_same_run(delta: Run, full: Run) -> None:
    assert delta.tuples == full.tuples
    assert delta.ledger == full.ledger
    assert delta.trace == full.trace


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    jobs=jobs_strategy,
    mutations=mutations_strategy,
    shards=st.sampled_from([1, 2, 4]),
    depth=st.integers(min_value=1, max_value=3),
    dfs_limit=st.sampled_from([None, 500.0]),
)
def test_delta_passes_equal_full_passes(jobs, mutations, shards, depth, dfs_limit):
    delta = schedule(jobs, mutations, shards, depth, True, dfs_limit)
    full = schedule(jobs, mutations, shards, depth, False, dfs_limit)
    assert_same_run(delta, full)
    for key in ("jobs_started", "jobs_backfilled", "dyn_granted", "dyn_rejected"):
        assert delta.stats[key] == full.stats[key], key
    assert full.stats["iterations_skipped"] == 0
    assert full.stats["shard_passes_skipped"] == 0


def test_delta_passes_do_less_work_on_a_fixed_workload():
    """The oracle above is not vacuous: on a fixed mixed workload both
    savings fire with the ledger attached, and the schedule, ledger and
    trace still match the full-pass run."""
    jobs = [
        ("rigid", 3, 90.0, 0.0, 0, None),
        ("rigid", 8, 200.0, 0.0, 1, None),
        ("evolving", 2, 200.0, 5.0, 2, None),
        ("rigid", 6, 50.0, 5.0, 3, "afterany"),
        ("rigid", 2, 450.0, 30.0, 0, None),
        ("extending", 1, 90.0, 30.0, 1, None),
        ("rigid", 4, 20.0, 60.0, 2, None),
        ("rigid", 1, 50.0, 120.0, 3, None),
    ]
    mutations = [(10.0, "walltime", 4, 2), (45.0, "hold", 6, 1)]
    for shards in (1, 2):
        delta = schedule(jobs, mutations, shards, 2, delta=True)
        full = schedule(jobs, mutations, shards, 2, delta=False)
        assert_same_run(delta, full)
        assert delta.stats["iterations_skipped"] > 0, shards
        assert delta.stats["shard_passes_skipped"] > 0, shards


def test_single_shard_delta_under_dfs_capped_rejection():
    """One shard, DFS at the Dyn-500 cap: E's walltime extension would
    push the queued full-machine job back 600 s, over the 500 s target,
    and is refused.  Later submissions are planned by delta behind that
    job's reservation, and the schedule matches the full-pass run."""
    jobs = [
        ("extending", 2, 1200.0, 0.0, 0, None),
        ("rigid", 32, 50.0, 5.0, 1, None),
        ("rigid", 3, 200.0, 30.0, 2, None),
        ("rigid", 4, 300.0, 60.0, 3, None),
        ("rigid", 2, 90.0, 120.0, 2, None),
    ]
    delta = schedule(jobs, [], 1, 2, True, dfs_limit=500.0)
    full = schedule(jobs, [], 1, 2, False, dfs_limit=500.0)
    assert_same_run(delta, full)
    assert delta.stats["dyn_rejected_fairness"] == 1
    assert full.stats["dyn_rejected_fairness"] == 1
    assert delta.stats["shard_passes_skipped"] > 0
    uncapped = schedule(jobs, [], 1, 2, True).stats
    assert uncapped["dyn_granted"] == 1  # the cap, not resources, refused it


def test_walltime_extension_retires_the_single_shard_plan():
    """One shard, 12 cores: B (8c) is reserved at t=100 on E's cores.  At
    t=75 E extends its walltime to t=200, which moves B's reservation
    and opens a hole for C (4c, 50 s) at t=80.  The extension claims no
    cores, so only the walltime epoch tells the cached plan it is stale."""

    def rigid(cores, walltime, user):
        return Job(request=ResourceRequest(cores=cores), walltime=walltime, user=user)

    def run(delta):
        system = BatchSystem(3, 4, MauiConfig())
        system.scheduler.iteration_skip_enabled = delta
        system.scheduler.shard_skip_enabled = delta
        system.submit(rigid(4, 1000, "a"), FixedRuntimeApp(1000))
        system.submit(rigid(4, 100, "e"), ExtendingApp(150, 100))
        system.submit_at(1.0, rigid(8, 500, "b"), FixedRuntimeApp(500))
        c = rigid(4, 50, "c")
        system.submit_at(80.0, c, FixedRuntimeApp(50))
        system.run()
        return c.start_time, system.scheduler.stats

    start, stats = run(True)
    assert start == run(False)[0] == 80.0
    assert stats["dyn_granted"] == 1
    assert stats["shard_passes_skipped"] > 0


def test_replayed_reservations_bound_holes_and_waits_in_walk_order():
    """Two shards, both planned by delta at t=2.  The walk meets J0
    (shard 0, reserved at t=200), then the fresh X (shard 0, backfills at
    once), then J1 (shard 1, reserved at t=50).  X's hole closes at J0's
    reservation: J1's earlier one lies further down the walk, so it must
    not bound X's hole even though its shard's plan is replayed.  At t=3
    the fresh Y (shard 0) is reserved behind J0 and waits on it."""

    def rigid(cores, walltime, user):
        return Job(request=ResourceRequest(cores=cores), walltime=walltime, user=user)

    def run(delta):
        config = MauiConfig(
            reservation_depth=2,
            scheduler_shards=2,
            weights=PriorityWeightsConfig(
                credential=1000.0, user_priorities={"c": 3, "x": 2, "d": 1}
            ),
        )
        # shard 0 holds nodes 0-1 (8 cores), shard 1 node 2 (4 cores)
        system = BatchSystem(3, 4, config, telemetry=Telemetry(decision_ledger=True))
        system.scheduler.shard_skip_enabled = delta
        built = [rigid(3, 200.0, "a"), rigid(4, 50.0, "b")]
        for job in built:
            system.submit(job, FixedRuntimeApp(job.walltime))
        for at, job in [
            (1.0, rigid(8, 100.0, "c")),
            (1.0, rigid(4, 100.0, "d")),
            (2.0, rigid(5, 50.0, "x")),
            (3.0, rigid(8, 100.0, "y")),
        ]:
            built.append(job)
            system.submit_at(at, job, FixedRuntimeApp(job.walltime))
        system.run()
        return system, built

    system, built = run(True)
    _a, _b, j0, _j1, x, y = built
    ledger = system.telemetry.ledger
    first = ledger.of_kind(DecisionKind.BACKFILL_START)[0]
    assert first.job_id == x.job_id
    assert (first.payload["jumped"], first.payload["hole_until"]) == ([j0.job_id], 200.0)
    (y_res,) = [
        d for d in ledger.of_kind(DecisionKind.RESERVATION_CREATE) if d.job_id == y.job_id
    ]
    assert j0.job_id in y_res.payload["waiting_on"]
    assert system.scheduler.stats["shard_passes_skipped"] > 0
    assert_same_run(observed_run(system, built), observed_run(*run(False)))
