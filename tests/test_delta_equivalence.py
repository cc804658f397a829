"""Differential oracle: delta scheduling passes ≡ full passes.

The scheduler elides the echo wake-up of a pass that reached its fixpoint
and, at any shard count, plans a shard by delta on its cached plan (see
``docs/PERFORMANCE.md``).  Both are pure work savings: on any workload the
schedule must equal the one from a scheduler that runs every wake-up as a
full pass and re-plans every shard every pass
(``iteration_skip_enabled=False``, ``shard_skip_enabled=False``).

Hypothesis draws small workloads that mix the mutations the cached plans
must notice: simultaneous submissions, evolving jobs (dynamic grants),
walltime extensions (the walltime epoch), ``qalter`` of queued jobs,
hold/release, ``after``/``afterok``/``afterany`` dependencies and ESP
Z-style top-priority jobs (the lockdown fallback), at 1, 2 and 4 shards,
with DFS off or capping grants at the paper's Dyn-500 target delay.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import EvolvingWorkApp, FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.evolution import EvolutionProfile
from repro.jobs.job import Job, JobFlexibility, JobState
from repro.maui.config import DFSConfig, MauiConfig
from repro.rms.client import qalter
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
    system = BatchSystem(8, 4, config)
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
    # job ids come from a process-global counter: compare in build order
    return [(j.submit_time, j.start_time, j.end_time, j.state) for j in built], (
        system.scheduler.stats
    )


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
    delta, delta_stats = schedule(jobs, mutations, shards, depth, True, dfs_limit)
    full, full_stats = schedule(jobs, mutations, shards, depth, False, dfs_limit)
    assert delta == full
    for key in ("jobs_started", "jobs_backfilled", "dyn_granted", "dyn_rejected"):
        assert delta_stats[key] == full_stats[key], key
    assert full_stats["iterations_skipped"] == 0
    assert full_stats["shard_passes_skipped"] == 0


def test_delta_passes_do_less_work_on_a_fixed_workload():
    """The oracle above is not vacuous: on a fixed mixed workload both
    savings fire, and the schedule still matches the full-pass run."""
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
        delta, delta_stats = schedule(jobs, mutations, shards, 2, delta=True)
        full, _full_stats = schedule(jobs, mutations, shards, 2, delta=False)
        assert delta == full, shards
        assert delta_stats["iterations_skipped"] > 0, shards
        assert delta_stats["shard_passes_skipped"] > 0, shards


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
    delta, delta_stats = schedule(jobs, [], 1, 2, True, dfs_limit=500.0)
    full, full_stats = schedule(jobs, [], 1, 2, False, dfs_limit=500.0)
    assert delta == full
    assert delta_stats["dyn_rejected_fairness"] == 1
    assert full_stats["dyn_rejected_fairness"] == 1
    assert delta_stats["shard_passes_skipped"] > 0
    _, uncapped = schedule(jobs, [], 1, 2, True)
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
