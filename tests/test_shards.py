"""Tests for the per-partition scheduler sharding (repro.maui.shards).

The contract under test, in order of importance:

1. **Single-shard oracle**: with ``scheduler_shards=1`` (the default) the
   sharded pass gives the legacy monolithic pass's schedule
   (``scheduler_shards=0``) — same start/end times, same states, same
   decision counters — across every seeded ESP configuration.  With delta
   planning off it does the very same work, counter for counter; with it
   on it does strictly less.
2. **Multi-shard determinism**: the same seed always produces the same
   schedule, run-to-run, at any shard count.
3. **Cross-shard merge**: a full-machine job (ESP Z) routes through the
   explicit merge and can span every shard, surviving node fail/recover
   churn confined to one shard.
4. **Per-shard skip soundness**: skipping quiescent shards never changes
   the schedule, only the amount of planning work.
"""

import dataclasses
import re

import pytest

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.machine import Cluster
from repro.cluster.profile import AvailabilityProfile
from repro.maui.config import MauiConfig
from repro.maui.shards import SchedulerShard, ShardMap
from repro.system import BatchSystem
from repro.workloads import evolving_ify, make_random_workload
from repro.workloads.esp import make_esp_workload

from repro.experiments.configs import all_configurations

CONFIG_NAMES = [c.name for c in all_configurations()]


def _config(name):
    return next(c for c in all_configurations() if c.name == name)


def _run_esp(
    config, shards, *, skip=True, num_nodes=8, cores_per_node=4, seed=2014
):
    """A compact ESP run (same machine as the profile-equivalence oracle)."""
    maui = dataclasses.replace(config.maui, scheduler_shards=shards)
    system = BatchSystem(num_nodes=num_nodes, cores_per_node=cores_per_node, config=maui)
    system.scheduler.shard_skip_enabled = skip
    make_esp_workload(
        num_nodes * cores_per_node, dynamic=config.dynamic_workload, seed=seed
    ).submit_to(system)
    system.run(max_events=5_000_000)
    metrics = system.metrics()
    tuples = [
        (r.submit_time, r.start_time, r.end_time, r.state) for r in metrics.records
    ]
    stats = {
        k: v
        for k, v in system.scheduler.stats.items()
        if not k.endswith("_seconds")
    }
    return tuples, stats, system


# ----------------------------------------------------------------------
# 1. single-shard pass ≡ monolithic oracle
# ----------------------------------------------------------------------
DECISION_COUNTERS = (
    "iterations",
    "jobs_started",
    "jobs_backfilled",
    "dyn_granted",
    "dyn_rejected",
    "total_delay_charged",
)


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_single_shard_bit_identical_to_monolithic(name):
    """Two-sided: the same schedule always, the same work only without
    delta planning.

    Side 1: with ``shard_skip_enabled=False`` one shard performs every
    operation of the monolithic pass, so every shared counter matches.
    Side 2: with it on, the schedule, the decision counters and the
    event trace still match, but replayed prefixes re-create none of
    their reservations, so the shard skips passes and plans fewer
    reservations.  The trace matches because ``reservation_create`` is
    recorded only for a new or moved reservation, whichever pass plans it.
    """
    config = _config(name)
    mono_tuples, mono_stats, mono_system = _run_esp(config, shards=0)
    full_tuples, full_stats, _ = _run_esp(config, shards=1, skip=False)
    assert full_tuples == mono_tuples
    # the sharded pass adds its own counters; everything shared must match
    for key, value in mono_stats.items():
        assert full_stats[key] == value, key

    delta_tuples, delta_stats, delta_system = _run_esp(config, shards=1)
    assert delta_tuples == mono_tuples
    for key in DECISION_COUNTERS:
        assert delta_stats[key] == mono_stats[key], key
    assert _trace_dump(delta_system) == _trace_dump(mono_system)
    assert delta_stats["shard_passes_skipped"] > 0
    assert delta_stats["reservations_created"] < mono_stats["reservations_created"]
    # a drained run leaves no reservation marks behind
    assert not delta_system.scheduler._reservation_marks
    assert not mono_system.scheduler._reservation_marks


def _trace_dump(system):
    """Event reprs with job ids renamed by first appearance (the ids come
    from a process-global counter)."""
    names: dict[str, str] = {}

    def rename(match):
        return names.setdefault(match.group(0), f"J{len(names)}")

    return [
        re.sub(r"job\.\d+", rename, repr((e.time, e.kind.value, e.payload)))
        for e in system.trace
    ]


@pytest.mark.parametrize("shards", [0, 1, 2])
def test_cancelled_job_drops_its_reservation_mark(shards):
    """A queued job's reservation mark lives while it queues.  A start
    pops it at once; a cancelled job's mark is dropped by the next pass
    once marks outnumber queued jobs, and a drained run ends with none."""
    from repro.apps.synthetic import FixedRuntimeApp
    from repro.jobs.job import Job

    maui = MauiConfig(reservation_depth=2, scheduler_shards=shards)
    system = BatchSystem(num_nodes=2, cores_per_node=4, config=maui)

    def rigid(cores, walltime):
        return Job(request=ResourceRequest(cores=cores), walltime=walltime, user="u")

    system.submit(rigid(8, 100.0), FixedRuntimeApp(100.0))
    cancelled = system.submit(rigid(8, 50.0), FixedRuntimeApp(50.0))
    kept = system.submit(rigid(4, 50.0), FixedRuntimeApp(50.0))
    system.run(until=10.0)
    scheduler = system.scheduler
    marks = {cancelled.job_id: (100.0, 8), kept.job_id: (150.0, 4)}
    assert scheduler._reservation_marks == marks

    system.server.cancel_queued(cancelled)
    # a cancellation bumps no state version and wakes no pass by itself
    system.scheduler.request_iteration(force=True)
    system.run(until=20.0)
    # the kept job's reservation moved up into the freed slot
    assert scheduler._reservation_marks == {kept.job_id: (100.0, 4)}
    system.run()
    assert not scheduler._reservation_marks


# ----------------------------------------------------------------------
# 2. multi-shard determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [2, 4])
def test_multi_shard_same_seed_identical(shards):
    config = _config("Dyn-HP")
    a_tuples, a_stats, _ = _run_esp(config, shards=shards)
    b_tuples, b_stats, _ = _run_esp(config, shards=shards)
    assert a_tuples == b_tuples
    assert a_stats == b_stats


def test_multi_shard_workload_drains():
    """Every ESP config drains at 2 and 4 shards and exercises the merge."""
    for name in CONFIG_NAMES:
        tuples, stats, system = _run_esp(_config(name), shards=2)
        assert all(t[3] == "completed" for t in tuples), name
        # the full-machine Z job cannot fit any single shard
        assert stats["shard_merges"] > 0, name


# ----------------------------------------------------------------------
# 3. spanning jobs and the cross-shard merge
# ----------------------------------------------------------------------
def test_full_machine_job_spans_shards_under_churn():
    """ESP-Z-style lockdown drains across shards while one shard churns."""
    from repro.apps.synthetic import FixedRuntimeApp
    from repro.jobs.job import Job, JobState

    maui = MauiConfig(
        reservation_depth=5, reservation_delay_depth=5, scheduler_shards=2
    )
    system = BatchSystem(num_nodes=4, cores_per_node=8, config=maui)
    shard_map = system.scheduler._shard_map
    assert len(shard_map) == 2

    fillers = [
        system.submit(
            Job(request=ResourceRequest(cores=16), walltime=900.0, user=f"u{i}"),
            FixedRuntimeApp(300.0),
        )
        for i in range(2)
    ]
    z = Job(
        request=ResourceRequest(cores=32),
        walltime=1200.0,
        user="zuser",
        top_priority=True,
    )
    system.submit_at(10.0, z, FixedRuntimeApp(600.0))
    system.run(until=60.0)

    # churn confined to shard 1 while Z waits for the whole machine
    victim = shard_map.shards[1].nodes[0]
    system.server.handle_node_failure(victim)
    system.run(until=120.0)
    system.server.recover_node(victim)
    system.run(max_events=5_000_000)

    assert z.state is JobState.COMPLETED
    touched = {shard_map.node_to_shard[n] for n in z.allocation}
    assert touched == {0, 1}
    assert all(j.state is JobState.COMPLETED for j in fillers)
    assert system.scheduler.stats["shard_merges"] > 0


def test_merge_matches_monolithic_profile():
    """Merging shard profiles reproduces the full profile bit-for-bit."""
    whole = AvailabilityProfile(range(8), {i: 4 for i in range(8)}, 0.0)
    left = AvailabilityProfile(range(4), {i: 4 for i in range(4)}, 0.0)
    right = AvailabilityProfile(range(4, 8), {i: 4 for i in range(4, 8)}, 0.0)

    claims = [
        (0.0, 100.0, Allocation({0: 4, 1: 2})),
        (50.0, 250.0, Allocation({5: 4})),
        (10.0, 90.0, Allocation({3: 1, 4: 3})),
    ]
    for start, end, alloc in claims:
        whole.add_claim(start, end, alloc)
        for shard in (left, right):
            inside = {n: c for n, c in alloc.items() if n in shard._pos}
            if inside:
                shard.add_claim(start, end, Allocation(inside))

    merged = AvailabilityProfile.merge([left, right])
    assert merged._nodes == whole._nodes
    for t in sorted(set(whole.breakpoints) | set(merged.breakpoints)):
        assert merged.free_at(t) == whole.free_at(t), t
    request = ResourceRequest(cores=20)
    assert merged.earliest_fit(request, 50.0, after=0.0) == whole.earliest_fit(
        request, 50.0, after=0.0
    )


def test_merge_rejects_overlapping_nodes():
    a = AvailabilityProfile((0, 1), {0: 4, 1: 4}, 0.0)
    b = AvailabilityProfile((1, 2), {1: 4, 2: 4}, 0.0)
    with pytest.raises(ValueError):
        AvailabilityProfile.merge([a, b])


# ----------------------------------------------------------------------
# 4. per-shard skip soundness
# ----------------------------------------------------------------------
def test_shard_skip_does_not_change_schedule():
    maui = MauiConfig(
        reservation_depth=5, reservation_delay_depth=5, scheduler_shards=4
    )
    workload = make_random_workload(80, 64, seed=42)

    def run(skip):
        system = BatchSystem(num_nodes=8, cores_per_node=8, config=maui)
        system.scheduler.shard_skip_enabled = skip
        workload.submit_to(system)
        system.run(max_events=5_000_000)
        return (
            [
                (r.submit_time, r.start_time, r.end_time, r.state)
                for r in system.metrics().records
            ],
            system.scheduler.stats,
        )

    on_tuples, on_stats = run(True)
    off_tuples, off_stats = run(False)
    assert on_tuples == off_tuples
    assert on_stats["shard_passes_skipped"] > 0
    assert off_stats["shard_passes_skipped"] == 0


def _rigid(cores, walltime, user):
    from repro.jobs.job import Job

    return Job(request=ResourceRequest(cores=cores), walltime=walltime, user=user)


@pytest.mark.parametrize("skip", [True, False])
def test_qalter_of_queued_job_replans_its_shard(skip):
    """A walltime cut must reach the cached shard plan.

    Shard 0 (nodes 0-1) runs A (6c until t=100) and plans B (8c) at
    t=100 with C (2c, 500 s) blocked behind it.  At t=10 ``qalter`` cuts
    C to 50 s, which now fits the 2 idle cores before B's reservation.
    Only job ids in the fingerprint would replay C's stale "blocked"
    outcome until t=200; the walltime in the routed key re-plans now.
    """
    from repro.apps.synthetic import FixedRuntimeApp
    from repro.rms.client import qalter

    system = BatchSystem(4, 4, MauiConfig(scheduler_shards=2))
    system.scheduler.shard_skip_enabled = skip
    a = system.submit(_rigid(6, 100, "a"), FixedRuntimeApp(100))
    d = system.submit(_rigid(8, 1000, "d"), FixedRuntimeApp(1000))
    b, e, c = _rigid(8, 100, "b"), _rigid(8, 100, "e"), _rigid(2, 500, "c")
    for job in (b, e, c):
        system.submit_at(1.0, job, FixedRuntimeApp(job.walltime))
    system.engine.at(10.0, lambda: qalter(system.server, c, walltime=50))
    system.run()
    assert (a.start_time, d.start_time) == (0.0, 0.0)
    assert c.start_time == 10.0
    assert b.start_time == 100.0


def test_submission_is_planned_on_the_cached_shard_plans():
    """A fresh submission re-plans nothing: both shards' cached routed
    queues are prefixes of the new ones, so the blocked jobs' outcomes are
    replayed and only the new job is planned, on the cached profile."""
    from repro.apps.synthetic import FixedRuntimeApp

    def run(skip):
        system = BatchSystem(4, 4, MauiConfig(scheduler_shards=2))
        scheduler = system.scheduler
        scheduler.shard_skip_enabled = skip
        system.submit(_rigid(6, 100, "a"), FixedRuntimeApp(100))
        system.submit(_rigid(8, 1000, "d"), FixedRuntimeApp(1000))
        system.submit_at(1.0, _rigid(8, 100, "b"), FixedRuntimeApp(100))
        system.submit_at(1.0, _rigid(8, 100, "e"), FixedRuntimeApp(100))
        # routed to shard 0; too long for the hole before B's reservation
        late = _rigid(2, 500, "late")
        system.submit_at(5.0, late, FixedRuntimeApp(500))
        system.engine.run(until=4.0)
        stats = scheduler.stats
        before = (
            stats["profile_builds"] + stats["profile_advances"]
            + stats["profile_cache_hits"],
            stats["shard_passes_skipped"],
        )
        system.engine.run(until=6.0)
        after = (
            stats["profile_builds"] + stats["profile_advances"]
            + stats["profile_cache_hits"],
            stats["shard_passes_skipped"],
        )
        system.run()
        return late.start_time, before, after

    start_on, before, after = run(True)
    start_off, *_ = run(False)
    assert start_on == start_off == 200.0
    assert after[0] == before[0]  # no shard profile built or advanced
    assert after[1] == before[1] + 2  # both shards served from cache


def test_delta_planning_keeps_the_cached_reservation_depth():
    """Appended jobs plan with the prefix's reservation count.

    Depth 1: B holds shard 0's one reservation (node 0 from t=100).  The
    appended 3-core job is blocked and, depth spent, gets no reservation,
    so node 1's two idle cores stay free for the 2-core job submitted
    next, which starts at once exactly as in a full re-plan.
    """
    from repro.apps.synthetic import FixedRuntimeApp

    def run(skip):
        config = MauiConfig(
            reservation_depth=1, reservation_delay_depth=1, scheduler_shards=2
        )
        system = BatchSystem(4, 4, config)
        system.scheduler.shard_skip_enabled = skip
        system.submit(_rigid(6, 100, "a"), FixedRuntimeApp(100))
        system.submit(_rigid(8, 1000, "d"), FixedRuntimeApp(1000))
        system.submit_at(1.0, _rigid(4, 100, "b"), FixedRuntimeApp(100))
        system.submit_at(1.0, _rigid(8, 100, "e"), FixedRuntimeApp(100))
        system.submit_at(5.0, _rigid(3, 300, "late1"), FixedRuntimeApp(300))
        late2 = _rigid(2, 150, "late2")
        system.submit_at(6.0, late2, FixedRuntimeApp(150))
        system.run()
        return late2.start_time, system.scheduler.stats["shard_passes_skipped"]

    start_on, skipped = run(True)
    start_off, _ = run(False)
    assert start_on == start_off == 6.0
    assert skipped > 0


def test_backfilled_shard_is_replanned_by_the_echo():
    """A shard that backfilled is not at its fixpoint and must not be
    cached under its post-walk state: the echo re-plans it and starts
    the job that only fits once the blocked job's reservation is laid out
    around the backfilled one.  The scenario is mirrored on both shards
    (3 nodes x 8 cores each; routing alternates), one copy per shard."""
    from repro.apps.synthetic import FixedRuntimeApp

    def run(skip):
        config = MauiConfig(
            reservation_depth=2, reservation_delay_depth=2, scheduler_shards=2
        )
        system = BatchSystem(6, 8, config)
        system.scheduler.shard_skip_enabled = skip
        for copy in (0, 1):
            system.submit(_rigid(9, 400, f"r{copy}"), FixedRuntimeApp(400))
        queued = [
            _rigid(cores, walltime, f"{name}{copy}")
            for cores, walltime, name in (
                (18, 50, "big"), (1, 1000, "x"), (13, 600, "y"), (4, 1000, "z")
            )
            for copy in (0, 1)
        ]
        for job in queued:
            system.submit_at(1.0, job, FixedRuntimeApp(job.walltime))
        system.run()
        return {job.user: job.start_time for job in queued}

    starts = run(True)
    assert starts == run(False)
    assert starts["z0"] == starts["z1"] == 1.0


# ----------------------------------------------------------------------
# shard map construction
# ----------------------------------------------------------------------
class TestShardMap:
    def test_balanced_contiguous_split(self):
        cluster = Cluster.homogeneous(10, 8)
        shard_map = ShardMap.build(cluster, 3)
        sizes = [len(s.nodes) for s in shard_map.shards]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        flat = [n for s in shard_map.shards for n in s.nodes]
        assert flat == sorted(flat)  # contiguous ascending ⇒ global order

    def test_partitions_never_mix(self):
        cluster = Cluster.homogeneous(10, 8, dynamic_partition_nodes=4)
        shard_map = ShardMap.build(cluster, 2)
        for shard in shard_map.shards:
            partitions = {cluster.node(n).partition for n in shard.nodes}
            assert len(partitions) == 1

    def test_more_shards_than_nodes(self):
        cluster = Cluster.homogeneous(2, 8)
        shard_map = ShardMap.build(cluster, 8)
        assert len(shard_map) == 2

    def test_capable_shards_and_spanning(self):
        cluster = Cluster.homogeneous(8, 4)
        shard_map = ShardMap.build(cluster, 2)
        assert len(shard_map.capable_shards(cluster, ResourceRequest(cores=8))) == 2
        # more cores than any single shard holds ⇒ no capable shard
        assert shard_map.capable_shards(cluster, ResourceRequest(cores=20)) == ()

    def test_split_allocation(self):
        cluster = Cluster.homogeneous(4, 8)
        shard_map = ShardMap.build(cluster, 2)
        pieces = shard_map.split_allocation(Allocation({0: 8, 1: 4, 2: 8}))
        assert set(pieces) == {0, 1}
        assert dict(pieces[0].items()) == {0: 8, 1: 4}
        assert dict(pieces[1].items()) == {2: 8}


# ----------------------------------------------------------------------
# cluster-side caches and shard version counters
# ----------------------------------------------------------------------
class TestClusterShardBookkeeping:
    def test_free_maps_are_private_copies(self):
        cluster = Cluster.homogeneous(4, 8)
        a = cluster.free_by_node()
        a.pop(0)
        assert 0 in cluster.free_by_node()
        b = cluster.free_for_nodes((0, 1))
        b[0] = 0
        assert cluster.free_for_nodes((0, 1))[0] == 8

    def test_free_for_nodes_skips_down(self):
        cluster = Cluster.homogeneous(4, 8)
        cluster.fail_node(1)
        assert set(cluster.free_for_nodes((0, 1, 2))) == {0, 2}

    def test_shard_versions_bump_only_touched_shard(self):
        cluster = Cluster.homogeneous(4, 8)
        cluster.install_shard_index({0: 0, 1: 0, 2: 1, 3: 1}, 2)
        alloc = Allocation({0: 4})
        cluster.claim(alloc)
        assert cluster.shard_versions == [1, 0]
        cluster.release(alloc)
        assert cluster.shard_versions == [2, 0]
        cluster.fail_node(3)
        assert cluster.shard_versions == [2, 1]
        cluster.recover_node(3)
        assert cluster.shard_versions == [2, 2]

    def test_single_shard_scheduler_counts_versions(self):
        """Delta planning runs at one shard too, so the default scheduler
        installs the index and its one counter tracks every claim."""
        system = BatchSystem(2, 4)
        assert system.cluster.shard_versions == [0]
        system.cluster.claim(Allocation({1: 2}))
        assert system.cluster.shard_versions == [1]


# ----------------------------------------------------------------------
# evolving_ify
# ----------------------------------------------------------------------
class TestEvolvingIfy:
    def test_seeded_and_counted(self):
        base = make_random_workload(100, 64, evolving_share=0.0, seed=1)
        assert base.evolving_jobs == 0
        evolved = evolving_ify(base, 0.25, seed=7)
        assert evolved.evolving_jobs == 25
        again = evolving_ify(base, 0.25, seed=7)
        picked = [s.evolution is not None for s in evolved.specs]
        assert picked == [s.evolution is not None for s in again.specs]
        other = evolving_ify(base, 0.25, seed=8)
        assert picked != [s.evolution is not None for s in other.specs]
        assert base.evolving_jobs == 0  # input untouched

    def test_already_evolving_left_alone(self):
        base = make_random_workload(50, 64, evolving_share=1.0, seed=3)
        evolved = evolving_ify(base, 0.5, seed=1)
        assert evolved.evolving_jobs == base.evolving_jobs
        assert [s.evolution for s in evolved.specs] == [
            s.evolution for s in base.specs
        ]

    def test_runs_and_grows(self):
        base = make_random_workload(
            40, 32, evolving_share=0.0, size_range=(1, 16), seed=5
        )
        evolved = evolving_ify(base, 0.5, seed=9)
        system = BatchSystem(
            num_nodes=4,
            cores_per_node=8,
            config=MauiConfig(reservation_depth=5, reservation_delay_depth=5),
        )
        evolved.submit_to(system)
        system.run(max_events=5_000_000)
        metrics = system.metrics()
        assert metrics.completed_jobs == 40
        assert metrics.satisfied_dyn_jobs > 0

    def test_fraction_out_of_range_rejected(self):
        base = make_random_workload(10, 64, evolving_share=0.0, seed=1)
        for bad in (-0.1, 1.1, 2.0):
            with pytest.raises(ValueError, match=r"fraction must be in \[0, 1\]"):
                evolving_ify(base, bad, seed=1)
        # the boundaries themselves are legal
        assert evolving_ify(base, 0.0, seed=1).evolving_jobs == 0
        assert evolving_ify(base, 1.0, seed=1).evolving_jobs == 10
