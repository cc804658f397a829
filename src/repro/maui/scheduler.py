"""The extended Maui scheduler (paper Algorithms 1 and 2).

One :class:`MauiScheduler` instance attaches to a server and runs a
scheduling iteration whenever job or resource state changes (Maui wake-up
condition (i)), optionally also on a periodic timer.  Each iteration:

1. updates statistics (fairshare usage accrual, DFS interval roll-over);
2. selects and prioritises eligible static jobs and — separately, in FIFO
   order — eligible dynamic requests;
3. for every dynamic request: tries to allocate idle resources (dynamic
   partition first if enabled, preemptible resources last), measures the
   delays a grant would inflict on the planned queue, asks the dynamic
   fairness policies for permission, and grants or rejects;
4. starts static jobs in priority order, creating reservations for the top
   ``ReservationDepth`` blocked jobs;
5. backfills the remaining queue (suspended while an ESP Z-job waits).

With ``dynamic_enabled=False`` the iteration degrades exactly to the
original Algorithm 1 and every dynamic request is rejected — that is the
paper's "Static" baseline configuration.
"""

from __future__ import annotations

import logging
import math

from repro.cluster.allocation import Allocation
from repro.cluster.machine import Cluster
from repro.cluster.profile import AvailabilityProfile, NoFitError
from repro.jobs.job import Job, JobState
from repro.jobs.queue import DynRequest
from repro.maui.config import MauiConfig
from repro.maui.delay import measure_delays
from repro.maui.fairness import DFSLedger
from repro.maui.partition import find_dynamic_allocation, static_partitions
from repro.maui.preemption import plan_preemption
from repro.maui.priority import FairshareTracker, Prioritizer
from repro.maui.reservations import StaticPlan, plan_static
from repro.maui.shards import SchedulerShard, ShardMap
from repro.obs.clock import perf_ns as _perf_ns
from repro.rms.server import Server
from repro.sim.engine import Engine, PRIORITY_SCHEDULER
from repro.sim.events import EventKind

__all__ = ["MauiScheduler"]

log = logging.getLogger("repro.maui.scheduler")


class MauiScheduler:
    """Event-driven scheduler daemon."""

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        server: Server,
        config: MauiConfig | None = None,
        *,
        telemetry=None,
    ) -> None:
        self.engine = engine
        self.cluster = cluster
        self.server = server
        self.config = config if config is not None else MauiConfig()
        self.trace = server.trace
        #: optional :class:`repro.obs.Telemetry` (defaults to the server's)
        self.telemetry = telemetry if telemetry is not None else server.telemetry
        self._obs = None
        #: optional :class:`repro.obs.ledger.DecisionLedger`; None keeps
        #: every ledger hook a single attribute-is-None check (off path)
        self._ledger = None
        #: optional :class:`repro.obs.perf.PhaseProfiler`; same discipline —
        #: every phase hook on the disabled path is one is-None check
        self._prof = None
        #: optional :class:`repro.obs.fairness.FairnessObservatory`; fed
        #: from the statistics update — same single-is-None hook discipline
        self._fair = None
        if self.telemetry is not None and self.telemetry.enabled:
            from repro.obs.instruments import SchedulerInstruments

            self._obs = SchedulerInstruments(self.telemetry)
            self._ledger = getattr(self.telemetry, "ledger", None)
            self._prof = getattr(self.telemetry, "profiler", None)
            self._fair = getattr(self.telemetry, "fairness", None)
        self.fairshare = FairshareTracker(
            self.config.weights.fairshare_interval,
            self.config.weights.fairshare_decay,
            start_time=engine.now,
        )
        self.prioritizer = Prioritizer(self.config.weights, self.fairshare)
        self.dfs = DFSLedger(self.config.dfs, start_time=engine.now)
        self._wake_pending = False
        self._last_stats_time = engine.now
        #: cumulative counters for reports and tests
        self.stats = {
            "iterations": 0,
            "iterations_skipped": 0,
            "dyn_granted": 0,
            "dyn_rejected": 0,
            "dyn_rejected_fairness": 0,
            "dyn_rejected_resources": 0,
            "jobs_started": 0,
            "jobs_backfilled": 0,
            "reservations_created": 0,
            "preemptions": 0,
            "malleable_shrinks": 0,
            "jobs_molded": 0,
            "total_delay_charged": 0.0,
            "dyn_handle_seconds": 0.0,  # wall-clock cost of the dynamic path
            "profile_builds": 0,
            "profile_cache_hits": 0,
            "profile_advances": 0,
            "profile_advance_fallbacks": 0,
            "backfill_quick_rejects": 0,
            "shard_merges": 0,
            "shard_passes_skipped": 0,
        }
        #: per-partition scheduler sharding (:mod:`repro.maui.shards`).
        #: ``scheduler_shards >= 1`` routes the static pass through
        #: shard-sized profiles (1 shard is bit-identical to the monolithic
        #: pass); 0 keeps the legacy monolithic pass as the A/B oracle.
        self.sharded_pass_enabled = self.config.scheduler_shards >= 1
        self._shard_map: ShardMap | None = None
        if self.sharded_pass_enabled:
            self._shard_map = ShardMap.build(
                cluster,
                max(1, self.config.scheduler_shards),
                partitions=static_partitions(self.config),
            )
            cluster.install_shard_index(
                self._shard_map.node_to_shard, len(self._shard_map)
            )
        #: per-shard delta planning, at any shard count: a shard whose
        #: cluster slice and walltime epoch are unchanged since its last
        #: planning pass, whose earliest planned reservation is still in
        #: the future and whose cached routed queue is a prefix of the
        #: current one replays the cached per-job outcome for that prefix
        #: and plans only the appended jobs, on the cached end-of-walk
        #: profile, whatever observers are attached.  Disable for A/B runs.
        self.shard_skip_enabled = True
        self._shard_pass_cache: dict[int, dict] = {}
        #: queued job -> ``(start, cores)`` of its last traced reservation,
        #: so the trace never depends on how often a plan is re-derived
        self._reservation_marks: dict[str, tuple[float, int]] = {}
        #: sticky job -> shard-index assignments, made least-loaded-first
        #: in deterministic pass order and kept while the job queues —
        #: stable routing is what keeps the per-shard routed tuples (and
        #: with them the pass-skip fingerprints) quiescent between passes.
        #: Deliberately NOT keyed on ``Job.seq``: that is a process-global
        #: counter and not stable across runs in one process.
        self._route_assign: dict[str, tuple] = {}
        self._route_memo: dict = {}
        self._route_memo_version = -1
        #: availability-profile cache: one profile per partition view, valid
        #: for a single (server state, cluster state, sim time) snapshot.
        #: Disable to benchmark the uncached hot path.
        self.profile_cache_enabled = True
        self._profile_cache: dict[tuple[str, ...] | None, AvailabilityProfile] = {}
        self._profile_state: tuple[int, int, float] | None = None
        #: incremental profile maintenance: when the snapshot goes stale,
        #: advance the previous profile to the new time and apply the
        #: claim/release deltas of jobs that started/finished/changed since,
        #: instead of rebuilding the matrix from scratch.  Disable to force
        #: full rebuilds (A/B tests, the equivalence oracle).
        self.profile_incremental_enabled = True
        #: per partition view: the last built profile plus the active-job
        #: footprints ``job_id -> (alloc items inside the view, walltime end)``
        #: it encodes — the diff source for the next advance
        self._profile_bases: dict[
            tuple[str, ...] | None,
            tuple[AvailabilityProfile, dict[str, tuple[tuple, float]]],
        ] = {}
        #: per view key: job_id -> (allocation, footprint inside the view),
        #: the identity-keyed memo behind :meth:`_active_footprints`
        self._footprint_memos: dict = {}
        #: event-driven activation: wake-ups with no state change since the
        #: last full pass are skipped (statistics still accrue).  Disable to
        #: restore unconditional iterations (A/B tests, benchmarks).
        self.iteration_skip_enabled = True
        #: (server.state_version, cluster.version) at the *end* of the last
        #: full iteration that reached its fixpoint — the quiescence
        #: fingerprint (see :meth:`iteration`); None while the last pass
        #: left work for its echo wake-up.
        self._last_pass_state: tuple[int, int] | None = None
        #: set by time-anchored wakes (reservation boundaries, maintenance
        #: window edges) whose whole point is that *time*, not state, changed
        self._force_iteration = False
        #: delay-measurement context (profile, eligible ordering, baseline
        #: plan) shared by every dynamic request handled under one state
        self._delay_ctx: tuple | None = None
        #: pending wake at the next reservation boundary (Maui wake-up
        #: condition (ii)); rescheduled every iteration
        self._boundary_wake = None
        self._next_reservation_start: float | None = None
        if self.telemetry is not None:
            # sampled time series: the live replacements for post-hoc
            # trace reconstruction (utilization, depths, ledger levels)
            self.telemetry.add_source(
                "utilization", lambda: cluster.used_cores / cluster.total_cores
            )
            self.telemetry.add_source("busy_cores", lambda: cluster.used_cores)
            self.telemetry.add_source("queue_depth", lambda: len(server.queue))
            self.telemetry.add_source(
                "dyn_queue_depth", lambda: len(server.dyn_queue)
            )
            self.telemetry.add_source(
                "running_jobs", lambda: server.active_count
            )
            self.telemetry.add_source(
                "dfs_ledger_delay",
                lambda: {
                    f"{kind}:{name}": delay
                    for (kind, name), delay in self.dfs.snapshot().items()
                },
            )
        server.on_state_change = self.request_iteration
        server.on_node_event = self.handle_node_event
        if self.config.timer_interval is not None:
            self.engine.after(self.config.timer_interval, self._timer_tick)
        for reservation in self.config.admin_reservations:
            # both edges of a maintenance window are scheduling opportunities;
            # nothing else changes at an edge, so the wake must be forced
            for edge in (reservation.start, reservation.end):
                if edge > engine.now:
                    self.engine.at(edge, self._forced_wake)

    # ------------------------------------------------------------------
    # wake-up machinery
    # ------------------------------------------------------------------
    def request_iteration(self, force: bool = False) -> None:
        """Coalesced wake-up: at most one iteration is queued at a time.

        ``force`` marks wake-ups whose trigger is the passage of simulated
        time itself (reservation boundaries, maintenance-window edges): they
        must run a full iteration even though no state counter moved.
        """
        if force:
            self._force_iteration = True
        if self._wake_pending:
            return
        self._wake_pending = True
        self.engine.at(
            self.engine.now, self._run_iteration, priority=PRIORITY_SCHEDULER
        )

    def _forced_wake(self) -> None:
        self.request_iteration(force=True)

    def handle_node_event(self, node_index: int) -> None:
        """A node failed or recovered: re-plan on the new node set.

        Reservations (and the boundary wake derived from them) were laid
        out on the *old* node set — a reservation planned on a node that
        just died is unservable, and a recovered node may admit an earlier
        start.  Drop the stale boundary wake and force a full iteration so
        plans are rebuilt from the surviving nodes immediately.
        """
        if self._boundary_wake is not None:
            self._boundary_wake.cancel()
            self._boundary_wake = None
        self._next_reservation_start = None
        # the incremental bases were laid out on the old node set; a changed
        # set needs a from-scratch build (the diff only covers allocations)
        self._profile_bases.clear()
        self._footprint_memos.clear()
        # shard pass outcomes and capability routing were computed on the
        # old node set too
        self._shard_pass_cache.clear()
        self._route_memo.clear()
        self._route_memo_version = -1
        self.request_iteration(force=True)

    def _run_iteration(self) -> None:
        self._wake_pending = False
        force = self._force_iteration
        self._force_iteration = False
        if not force and self._quiescent():
            # Nothing a full pass could act on has changed: same job and
            # cluster state, no pending dynamic requests.  Statistics still
            # accrue (so fairshare sums and DFS interval rolls are
            # bit-identical to unconditional iteration), but profile
            # construction, prioritisation, planning and backfill are all
            # skipped — unless an accounting window rolls right now, which
            # decays usage and can reorder priorities without any version
            # bump, so the pass is no longer a provable no-op.
            fairshare_window = self.fairshare.window_start
            dfs_window = self.dfs.interval_start
            self._update_statistics(self.engine.now)
            if (
                self.fairshare.window_start == fairshare_window
                and self.dfs.interval_start == dfs_window
            ):
                self.stats["iterations_skipped"] += 1
                if self._obs is not None:
                    self._obs.note_skip(self.stats["iterations_skipped"])
                log.debug(
                    "iteration skipped t=%.1f (state unchanged)", self.engine.now
                )
                return
        self.iteration()

    def _quiescent(self) -> bool:
        """No schedulable change since the last full pass?

        Conservative on purpose: any pending dynamic request (including
        negotiated requests awaiting fresh availability estimates) forces a
        full iteration, as does any bump of either monotone version counter.
        Time-only effects — a planned reservation becoming startable, a
        maintenance window opening — arrive as *forced* wakes and never
        reach this check.
        """
        return (
            self.iteration_skip_enabled
            and self._last_pass_state is not None
            and not self.server.dyn_queue
            and self._last_pass_state
            == (self.server.state_version, self.cluster.version)
        )

    def _timer_tick(self) -> None:
        self.request_iteration()
        self.engine.after(self.config.timer_interval, self._timer_tick)

    # ------------------------------------------------------------------
    # profile construction
    # ------------------------------------------------------------------
    @staticmethod
    def _view_key(view):
        """Cache key for a profile view: a partitions tuple, None (all
        nodes), or a :class:`SchedulerShard` (its ``cache_key`` carries an
        int, so it can never collide with the all-string partition tuples).
        """
        return view.cache_key if isinstance(view, SchedulerShard) else view

    def _view_free(self, view) -> dict[int, int]:
        """The cluster's free map over a profile view."""
        if isinstance(view, SchedulerShard):
            return self.cluster.free_for_nodes(view.nodes)
        return self.cluster.free_by_node(partitions=view)

    def _build_profile(self, view) -> AvailabilityProfile:
        """Current + future availability over the given view (cached).

        ``view`` is a partitions tuple (or None for all nodes) — the
        monolithic paths — or a :class:`SchedulerShard` for the sharded
        static pass.  Profiles are pure functions of (server state, cluster
        allocation state, simulation time); both state counters are
        monotone, so a three-way snapshot comparison detects staleness in
        O(1).  A cache hit hands out a
        :meth:`~AvailabilityProfile.copy` because every caller mutates its
        working profile with hypothetical claims.
        """
        prof = self._prof
        if prof is None:
            return self._build_profile_cached(view)
        prof.begin("profile_build")
        try:
            return self._build_profile_cached(view)
        finally:
            prof.end()

    def _build_profile_cached(self, view) -> AvailabilityProfile:
        if not self.profile_cache_enabled:
            self.stats["profile_builds"] += 1
            return self._build_profile_uncached(view)
        key = self._view_key(view)
        state = (self.server.state_version, self.cluster.version, self.engine.now)
        if state != self._profile_state:
            self._profile_state = state
            self._profile_cache.clear()
        cached = self._profile_cache.get(key)
        if cached is not None:
            self.stats["profile_cache_hits"] += 1
            return cached.copy()
        profile = self._advance_profile(view)
        if profile is None:
            self.stats["profile_builds"] += 1
            profile = self._build_profile_uncached(view)
            if self._incremental_usable():
                self._profile_bases[key] = (
                    profile, self._active_footprints(set(profile._nodes), key)
                )
        else:
            self.stats["profile_advances"] += 1
        self._profile_cache[key] = profile
        return profile.copy()

    def _incremental_usable(self) -> bool:
        # admin reservations interact with running jobs non-locally (a
        # reservation claim skipped because drained cores were busy must be
        # retried when those jobs finish) — keep those configs on the
        # always-rebuild path
        return self.profile_incremental_enabled and not self.config.admin_reservations

    def _active_footprints(
        self, nodes: set[int], view_key=None
    ) -> dict[str, tuple[tuple, float]]:
        """What each active job contributes to a profile over ``nodes``.

        The node intersection is a pure function of the (immutable)
        allocation, so per view it is memoized on allocation identity —
        expansion rebinds ``job.allocation`` and always misses.  Walltime
        ends are read fresh every call (extensions mutate the job in
        place).  Rebuilding the per-view memo dict each call prunes
        finished jobs for free.
        """
        snap: dict[str, tuple[tuple, float]] = {}
        memo = self._footprint_memos.get(view_key) if view_key is not None else None
        fresh: dict = {}
        for job in self.server.active_jobs():
            alloc = job.allocation
            assert alloc is not None
            cached = memo.get(job.job_id) if memo is not None else None
            if cached is None or cached[0] is not alloc:
                inside = tuple(
                    sorted((n, c) for n, c in alloc.items() if n in nodes)
                )
                cached = (alloc, inside)
            fresh[job.job_id] = cached
            if cached[1]:
                snap[job.job_id] = (cached[1], job.walltime_end)
        if view_key is not None:
            self._footprint_memos[view_key] = fresh
        return snap

    def _advance_profile(self, view) -> AvailabilityProfile | None:
        """Bring the cached base profile up to date by claim/release deltas.

        The base encodes "free cores now + future releases of these active
        jobs" as of the previous snapshot.  Advancing clips the timeline to
        the current sim time, then per job that departed (or changed shape/
        walltime) cancels its scheduled future release and frees its cores
        now, and per job that arrived claims its window — O(changed jobs)
        slice updates instead of an O(active jobs) rebuild.  Departed jobs
        can leave *neutral* breakpoints behind (equal adjacent rows); those
        never change the step function, window minima, or the earliest
        feasible start, so every query stays bit-identical to a from-scratch
        build (pinned by ``tests/test_profile_equivalence.py``).

        Returns None (caller rebuilds) when incremental maintenance is off,
        no base exists, or the post-advance free vector fails to reconcile
        with the cluster — the self-check that keeps this path safe.
        """
        if not self._incremental_usable():
            return None
        key = self._view_key(view)
        base = self._profile_bases.get(key)
        if base is None:
            return None
        profile, old_snap = base
        now = self.engine.now
        new_snap = self._active_footprints(set(profile._nodes), key)
        try:
            profile.advance_to(now)
            for job_id, (footprint, wt_end) in old_snap.items():
                if new_snap.get(job_id) == (footprint, wt_end):
                    continue
                if wt_end <= now:
                    # the scheduled release is already fully in effect
                    continue
                alloc = Allocation(dict(footprint))
                # cancel the future release first, then free the cores now —
                # this order keeps both atomic checks satisfied
                profile.add_claim(wt_end, math.inf, alloc)
                profile.add_release(now, alloc)
            for job_id, entry in new_snap.items():
                if old_snap.get(job_id) == entry:
                    continue
                footprint, wt_end = entry
                profile.add_claim(now, wt_end, Allocation(dict(footprint)))
        except ValueError:
            self._profile_bases.pop(key, None)
            self.stats["profile_advance_fallbacks"] += 1
            return None
        # reconcile: free cores at `now` must equal the cluster's — the
        # invariant every from-scratch build satisfies by construction
        free = self._view_free(view)
        if profile.free_at(now) != free or set(free) != set(profile._nodes):
            self._profile_bases.pop(key, None)
            self.stats["profile_advance_fallbacks"] += 1
            return None
        self._profile_bases[key] = (profile, new_snap)
        return profile

    def _build_profile_uncached(self, view) -> AvailabilityProfile:
        """Current + future availability over the given view.

        Running jobs release their full (possibly expanded) allocation at
        their walltime end — the scheduler plans with walltimes, not with
        the actual completion times it cannot know.
        """
        now = self.engine.now
        free = self._view_free(view)
        capacity = {
            n.index: n.cores for n in self.cluster.nodes if n.index in free
        }
        profile = AvailabilityProfile(sorted(free), free, now, capacity)
        for job in self.server.active_jobs():
            assert job.allocation is not None
            assert job.walltime_end > now, f"{job.job_id} past walltime yet active"
            inside = {n: c for n, c in job.allocation.items() if n in free}
            if inside:
                profile.add_release(job.walltime_end, Allocation(inside))
        for reservation in self.config.admin_reservations:
            if reservation.end <= now:
                continue
            inside = {
                n: c for n, c in reservation.cores_by_node.items() if n in free
            }
            if not inside:
                continue
            try:
                profile.add_claim(
                    max(reservation.start, now), reservation.end, Allocation(inside)
                )
            except ValueError:
                # the reserved cores are (partly) occupied by running jobs:
                # the operator drains them; the profile already shows them
                # busy until those jobs' walltime ends
                pass
        return profile

    # ------------------------------------------------------------------
    # the iteration
    # ------------------------------------------------------------------
    def iteration(self) -> None:
        """One full scheduling cycle (Algorithm 2; Algorithm 1 if static)."""
        obs = self._obs
        if obs is not None:
            wall_start_ns = _perf_ns()
            events_before = self.trace.total_recorded
        now = self.engine.now
        prof = self._prof
        if prof is not None:
            prof.begin("sched_iteration", sim_time=now)
        self.stats["iterations"] += 1
        self._update_statistics(now)

        if self.server.dyn_queue:
            if self.config.dynamic_enabled:
                self._process_dynamic_requests(now)
            else:
                for dreq in list(self.server.dyn_queue):
                    self._reject(dreq, "dynamic allocation disabled", kind="resources")

        ledger = self._ledger
        exclusions: dict[str, tuple[str, str | None]] | None = (
            {} if ledger is not None else None
        )
        if prof is not None:
            prof.begin("prioritize")
        ordered = self._eligible_static(now, exclusions=exclusions)
        if prof is not None:
            prof.end()
        lockdown = self.server.queue.has_top_priority_job
        outcome: dict[str, tuple[str, str | None]] | None = (
            {} if ledger is not None else None
        )
        all_eligible = len(ordered) == len(self.server.queue)
        walk_version = self.server.state_version
        started, backfilled = self._start_static(ordered, now, lockdown, outcome=outcome)
        if len(self._reservation_marks) > len(self.server.queue):
            # a start pops its job's mark; only a cancelled job leaves one
            # behind, so dropping those here keeps marks within the queue
            jobs = self.server.jobs
            self._reservation_marks = {
                job_id: mark for job_id, mark in self._reservation_marks.items()
                if (job := jobs.get(job_id)) and job.state is JobState.QUEUED
            }
        # Fixpoint rule: the echo wake-up this pass's own starts trigger
        # would re-walk the same queue minus the started jobs on the same
        # profile (each start is claimed in the working profile exactly as
        # the cluster then holds it), so it provably starts nothing when
        #   * every start preceded the first blocked job (no backfill: a
        #     backfill start can move where the blocked jobs' reservations
        #     land and unlock further backfill),
        #   * the only state changes during the walk were those starts,
        #   * every queued job was eligible (a start can open a gate, such
        #     as an ``after`` dependency or a per-user eligibility cap, and
        #     let a held-back job in), and
        #   * the ESP lockdown is unchanged (a started Z job lifts it).
        # Such a pass arms the quiescence fingerprint with the post-pass
        # counters, so its echo is skipped; any other pass leaves it unset.
        if (
            backfilled == 0
            and self.server.state_version == walk_version + started
            and all_eligible
            and (not lockdown or self.server.queue.has_top_priority_job)
        ):
            self._last_pass_state = (self.server.state_version, self.cluster.version)
        else:
            self._last_pass_state = None
        if prof is not None:
            prof.begin("wrap_up")
        if ledger is not None:
            # every still-queued job is classified exactly once per pass:
            # excluded (hold/dependency/throttle) or examined by the start
            # pass (reserved, plain queued, or blocked from backfilling)
            exclusions.update(outcome)
            ledger.observe_queue(now, exclusions)
        self._schedule_boundary_wake()

        self.trace.record(
            now,
            EventKind.SCHED_ITERATION,
            queued=len(self.server.queue),
            dynqueued=len(self.server.dyn_queue),
            started=started,
            backfilled=backfilled,
            lockdown=lockdown,
        )
        log.debug(
            "iteration t=%.1f queued=%d started=%d backfilled=%d",
            now, len(self.server.queue), started, backfilled,
        )
        if prof is not None:
            prof.end()
            prof.end()
        if obs is not None:
            obs.sync_stats(self.stats)
            obs.sync_ledger(self.dfs.snapshot())
            obs.end_iteration(
                now,
                _perf_ns() - wall_start_ns,
                self.trace.total_recorded - events_before,
            )

    def _eligible_static(
        self,
        now: float,
        exclusions: dict[str, tuple[str, str | None]] | None = None,
    ) -> list[Job]:
        """Queued jobs eligible for priority scheduling (Algorithm step 6).

        Three gates, all part of Maui's "minimum scheduling criterion":

        * holds — a held job stays queued but frozen until released;
        * dependencies — unmet dependencies keep the job queued but
          invisible to the planner; a failed ``afterok`` cancels it;
        * throttling — at most ``max_eligible_jobs_per_user`` queued jobs
          per user are considered, and a user at the
          ``max_running_jobs_per_user`` cap contributes no more eligible
          jobs than the cap leaves headroom for.

        ``exclusions`` (diagnostics/ledger only) collects
        ``job_id -> (cause, detail)`` for every job a gate filtered out,
        naming the specific hold kind, dependency target or throttle limit.
        """
        eligible: list[Job] = []
        for job in self.server.queue.snapshot():
            if job.hold is not None:
                if exclusions is not None:
                    exclusions[job.job_id] = (f"{job.hold}_held", f"{job.hold} hold")
                continue
            if self.server.dependency_failed(job):
                self.server.cancel_queued(job, reason="dependency failed")
                continue
            if self.server.dependency_satisfied(job):
                eligible.append(job)
            elif exclusions is not None:
                exclusions[job.job_id] = (
                    "dependency_held",
                    f"dependency on {job.depends_on}",
                )
        ordered = self.prioritizer.order(eligible, now)
        max_running = self.config.max_running_jobs_per_user
        max_eligible = self.config.max_eligible_jobs_per_user
        if max_running is None and max_eligible is None:
            return ordered
        running_count: dict[str, int] = {}
        for job in self.server.active_jobs():
            running_count[job.user] = running_count.get(job.user, 0) + 1
        taken: dict[str, int] = {}
        throttled: list[Job] = []
        for job in ordered:
            user_taken = taken.get(job.user, 0)
            if max_eligible is not None and user_taken >= max_eligible:
                if exclusions is not None:
                    exclusions[job.job_id] = (
                        "throttled",
                        f"throttled by max_eligible_jobs_per_user={max_eligible}",
                    )
                continue
            if max_running is not None:
                headroom = max_running - running_count.get(job.user, 0)
                if user_taken >= headroom:
                    if exclusions is not None:
                        exclusions[job.job_id] = (
                            "throttled",
                            f"throttled by max_running_jobs_per_user={max_running}",
                        )
                    continue
            taken[job.user] = user_taken + 1
            throttled.append(job)
        return throttled

    def _schedule_boundary_wake(self) -> None:
        """Wake at the earliest planned reservation start (condition (ii)).

        Normally job completions wake the scheduler in time to honour its
        reservations, but a reservation can begin at a boundary with no
        completion event — e.g. the end of a maintenance window.  One pending
        wake at the earliest future reservation start covers every such case.
        """
        if self._boundary_wake is not None:
            self._boundary_wake.cancel()
            self._boundary_wake = None
        if self._next_reservation_start is not None and (
            self._next_reservation_start > self.engine.now
        ):
            self._boundary_wake = self.engine.at(
                self._next_reservation_start, self._boundary_fire
            )

    def _boundary_fire(self) -> None:
        self._boundary_wake = None
        self.request_iteration(force=True)

    def _update_statistics(self, now: float) -> None:
        """Maui iteration step 4: accrue usage, roll accounting windows.

        Usage is accrued per job over its overlap with the window since the
        previous iteration — including jobs that finished *within* the
        window, whose final segment would otherwise never be charged.  The
        core count used is the job's latest allocation width (expansions are
        charged at full width from the window start; a second-order
        approximation that errs against the expanding user).
        """
        prof = self._prof
        if prof is not None:
            prof.begin("fairshare_update", sim_time=now)
        fair = self._fair
        last = self._last_stats_time
        if now > last:
            # Only running jobs plus those that finished since the previous
            # accrual window can overlap [last, now] — O(active) instead of
            # O(all jobs ever submitted).  Sorting by submission order keeps
            # the per-user floating-point sums bit-identical to the historic
            # full scan (which walked the submission-ordered job dict).
            chargeable = self.server.active_jobs()
            chargeable += self.server.drain_finished_for_stats()
            chargeable.sort(key=lambda j: j.seq)
            for job in chargeable:
                if job.start_time is None or job.allocation is None:
                    continue
                seg_start = max(last, job.start_time)
                seg_end = now if job.end_time is None else min(now, job.end_time)
                if seg_end > seg_start:
                    used = job.allocation.total_cores * (seg_end - seg_start)
                    self.fairshare.add_usage(job.user, used)
                    if fair is not None:
                        fair.accrue(job, used)
        self._last_stats_time = now
        self.fairshare.roll(now)
        if fair is not None:
            fair.sample(now, self.fairshare)
        if self.dfs.roll(now):
            self.trace.record(
                now, EventKind.DFS_INTERVAL_ROLL, interval_start=self.dfs.interval_start
            )
        if prof is not None:
            prof.end()

    # ------------------------------------------------------------------
    # dynamic requests (Algorithm 2 lines 11-24)
    # ------------------------------------------------------------------
    def _ordered_dynamic_requests(self) -> list[DynRequest]:
        """Pending dynamic requests in the configured service order."""
        pending = list(self.server.dyn_queue)
        order = self.config.dynamic_request_order
        if order == "fairshare":
            pending.sort(
                key=lambda d: (self.fairshare.usage(d.job.user), d.submit_time, d.job.seq)
            )
        elif order == "smallest_first":
            pending.sort(
                key=lambda d: (d.request.total_cores, d.submit_time, d.job.seq)
            )
        return pending

    def _delay_context(
        self, now: float
    ) -> tuple[AvailabilityProfile, list[Job], set[int], StaticPlan | None]:
        """Shared inputs for delay measurement, reused while state holds.

        The availability profile, the eligible static ordering, the
        static-partition node set and — crucially — the *baseline* priority
        plan are all pure functions of ``(server state, cluster state,
        now)``.  Consecutive dynamic requests resolved without a grant,
        preemption or shrink therefore reuse one baseline plan instead of
        re-planning the queue prefix from a fresh profile copy per request;
        any mutation bumps a version counter and rebuilds the context.
        """
        key = (self.server.state_version, self.cluster.version, now)
        ctx = self._delay_ctx
        if ctx is None or ctx[0] != key:
            prof = self._prof
            if prof is not None:
                prof.begin("delay_context")
            partitions = static_partitions(self.config)
            profile = self._build_profile(partitions)
            ordered = self._eligible_static(now)
            profile_nodes = set(self.cluster.free_by_node(partitions=partitions))
            baseline = (
                plan_static(ordered, profile.copy(), now, self.config.plan_depth)
                if ordered
                else None
            )
            ctx = (key, profile, ordered, profile_nodes, baseline)
            self._delay_ctx = ctx
            if prof is not None:
                prof.end()
        return ctx[1], ctx[2], ctx[3], ctx[4]

    def _process_dynamic_requests(self, now: float) -> None:
        obs = self._obs
        prof = self._prof
        if prof is not None:
            prof.begin("dyn_requests")
        for dreq in self._ordered_dynamic_requests():
            wall_start_ns = _perf_ns()
            events_before = self.trace.total_recorded if obs is not None else 0
            try:
                self._handle_dynamic_request(dreq, now)
            finally:
                wall_ns = _perf_ns() - wall_start_ns
                self.stats["dyn_handle_seconds"] += wall_ns / 1e9
                if obs is not None:
                    obs.end_dyn_handle(
                        now, wall_ns, self.trace.total_recorded - events_before
                    )
        if prof is not None:
            prof.end()

    def _handle_dynamic_request(self, dreq: DynRequest, now: float) -> None:
        if dreq.is_extension:
            self._handle_extension_request(dreq, now)
            return
        job = dreq.job
        assert job.start_time is not None
        claim_end = job.walltime_end
        if claim_end <= now:
            self._reject(dreq, "no walltime remaining", kind="resources")
            return
        blocked_nodes = self._admin_blocked_nodes(now, claim_end)
        alloc = find_dynamic_allocation(
            self.cluster, dreq.request, self.config, exclude_nodes=blocked_nodes
        )
        if alloc is None and self.config.malleable_steal_for_dynamic:
            alloc = self._steal_from_malleable(dreq)
        preempt_victims: list[Job] = []
        if alloc is None and self.config.preemption_for_dynamic:
            plan = plan_preemption(
                self.cluster, dreq.request, self.server.active_jobs()
            )
            if plan is None:
                self._deny(dreq, "insufficient resources", kind="resources", now=now)
                return
            preempt_victims = plan
        elif alloc is None:
            self._deny(dreq, "insufficient resources", kind="resources", now=now)
            return

        if preempt_victims:
            # Preemption reclaims opportunistic backfill, governed by Maui's
            # own preemption policy rather than DFS (which protects *queued*
            # jobs); the victims rejoin the queue and benefit from DFS there.
            for victim in preempt_victims:
                if self._ledger is not None:
                    self._ledger.note_preemption(
                        victim, dreq.job, now,
                        victim.allocation.total_cores if victim.allocation else 0,
                    )
                self.server.preempt_job(victim)
                self.stats["preemptions"] += 1
            alloc = find_dynamic_allocation(self.cluster, dreq.request, self.config)
            assert alloc is not None, "preemption plan did not free enough"
            self._grant(
                dreq, alloc, victims=[], charged=0.0,
                reason="preempted backfill",
                preempted=[v.job_id for v in preempt_victims],
            )
            return

        # measure delays against the queue as planned on the static partitions
        profile, ordered, profile_nodes, baseline = self._delay_context(now)
        claim_inside = Allocation(
            {n: c for n, c in alloc.items() if n in profile_nodes}
        )
        if claim_inside.is_empty:
            victims = []
        else:
            prof = self._prof
            if prof is not None:
                prof.begin("delay_measure")
            victims = measure_delays(
                ordered, profile, claim_inside, claim_end, now,
                self.config.plan_depth, baseline=baseline,
            )
            if prof is not None:
                prof.end()
        decision = self.dfs.evaluate(victims, job.user, now)
        if decision:
            charged = self.dfs.commit(victims, job.user)
            self._grant(
                dreq, alloc, victims=victims, charged=charged,
                reason=decision.reason,
            )
        else:
            self._deny(
                dreq, decision.reason, kind="fairness", now=now, victims=victims
            )

    def _steal_from_malleable(self, dreq: DynRequest) -> Allocation | None:
        """Shrink running malleable jobs until the request fits (or give up).

        Only flexible (``procs=N``) requests are served this way — a shaped
        request needs whole nodes, which piecemeal shrinking cannot promise.
        Jobs shrink latest-started-first so long-running malleable jobs keep
        their width longest.
        """
        if dreq.request.is_shaped:
            return None
        from repro.jobs.job import JobFlexibility

        candidates = [
            j
            for j in self.server.active_jobs()
            if j.flexibility is JobFlexibility.MALLEABLE and j is not dreq.job
        ]
        candidates.sort(key=lambda j: (-(j.start_time or 0.0), j.seq))
        partitions = static_partitions(self.config)
        for job in candidates:
            deficit = dreq.request.cores - sum(
                self.cluster.free_by_node(partitions=partitions).values()
            )
            if deficit <= 0:
                break
            released = self.server.request_shrink(job, deficit)
            if released:
                self.stats["malleable_shrinks"] += 1
        return find_dynamic_allocation(self.cluster, dreq.request, self.config)

    def _admin_blocked_nodes(self, start: float, end: float) -> set[int]:
        """Nodes with an admin reservation overlapping ``[start, end)``.

        A dynamic grant holds until the evolving job's walltime end, so a
        grant on these nodes would collide with the maintenance window.
        """
        blocked: set[int] = set()
        for reservation in self.config.admin_reservations:
            if reservation.overlaps(start, end):
                blocked.update(reservation.cores_by_node)
        return blocked

    def _handle_extension_request(self, dreq: DynRequest, now: float) -> None:
        """Walltime extension: the job keeps its own cores for longer.

        The hypothetical reservation is the job's current allocation over
        ``[old walltime end, new walltime end)`` — resources are trivially
        "available" (the job already holds them); only fairness can refuse.
        """
        job = dreq.job
        assert job.start_time is not None and job.allocation is not None
        assert dreq.extend_walltime is not None
        old_end = job.walltime_end
        new_end = old_end + dreq.extend_walltime
        profile, ordered, profile_nodes, baseline = self._delay_context(now)
        claim_inside = Allocation(
            {n: c for n, c in job.allocation.items() if n in profile_nodes}
        )
        if claim_inside.is_empty:
            victims = []
        else:
            prof = self._prof
            if prof is not None:
                prof.begin("delay_measure")
            victims = measure_delays(
                ordered,
                profile,
                claim_inside,
                new_end,
                now,
                self.config.plan_depth,
                claim_start=old_end,
                baseline=baseline,
            )
            if prof is not None:
                prof.end()
        decision = self.dfs.evaluate(victims, job.user, now)
        if decision:
            charged = self.dfs.commit(victims, job.user)
            self.stats["dyn_granted"] += 1
            self.stats["total_delay_charged"] += charged
            if self._ledger is not None:
                self._ledger.note_dyn_grant(
                    dreq, now, cores=0, victims=victims, charged=charged,
                    policy=self.config.dfs.policy.value, reason=decision.reason,
                    fingerprint=self._fingerprint(now),
                    extension=dreq.extend_walltime,
                )
            self.server.grant_walltime_extension(dreq)
        else:
            self.trace.record(
                now,
                EventKind.WALLTIME_EXTENSION_DENY,
                job_id=job.job_id,
                user=job.user,
                extension=dreq.extend_walltime,
                reason=decision.reason,
            )
            self._reject(dreq, decision.reason, kind="fairness", victims=victims)

    def _fingerprint(self, now: float) -> tuple[int, int, float]:
        """Availability-profile state fingerprint: the cache key identifying
        the exact ``(server state, cluster state, time)`` snapshot a verdict's
        profile was built from (see :meth:`_build_profile`)."""
        return (self.server.state_version, self.cluster.version, now)

    def _grant(
        self,
        dreq,
        alloc,
        *,
        victims,
        charged: float,
        reason: str = "",
        preempted: list[str] | None = None,
    ) -> None:
        if self._ledger is not None:
            self._ledger.note_dyn_grant(
                dreq, self.engine.now, cores=alloc.total_cores, victims=victims,
                charged=charged, policy=self.config.dfs.policy.value,
                reason=reason, fingerprint=self._fingerprint(self.engine.now),
                preempted=preempted,
            )
        self.stats["dyn_granted"] += 1
        self.stats["total_delay_charged"] += charged
        self.server.grant_dynamic(dreq, alloc)

    def _reject(self, dreq, reason: str, *, kind: str, victims=()) -> None:
        if self._ledger is not None:
            self._ledger.note_dyn_deny(
                dreq, self.engine.now, reason=reason, deny_kind=kind,
                victims=victims, policy=self.config.dfs.policy.value,
                fingerprint=self._fingerprint(self.engine.now),
            )
        self.stats["dyn_rejected"] += 1
        self.stats[f"dyn_rejected_{kind}"] += 1
        self.server.reject_dynamic(dreq, reason)

    def _deny(
        self,
        dreq: DynRequest,
        reason: str,
        *,
        kind: str,
        now: float,
        victims=(),
    ) -> None:
        """Reject — or, for a live negotiated request, defer with an estimate.

        Negotiated requests (Section III-C outlook) stay in the dynamic
        queue until their deadline; each denied attempt publishes the
        scheduler's current earliest-availability estimate so the
        application can plan around it.
        """
        if not dreq.negotiated or now >= (dreq.deadline or now):
            self._reject(dreq, reason, kind=kind, victims=victims)
            return
        profile = self._build_profile(None)
        try:
            available_at, _alloc = profile.earliest_fit(dreq.request, 1.0, after=now)
        except NoFitError:
            self._reject(
                dreq, f"{reason}; request can never fit", kind=kind, victims=victims
            )
            return
        if self._ledger is not None:
            self._ledger.note_dyn_defer(dreq, now, estimate=available_at)
        dreq.publish_estimate(available_at)

    # ------------------------------------------------------------------
    # static starts, reservations, backfill (Algorithm 2 lines 25-26)
    # ------------------------------------------------------------------
    def _start_static(
        self,
        ordered: list[Job],
        now: float,
        lockdown: bool,
        outcome: dict[str, tuple[str, str | None]] | None = None,
    ) -> tuple[int, int]:
        """Start jobs in priority order; reserve for the top blocked jobs.

        ``ReservationDepth`` bounds how many *blocked* jobs receive future
        reservations — it never prevents a fitting job from starting.  Jobs
        that start after any higher-priority job was passed over run out of
        order and are therefore marked (and counted) as backfill; with
        backfill disabled the pass stops at the first blocked job instead
        (strict priority order).  Returns (priority starts, backfill starts).

        ``outcome`` (ledger only) collects ``job_id -> (cause, detail)`` for
        every examined-but-not-started job plus everything left unexamined
        when the pass stops early.

        With ``scheduler_shards >= 1`` (the default) the pass runs sharded
        (:meth:`_start_static_sharded`); ``scheduler_shards == 0`` keeps
        this monolithic walk — the A/B oracle the single-shard path is
        pinned against (the same schedule, trace and ledger; the same work
        counters too with delta planning off).
        """
        if self.sharded_pass_enabled:
            return self._start_static_sharded(ordered, now, lockdown, outcome=outcome)
        return self._start_static_monolithic(ordered, now, lockdown, outcome=outcome)

    def _start_static_monolithic(
        self,
        ordered: list[Job],
        now: float,
        lockdown: bool,
        outcome: dict[str, tuple[str, str | None]] | None = None,
    ) -> tuple[int, int]:
        prof = self._prof
        if prof is not None:
            prof.begin("static_pass")
        partitions = static_partitions(self.config)
        working = self._build_profile(partitions)
        ledger = self._ledger
        fingerprint = self._fingerprint(now)
        blocked_ids: list[str] = []
        reserved_ahead: list[tuple[str, float]] = []
        reservations = 0
        started = 0
        backfilled = 0
        passed_blocked = False
        stopped_at: int | None = None
        self._next_reservation_start = None
        for idx, job in enumerate(ordered):
            if prof is not None:
                prof.begin("backfill_scan")
            # instantaneous-free prune: on a packed cluster most candidates
            # fail against the free vector at `now` alone, skipping the
            # window scan (a pure short-circuit — fits_at would return None)
            if working.quick_reject(now, job.request):
                self.stats["backfill_quick_rejects"] += 1
                alloc = None
            else:
                alloc = working.fits_at(now, job.walltime, job.request)
            molded = False
            if alloc is None and job.moldable_floor < job.request.total_cores:
                # moldable job: start now on the largest fitting size within
                # [min_cores, request) rather than wait for the full request
                alloc = self._mold_to_fit(working, job, now)
                if alloc is not None:
                    molded = True
                    self.stats["jobs_molded"] += 1
                    self.trace.record(
                        now,
                        EventKind.MOLDABLE_START,
                        job_id=job.job_id,
                        user=job.user,
                        requested=job.request.total_cores,
                        granted=alloc.total_cores,
                        floor=job.moldable_floor,
                    )
            if prof is not None:
                prof.end()
            if alloc is not None:
                working.add_claim(now, now + job.walltime, alloc)
                if ledger is not None:
                    ledger.note_start(
                        job,
                        now,
                        backfilled=passed_blocked,
                        molded=molded,
                        cores=alloc.total_cores,
                        fingerprint=fingerprint,
                        jumped=blocked_ids if passed_blocked else None,
                        hole_until=self._next_reservation_start,
                    )
                # a start while a higher-priority job waits is out-of-order
                # execution, i.e. backfill in Maui's terms
                self.server.start_job(job, alloc, backfilled=passed_blocked)
                self._reservation_marks.pop(job.job_id, None)
                if passed_blocked:
                    self.stats["jobs_backfilled"] += 1
                    backfilled += 1
                else:
                    self.stats["jobs_started"] += 1
                    started += 1
                continue
            # blocked: reserve if within depth, then maybe stop the pass
            if reservations < self.config.reservation_depth:
                if prof is not None:
                    prof.begin("reservation_plan")
                try:
                    try:
                        if prof is not None:
                            prof.begin("earliest_fit")
                        try:
                            # oversized requests fail every candidate window;
                            # one vectorized sweep proves it without the scan
                            if not working.can_ever_fit(job.request):
                                raise NoFitError(
                                    f"{job.request} never fits "
                                    "(cluster too small or fragmented)"
                                )
                            # probe_start=False: this job just failed to
                            # start at `now` against this very profile, so
                            # the window query at the bound is already known
                            # to fail
                            start, res_alloc = working.earliest_fit(
                                job.request,
                                job.walltime,
                                after=now,
                                probe_start=False,
                            )
                        finally:
                            if prof is not None:
                                prof.end()
                    except NoFitError:
                        if outcome is not None:
                            outcome[job.job_id] = (
                                "queued_behind",
                                "request can never fit",
                            )
                        continue  # oversized for this partition view; skip
                    working.add_claim(start, start + job.walltime, res_alloc)
                    reservations += 1
                    if (
                        self._next_reservation_start is None
                        or start < self._next_reservation_start
                    ):
                        self._next_reservation_start = start
                    self.stats["reservations_created"] += 1
                    self._trace_reservation(now, job, (start, res_alloc.total_cores))
                    if ledger is not None:
                        # what is the reservation waiting on: running jobs
                        # that release by its start, plus earlier
                        # reservations due to start before it
                        waiting_on = [
                            j.job_id
                            for j in self.server.active_jobs()
                            if j.walltime_end <= start + 1e-9
                        ] + [jid for jid, s in reserved_ahead if s <= start + 1e-9]
                        ledger.note_reservation(
                            job, now, start, res_alloc.total_cores,
                            waiting_on, fingerprint,
                        )
                        reserved_ahead.append((job.job_id, start))
                        if outcome is not None:
                            outcome[job.job_id] = (
                                "reservation_held",
                                f"reserved at t={start:.1f}",
                            )
                finally:
                    if prof is not None:
                        prof.end()
            elif outcome is not None:
                behind = f"behind {blocked_ids[0]}" if blocked_ids else None
                outcome[job.job_id] = ("queued_behind", behind)
            blocked_ids.append(job.job_id)
            passed_blocked = True
            if job.top_priority or not self.config.backfill_enabled or lockdown:
                # ESP Z-job lockdown, or strict priority order without
                # backfill: nothing below the blocked job may start
                stopped_at = idx
                break
        if outcome is not None and stopped_at is not None:
            if lockdown:
                reason = "Z-job lockdown"
            elif not self.config.backfill_enabled:
                reason = "backfill disabled"
            else:
                reason = f"blocked top-priority job {ordered[stopped_at].job_id}"
            for job in ordered[stopped_at + 1 :]:
                outcome[job.job_id] = ("backfill_blocked", reason)
        if prof is not None:
            prof.end()
        return started, backfilled

    def _trace_reservation(self, now: float, job: Job, mark: tuple[float, int]) -> None:
        """Trace ``reservation_create`` when the ``(start, cores)`` plan
        is new or has moved (the ledger's create/slide rule)."""
        if self._reservation_marks.get(job.job_id) != mark:
            self._reservation_marks[job.job_id] = mark
            self.trace.record(
                now, EventKind.RESERVATION_CREATE,
                job_id=job.job_id, start=mark[0], cores=mark[1],
            )

    # ------------------------------------------------------------------
    # the sharded static pass (repro.maui.shards)
    # ------------------------------------------------------------------
    def _route(
        self, job: Job, loads: dict[int, int]
    ) -> SchedulerShard | None:
        """Deterministic, run-stable shard for a queued job.

        Capable shards (UP capacity could ever satisfy the request) are
        memoized per request shape and cluster topology version (bumped
        only on node fail/recover — ordinary claims and releases never
        change UP capacity, so the memo survives them).  A first-seen job
        is assigned the capable shard with the fewest queued cores routed
        so far this pass (lowest index on ties) and keeps that assignment
        while it queues; ``loads`` is the per-pass queued-core tally,
        recomputed from the priority walk each pass so departed jobs never
        leave stale weight behind.  ``None`` means no single shard can
        host the request (a full-machine ESP Z job, an oversized shape):
        the caller plans it on the cross-shard merge.
        """
        topo = self.cluster.topology_version
        if self._route_memo_version != topo:
            self._route_memo_version = topo
            self._route_memo.clear()
        req = job.request
        assigned = self._route_assign.get(job.job_id)
        if assigned is not None:
            if assigned[0] is req and assigned[2] == topo:
                # fast path: assignment sticky, request object unchanged
                # (qalter rebinds it) and topology unchanged since the
                # assignment was validated — no capability lookup needed
                sid = assigned[1]
                loads[sid] += req.total_cores
                return self._shard_map.shards[sid]
            sid = assigned[1]
        else:
            sid = None
        req_key = (req.cores, req.nodes, req.ppn)
        memo = self._route_memo.get(req_key)
        if memo is None:
            capable = self._shard_map.capable_shards(self.cluster, req)
            memo = (capable, frozenset(s.index for s in capable))
            self._route_memo[req_key] = memo
        capable, capable_ids = memo
        if not capable:
            return None
        if sid is None or sid not in capable_ids:
            # least-loaded assignment; a vanished shard (node failures
            # shrank its capacity below the request) re-routes here
            best = min(capable, key=lambda s: (loads[s.index], s.index))
            sid = best.index
        self._route_assign[job.job_id] = (req, sid, topo)
        loads[sid] += req.total_cores
        return self._shard_map.shards[sid]

    def _shard_fingerprints(
        self, ordered: list[Job], routes: list[SchedulerShard | None]
    ) -> dict[int, tuple]:
        """Per-shard fingerprint ``(shard version, walltime epoch, routed)``.

        A shard's planning outcome is a pure function of (its cluster
        slice, the walltime ends of the active jobs touching its nodes, the
        jobs routed to it in pass order).  The shard version counter covers
        every claim, release and node event on the shard's nodes, and with
        them active-set membership and allocations; the server's walltime
        epoch covers extensions, the one mutation that moves a future
        release without a cluster bump.  The routed tuple lists each job's
        ``(job_id, walltime, request)`` in pass order, so queue membership,
        relative priority order and a ``qalter`` of a queued job all show.
        """
        routed: dict[int, list[tuple]] = {s.index: [] for s in self._shard_map.shards}
        for job, route in zip(ordered, routes):
            if route is not None:
                routed[route.index].append((job.job_id, job.walltime, job.request))
        versions = self.cluster.shard_versions
        epoch = self.server.walltime_epoch
        return {sid: (versions[sid], epoch, tuple(keys)) for sid, keys in routed.items()}

    def _start_static_sharded(
        self,
        ordered: list[Job],
        now: float,
        lockdown: bool,
        outcome: dict[str, tuple[str, str | None]] | None = None,
    ) -> tuple[int, int]:
        """The sharded static pass: one global priority walk, per-shard plans.

        Each job plans against its shard's own working profile (built and
        cached per shard, incrementally maintained per shard); spanning
        jobs plan on an explicit cross-shard merge and scatter their claims
        back into the shard profiles.  The walk itself — priority order,
        ``passed_blocked`` backfill labeling, reservation depth, the
        lockdown stop — reproduces the monolithic pass exactly; with one
        shard every operation is performed on the same profile in the same
        order, so the schedule is bit-identical to
        :meth:`_start_static_monolithic`.

        At any shard count, one included, a shard whose cached plan still
        holds (see ``shard_skip_enabled``) is planned by delta: its cached
        routed prefix replays the cached per-job outcome in walk order,
        and only jobs appended behind it — typically a fresh submission —
        are planned, on the cached end-of-walk profile advanced to
        ``now``.  Replayed reservations are not planned again, so with
        delta planning on the schedule, trace and ledger, but not the
        work counters, match the monolithic pass.
        """
        prof = self._prof
        if prof is not None:
            prof.begin("static_pass")
        shard_map = self._shard_map
        shards = shard_map.shards
        multi = len(shards) > 1
        partitions = static_partitions(self.config)
        ledger = self._ledger

        if multi and not ordered:
            # empty queue: nothing to plan or block.  Cached plans stay:
            # each remains exact for its shard until a version or epoch
            # bump, a due reservation or a routed mismatch retires it.
            self._next_reservation_start = None
            if prof is not None:
                prof.end()
            return 0, 0

        fingerprint = self._fingerprint(now)
        walk_version = self.server.state_version

        if multi:
            loads = {shard.index: 0 for shard in shards}
            routes: list[SchedulerShard | None] = [
                self._route(job, loads) for job in ordered
            ]
        else:
            routes = [shards[0]] * len(ordered)

        # Delta-planning preconditions.  Soundness rests on profiles being
        # release-only between state changes (free cores non-decreasing in
        # time, so fits/earliest-fit outcomes are time-stable until the
        # earliest planned reservation start); spanning jobs, lockdown,
        # disabled backfill and admin reservations fall back to full
        # planning.  The ledger does not: a replayed prefix re-derives its
        # ledger causes from the cached per-job outcomes.
        skip_ok = (
            self.shard_skip_enabled
            and not lockdown
            and self.config.backfill_enabled
            and not self.config.admin_reservations
            and all(route is not None for route in routes)
        )
        fingerprints = self._shard_fingerprints(ordered, routes)
        hits: dict[int, dict] = {}
        replay_left: dict[int, int] = {}
        if skip_ok:
            for sid, (version, epoch, routed) in fingerprints.items():
                cached = self._shard_pass_cache.get(sid)
                if cached is None:
                    continue
                c_version, c_epoch, c_routed = cached["fingerprint"]
                if (
                    c_version != version
                    or c_epoch != epoch
                    or routed[: len(c_routed)] != c_routed
                ):
                    continue
                res_start = cached["min_res_start"]
                if res_start is not None and now >= res_start:
                    continue  # a cached reservation is due: replan the shard
                hits[sid] = cached
                replay_left[sid] = len(c_routed)

        workings: dict[int, AvailabilityProfile] = {}

        def working_for(shard: SchedulerShard) -> AvailabilityProfile:
            profile = workings.get(shard.index)
            if profile is None:
                cached = hits.get(shard.index)
                profile = cached["profile"] if cached is not None else None
                if profile is None:
                    profile = self._build_profile(shard if multi else partitions)
                elif profile.now != now:
                    # the cached end-of-walk plan: release-only up to its
                    # first reservation, so on [now, inf) it equals a fresh
                    # build carrying the replayed prefix's claims
                    profile.advance_to(now)
                workings[shard.index] = profile
            return profile

        if not multi:
            # the monolithic pass builds its profile unconditionally (even
            # with an empty queue); matching that keeps the delta-off
            # single-shard build counters bit-identical to the legacy oracle
            working_for(shards[0])

        blocked_ids: list[str] = []
        reserved_ahead: list[tuple[str, float]] = []
        depth = self.config.reservation_depth
        res_counts = {shard.index: 0 for shard in shards}
        # per shard: blocked job -> reservation (start, cores), None past depth
        shard_blocked: dict[int, dict] = {shard.index: {} for shard in shards}
        shard_min_res: dict[int, float | None] = {shard.index: None for shard in shards}
        # shards that started a job behind one of their own blocked jobs
        # (their walk is not at its fixpoint) and the jobs started this pass
        shard_backfilled: set[int] = set()
        started_ids: set[str] = set()
        started = 0
        backfilled = 0
        passed_blocked = False
        stopped_at: int | None = None
        self._next_reservation_start = None
        for sid, cached in hits.items():
            res_counts[sid] = cached["reservations"]
            shard_min_res[sid] = cached["min_res_start"]

        for idx, job in enumerate(ordered):
            route = routes[idx]
            if route is not None and replay_left.get(route.index):
                # cached prefix: still blocked (labels later backfill) or
                # still can-never-fit (contributes nothing), exactly as the
                # cached walk decided; its claims live in the cached profile.
                # A reservation is replayed where the walk meets it, so the
                # boundary wake, a backfill's hole and later reservations'
                # waiting_on see what a full pass would have seen by then.
                replay_left[route.index] -= 1
                cached_blocked = hits[route.index]["blocked"]
                if job.job_id not in cached_blocked:
                    if outcome is not None:
                        outcome[job.job_id] = ("queued_behind", "request can never fit")
                    continue
                reserved = cached_blocked[job.job_id]
                if reserved is None:
                    if outcome is not None:
                        behind = f"behind {blocked_ids[0]}" if blocked_ids else None
                        outcome[job.job_id] = ("queued_behind", behind)
                else:
                    start = reserved[0]
                    bound = self._next_reservation_start
                    if bound is None or start < bound:
                        self._next_reservation_start = start
                    if ledger is not None:
                        reserved_ahead.append((job.job_id, start))
                        if outcome is not None:
                            held = f"reserved at t={start:.1f}"
                            outcome[job.job_id] = ("reservation_held", held)
                blocked_ids.append(job.job_id)
                passed_blocked = True
                continue
            spanning = route is None
            if spanning:
                # cross-shard merge: gather every shard's current working
                # profile (claims of earlier jobs this pass included) into
                # one full view, plan on it, scatter claims back below
                self.stats["shard_merges"] += 1
                if prof is not None:
                    prof.begin("shard_merge")
                working = AvailabilityProfile.merge(
                    [working_for(shard) for shard in shards]
                )
                if prof is not None:
                    prof.end()
                sid: int | None = None
                suffix = ".merge"
            else:
                working = working_for(route)
                sid = route.index
                suffix = f".s{sid}" if multi else ""
            if prof is not None:
                prof.begin("backfill_scan" + suffix)
            if working.quick_reject(now, job.request):
                self.stats["backfill_quick_rejects"] += 1
                alloc = None
            else:
                alloc = working.fits_at(now, job.walltime, job.request)
            molded = False
            if alloc is None and job.moldable_floor < job.request.total_cores:
                alloc = self._mold_to_fit(working, job, now)
                if alloc is not None:
                    molded = True
                    self.stats["jobs_molded"] += 1
                    self.trace.record(
                        now,
                        EventKind.MOLDABLE_START,
                        job_id=job.job_id,
                        user=job.user,
                        requested=job.request.total_cores,
                        granted=alloc.total_cores,
                        floor=job.moldable_floor,
                    )
            if prof is not None:
                prof.end()
            if alloc is not None:
                if spanning:
                    for part_sid, part in shard_map.split_allocation(alloc).items():
                        workings[part_sid].add_claim(now, now + job.walltime, part)
                else:
                    working.add_claim(now, now + job.walltime, alloc)
                if ledger is not None:
                    ledger.note_start(
                        job,
                        now,
                        backfilled=passed_blocked,
                        molded=molded,
                        cores=alloc.total_cores,
                        fingerprint=fingerprint,
                        jumped=blocked_ids if passed_blocked else None,
                        hole_until=self._next_reservation_start,
                        shard=sid if multi else None,
                    )
                self.server.start_job(job, alloc, backfilled=passed_blocked)
                self._route_assign.pop(job.job_id, None)
                self._reservation_marks.pop(job.job_id, None)
                if skip_ok:
                    if shard_blocked[sid] or (sid in hits and hits[sid]["blocked"]):
                        shard_backfilled.add(sid)
                    started_ids.add(job.job_id)
                if passed_blocked:
                    self.stats["jobs_backfilled"] += 1
                    backfilled += 1
                else:
                    self.stats["jobs_started"] += 1
                    started += 1
                continue
            # blocked: reserve if within depth, then maybe stop the pass.
            # Reservation depth is per shard; a spanning job counts against
            # every shard (equivalent to the single global counter at one
            # shard).
            under_depth = (
                all(count < depth for count in res_counts.values())
                if spanning
                else res_counts[sid] < depth
            )
            mark: tuple[float, int] | None = None
            if under_depth:
                if prof is not None:
                    prof.begin("reservation_plan" + suffix)
                try:
                    try:
                        if prof is not None:
                            prof.begin("earliest_fit" + suffix)
                        try:
                            if not working.can_ever_fit(job.request):
                                raise NoFitError(
                                    f"{job.request} never fits "
                                    "(cluster too small or fragmented)"
                                )
                            start, res_alloc = working.earliest_fit(
                                job.request,
                                job.walltime,
                                after=now,
                                probe_start=False,
                            )
                        finally:
                            if prof is not None:
                                prof.end()
                    except NoFitError:
                        if outcome is not None:
                            outcome[job.job_id] = (
                                "queued_behind",
                                "request can never fit",
                            )
                        continue  # oversized for this view; skip
                    if spanning:
                        for part_sid, part in shard_map.split_allocation(
                            res_alloc
                        ).items():
                            workings[part_sid].add_claim(
                                start, start + job.walltime, part
                            )
                        for shard in shards:
                            res_counts[shard.index] += 1
                    else:
                        working.add_claim(start, start + job.walltime, res_alloc)
                        res_counts[sid] += 1
                        cur = shard_min_res[sid]
                        if cur is None or start < cur:
                            shard_min_res[sid] = start
                    if (
                        self._next_reservation_start is None
                        or start < self._next_reservation_start
                    ):
                        self._next_reservation_start = start
                    self.stats["reservations_created"] += 1
                    mark = (start, res_alloc.total_cores)
                    self._trace_reservation(now, job, mark)
                    if ledger is not None:
                        waiting_on = [
                            j.job_id
                            for j in self.server.active_jobs()
                            if j.walltime_end <= start + 1e-9
                        ] + [jid for jid, s in reserved_ahead if s <= start + 1e-9]
                        ledger.note_reservation(
                            job, now, start, res_alloc.total_cores,
                            waiting_on, fingerprint,
                            shard=sid if multi else None,
                        )
                        reserved_ahead.append((job.job_id, start))
                        if outcome is not None:
                            outcome[job.job_id] = (
                                "reservation_held",
                                f"reserved at t={start:.1f}",
                            )
                finally:
                    if prof is not None:
                        prof.end()
            elif outcome is not None:
                behind = f"behind {blocked_ids[0]}" if blocked_ids else None
                outcome[job.job_id] = ("queued_behind", behind)
            blocked_ids.append(job.job_id)
            if sid is not None:
                shard_blocked[sid][job.job_id] = mark
            passed_blocked = True
            if job.top_priority or not self.config.backfill_enabled or lockdown:
                stopped_at = idx
                break
        if outcome is not None and stopped_at is not None:
            if lockdown:
                reason = "Z-job lockdown"
            elif not self.config.backfill_enabled:
                reason = "backfill disabled"
            else:
                reason = f"blocked top-priority job {ordered[stopped_at].job_id}"
            for job in ordered[stopped_at + 1 :]:
                outcome[job.job_id] = ("backfill_blocked", reason)
        cache = self._shard_pass_cache
        if (
            skip_ok
            and stopped_at is None
            and self.server.state_version == walk_version + started + backfilled
        ):
            # Post-pass entries: a shard whose walk reached its fixpoint
            # (no start behind one of its own blocked jobs) is stored
            # under its post-walk version and routed queue, with its
            # end-of-walk profile, so the next trigger — the echo of
            # this pass's starts included — finds it current.
            versions = self.cluster.shard_versions
            epoch = self.server.walltime_epoch
            for sid, (_version, _epoch, routed) in fingerprints.items():
                cached = hits.get(sid)
                if cached is not None:
                    self.stats["shard_passes_skipped"] += 1
                    if sid not in workings:
                        continue  # nothing appended: the entry stands
                if sid in shard_backfilled:
                    cache.pop(sid, None)
                    continue
                if started_ids:
                    routed = tuple(k for k in routed if k[0] not in started_ids)
                blocked = shard_blocked[sid]
                if cached is not None:
                    blocked = {**cached["blocked"], **blocked}
                cache[sid] = {
                    "fingerprint": (versions[sid], epoch, routed),
                    "blocked": blocked,
                    "min_res_start": shard_min_res[sid],
                    "reservations": res_counts[sid],
                    "profile": workings.get(sid),
                }
        else:
            cache.clear()
        if prof is not None:
            prof.end()
        return started, backfilled

    def explain(self, job: Job) -> dict:
        """Why is this job where it is?  (Maui's ``checkjob`` equivalent.)

        Returns a dict with the job's state, queue position, current
        priority, planned earliest start from a fresh plan, and — for
        queued jobs — what is holding it back, naming the *specific* gate:
        the hold kind, the dependency target, the throttle limit hit, or
        resources.  With the decision ledger enabled the dict also carries
        the job's causal chain (every recorded decision that touched it)
        and its wait-time attribution so far.  Read-only: no reservation
        or start side effects.
        """
        now = self.engine.now
        info: dict = {
            "job_id": job.job_id,
            "state": job.state.value,
            "priority": None,
            "queue_position": None,
            "planned_start": None,
            "blocked_by": None,
        }
        if job.submit_time is not None:
            info["priority"] = self.prioritizer.priority(job, now)
        if self._ledger is not None:
            info["causal_chain"] = self._ledger.causal_chain(job.job_id)
            info["attribution"] = self._ledger.attribution(job.job_id, upto=now)
        if job.is_active:
            info["planned_start"] = job.start_time
            return info
        if job.is_finished or job.submit_time is None:
            return info
        exclusions: dict[str, tuple[str, str | None]] = {}
        eligible = self._eligible_static(now, exclusions=exclusions)
        if job not in eligible:
            _cause, detail = exclusions.get(job.job_id, (None, None))
            info["blocked_by"] = detail
            return info
        info["queue_position"] = eligible.index(job)
        from repro.maui.reservations import plan_static

        profile = self._build_profile(static_partitions(self.config))
        plan = plan_static(
            eligible, profile, now, depth=max(self.config.plan_depth, len(eligible))
        )
        starts = plan.starts_by_job()
        if job.job_id in starts:
            info["planned_start"] = starts[job.job_id]
            if starts[job.job_id] > now:
                info["blocked_by"] = "resources"
        else:
            info["blocked_by"] = "request can never fit"
        return info

    @staticmethod
    def _mold_to_fit(working, job, now):
        """Largest core count in [moldable_floor, request) fitting right now.

        Feasibility is monotone in the size, so binary search over the
        flexible request.  Returns None when even the floor does not fit.
        """
        from repro.cluster.allocation import ResourceRequest

        lo, hi = job.moldable_floor, job.request.total_cores - 1
        if working.fits_at(now, job.walltime, ResourceRequest(cores=lo)) is None:
            return None
        best = lo
        while lo <= hi:
            mid = (lo + hi + 1) // 2
            if working.fits_at(now, job.walltime, ResourceRequest(cores=mid)) is not None:
                best = mid
                lo = mid + 1
            else:
                hi = mid - 1
        return working.fits_at(now, job.walltime, ResourceRequest(cores=best))

    def __repr__(self) -> str:
        return (
            f"<MauiScheduler iterations={self.stats['iterations']} "
            f"granted={self.stats['dyn_granted']} rejected={self.stats['dyn_rejected']}>"
        )
