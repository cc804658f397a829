"""Streaming trace pipeline: subscribers, ring buffer, JSONL, no-op path."""

import io

import pytest

from repro.obs import (
    JsonlTraceWriter,
    Telemetry,
    export_jsonl,
    read_jsonl,
)
from repro.sim.events import EventKind, TraceLog
from repro.system import BatchSystem
from repro.workloads.random_workload import make_random_workload


def run_system(telemetry=None, trace_maxlen=None, *, seed=3, num_jobs=40):
    system = BatchSystem(4, 8, telemetry=telemetry, trace_maxlen=trace_maxlen)
    make_random_workload(
        num_jobs,
        32,
        evolving_share=0.4,
        mean_interarrival=30.0,
        size_range=(1, 16),
        seed=seed,
    ).submit_to(system)
    system.run(max_events=1_000_000)
    return system


def normalized(events):
    """Events with job ids renamed by first appearance (seq is process-global)."""
    ids: dict = {}
    out = []
    for e in events:
        payload = {
            k: (ids.setdefault(v, f"J{len(ids)}") if k == "job_id" else v)
            for k, v in e.payload.items()
        }
        out.append((e.time, e.kind, payload))
    return out


class TestSubscribers:
    def test_fanout_is_synchronous_and_in_subscription_order(self):
        log = TraceLog()
        calls: list[tuple[str, float]] = []
        log.subscribe(lambda e: calls.append(("first", e.time)))
        log.subscribe(lambda e: calls.append(("second", e.time)))
        log.record(1.0, EventKind.JOB_SUBMIT, job_id="j")
        log.record(2.0, EventKind.JOB_START, job_id="j")
        assert calls == [
            ("first", 1.0),
            ("second", 1.0),
            ("first", 2.0),
            ("second", 2.0),
        ]

    def test_unsubscribe(self):
        log = TraceLog()
        seen: list = []
        cb = log.subscribe(seen.append)
        log.record(0.0, EventKind.JOB_SUBMIT)
        log.unsubscribe(cb)
        log.record(1.0, EventKind.JOB_SUBMIT)
        assert len(seen) == 1
        with pytest.raises(ValueError):
            log.unsubscribe(cb)

    def test_stream_matches_engine_determinism(self):
        """Two identical runs stream byte-identical (normalized) sequences."""
        streams = []
        for _ in range(2):
            system = BatchSystem(4, 8)
            seen: list = []
            system.trace.subscribe(seen.append)
            make_random_workload(
                30, 32, evolving_share=0.4, mean_interarrival=30.0, seed=5
            ).submit_to(system)
            system.run(max_events=1_000_000)
            assert seen == list(system.trace)  # stream == retained log
            streams.append(normalized(seen))
        assert streams[0] == streams[1]


class TestRingBuffer:
    def test_rejects_nonpositive_maxlen(self):
        with pytest.raises(ValueError):
            TraceLog(maxlen=0)

    def test_bounded_log_keeps_newest_and_counts_drops(self):
        log = TraceLog(maxlen=3)
        for t in range(5):
            log.record(float(t), EventKind.JOB_SUBMIT, job_id=f"j{t}")
        assert len(log) == 3
        assert [e.time for e in log] == [2.0, 3.0, 4.0]
        assert log.dropped == 2
        assert log.total_recorded == 5
        assert [e.time for e in log.tail(2)] == [3.0, 4.0]

    def test_subscribers_see_dropped_events_too(self):
        log = TraceLog(maxlen=2)
        seen: list = []
        log.subscribe(seen.append)
        for t in range(6):
            log.record(float(t), EventKind.JOB_SUBMIT)
        assert len(seen) == 6
        assert len(log) == 2

    def test_clear_resets_accounting(self):
        log = TraceLog(maxlen=2)
        for t in range(4):
            log.record(float(t), EventKind.JOB_SUBMIT)
        log.clear()
        assert (len(log), log.dropped, log.total_recorded) == (0, 0, 0)

    def test_bounded_utilization_matches_unbounded(self):
        """The busy-core integral replaces trace replay when the ring drops."""
        full = run_system(telemetry=Telemetry(sample_interval=None))
        bounded = run_system(
            telemetry=Telemetry(sample_interval=None), trace_maxlen=50
        )
        assert bounded.trace.dropped > 0
        assert bounded.metrics().utilization == pytest.approx(
            full.metrics().utilization, rel=1e-9
        )


    def test_bounded_utilization_without_telemetry_names_the_cause(self):
        """No live integral and a truncated trace: say so, not a bogus
        'negative busy-core count' from replaying half a run."""
        bounded = run_system(trace_maxlen=50)
        dropped = bounded.trace.dropped
        assert dropped > 0
        with pytest.raises(ValueError, match=f"dropped {dropped} events") as err:
            bounded.metrics().utilization
        assert "Telemetry" in str(err.value)
        assert "unbounded trace" in str(err.value)


class TestJsonl:
    def test_round_trip_reproduces_identical_events(self):
        system = run_system()
        # the workload starts jobs, so payloads include int-keyed
        # cores_by_node maps — the round-trip must revive those keys
        assert any(e.kind is EventKind.JOB_START for e in system.trace)
        buf = io.StringIO()
        written = export_jsonl(system.trace, buf)
        assert written == len(system.trace)
        buf.seek(0)
        restored = read_jsonl(buf)
        assert list(restored) == list(system.trace)

    def test_streaming_writer_sees_every_event_despite_ring(self):
        buf = io.StringIO()
        system = BatchSystem(4, 8, trace_maxlen=20)
        system.trace.subscribe(JsonlTraceWriter(buf))
        make_random_workload(
            30, 32, evolving_share=0.4, mean_interarrival=30.0, seed=5
        ).submit_to(system)
        system.run(max_events=1_000_000)
        assert system.trace.dropped > 0
        buf.seek(0)
        restored = read_jsonl(buf)
        assert len(restored) == system.trace.total_recorded

    def test_file_round_trip(self, tmp_path):
        system = run_system(num_jobs=10)
        path = str(tmp_path / "trace.jsonl")
        export_jsonl(system.trace, path)
        assert list(read_jsonl(path)) == list(system.trace)


class TestDisabledPath:
    def test_no_telemetry_and_disabled_telemetry_agree_with_baseline(self):
        plain = run_system()
        disabled = run_system(telemetry=Telemetry.disabled())
        assert normalized(plain.trace) == normalized(disabled.trace)
        assert len(disabled.telemetry.registry) == 0
        assert disabled.telemetry.sampler is None

    def test_enabled_telemetry_does_not_perturb_the_simulation(self):
        plain = run_system()
        instrumented = run_system(telemetry=Telemetry())
        assert normalized(plain.trace) == normalized(instrumented.trace)

    def test_uninstrumented_components_have_no_obs(self):
        system = run_system()
        assert system.server._obs is None
        assert system.scheduler._obs is None
        assert system.cluster._obs is None


class TestSampler:
    def test_series_recorded_and_engine_drains(self):
        telemetry = Telemetry(sample_interval=60.0)
        system = run_system(telemetry=telemetry)
        # the run returned, so the sampler stopped re-arming itself
        assert telemetry.sampler is not None
        assert telemetry.sampler.samples_taken > 1
        util = telemetry.series["utilization"]
        assert util[0][0] == 0.0
        assert all(0.0 <= v <= 1.0 for _, v in util)
        # per-sample spacing follows the configured interval
        times = [t for t, _ in util]
        assert times == sorted(times)

    def test_busy_integral_matches_trace_replay(self):
        from repro.metrics.stats import busy_core_seconds

        telemetry = Telemetry(sample_interval=None)
        system = run_system(telemetry=telemetry)
        m = system.metrics()
        replayed = busy_core_seconds(system.trace, m.first_submit, m.last_end)
        assert telemetry.busy_core_seconds(upto=m.last_end) == pytest.approx(
            replayed, rel=1e-9
        )


class _OverrunningApp:
    """Needs 400s but asked for 300s; requests +200s walltime at t=250."""

    def launch(self, ctx) -> None:
        self.ctx = ctx
        ctx.after(250.0, self._ask)
        ctx.after(400.0, ctx.finish)

    def _ask(self) -> None:
        if self.ctx.job.is_active:
            self.ctx.tm_extend_walltime(200.0, lambda grant: None)


class TestNewEventKinds:
    def test_walltime_extension_grant_recorded(self):
        from repro.cluster.allocation import ResourceRequest
        from repro.jobs.job import Job, JobFlexibility

        system = BatchSystem(2, 8)
        system.submit(
            Job(
                request=ResourceRequest(cores=8),
                walltime=300.0,
                user="late",
                flexibility=JobFlexibility.EVOLVING,
            ),
            _OverrunningApp(),
        )
        system.run()
        grants = system.trace.of_kind(EventKind.WALLTIME_EXTENSION_GRANT)
        assert len(grants) == 1
        assert grants[0].payload["extension"] == 200.0
        assert grants[0].payload["new_walltime"] == 500.0
        # the new kind supplements the pre-existing observable stream
        assert system.trace.count(EventKind.DYN_GRANT) == 1
