"""Tests for runtime elasticity in the time dimension (tm_extend_walltime).

After Kumar et al. (IPDPSW 2012), the paper's ref. [23]: jobs extend their
walltime instead of consuming more resources.  The extension goes through
the same dynamic queue and DFS fairness machinery as resource requests.
"""

import pytest

from repro.apps.synthetic import FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.job import Job, JobFlexibility, JobState
from repro.maui.config import DFSConfig, DFSPolicy, MauiConfig, PrincipalLimits
from repro.rms.tm import TMContext
from repro.system import BatchSystem


class OverrunningApp:
    """Needs 400s but asked only for 300s; requests +200s at t=250."""

    def __init__(self, true_runtime=400.0, ask_at=250.0, extra=200.0):
        self.true_runtime = true_runtime
        self.ask_at = ask_at
        self.extra = extra
        self.granted = None

    def launch(self, ctx: TMContext) -> None:
        self.ctx = ctx
        ctx.after(self.ask_at, self._ask)
        ctx.after(self.true_runtime, ctx.finish)

    def _ask(self) -> None:
        if self.ctx.job.is_active:
            self.ctx.tm_extend_walltime(self.extra, self._answer)

    def _answer(self, grant) -> None:
        self.granted = grant is not None


def overrunner(walltime=300.0, user="late"):
    return Job(
        request=ResourceRequest(cores=8),
        walltime=walltime,
        user=user,
        flexibility=JobFlexibility.EVOLVING,
    )


class TestExtensionGrant:
    def test_extension_saves_job_from_walltime_kill(self, system):
        app = OverrunningApp()
        job = system.submit(overrunner(), app)
        system.run()
        assert app.granted is True
        assert job.walltime == 500.0
        assert job.state is JobState.COMPLETED
        assert job.end_time == pytest.approx(400.0)

    def test_without_extension_the_job_dies(self, system):
        job = system.submit(overrunner(), FixedRuntimeApp(400.0))
        system.run()
        assert job.state is JobState.ABORTED
        assert job.end_time == pytest.approx(300.0)

    def test_extension_counts_as_grant(self, system):
        job = system.submit(overrunner(), OverrunningApp())
        system.run()
        assert job.dyn_granted == 1
        assert system.scheduler.stats["dyn_granted"] == 1

    def test_invalid_extension_rejected(self, system):
        job = system.submit(overrunner(), FixedRuntimeApp(100.0))
        system.run(until=0.0)
        ctx = system.server._contexts[job.job_id]
        with pytest.raises(ValueError):
            ctx.tm_extend_walltime(0.0, lambda g: None)

    @pytest.mark.parametrize("extra", [float("inf"), float("nan")])
    def test_nonfinite_extension_rejected(self, system, extra):
        job = system.submit(overrunner(), FixedRuntimeApp(100.0))
        system.run(until=0.0)
        with pytest.raises(ValueError, match=f"finite: {extra}"):
            system.server.extend_walltime_request(job, extra, lambda g: None)
        assert job.state is JobState.RUNNING
        assert not system.server.dyn_queue


class TestExtensionFairness:
    def _system(self, cap):
        config = MauiConfig(
            dfs=DFSConfig(
                policy=DFSPolicy.TARGET_DELAY,
                default_user=PrincipalLimits(target_delay_time=cap),
            )
        )
        return BatchSystem(1, 8, config)

    def test_extension_delaying_queued_job_vetoed(self):
        system = self._system(cap=1.0)
        app = OverrunningApp()
        job = system.submit(overrunner(), app)
        # the waiting job would start at t=300 (old walltime end); the
        # extension pushes it to t=500 — a 200s delay against a 1s cap
        waiting = system.submit(
            Job(request=ResourceRequest(cores=8), walltime=100.0, user="w"),
            FixedRuntimeApp(100.0),
        )
        system.run()
        assert app.granted is False
        assert job.state is JobState.ABORTED  # killed at the original limit
        assert waiting.start_time == pytest.approx(300.0)

    def test_extension_allowed_when_nobody_waits(self):
        system = self._system(cap=1.0)
        app = OverrunningApp()
        job = system.submit(overrunner(), app)
        system.run()
        assert app.granted is True
        assert job.state is JobState.COMPLETED

    def test_same_user_waiter_exempt(self):
        system = self._system(cap=1.0)
        app = OverrunningApp()
        job = system.submit(overrunner(user="same"), app)
        system.submit(
            Job(request=ResourceRequest(cores=8), walltime=100.0, user="same"),
            FixedRuntimeApp(100.0),
        )
        system.run()
        assert app.granted is True
