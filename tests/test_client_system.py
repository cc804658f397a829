"""Tests for the client helpers (qsub/qstat) and the BatchSystem facade."""

import pytest

from repro.apps.synthetic import EvolvingWorkApp
from repro.cluster.machine import Cluster
from repro.jobs.evolution import EvolutionProfile
from repro.jobs.job import JobFlexibility, JobState
from repro.maui.config import MauiConfig
from repro.rms.client import qstat, qstat_table, qsub
from repro.system import BatchSystem


class TestQsub:
    def test_cores_request(self, system):
        job = qsub(system.server, cores=8, walltime=100, user="alice")
        assert job.request.cores == 8
        assert job.user == "alice"
        assert job.flexibility is JobFlexibility.RIGID

    def test_nodes_ppn_request(self, system):
        job = qsub(system.server, nodes=2, ppn=8, walltime="01:00:00")
        assert job.request.is_shaped
        assert job.walltime == 3600.0

    def test_walltime_string_parsing(self, system):
        job = qsub(system.server, cores=1, walltime="30:00")
        assert job.walltime == 1800.0

    def test_evolving_flag(self, system):
        job = qsub(system.server, cores=4, walltime=100, evolving=True)
        assert job.flexibility is JobFlexibility.EVOLVING

    def test_evolution_profile_implies_evolving(self, system):
        job = qsub(
            system.server,
            cores=4,
            walltime=100,
            evolution=EvolutionProfile.esp_default(),
            app=EvolvingWorkApp(100),
        )
        assert job.is_evolving

    def test_metadata_kwargs(self, system):
        job = qsub(system.server, cores=1, walltime=10, project="X17")
        assert job.metadata["project"] == "X17"

    def test_top_priority(self, system):
        job = qsub(system.server, cores=1, walltime=10, top_priority=True)
        assert job.top_priority


class TestQstat:
    def test_states_reported(self, system):
        a = qsub(system.server, cores=32, walltime=100, user="a")
        b = qsub(system.server, cores=32, walltime=100, user="b")
        system.run(until=0.0)
        rows = {r["job_id"]: r for r in qstat(system.server)}
        assert rows[a.job_id]["state"] == "R"
        assert rows[b.job_id]["state"] == "Q"
        assert rows[a.job_id]["cores_held"] == 32
        assert rows[b.job_id]["cores_held"] == 0

    def test_completed_jobs_hold_nothing(self, system):
        a = qsub(system.server, cores=8, walltime=100, user="a")
        system.run()
        row = qstat(system.server)[0]
        assert row["state"] == "C"
        assert row["cores_held"] == 0

    def test_table_renders(self, system):
        qsub(system.server, cores=8, walltime=100, user="someone")
        text = qstat_table(system.server)
        assert "someone" in text
        assert "Job ID" in text


class TestBatchSystemFacade:
    def test_default_construction(self):
        system = BatchSystem()
        assert system.cluster.total_cores == 120  # the paper's machine
        assert system.config.dynamic_enabled

    def test_custom_cluster(self):
        cluster = Cluster.homogeneous(3, 4)
        system = BatchSystem(cluster=cluster)
        assert system.cluster is cluster

    def test_partition_config_fences_one_node(self):
        system = BatchSystem(4, 8, MauiConfig(use_dynamic_partition=True))
        assert sum(1 for n in system.cluster.nodes if n.partition == "dynamic") == 1

    def test_submit_at_schedules_future_submission(self, system):
        from repro.cluster.allocation import ResourceRequest
        from repro.jobs.job import Job

        job = Job(request=ResourceRequest(cores=1), walltime=10.0)
        system.submit_at(50.0, job)
        system.run(until=49.0)
        assert job.job_id not in system.server.jobs
        system.run()
        assert job.state is JobState.COMPLETED
        assert job.submit_time == 50.0

    def test_now_property(self, system):
        assert system.now == 0.0
        system.engine.at(5.0, lambda: None)
        system.run()
        assert system.now == 5.0

    def test_start_time_offset(self):
        system = BatchSystem(2, 4, start_time=1000.0)
        job = qsub(system.server, cores=4, walltime=60)
        system.run()
        assert job.submit_time == 1000.0
        assert job.end_time == 1060.0

    def test_metrics_shortcut(self, system):
        qsub(system.server, cores=8, walltime=100)
        system.run()
        m = system.metrics()
        assert m.completed_jobs == 1


class TestQsubExtensions:
    def test_min_cores_makes_moldable(self, system):
        job = qsub(system.server, cores=8, walltime=100, min_cores=4)
        assert job.flexibility is JobFlexibility.MOLDABLE
        assert job.moldable_floor == 4

    def test_dependency_kwargs(self, system):
        first = qsub(system.server, cores=4, walltime=100)
        second = qsub(
            system.server, cores=4, walltime=100,
            depends_on=first.job_id, dependency_type="afterany",
        )
        assert second.depends_on == first.job_id
        assert second.dependency_type == "afterany"


class TestQalter:
    def test_alter_walltime_and_cores(self, system):
        from repro.rms.client import qalter

        job = qsub(system.server, cores=64, walltime=100)  # cannot fit: 32-core box
        system.run(until=0.0)
        assert job.state is JobState.QUEUED
        qalter(system.server, job, walltime="00:05:00", cores=16)
        system.run()
        assert job.walltime == 300.0
        assert job.state is JobState.COMPLETED

    def test_alter_running_job_rejected(self, system):
        from repro.rms.client import qalter

        job = qsub(system.server, cores=8, walltime=100)
        system.run(until=0.0)
        with pytest.raises(RuntimeError):
            qalter(system.server, job, walltime=50)

    def test_alter_shaped_to_cores_rejected(self, system):
        from repro.rms.client import qalter

        blocker = qsub(system.server, cores=32, walltime=500)
        job = qsub(system.server, nodes=2, ppn=8, walltime=100)
        system.run(until=0.0)
        with pytest.raises(ValueError):
            qalter(system.server, job, cores=4)

    def test_invalid_walltime_rejected(self, system):
        from repro.rms.client import qalter

        blocker = qsub(system.server, cores=32, walltime=500)
        job = qsub(system.server, cores=8, walltime=100)
        system.run(until=0.0)
        with pytest.raises(ValueError):
            qalter(system.server, job, walltime=0)

    @pytest.mark.parametrize("walltime", [float("inf"), float("nan"), "inf"])
    def test_nonfinite_walltime_rejected(self, system, walltime):
        from repro.rms.client import qalter

        qsub(system.server, cores=32, walltime=500)
        job = qsub(system.server, cores=8, walltime=100)
        system.run(until=0.0)
        with pytest.raises(ValueError, match=f"finite: {walltime}"):
            qalter(system.server, job, walltime=walltime)
        assert job.walltime == 100.0
