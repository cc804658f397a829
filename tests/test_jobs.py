"""Tests for the job model and evolution profiles."""

import pytest

from repro.cluster.allocation import ResourceRequest
from repro.jobs.evolution import EvolutionProfile, EvolutionStep
from repro.jobs.job import Job, JobFlexibility, JobState


def make_job(**kw):
    defaults = dict(request=ResourceRequest(cores=4), walltime=100.0)
    defaults.update(kw)
    return Job(**defaults)


class TestJob:
    def test_defaults(self):
        job = make_job()
        assert job.state is JobState.QUEUED
        assert job.flexibility is JobFlexibility.RIGID
        assert not job.is_evolving
        assert job.job_id.startswith("job.")

    def test_seq_monotone(self):
        a, b = make_job(), make_job()
        assert b.seq > a.seq

    def test_explicit_job_id_preserved(self):
        assert make_job(job_id="myjob").job_id == "myjob"

    def test_nonpositive_walltime_rejected(self):
        with pytest.raises(ValueError):
            make_job(walltime=0)

    @pytest.mark.parametrize("walltime", [float("inf"), float("nan")])
    def test_nonfinite_walltime_rejected(self, walltime):
        # built inside raises: an infinite walltime must never reach a run
        # (the fairshare window roll would loop forever at t=inf)
        with pytest.raises(ValueError, match=f"finite: {walltime}"):
            make_job(walltime=walltime)

    def test_evolution_profile_requires_evolving(self):
        with pytest.raises(ValueError):
            make_job(evolution=EvolutionProfile.esp_default())

    def test_evolving_job(self):
        job = make_job(
            flexibility=JobFlexibility.EVOLVING,
            evolution=EvolutionProfile.esp_default(),
        )
        assert job.is_evolving

    def test_is_active_states(self):
        job = make_job()
        assert not job.is_active
        job.state = JobState.RUNNING
        assert job.is_active
        job.state = JobState.DYNQUEUED
        assert job.is_active
        job.state = JobState.COMPLETED
        assert not job.is_active and job.is_finished

    def test_walltime_end_requires_start(self):
        job = make_job()
        with pytest.raises(ValueError):
            _ = job.walltime_end
        job.start_time = 50.0
        assert job.walltime_end == 150.0

    def test_wait_and_turnaround(self):
        job = make_job()
        job.submit_time, job.start_time, job.end_time = 10.0, 40.0, 90.0
        assert job.wait_time == 30.0
        assert job.turnaround_time == 80.0

    def test_wait_requires_records(self):
        with pytest.raises(ValueError):
            _ = make_job().wait_time

    def test_esp_type_metadata(self):
        assert make_job(metadata={"esp_type": "L"}).esp_type == "L"
        assert make_job().esp_type is None


class TestEvolutionStep:
    def test_valid(self):
        step = EvolutionStep(0.16, ResourceRequest(cores=4), (0.25,))
        assert step.attempt_fractions == (0.16, 0.25)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            EvolutionStep(0.0, ResourceRequest(cores=4))
        with pytest.raises(ValueError):
            EvolutionStep(1.0, ResourceRequest(cores=4))

    def test_retries_must_increase(self):
        with pytest.raises(ValueError):
            EvolutionStep(0.5, ResourceRequest(cores=4), (0.4,))
        with pytest.raises(ValueError):
            EvolutionStep(0.2, ResourceRequest(cores=4), (0.3, 0.3))

    def test_retry_below_one(self):
        with pytest.raises(ValueError):
            EvolutionStep(0.5, ResourceRequest(cores=4), (1.0,))


class TestEvolutionProfile:
    def test_esp_default(self):
        profile = EvolutionProfile.esp_default()
        assert len(profile) == 1
        step = profile.steps[0]
        assert step.at_fraction == 0.16
        assert step.retry_fractions == (0.25,)
        assert step.request.cores == 4

    def test_single_constructor(self):
        profile = EvolutionProfile.single(0.3, ResourceRequest(cores=8), [0.5, 0.7])
        assert profile.steps[0].attempt_fractions == (0.3, 0.5, 0.7)

    def test_total_extra_cores(self):
        profile = EvolutionProfile(
            steps=(
                EvolutionStep(0.1, ResourceRequest(cores=4)),
                EvolutionStep(0.5, ResourceRequest(nodes=1, ppn=8)),
            )
        )
        assert profile.total_extra_cores == 12

    def test_steps_must_be_ordered(self):
        with pytest.raises(ValueError):
            EvolutionProfile(
                steps=(
                    EvolutionStep(0.5, ResourceRequest(cores=4)),
                    EvolutionStep(0.4, ResourceRequest(cores=4)),
                )
            )

    def test_step_after_previous_retries(self):
        # the next step may not begin before the previous step's retries end
        with pytest.raises(ValueError):
            EvolutionProfile(
                steps=(
                    EvolutionStep(0.2, ResourceRequest(cores=4), (0.6,)),
                    EvolutionStep(0.5, ResourceRequest(cores=4)),
                )
            )

    def test_empty_profile_allowed(self):
        assert len(EvolutionProfile()) == 0
