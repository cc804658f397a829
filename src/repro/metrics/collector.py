"""Workload-level metrics assembled after a simulation run.

:class:`WorkloadMetrics` computes exactly the quantities the paper reports:

* **workload time** — first submission to last completion (Table II "Time");
* **satisfied dynamic jobs** — evolving jobs with ≥1 granted request;
* **utilization** — busy core-seconds over installed core-seconds across the
  workload time;
* **throughput** — completed jobs per minute, plus the relative increase
  against a baseline;
* per-job **waiting times** in submission order (Figures 8-11) and
  turnaround times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.machine import Cluster
from repro.jobs.job import Job, JobState
from repro.metrics.stats import busy_core_seconds
from repro.rms.server import Server

__all__ = ["JobRecord", "WorkloadMetrics"]


@dataclass(frozen=True, slots=True)
class JobRecord:
    """Immutable per-job outcome."""

    job_id: str
    seq: int
    user: str
    esp_type: str | None
    evolving: bool
    cores_requested: int
    submit_time: float
    start_time: float | None
    end_time: float | None
    state: str
    backfilled: bool
    dyn_granted: int
    dyn_rejected: int
    accrued_delay: float
    #: requested walltime [s]; -1.0 marks legacy records that predate the
    #: field (SWF export then writes -1 for field 9, "unknown")
    walltime: float = -1.0

    @property
    def wait_time(self) -> float | None:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def turnaround_time(self) -> float | None:
        if self.end_time is None:
            return None
        return self.end_time - self.submit_time

    @classmethod
    def from_job(cls, job: Job) -> "JobRecord":
        return cls(
            job_id=job.job_id,
            seq=job.seq,
            user=job.user,
            esp_type=job.esp_type,
            evolving=job.is_evolving,
            cores_requested=job.request.total_cores,
            submit_time=job.submit_time if job.submit_time is not None else 0.0,
            start_time=job.start_time,
            end_time=job.end_time,
            state=job.state.value,
            backfilled=job.backfilled,
            dyn_granted=job.dyn_granted,
            dyn_rejected=job.dyn_rejected,
            accrued_delay=job.accrued_delay,
            walltime=job.walltime,
        )


class WorkloadMetrics:
    """Post-run summary over a server's jobs and trace."""

    def __init__(
        self, records: list[JobRecord], total_cores: int, trace, *, telemetry=None
    ) -> None:
        self.records = sorted(records, key=lambda r: (r.submit_time, r.seq))
        self.total_cores = total_cores
        self._trace = trace
        self._telemetry = telemetry

    @classmethod
    def from_server(
        cls, server: Server, cluster: Cluster, *, telemetry=None
    ) -> "WorkloadMetrics":
        if getattr(server, "jobs_discarded", 0):
            raise RuntimeError(
                f"{server.jobs_discarded} job(s) were folded and discarded "
                "(fold_and_discard); retained-job metrics are unavailable — "
                "read the streaming aggregates from telemetry.windows instead"
            )
        records = [JobRecord.from_job(j) for j in server.jobs.values()]
        return cls(records, cluster.total_cores, server.trace, telemetry=telemetry)

    # ------------------------------------------------------------------
    # Table II quantities
    # ------------------------------------------------------------------
    @property
    def first_submit(self) -> float:
        return min(r.submit_time for r in self.records)

    @property
    def last_end(self) -> float:
        ends = [r.end_time for r in self.records if r.end_time is not None]
        if not ends:
            raise ValueError("no job has finished")
        return max(ends)

    @property
    def workload_time(self) -> float:
        """Total execution time of the workload in seconds."""
        return self.last_end - self.first_submit

    @property
    def workload_time_minutes(self) -> float:
        return self.workload_time / 60.0

    @property
    def satisfied_dyn_jobs(self) -> int:
        """Evolving jobs whose dynamic request succeeded at least once."""
        return sum(1 for r in self.records if r.evolving and r.dyn_granted > 0)

    @property
    def evolving_jobs(self) -> int:
        return sum(1 for r in self.records if r.evolving)

    @property
    def utilization(self) -> float:
        """Busy core-seconds over installed capacity across the workload time.

        Normally reconstructed by replaying the trace; when the trace is a
        bounded ring that has dropped events, replay would under-count, so
        the telemetry busy-core integral (maintained live by the cluster
        hooks, exact regardless of trace retention) is used instead.  With
        neither a whole trace nor a live integral there is no honest
        answer, and a ``ValueError`` says so.
        """
        dropped = getattr(self._trace, "dropped", 0)
        if dropped:
            if self._telemetry is None or not self._telemetry.enabled:
                raise ValueError(
                    f"utilization needs the whole run, but the trace ring "
                    f"dropped {dropped} events: attach an enabled Telemetry "
                    f"(live busy-core integral) or use an unbounded trace "
                    f"(trace_maxlen=None)"
                )
            busy = self._telemetry.busy_core_seconds(upto=self.last_end)
        else:
            busy = busy_core_seconds(self._trace, self.first_submit, self.last_end)
        return busy / (self.total_cores * self.workload_time)

    @property
    def completed_jobs(self) -> int:
        return sum(1 for r in self.records if r.state == JobState.COMPLETED.value)

    @property
    def throughput_jobs_per_minute(self) -> float:
        return self.completed_jobs / self.workload_time_minutes

    def throughput_increase_vs(self, baseline: "WorkloadMetrics") -> float:
        """Percent throughput increase relative to a baseline run."""
        base = baseline.throughput_jobs_per_minute
        return 100.0 * (self.throughput_jobs_per_minute - base) / base

    # ------------------------------------------------------------------
    # figure series
    # ------------------------------------------------------------------
    def wait_times_by_submission(self) -> list[tuple[int, float]]:
        """``(submission index, wait seconds)`` for every started job (Fig. 8)."""
        series = []
        for idx, record in enumerate(self.records):
            if record.wait_time is not None:
                series.append((idx, record.wait_time))
        return series

    def wait_times_for_type(self, esp_type: str) -> list[float]:
        """Waits of one ESP job type in submission order (Fig. 9)."""
        return [
            r.wait_time
            for r in self.records
            if r.esp_type == esp_type and r.wait_time is not None
        ]

    def records_for_user(self, user: str) -> list[JobRecord]:
        return [r for r in self.records if r.user == user]

    def mean_wait_by_user(self) -> dict[str, float]:
        """Per-user mean waiting time (users with no started job excluded)."""
        sums: dict[str, list[float]] = {}
        for r in self.records:
            if r.wait_time is not None:
                sums.setdefault(r.user, []).append(r.wait_time)
        return {u: sum(w) / len(w) for u, w in sums.items()}

    @property
    def wait_fairness_index(self) -> float:
        """Jain's fairness index over per-user mean waits (1.0 = uniform)."""
        from repro.metrics.stats import jains_fairness_index

        return jains_fairness_index(list(self.mean_wait_by_user().values()))

    @property
    def mean_wait(self) -> float:
        waits = [r.wait_time for r in self.records if r.wait_time is not None]
        return sum(waits) / len(waits) if waits else 0.0

    def bounded_slowdowns(self, tau: float = 10.0) -> list[float]:
        """Per-job bounded slowdown, ``max(1, (wait+run)/max(run, tau))``.

        The standard scheduler-evaluation metric (Feitelson): turnaround
        normalised by runtime, with very short jobs clamped by ``tau``
        seconds so they cannot dominate the average.
        """
        values = []
        for r in self.records:
            if r.start_time is None or r.end_time is None:
                continue
            run = r.end_time - r.start_time
            wait = r.start_time - r.submit_time
            values.append(max(1.0, (wait + run) / max(run, tau)))
        return values

    def mean_bounded_slowdown(self, tau: float = 10.0) -> float:
        values = self.bounded_slowdowns(tau)
        return sum(values) / len(values) if values else 1.0

    @property
    def mean_turnaround(self) -> float:
        vals = [r.turnaround_time for r in self.records if r.turnaround_time is not None]
        return sum(vals) / len(vals) if vals else 0.0

    def __repr__(self) -> str:
        return (
            f"<WorkloadMetrics jobs={len(self.records)} "
            f"time={self.workload_time_minutes:.1f}min util={self.utilization:.1%}>"
        )
