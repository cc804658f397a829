"""Span tracing for the traced run, from outside the program.

:class:`SpanRecorder` wraps the public calls into each layer (class
methods and module functions), records one span per call — name, start,
end, parent span and the job id where the call carries a job — and keeps
the spans in flat in-memory arrays until :meth:`SpanRecorder.write`.
:meth:`SpanRecorder.remove` puts every original callable back.

Span names are ``<module>.<call>``, where the module is the layer the call
enters: ``workloads``, ``sim``, ``rms``, ``maui``, ``cluster``, ``obs`` or
``metrics``.  A target that no longer exists is skipped and listed in
:attr:`SpanRecorder.missing`, so the traced run survives refactors of the
program and reports what it could not see.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

#: (module, class or None for a module function, attribute, span name, job arg)
#: job arg: "job" when the first argument is a Job, "dreq" when it is a
#: dynamic request, None when the call carries no job
LAYER_CALLS: tuple[tuple[str, str | None, str, str, str | None], ...] = (
    ("repro.workloads", None, "from_swf", "workloads.from_swf", None),
    ("repro.workloads", None, "evolving_ify", "workloads.evolving_ify", None),
    ("repro.workloads", None, "make_esp_workload", "workloads.make_esp_workload", None),
    ("repro.workloads.spec", "Workload", "submit_to", "workloads.submit_to", None),
    ("repro.system", "BatchSystem", "__init__", "system.build", None),
    ("repro.system", "BatchSystem", "metrics", "metrics.collect", None),
    ("repro.sim.engine", "Engine", "run", "sim.Engine.run", None),
    ("repro.rms.server", "Server", "submit", "rms.submit", "job"),
    ("repro.rms.server", "Server", "start_job", "rms.start_job", "job"),
    ("repro.rms.server", "Server", "complete_job", "rms.complete_job", "job"),
    ("repro.rms.server", "Server", "dyn_request", "rms.dyn_request", "job"),
    ("repro.rms.server", "Server", "grant_dynamic", "rms.grant_dynamic", "dreq"),
    ("repro.rms.server", "Server", "reject_dynamic", "rms.reject_dynamic", "dreq"),
    ("repro.maui.scheduler", "MauiScheduler", "iteration", "maui.iteration", None),
    ("repro.maui.priority", "Prioritizer", "order", "maui.prioritize", None),
    ("repro.maui.scheduler", None, "measure_delays", "maui.measure_delays", None),
    ("repro.maui.fairness", "DFSLedger", "evaluate", "maui.dfs_evaluate", None),
    ("repro.cluster.profile", "AvailabilityProfile", "earliest_fit", "cluster.earliest_fit", None),
    ("repro.cluster.profile", "AvailabilityProfile", "add_claim", "cluster.add_claim", None),
    ("repro.cluster.profile", "AvailabilityProfile", "copy", "cluster.profile_copy", None),
    # observers: public hooks, plus the two callbacks they register at
    # attach time (trace subscriber, frame-close evaluation)
    ("repro.obs.ledger", "DecisionLedger", "_on_trace_event", "obs.ledger.on_trace_event", None),
    ("repro.obs.ledger", "DecisionLedger", "observe_queue", "obs.ledger.observe_queue", None),
    ("repro.obs.ledger", "DecisionLedger", "note_start", "obs.ledger.note_start", None),
    ("repro.obs.ledger", "DecisionLedger", "note_reservation", "obs.ledger.note_reservation", None),
    ("repro.obs.ledger", "DecisionLedger", "note_dyn_grant", "obs.ledger.note_dyn_grant", None),
    ("repro.obs.ledger", "DecisionLedger", "note_dyn_deny", "obs.ledger.note_dyn_deny", None),
    ("repro.obs.ledger", "DecisionLedger", "note_dyn_defer", "obs.ledger.note_dyn_defer", None),
    ("repro.obs.ledger", "DecisionLedger", "note_slo_breach", "obs.ledger.note_slo_breach", None),
    ("repro.obs.perf", "PhaseProfiler", "begin", "obs.profiler.begin", None),
    ("repro.obs.perf", "PhaseProfiler", "end", "obs.profiler.end", None),
    ("repro.obs.windows", "WindowedMetrics", "on_busy_change", "obs.windows.on_busy_change", None),
    ("repro.obs.windows", "WindowedMetrics", "observe_queue_depth", "obs.windows.observe_queue_depth", None),
    ("repro.obs.windows", "WindowedMetrics", "fold_job", "obs.windows.fold_job", "job"),
    ("repro.obs.fairness", "FairnessObservatory", "accrue", "obs.fairness.accrue", "job"),
    ("repro.obs.fairness", "FairnessObservatory", "sample", "obs.fairness.sample", None),
    ("repro.obs.fairness", "FairnessObservatory", "finalize", "obs.fairness.finalize", None),
    ("repro.obs.slo", "SLOEngine", "_on_frame_close", "obs.slo.on_frame_close", None),
    ("repro.obs.slo", "SLOEngine", "finalize", "obs.slo.finalize", None),
    ("repro.obs.instruments", "SchedulerInstruments", "sync_stats", "obs.instruments.sync_stats", None),
    ("repro.obs.instruments", "SchedulerInstruments", "sync_ledger", "obs.instruments.sync_ledger", None),
    ("repro.obs.instruments", "SchedulerInstruments", "end_iteration", "obs.instruments.end_iteration", None),
    ("repro.obs.instruments", "SchedulerInstruments", "end_dyn_handle", "obs.instruments.end_dyn_handle", None),
    ("repro.obs.instruments", "ServerInstruments", "update_depths", "obs.instruments.update_depths", None),
    ("repro.obs.instruments", "ClusterInstruments", "on_busy_change", "obs.instruments.cluster_busy", None),
    ("repro.obs.telemetry", "Telemetry", "on_busy_change", "obs.telemetry.on_busy_change", None),
)

#: a scheduler pass is useful when it started, backfilled or granted anything
_PASS_OUTCOMES = ("jobs_started", "jobs_backfilled", "dyn_granted")


def _job_seq(kind: str | None, args: tuple) -> int:
    if kind is None or len(args) < 2:
        return -1
    job = args[1].job if kind == "dreq" else args[1]
    return getattr(job, "seq", -1)


class SpanRecorder:
    """In-memory spans of the calls the installed wrappers see."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("q")
        #: span index of every ``maui.iteration`` span that did useful work
        self.useful_passes: set[int] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def _open(self, sid: int, job: int) -> int:
        index = len(self.name)
        stack = self._stack
        self.name.append(sid)
        self.parent.append(stack[-1] if stack else -1)
        self.job.append(job)
        self.end.append(0)
        stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def _wrapper(self, fn, sid: int, job_kind: str | None, probe: bool):
        opened, closed = self._open, self._close
        useful = self.useful_passes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = opened(sid, _job_seq(job_kind, args))
            if probe:
                stats = args[0].stats
                before = sum(stats[k] for k in _PASS_OUTCOMES)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(index)
                if probe and sum(stats[k] for k in _PASS_OUTCOMES) > before:
                    useful.add(index)

        return traced

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, calls=LAYER_CALLS) -> None:
        """Wrap every target in ``calls``; missing targets are noted."""
        for module_name, class_name, attr, span, job_kind in calls:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                target = ".".join(filter(None, (module_name, class_name, attr)))
                if target not in self.missing:
                    self.missing.append(target)
                continue
            wrapped = self._wrapper(
                original, self.name_id(span), job_kind, span == "maui.iteration"
            )
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        """Restore every wrapped callable, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # analysis and output
    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds, and durations.

        Self time is a span's duration minus the durations of its children
        (children are nested calls, so they lie inside the parent).
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_ns = dur - child
        out: dict[str, dict[str, float]] = {}
        for sid, name in enumerate(self.names):
            mask = a["name"] == sid
            out[name] = {
                "n": int(mask.sum()),
                "total_s": float(dur[mask].sum()) / 1e9,
                "self_s": float(self_ns[mask].sum()) / 1e9,
                "child_s": float(child[mask].sum()) / 1e9,
                "durations_ns": dur[mask],
            }
        return out

    def write(self, path: Path) -> Path:
        """Write the spans (``.npz``) and the name table; returns the path."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            useful_passes=np.array(sorted(self.useful_passes), dtype=np.int64),
            **self.arrays(),
        )
        return path
