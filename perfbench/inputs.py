"""Seeded inputs for the benchmark workloads.

Everything here is load generation: it turns ``(seed, unit index)`` into
the inputs a simulation receives, and the program sees only those inputs.
One *unit* is the smallest piece of work a run repeats:

* ``replay`` and ``replay_observed``: one archive-shaped SWF trace of
  :data:`REPLAY_JOBS` jobs on a 32 x 8-core machine;
* ``esp``: one pass of the paper's dynamic ESP under all four Table II
  configurations, at seed ``seed + unit``.
"""

from __future__ import annotations

import numpy as np

from repro.maui.config import MauiConfig
from repro.obs import Telemetry

#: the archive-shaped replay machine (ROADMAP headline replay)
REPLAY_NODES = 32
REPLAY_CORES_PER_NODE = 8
#: jobs per replay trace; a run replays several traces
REPLAY_JOBS = 2500
REPLAY_LOAD = 0.7
REPLAY_USERS = 32
#: share of replay jobs made evolving by ``evolving_ify``
REPLAY_EVOLVING = 0.05
#: SLO objectives of the observed replay
REPLAY_SLOS = ("p99_wait < 4h", "jain >= 0.5", "share_error < 0.2")

#: the paper's testbed: 15 nodes x 8 cores
ESP_NODES = 15
ESP_CORES_PER_NODE = 8


def _seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def replay_unit(seed: int, unit: int) -> tuple[str, int]:
    """SWF text and ``evolving_ify`` seed of one replay unit.

    Units come in antithetic pairs: units ``2p`` and ``2p + 1`` draw their
    traces from the same uniforms, the second from ``1 - u``.  Each trace
    on its own has the distribution below; within a pair, a burst or a run
    of large jobs in one trace meets a lull or small jobs in the other, so
    the pooled queueing outcomes vary far less between seeds (a classic
    variance reduction for simulation studies).
    """
    text = synthetic_swf(REPLAY_JOBS, _seed(seed, 0, unit // 2), unit % 2 == 1)
    return text, _seed(seed, 1, unit)


def synthetic_swf(num_jobs: int, seed: int, antithetic: bool = False) -> str:
    """A seeded SWF trace at :data:`REPLAY_LOAD` offered load.

    Log-uniform sizes (1-64 cores) and runtimes (5 min - 2 h), Poisson
    arrivals at the rate that makes mean offered work equal the load, and
    :data:`REPLAY_USERS` users: the shape of a production archive trace.
    Requested time is 1.2 x the runtime, as users over-request.  Every draw
    is an inverse-CDF transform of one uniform, so ``antithetic=True``
    yields the mirrored trace of the same seed.
    """
    rng = np.random.default_rng(seed)
    u = np.clip(rng.uniform(size=(4, num_jobs)), 1e-12, 1.0 - 1e-12)
    if antithetic:
        u = 1.0 - u
    u_size, u_runtime, u_gap, u_user = u
    sizes = np.clip(np.exp(u_size * np.log(64)).round().astype(int), 1, 64)
    runtimes = (
        np.exp(np.log(300) + u_runtime * np.log(7200 / 300)).round().astype(int)
    )
    cores = REPLAY_NODES * REPLAY_CORES_PER_NODE
    rate = REPLAY_LOAD * cores / (float(sizes.mean()) * float(runtimes.mean()))
    arrivals = np.cumsum(-np.log1p(-u_gap) / rate).round().astype(int)
    users = np.minimum((u_user * REPLAY_USERS).astype(int), REPLAY_USERS - 1) + 1
    lines = [
        f"{i + 1} {arrivals[i]} -1 {runtimes[i]} {sizes[i]} -1 -1 "
        f"{sizes[i]} {int(runtimes[i] * 1.2)} -1 1 {users[i]} {users[i]} "
        "-1 -1 -1 -1 -1"
        for i in range(num_jobs)
    ]
    return "\n".join(lines) + "\n"


def replay_config() -> MauiConfig:
    """Depth 5/5 with two scheduler shards, as in the streaming replay."""
    return MauiConfig(
        reservation_depth=5, reservation_delay_depth=5, scheduler_shards=2
    )


def observed_telemetry() -> Telemetry:
    """Ledger, phase profiler, 3600 s windows, fairness and SLOs, jobs kept."""
    return Telemetry(
        sample_interval=None,
        decision_ledger=True,
        profiling=True,
        windows=3600.0,
        fairness=True,
        slo=list(REPLAY_SLOS),
    )
