"""Parallel sweep engine + supervisor + journal + result cache.

Public surface:

* :class:`~repro.parallel.engine.SweepPoint` / :func:`~repro.parallel.engine.run_sweep`
  — describe independent ``(scenario, seed)`` points and fan them
  across a supervised worker pool, merging results in deterministic
  point order.
* :class:`~repro.parallel.engine.RunnerConfig` — the one validated
  retry/timeout/backoff/failure policy, shared by the experiment
  runner and every sweep, and executed by one attempt loop
  (:func:`~repro.parallel.engine.run_attempts`).
* :func:`~repro.parallel.supervisor.supervise_sweep` — the crash-safe
  executor underneath ``run_sweep`` and the only user of worker
  processes: dead/hung-worker detection with respawn, journaled
  outcomes, ``--resume`` and ``on_error`` failure policies, graceful
  SIGINT/SIGTERM shutdown.
* :class:`~repro.parallel.journal.SweepJournal` /
  :func:`~repro.parallel.journal.load_journal` — persistent JSONL
  journal of per-point outcomes enabling bit-identical resume.
* :class:`~repro.parallel.cache.SweepCache` — content-addressed result
  store keyed on canonical parameters + seed + code-version tag.
"""

from repro.parallel.cache import (
    SweepCache,
    code_version_tag,
    default_cache_dir,
    point_key,
)
from repro.parallel.engine import (
    RunnerConfig,
    SweepPoint,
    backoff_delay_s,
    run_sweep,
)
from repro.parallel.journal import PointRecord, SweepJournal, load_journal
from repro.parallel.supervisor import (
    PointFailure,
    SweepOutcome,
    SweepReport,
    supervise_sweep,
)

__all__ = [
    "PointFailure",
    "PointRecord",
    "RunnerConfig",
    "SweepCache",
    "SweepJournal",
    "SweepOutcome",
    "SweepPoint",
    "SweepReport",
    "backoff_delay_s",
    "code_version_tag",
    "default_cache_dir",
    "load_journal",
    "point_key",
    "run_sweep",
    "supervise_sweep",
]
