"""Hardened experiment driver: timeouts, retries, graceful degradation.

``run_suite`` runs a set of registered experiments so that one failure
can never take down the batch:

* each attempt runs under an optional wall-clock **timeout** (enforced
  from a watchdog thread; an expired attempt is recorded as a
  :class:`~repro.errors.WatchdogTimeout`);
* a :class:`~repro.errors.SimulationError` — including watchdog
  timeouts — triggers a bounded **retry with a perturbed seed**, on the
  theory that kernel-level livelocks are usually seed-sensitive corner
  cases;
* any other exception (and exhausted retries) degrades to a structured
  :class:`ExperimentResult` failure record while the rest of the suite
  completes;
* the :class:`SuiteReport` renders both a human-readable summary and a
  machine-readable JSON document.

The policy (:class:`~repro.parallel.engine.RunnerConfig`) and the
attempt loop (:func:`~repro.parallel.engine.run_attempts`) are the
ones every sweep runs under, so an experiment and its sweep points
retry, time out and back off identically.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ExperimentError
from repro.experiments.registry import EXPERIMENTS, Experiment
from repro.parallel.engine import (
    DEFAULT_RETRY_SEED_STEP,
    RunnerConfig,
    classify_failure,
    run_attempts,
)

__all__ = [
    "DEFAULT_RETRY_SEED_STEP",
    "ExperimentResult",
    "RunnerConfig",
    "SuiteReport",
    "run_experiment",
    "run_suite",
]


@dataclass
class ExperimentResult:
    """Structured outcome of one experiment (success or failure)."""

    name: str
    status: str  # "ok" | "failed" | "timeout"
    output: str | None = None
    error: str | None = None
    error_type: str | None = None
    attempts: int = 1
    seeds: list[int] = field(default_factory=list)
    elapsed_s: float = 0.0
    traceback: str | None = None

    @property
    def ok(self) -> bool:
        """True for a clean run."""
        return self.status == "ok"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (output text included only on success)."""
        return {
            "name": self.name,
            "status": self.status,
            "output": self.output,
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "seeds": self.seeds,
            "elapsed_s": round(self.elapsed_s, 3),
            "traceback": self.traceback,
        }


@dataclass
class SuiteReport:
    """Everything a batch run produced."""

    results: list[ExperimentResult]
    elapsed_s: float
    config: RunnerConfig

    @property
    def succeeded(self) -> list[ExperimentResult]:
        """Results that ran clean."""
        return [result for result in self.results if result.ok]

    @property
    def failed(self) -> list[ExperimentResult]:
        """Results that degraded to failure records."""
        return [result for result in self.results if not result.ok]

    @property
    def all_ok(self) -> bool:
        """True when every experiment succeeded."""
        return not self.failed

    def to_json(self) -> str:
        """Machine-readable report."""
        return json.dumps(
            {
                "elapsed_s": round(self.elapsed_s, 3),
                "total": len(self.results),
                "succeeded": len(self.succeeded),
                "failed": len(self.failed),
                "timeout_s": self.config.timeout_s,
                "max_retries": self.config.max_retries,
                "on_error": self.config.on_error,
                "journal": self.config.journal_path,
                "results": [result.to_dict() for result in self.results],
            },
            indent=2,
        )

    def format_summary(self) -> str:
        """Human-readable one-line-per-experiment summary."""
        lines = [
            f"suite: {len(self.succeeded)}/{len(self.results)} experiments "
            f"ok in {self.elapsed_s:.1f}s wall clock"
        ]
        for result in self.results:
            if result.ok:
                detail = f"ok in {result.elapsed_s:.1f}s"
            else:
                detail = f"{result.status}: {result.error}"
            retries = (
                f" ({result.attempts} attempts)" if result.attempts > 1 else ""
            )
            lines.append(f"  {result.name:16} {detail}{retries}")
        return "\n".join(lines)


def run_experiment(
    name: str,
    seed: int = 1,
    duration_s: float = 10.0,
    probes: int = 200,
    config: RunnerConfig | None = None,
    experiments: Mapping[str, Experiment] | None = None,
    jobs: int = 1,
    cache=None,
    overrides: Mapping[str, Any] | None = None,
) -> ExperimentResult:
    """Run one experiment under the robustness policy.

    Never raises for experiment failures: lookup errors, crashes,
    timeouts and exhausted retries all come back as failure records.

    ``jobs``/``cache`` flow into sweep-based experiments, which fan
    their independent points across a process pool and a
    content-addressed result cache (:mod:`repro.parallel`).  The
    ``config`` policy travels with them, so per-point timeout/retry
    applies inside pool workers too.

    ``overrides`` are user-supplied experiment parameters (the CLI's
    ``--set key=value``); an override the experiment does not declare
    produces a failure record listing the accepted keys.
    """
    if config is None:
        config = RunnerConfig()
    registry = experiments if experiments is not None else EXPERIMENTS
    started = time.monotonic()
    result = ExperimentResult(name=name, status="failed")
    experiment = registry.get(name)
    if experiment is None:
        result.error = f"unknown experiment {name!r}; valid: {sorted(registry)}"
        result.error_type = "ExperimentError"
        result.attempts = 0
        return result

    def attempt(index: int) -> str:
        output = experiment.invoke(
            overrides,
            seed=seed + index * config.retry_seed_step,
            duration_s=duration_s,
            probes=probes,
            jobs=jobs,
            cache=cache,
            policy=config,
        )
        if output is None:
            raise ExperimentError("experiment returned no output")
        return output

    # Backoff jitter is derived from the attempt index and experiment
    # name, never a live RNG, so a re-run reproduces the same retry
    # schedule.  A graceful SIGINT/SIGTERM shutdown (SweepInterrupted)
    # propagates so the CLI can exit with the resumable state.
    outcome = run_attempts(attempt, config, token=name, label="experiment")
    assert outcome is not None  # never cancelled
    result.attempts = outcome.attempts
    result.seeds = [
        seed + index * config.retry_seed_step for index in range(outcome.attempts)
    ]
    error = outcome.error
    if error is None:
        result.status = "ok"
        result.output = outcome.value
    else:
        result.status, retryable = classify_failure(error)
        result.error = str(error) or type(error).__name__
        result.error_type = type(error).__name__
        if not retryable:
            # Deterministic failures carry their traceback; kernel-level
            # ones were retried with perturbed seeds instead.
            result.traceback = "".join(
                traceback.format_exception(type(error), error, error.__traceback__)
            )
    result.elapsed_s = time.monotonic() - started
    return result


def run_suite(
    names: Sequence[str],
    seed: int = 1,
    duration_s: float = 10.0,
    probes: int = 200,
    config: RunnerConfig | None = None,
    experiments: Mapping[str, Experiment] | None = None,
    on_result: Callable[[ExperimentResult], None] | None = None,
    jobs: int = 1,
    cache=None,
    overrides: Mapping[str, Any] | None = None,
) -> SuiteReport:
    """Run a batch of experiments with per-experiment isolation.

    ``on_result`` (if given) observes each result as it completes —
    the CLI uses it to stream output while the suite continues.
    """
    if config is None:
        config = RunnerConfig()
    started = time.monotonic()
    results = []
    for name in names:
        result = run_experiment(
            name,
            seed=seed,
            duration_s=duration_s,
            probes=probes,
            config=config,
            experiments=experiments,
            jobs=jobs,
            cache=cache,
            overrides=overrides,
        )
        results.append(result)
        if on_result is not None:
            on_result(result)
    return SuiteReport(
        results=results,
        elapsed_s=time.monotonic() - started,
        config=config,
    )
