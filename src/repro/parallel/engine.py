"""Sweep engine: points, the retry policy and the one attempt loop.

Every paper artefact is a grid of *independent* simulation points —
``(scenario parameters, seed)`` tuples whose results are merged into a
table or figure.  :func:`run_sweep` hands those points to the
supervised executor (:mod:`repro.parallel.supervisor`), which runs them
in-process or across worker processes and merges results **in point
order**, so parallel output is bit-identical to the serial path.

Points are described, not closed over: a :class:`SweepPoint` names its
function by dotted path (``"repro.experiments.ranges:loss_point"``) and
carries a JSON-serialisable parameter mapping.  That makes points
picklable under any start method (the engine is spawn-safe) and gives
the :class:`~repro.parallel.cache.SweepCache` a canonical content
address for each result.

Retries, timeouts and backoff are configured once, by a validated
:class:`RunnerConfig`, and executed by one attempt loop,
:func:`run_attempts`: the hardened experiment runner and the
supervisor's in-process path both call it, and the supervisor's pooled
path shares its backoff schedule (:func:`backoff_delay_s`) and failure
classification (:func:`classify_failure`).
"""

from __future__ import annotations

import hashlib
import importlib
import math
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping, Sequence

from repro import errors as _errors
from repro.errors import (
    ConfigurationError,
    ExperimentError,
    SimulationError,
    SweepInterrupted,
    WatchdogTimeout,
)
from repro.parallel.cache import SweepCache
from repro.parallel.journal import SweepJournal

#: Default seed offset between retry attempts.  A large odd constant so
#: perturbed seeds never collide with a user's natural seed sweep.
DEFAULT_RETRY_SEED_STEP = 100_003

#: Valid ``on_error`` failure policies.
ON_ERROR_POLICIES: tuple[str, ...] = ("raise", "skip", "degrade")


@dataclass(frozen=True)
class RunnerConfig:
    """Robustness policy for one suite run or sweep.

    The same object travels from the CLI through
    :func:`~repro.experiments.runner.run_experiment` into every sweep an
    experiment makes (``policy=`` on :func:`run_sweep`), so
    retry/timeout/backoff, failure policy and journaling are configured
    exactly once.  Invalid budgets raise
    :class:`~repro.errors.ConfigurationError` at construction.
    """

    #: Wall-clock budget per attempt; ``None`` disables the timeout.
    timeout_s: float | None = None
    #: Extra attempts after a ``SimulationError`` (0 = never retry).
    max_retries: int = 1
    #: Seed offset added per retry attempt.
    retry_seed_step: int = DEFAULT_RETRY_SEED_STEP
    #: Base delay of the deterministic jittered exponential backoff
    #: slept before each retry attempt (0 retries immediately).
    backoff_base_s: float = 0.1
    #: Ceiling on one backoff delay.
    backoff_max_s: float = 2.0
    #: Sweep failure policy: ``"raise"`` aborts on the first point that
    #: exhausts its retries, ``"skip"`` substitutes ``None`` for failed
    #: points, ``"degrade"`` substitutes typed
    #: :class:`~repro.parallel.supervisor.PointFailure` records; the
    #: latter two complete the sweep and print a report.
    on_error: str = "raise"
    #: Path of the persistent per-point sweep journal (JSONL); ``None``
    #: disables journaling.
    journal_path: str | None = None
    #: Resume from ``journal_path`` + cache: points already recorded
    #: ``ok`` under the current code version are not re-executed.
    resume: bool = False

    def __post_init__(self) -> None:
        if self.timeout_s is not None and not (
            self.timeout_s > 0 and math.isfinite(self.timeout_s)
        ):
            raise ConfigurationError(
                f"timeout must be a positive number of seconds, "
                f"got {self.timeout_s!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.max_retries!r}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigurationError(
                f"backoff delays must be >= 0, got base "
                f"{self.backoff_base_s!r} and max {self.backoff_max_s!r}"
            )
        if self.on_error not in ON_ERROR_POLICIES:
            raise ConfigurationError(
                f"on_error must be one of {', '.join(ON_ERROR_POLICIES)}, "
                f"got {self.on_error!r}"
            )


#: What ``policy=None`` means for a sweep: one attempt, no timeout, no
#: backoff.
SINGLE_ATTEMPT = RunnerConfig(max_retries=0, backoff_base_s=0.0, backoff_max_s=0.0)


@dataclass(frozen=True)
class SweepPoint:
    """One independent unit of sweep work.

    ``fn`` is a dotted path ``"package.module:function"``; ``params``
    are keyword arguments for it, restricted to JSON-serialisable values
    so the point can be content-addressed and shipped to spawn workers.
    """

    fn: str
    params: Mapping[str, Any] = field(default_factory=dict)


def resolve_point_fn(fn: str) -> Callable[..., Any]:
    """Import and return the function a dotted ``module:name`` path names."""
    module_name, _, attr = fn.partition(":")
    if not module_name or not attr:
        raise ExperimentError(
            f"point function path must look like 'pkg.mod:fn', got {fn!r}"
        )
    try:
        module = importlib.import_module(module_name)
        return getattr(module, attr)
    except (ImportError, AttributeError) as error:
        raise ExperimentError(
            f"cannot resolve point function {fn!r}: {error}"
        ) from error


def call_point(fn: str, params: Mapping[str, Any]) -> Any:
    """One call of one point — no retries, no seed perturbation."""
    return resolve_point_fn(fn)(**dict(params))


def backoff_delay_s(
    attempt: int, base_s: float, max_s: float, token: str = ""
) -> float:
    """Jittered exponential backoff before retry ``attempt`` (1-based).

    Deterministic: the jitter is derived from a SHA-256 over
    ``token:attempt`` rather than a live RNG, so two runs of the same
    sweep back off identically and reports stay reproducible.  The raw
    delay doubles per attempt up to ``max_s``; jitter scales it into
    ``[0.5, 1.0] * raw`` so a fleet of retrying points never
    synchronises.  ``base_s <= 0`` disables backoff entirely.
    """
    if base_s <= 0.0 or attempt < 1:
        return 0.0
    cap = max(base_s, max_s)
    raw = min(base_s * (2.0 ** (attempt - 1)), cap)
    digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2.0**64
    return raw * (0.5 + 0.5 * unit)


def perturbed_params(
    params: Mapping[str, Any], attempt: int, seed_step: int
) -> dict[str, Any]:
    """The point's kwargs for retry ``attempt`` (0 = first try).

    Retries perturb the point's ``seed`` parameter, when it has one, by
    ``seed_step`` per attempt.  Spec-driven points carry their seed
    inside a ``spec`` document instead; the same perturbation applies to
    ``params["spec"]["seed"]``.
    """
    kwargs = dict(params)
    if attempt and "seed" in kwargs:
        kwargs["seed"] = kwargs["seed"] + attempt * seed_step
    spec = kwargs.get("spec")
    if attempt and isinstance(spec, Mapping) and "seed" in spec:
        reseeded = dict(spec)
        reseeded["seed"] = reseeded["seed"] + attempt * seed_step
        kwargs["spec"] = reseeded
    return kwargs


def classify_failure(error: BaseException | str) -> tuple[str, bool]:
    """``(status, retryable)`` of one failed attempt.

    ``error`` is the exception itself (in-process) or its class name as
    it crossed a worker pipe (pooled; resolved against
    :mod:`repro.errors`).  Only :class:`~repro.errors.SimulationError`
    — kernel-level, seed-sensitive failures, timeouts included — is
    worth a reseeded retry; anything else is deterministic.
    """
    if isinstance(error, str):
        exc_class = getattr(_errors, error, None)
    else:
        exc_class = type(error)
    if not (isinstance(exc_class, type) and issubclass(exc_class, SimulationError)):
        return "failed", False
    return ("timeout" if issubclass(exc_class, WatchdogTimeout) else "failed"), True


class _TimedCall:
    """Run a thunk under an optional wall-clock budget.

    An expired call is abandoned, not killed (Python offers no portable
    way to kill a thread): it keeps burning CPU until it finishes or the
    process exits.  The supervised pool path *kills* overdue workers
    instead, so prefer ``jobs > 1`` when the leak matters.
    """

    def __init__(self, thunk: Callable[[], Any], label: str):
        self._thunk = thunk
        self._label = label
        self._value: Any = None
        self._error: BaseException | None = None

    def _target(self) -> None:
        try:
            self._value = self._thunk()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            self._error = error

    def __call__(self, timeout_s: float | None) -> Any:
        if timeout_s is None:
            self._target()
        else:
            worker = threading.Thread(target=self._target, daemon=True)
            worker.start()
            worker.join(timeout_s)
            if worker.is_alive():
                raise WatchdogTimeout(
                    f"{self._label} exceeded its {timeout_s:g}s wall-clock budget"
                )
        if self._error is not None:
            raise self._error
        return self._value


@dataclass
class AttemptOutcome:
    """What :func:`run_attempts` made of one unit of work."""

    attempts: int
    value: Any = None
    #: The last attempt's error; ``None`` on success.
    error: Exception | None = None


def run_attempts(
    call: Callable[[int], Any],
    policy: RunnerConfig,
    token: str,
    cancelled: Callable[[], bool] | None = None,
    label: str = "sweep point",
) -> AttemptOutcome | None:
    """Run ``call(attempt)`` under ``policy``: the one attempt loop.

    Each attempt (0-based index passed to ``call``, which applies its
    own seed perturbation) runs under ``policy.timeout_s``.  Failures
    :func:`classify_failure` deems retryable sleep the deterministic
    backoff for ``token`` and try again, up to ``policy.max_retries``
    times; any other exception stops at once.  Returns ``None`` when
    ``cancelled()`` turns true before a retry — the work is unfinished,
    not failed.  :class:`~repro.errors.SweepInterrupted` and
    ``KeyboardInterrupt`` propagate: an interrupt is never a failed
    attempt.  ``label`` names the work in timeout messages.
    """
    outcome = AttemptOutcome(attempts=0)
    for attempt in range(policy.max_retries + 1):
        if attempt:
            if cancelled is not None and cancelled():
                return None
            delay = backoff_delay_s(
                attempt, policy.backoff_base_s, policy.backoff_max_s, token=token
            )
            if delay > 0.0:
                time.sleep(delay)
        outcome.attempts = attempt + 1
        try:
            outcome.value = _TimedCall(partial(call, attempt), label)(
                policy.timeout_s
            )
        except SweepInterrupted:
            raise
        except Exception as error:  # noqa: BLE001 - classified below
            outcome.error = error
            if not classify_failure(error)[1]:
                break
        else:
            outcome.error = None
            break
    return outcome


def run_sweep(
    points: Sequence[SweepPoint | tuple[str, Mapping[str, Any]]],
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy: RunnerConfig | None = None,
    start_method: str | None = None,
    journal: SweepJournal | str | None = None,
    on_error: str | None = None,
    resume: bool | None = None,
) -> list[Any]:
    """Evaluate every point and return the values **in point order**.

    ``jobs=1`` is the in-process serial path (no pool, exceptions
    propagate with their original tracebacks); ``jobs>1`` fans cache
    misses across a supervised worker pool that detects crashed and
    hung workers, respawns them and retries their points.  With a
    ``cache``, hits are served from disk and only misses are executed;
    either way the returned list lines up index-for-index with
    ``points``, so parallel, serial and warm-cache runs are
    interchangeable.

    Completed results are persisted to the cache and ``journal`` as
    each point finishes — a failure at point 900/1000 never discards
    the other 899.  ``on_error`` selects the failure policy: ``raise``
    (default) re-raises the first final failure, ``skip`` leaves
    ``None`` at the failed index, ``degrade`` leaves a typed
    :class:`~repro.parallel.supervisor.PointFailure` record; both
    non-raising modes print a sweep report to stderr.  ``resume=True``
    (requires a journal) skips points the journal already records as
    ``ok`` under the current code version.  ``journal``/``on_error``/
    ``resume`` left as ``None`` fall back to ``policy.journal_path``/
    ``policy.on_error``/``policy.resume``.

    SIGINT/SIGTERM during the sweep trigger a graceful shutdown —
    journal and cache are flushed and :class:`~repro.errors.\
    SweepInterrupted` names the resumable state.  Note that a single
    outstanding point always runs in-process (no pool start-up cost),
    so crash-grade isolation needs ``jobs >= 2`` *and* at least two
    points left to run.
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    normalised = [
        point if isinstance(point, SweepPoint) else SweepPoint(point[0], point[1])
        for point in points
    ]
    from repro.parallel.supervisor import supervise_sweep

    outcome = supervise_sweep(
        normalised,
        jobs=jobs,
        cache=cache,
        policy=policy,
        start_method=start_method,
        journal=journal,
        on_error=on_error,
        resume=resume,
    )
    return outcome.results
