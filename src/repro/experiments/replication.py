"""Replication driver: run an experiment across seeds, report CIs.

Single runs of a stochastic simulation are point samples; publishable
numbers need replications.  :func:`replicate` runs a seed-parametrised
metric function across independent seeds and summarises the results
with a Student-t confidence interval.

Seeds are derived from the base seed alone (never from execution
order).  :func:`replicate` runs an arbitrary callable in-process;
:func:`replicate_spec` replicates a declarative scenario as sweep
points, so replications fan across worker processes and land in the
sweep cache like any other point.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.stats import Summary, summarize
from repro.errors import ExperimentError
from repro.parallel import SweepCache

MetricFn = Callable[[int], float]


def replicate(
    metric: MetricFn,
    replications: int = 5,
    base_seed: int = 1,
    confidence: float = 0.95,
) -> Summary:
    """Run ``metric(seed)`` for ``replications`` independent seeds.

    Seeds are ``base_seed * 1000 + i`` so different base seeds give
    disjoint replication sets.
    """
    if replications < 1:
        raise ExperimentError("need at least one replication")
    values = [metric(seed) for seed in seeds_for(replications, base_seed)]
    return summarize(values, confidence=confidence)


def replicate_many(
    metrics: dict[str, MetricFn],
    replications: int = 5,
    base_seed: int = 1,
) -> dict[str, Summary]:
    """Replicate several named metrics with matched seeds."""
    return {
        name: replicate(metric, replications, base_seed)
        for name, metric in metrics.items()
    }


def seeds_for(replications: int, base_seed: int = 1) -> Sequence[int]:
    """The seed sequence :func:`replicate` would use (for custom loops)."""
    return [base_seed * 1000 + index for index in range(replications)]


def replicate_spec(
    spec: Any,
    extract: str,
    extract_params: Mapping[str, Any] | None = None,
    replications: int = 5,
    base_seed: int = 1,
    confidence: float = 0.95,
    jobs: int = 1,
    cache: SweepCache | None = None,
) -> Summary:
    """Replicate one :class:`~repro.scenario.ScenarioSpec` across seeds.

    The spec's own ``seed`` is ignored; each replication reruns the
    scenario with a seed from :func:`seeds_for` and applies the
    ``extract`` metric (a ``"pkg.mod:fn"`` path returning a number).
    Because replications are full scenario points, they land in the
    sweep cache like any other point.
    """
    from repro.scenario import ScenarioSpec, run_scenarios

    if not isinstance(spec, ScenarioSpec):
        raise ExperimentError(
            f"replicate_spec needs a ScenarioSpec, got {type(spec).__name__}"
        )
    if replications < 1:
        raise ExperimentError("need at least one replication")
    specs = [
        dataclasses.replace(spec, seed=seed)
        for seed in seeds_for(replications, base_seed)
    ]
    values = run_scenarios(
        specs, extract=extract, extract_params=extract_params, jobs=jobs,
        cache=cache,
    )
    return summarize([float(value) for value in values], confidence=confidence)
