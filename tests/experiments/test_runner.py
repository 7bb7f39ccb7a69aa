"""The hardened runner: isolation, retries, timeouts, reports."""

import json
import time

from repro.errors import SimulationError
from repro.experiments.registry import Experiment
from repro.experiments.runner import (
    DEFAULT_RETRY_SEED_STEP,
    RunnerConfig,
    run_experiment,
    run_suite,
)
from repro.parallel import PointFailure, SweepPoint, run_sweep


def make_registry(**runners):
    return {
        name: Experiment(name, f"fake {name}", run)
        for name, run in runners.items()
    }


def ok_run(seed=1, **kwargs):
    return f"ok seed={seed}"


def crash_run(**kwargs):
    raise ValueError("deterministic bug")


def kernel_crash_run(**kwargs):
    raise SimulationError("livelock detected")


class TestIsolation:
    def test_one_failure_does_not_stop_the_suite(self):
        registry = make_registry(a=ok_run, b=crash_run, c=ok_run)
        report = run_suite(
            ["a", "b", "c"], config=RunnerConfig(max_retries=0),
            experiments=registry,
        )
        assert [r.status for r in report.results] == ["ok", "failed", "ok"]
        assert not report.all_ok
        assert [r.name for r in report.succeeded] == ["a", "c"]
        assert report.failed[0].error == "deterministic bug"
        assert report.failed[0].error_type == "ValueError"
        assert "deterministic bug" in report.failed[0].traceback

    def test_unknown_name_is_a_failure_record_not_an_exception(self):
        result = run_experiment("nonsense", experiments=make_registry(a=ok_run))
        assert result.status == "failed"
        assert result.attempts == 0
        assert "unknown experiment" in result.error

    def test_deterministic_error_is_not_retried(self):
        calls = []

        def counting_crash(**kwargs):
            calls.append(1)
            raise ValueError("boom")

        result = run_experiment(
            "x",
            config=RunnerConfig(max_retries=3),
            experiments=make_registry(x=counting_crash),
        )
        assert result.status == "failed"
        assert len(calls) == 1
        assert result.attempts == 1


class TestRetries:
    def test_simulation_error_retries_with_perturbed_seed(self):
        seeds_seen = []

        def flaky(seed=1, **kwargs):
            seeds_seen.append(seed)
            if len(seeds_seen) == 1:
                raise SimulationError("transient livelock")
            return f"recovered on seed {seed}"

        result = run_experiment(
            "flaky",
            seed=7,
            config=RunnerConfig(max_retries=2),
            experiments=make_registry(flaky=flaky),
        )
        assert result.status == "ok"
        assert result.attempts == 2
        assert seeds_seen == [7, 7 + DEFAULT_RETRY_SEED_STEP]
        assert result.seeds == seeds_seen
        assert "recovered" in result.output

    def test_exhausted_retries_degrade_to_failure(self):
        result = run_experiment(
            "x",
            config=RunnerConfig(max_retries=2),
            experiments=make_registry(x=kernel_crash_run),
        )
        assert result.status == "failed"
        assert result.attempts == 3
        assert result.error == "livelock detected"
        assert result.error_type == "SimulationError"

    def test_zero_retries_fails_on_first_kernel_error(self):
        result = run_experiment(
            "x",
            config=RunnerConfig(max_retries=0),
            experiments=make_registry(x=kernel_crash_run),
        )
        assert result.attempts == 1

    def test_backoff_slept_between_retries_deterministically(
        self, monkeypatch
    ):
        import repro.experiments.runner as runner_module
        from repro.parallel import backoff_delay_s

        slept = []
        monkeypatch.setattr(
            runner_module.time, "sleep", lambda s: slept.append(s)
        )
        run_experiment(
            "x",
            config=RunnerConfig(
                max_retries=2, backoff_base_s=0.1, backoff_max_s=2.0
            ),
            experiments=make_registry(x=kernel_crash_run),
        )
        expected = [
            backoff_delay_s(attempt, 0.1, 2.0, token="x")
            for attempt in (1, 2)
        ]
        assert slept == expected  # jitter is derived, not random

    def test_backoff_disabled_with_zero_base(self, monkeypatch):
        import repro.experiments.runner as runner_module

        slept = []
        monkeypatch.setattr(
            runner_module.time, "sleep", lambda s: slept.append(s)
        )
        run_experiment(
            "x",
            config=RunnerConfig(max_retries=2, backoff_base_s=0.0),
            experiments=make_registry(x=kernel_crash_run),
        )
        assert slept == []


class TestSharedPolicy:
    """An experiment and a sweep point retry under one attempt loop."""

    FLAKY = "tests.parallel.point_functions:flaky_point"
    FAILS = "tests.parallel.point_functions:always_fails_point"

    def attempts_of_both(self, run, point_fn):
        config = RunnerConfig(
            max_retries=2, retry_seed_step=1, backoff_base_s=0.0
        )
        result = run_experiment(
            "x", config=config, experiments=make_registry(x=run)
        )
        (failure,) = run_sweep(
            [SweepPoint(point_fn, {"seed": 1})],
            policy=config,
            on_error="degrade",
        )
        assert isinstance(failure, PointFailure)
        assert result.error_type == failure.error_type
        return result.attempts, failure.attempts

    def test_simulation_error_retried_equally(self, capsys):
        assert self.attempts_of_both(kernel_crash_run, self.FLAKY) == (3, 3)

    def test_value_error_stops_at_once_in_both(self, capsys):
        assert self.attempts_of_both(crash_run, self.FAILS) == (1, 1)


class TestTimeout:
    def test_hung_experiment_reported_as_timeout(self):
        def hang(**kwargs):
            time.sleep(5.0)
            return "never"

        result = run_experiment(
            "hang",
            config=RunnerConfig(timeout_s=0.1, max_retries=0),
            experiments=make_registry(hang=hang),
        )
        assert result.status == "timeout"
        assert result.error_type == "WatchdogTimeout"
        assert "wall-clock budget" in result.error

    def test_fast_experiment_unaffected_by_timeout(self):
        result = run_experiment(
            "a",
            config=RunnerConfig(timeout_s=30.0),
            experiments=make_registry(a=ok_run),
        )
        assert result.ok


class TestReport:
    def test_json_round_trip(self):
        registry = make_registry(a=ok_run, b=crash_run)
        report = run_suite(
            ["a", "b"], config=RunnerConfig(max_retries=0),
            experiments=registry,
        )
        data = json.loads(report.to_json())
        assert data["total"] == 2
        assert data["succeeded"] == 1
        assert data["failed"] == 1
        by_name = {entry["name"]: entry for entry in data["results"]}
        assert by_name["a"]["status"] == "ok"
        assert by_name["a"]["output"].startswith("ok seed=")
        assert by_name["b"]["error"] == "deterministic bug"

    def test_format_summary_mentions_every_experiment(self):
        registry = make_registry(a=ok_run, b=crash_run)
        report = run_suite(
            ["a", "b"], config=RunnerConfig(max_retries=0),
            experiments=registry,
        )
        summary = report.format_summary()
        assert "1/2 experiments ok" in summary
        assert "a" in summary and "b" in summary
        assert "deterministic bug" in summary

    def test_on_result_streams_in_order(self):
        seen = []
        run_suite(
            ["a", "b"],
            config=RunnerConfig(max_retries=0),
            experiments=make_registry(a=ok_run, b=crash_run),
            on_result=lambda result: seen.append(result.name),
        )
        assert seen == ["a", "b"]
