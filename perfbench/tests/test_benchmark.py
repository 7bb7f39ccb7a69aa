"""The benchmark's own tests: contract, checks, canary and determinism.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
They run real (short) benchmark passes, so they take a few minutes.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import metrics
import run

PER_LAYER = [name for name, _, _ in metrics.PER_LAYER]
END_TO_END = [name for name, _, _, _ in metrics.END_TO_END]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_committed_spec_matches_the_metric_tables():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_spec()


def test_spec_keeps_the_contract_limits():
    spec = metrics.benchmark_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # 4 + 22 runs per workload, each at most run_seconds plus set-up and
    # one trailing iteration, must fit the 3420 s budget of a full benchmark pass.
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 18) < 3420


def test_untraced_run_reports_every_end_to_end_metric():
    result = run.measure("mobile-field", seed=3, seconds=1, trace=False, setup_count=1)
    assert result["correct"], result["lines"]
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("manifest: ") for line in result["lines"])


def test_digest_mismatch_fails_the_run(monkeypatch):
    monkeypatch.setattr(run, "reference_digest", lambda workload: "0" * 64)
    result = run.measure(
        "mobile-field", seed=run.REFERENCE_SEED, seconds=1, trace=False, setup_count=1
    )
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("reference" in line for line in result["lines"])


def test_reference_digests_cover_every_workload():
    references = json.loads(run.REFERENCE_FILE.read_text())
    assert set(references) == set(metrics.WORKLOAD_WHY)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "four-node", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _wall_set(monkeypatch, handicap, runs=3):
    if handicap is None:
        monkeypatch.delenv("REPRO_PERF_HANDICAP", raising=False)
    else:
        monkeypatch.setenv("REPRO_PERF_HANDICAP", str(handicap))
    results = []
    for seed in range(1, runs + 1):
        result = run.measure("mobile-field", seed, seconds=4, trace=False, setup_count=1)
        assert result["correct"], result["lines"]
        results.append({k: m["value"] for k, m in result["metrics"].items()})
    return results


def test_handicap_canary_trips_the_regression_rule(monkeypatch):
    base = _wall_set(monkeypatch, None)
    same = _wall_set(monkeypatch, None)
    slow = _wall_set(monkeypatch, 2.0)
    assert metrics.regressions(base, same) == {}
    assert "wall_s" in metrics.regressions(base, slow)


def _counts(workload, seed):
    result = run.measure(workload, seed, seconds=1, trace=True)
    assert result["correct"], result["lines"]  # includes traced == untraced
    assert list(result["metrics"]) == PER_LAYER
    return {k: m["value"] for k, m in result["metrics"].items()}


COUNTS = {
    "mobile-field": ["sim.events", "sim.schedules", "channel.transmits",
                     "channel.grid_candidates", "channel.moves", "phy.receptions",
                     "mac.tx_attempts", "net.sends", "apps.delivered"],
    "mac-sweep": ["sim.events", "channel.transmits", "phy.receptions",
                  "mac.tx_attempts", "obs.records", "parallel.cache_hits",
                  "parallel.cache_misses"],
}
#: Counts the workload's shape fixes whatever the seed: the mobility
#: update schedule, the CBR send schedule and the sweep grid.
SHAPE_COUNTS = {"channel.moves", "net.sends", "parallel.cache_hits", "parallel.cache_misses"}


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_layer_counts_repeat_per_seed_and_differ_across_seeds(workload):
    first = _counts(workload, 1)
    again = _counts(workload, 1)
    other = _counts(workload, 2)
    names = COUNTS[workload]
    assert {n: first[n] for n in names} == {n: again[n] for n in names}
    seeded = [n for n in names if n not in SHAPE_COUNTS]
    assert all(first[n] != other[n] for n in seeded), {
        n: (first[n], other[n]) for n in seeded
    }
    assert all(first[n] > 0 for n in names)
