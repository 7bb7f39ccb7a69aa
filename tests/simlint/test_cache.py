"""The per-file result cache and the multi-process lint path."""

import multiprocessing
import os
import signal
import textwrap
import time

import pytest

from repro.errors import ExperimentError
from repro.simlint.cache import (
    LintCache,
    result_from_json,
    result_to_json,
    rules_version_tag,
)
from repro.simlint.checker import Checker, FileResult, Finding, _lint_file_payload

TRIGGER = """\
    import random

    draw = random.random()
"""

CLEAN = """\
    def double(value: float) -> float:
        return value * 2.0
"""


def write_tree(root, files):
    for name, source in files.items():
        (root / name).write_text(textwrap.dedent(source), encoding="utf-8")


def crash_on_one_file(*args, **kwargs):
    """Lint worker that hard-crashes (no cleanup) on ``crash_me.py``."""
    if "crash_me.py" in repr((args, kwargs)):
        os._exit(1)
    return _lint_file_payload(*args, **kwargs)


class TestRoundTrip:
    def test_file_result_survives_json(self, tmp_path):
        write_tree(tmp_path, {"snippet.py": TRIGGER})
        result = Checker().check_file(tmp_path / "snippet.py", root=tmp_path)
        assert result.summary is not None
        assert result_from_json(result_to_json(result)) == result

    def test_cache_get_put(self, tmp_path):
        write_tree(tmp_path, {"snippet.py": TRIGGER})
        path = tmp_path / "snippet.py"
        result = Checker().check_file(path, root=tmp_path)
        cache = LintCache(tmp_path / "cache")
        key = cache.content_hash(path)
        assert cache.get(key) is None
        cache.put(key, result)
        assert cache.get(key) == result

    def test_version_tag_is_stable_and_short(self):
        assert rules_version_tag() == rules_version_tag()
        assert len(rules_version_tag()) == 16


class TestCachedLint:
    def test_cache_hits_are_served_without_relinting(self, tmp_path):
        source_dir = tmp_path / "src"
        source_dir.mkdir()
        write_tree(source_dir, {"snippet.py": CLEAN})
        path = source_dir / "snippet.py"
        cache = LintCache(tmp_path / "cache")

        marker = FileResult(
            relpath="snippet.py",
            findings=(
                Finding(
                    rule_id="SL999",
                    path="snippet.py",
                    line=1,
                    col=0,
                    message="served from cache",
                ),
            ),
            summary=None,
            used_waiver_lines=(),
        )
        cache.put(cache.content_hash(path), marker)
        findings = Checker().check_paths([source_dir], root=source_dir, cache=cache)
        assert [f.rule_id for f in findings] == ["SL999"]

    def test_stale_entries_miss_on_content_change(self, tmp_path):
        source_dir = tmp_path / "src"
        source_dir.mkdir()
        write_tree(source_dir, {"snippet.py": CLEAN})
        path = source_dir / "snippet.py"
        cache = LintCache(tmp_path / "cache")

        assert Checker().check_paths([source_dir], root=source_dir, cache=cache) == []
        path.write_text(textwrap.dedent(TRIGGER), encoding="utf-8")
        findings = Checker().check_paths([source_dir], root=source_dir, cache=cache)
        assert [f.rule_id for f in findings] == ["SL101"]

    def test_entry_keyed_on_relpath_not_reused_across_roots(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b" / "nested"
        dir_a.mkdir()
        dir_b.mkdir(parents=True)
        write_tree(dir_a, {"snippet.py": TRIGGER})
        write_tree(dir_b, {"snippet.py": TRIGGER})
        cache = LintCache(tmp_path / "cache")

        first = Checker().check_paths([dir_a], root=dir_a, cache=cache)
        # Same bytes, different root-relative path: must re-lint, not
        # replay the other file's findings under the wrong path.
        second = Checker().check_paths(
            [dir_b], root=tmp_path / "b", cache=cache
        )
        assert [f.path for f in first] == ["snippet.py"]
        assert [f.path for f in second] == ["nested/snippet.py"]


class TestParallelLint:
    def test_jobs_match_serial_findings(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "trigger.py": TRIGGER,
                "clean.py": CLEAN,
                "broken.py": "def broken(:\n",
            },
        )
        serial = Checker().check_paths([tmp_path], root=tmp_path, jobs=1)
        parallel = Checker().check_paths([tmp_path], root=tmp_path, jobs=2)
        assert parallel == serial
        assert {f.rule_id for f in serial} == {"SL101", "SL002"}

    def test_jobs_require_the_default_rule_set(self, tmp_path):
        from repro.simlint.rules.determinism import ModuleGlobalRandomRule

        write_tree(tmp_path, {"trigger.py": TRIGGER})
        checker = Checker(rules=[ModuleGlobalRandomRule()])
        with pytest.raises(ValueError):
            checker.check_paths([tmp_path], root=tmp_path, jobs=2)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched worker reaches the pool only through fork",
    )
    def test_crashed_worker_raises_instead_of_hanging(
        self, tmp_path, monkeypatch
    ):
        import repro.simlint.checker as checker_module

        write_tree(
            tmp_path,
            {"clean.py": CLEAN, "crash_me.py": CLEAN, "other.py": CLEAN},
        )
        monkeypatch.setattr(
            checker_module, "_lint_file_payload", crash_on_one_file
        )

        def hung(signum, frame):
            raise AssertionError("parallel lint hung on a dead worker")

        # A wall-clock bound, so a hang fails the test instead of
        # stalling the suite.
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        started = time.monotonic()
        try:
            with pytest.raises(ExperimentError, match="worker died"):
                Checker().check_paths([tmp_path], root=tmp_path, jobs=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 10.0


class TestParseErrorPaths:
    def test_sl002_reports_root_relative_path(self, tmp_path):
        write_tree(tmp_path, {"broken.py": "def broken(:\n"})
        (finding,) = Checker().check_paths([tmp_path], root=tmp_path)
        assert finding.rule_id == "SL002"
        assert finding.path == "broken.py"
