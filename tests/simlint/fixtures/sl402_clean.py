"""Clean for SL402: sweep work is a module-level function named by path."""
from repro.parallel import SweepPoint, run_sweep


def double(item: int) -> int:
    return item * 2


def double_all(items: list, jobs: int) -> list:
    points = [SweepPoint("fixtures.sl402_clean:double", {"item": item}) for item in items]
    return run_sweep(points, jobs=jobs)
