"""Triggers SL402: a lambda handed to the sweep engine."""
from repro.parallel import SweepPoint, run_sweep


def double_all(items: list, jobs: int) -> list:
    points = [SweepPoint(lambda item: item * 2, {"item": item}) for item in items]
    return run_sweep(points, jobs=jobs)
