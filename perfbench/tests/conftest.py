"""Make the benchmark's modules and the checkout's ``repro`` importable."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run._use_checkout_sources()
