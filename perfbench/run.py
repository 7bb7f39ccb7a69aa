"""The repository benchmark: one command, three workloads, two kinds of run.

Run from the repository root::

    python3 perfbench/run.py --workload four-node --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time (median of several fresh interpreters), the median iteration wall
time, peak RSS, and per-operation latency, iteration times scaled by a
host-speed calibration (see ``CALIBRATION_REF_S``).  ``--trace 1`` runs the same
untraced iterations, then one traced iteration of the same inputs, and
reports the per-layer metrics (see ``layertrace.py``); the traced outputs
must match the untraced ones bit for bit.

Every run checks its outputs: per-flow invariants and sweep consistency
on any seed, determinism across iterations, and for the reference seed
an exact digest recorded in ``reference.json``.  A failed check counts in
``failed`` and makes the command exit 1.  Human-readable lines and the
run manifest go to standard output first; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Other entry points: ``--write-spec`` regenerates ``BENCHMARK.json`` from
``metrics.py``; ``--record-reference`` records the reference digest of a
workload at the reference seed.
"""

from __future__ import annotations

import time

PROCESS_START = time.time()

import argparse  # noqa: E402 - the clock above should start first
import hashlib  # noqa: E402
import heapq  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
REFERENCE_FILE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 1

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5

#: Host-speed calibration.  The effective speed of a shared host drifts
#: (slow spells of up to 2x lasting minutes were seen on a 2-vCPU VM), and
#: CPU time drifts with it, so raw seconds from two runs minutes apart do
#: not compare.  Before and after every measured iteration the benchmark
#: times a fixed pure-Python loop (heap, dict and float work, like the
#: event loop) and scales the iteration's times to a reference host on
#: which one loop takes ``CALIBRATION_REF_S``.  ``setup_s`` is scaled by
#: the run's median iteration scale, taken just before the set-up probes
#: (a fresh interpreter runs the loop at a speed that does not track its
#: own import, so probes are not calibrated one by one).  Raw host
#: seconds are printed alongside.
CALIBRATION_REF_S = 0.025
CALIBRATION_LOOP = 30_000
CALIBRATION_SAMPLES = 3

#: What set-up imports: every module the workloads touch.
SETUP_MODULES = (
    "repro.scenario",
    "repro.parallel",
    "repro.experiments.four_nodes",
    "repro.experiments.multihop",
    "repro.experiments.mac_surface",
)


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))


def import_repro() -> float:
    """Import the simulator; returns the seconds it took."""
    start = time.perf_counter()
    for module in SETUP_MODULES:
        importlib.import_module(module)
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: repro imported from {origin}, not {SRC}")
    return time.perf_counter() - start


def digest(outputs: Any) -> str:
    """Exact digest of an iteration's outputs (floats by their repr)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reference_digest(workload: str) -> str | None:
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload)


# ---------------------------------------------------------------------------
# Manifest


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def manifest(workload: str, seed: int, backends: dict[str, Any]) -> dict[str, Any]:
    """Host fingerprint, code version, seed and the resolved backends."""
    import numpy
    import scipy

    from repro.channel.medium import resolve_medium
    from repro.phy.kernel import resolve_kernel

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(),
        "host": {
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "resolve_medium()": resolve_medium(),
        "resolve_kernel()": resolve_kernel(),
        "backends": backends,
    }


# ---------------------------------------------------------------------------
# Measurement


def calibration_samples(jobs: int = 1) -> list[float]:
    """Timings of the calibration loop (fixed work, fixed seed), run in
    ``jobs`` processes at once to match a phase's parallelism."""
    if jobs > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            runs = pool.map(calibration_samples, [1] * jobs)
        return [sample for samples in runs for sample in samples]
    samples = []
    for _ in range(CALIBRATION_SAMPLES):
        rng = random.Random(7)
        heap: list[tuple[float, int]] = []
        table: dict[int, float] = {}
        start = time.perf_counter()
        for i in range(CALIBRATION_LOOP):
            heapq.heappush(heap, (rng.random(), i))
            table[i & 1023] = table.get(i & 1023, 0.0) + 1.5
            if len(heap) > 64:
                heapq.heappop(heap)
        samples.append(time.perf_counter() - start)
    return samples


def host_scale(before: list[float], after: list[float]) -> float:
    """Factor from this host's seconds to reference seconds, from the
    calibration timed just before and just after a phase."""
    return CALIBRATION_REF_S / statistics.median(before + after)


def setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up sample: import, prepare, print the clock."""
    import workloads

    import_repro()
    workdir = WORK_ROOT / f"probe-{os.getpid()}"
    try:
        workloads.WORKLOADS[workload](seed, workdir).prepare()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(time.time()))


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """Interpreter start to end of set-up, in ``count`` fresh processes
    (host seconds)."""
    samples = []
    for _ in range(count):
        start = time.time()
        out = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--setup-probe",
                "--workload",
                workload,
                "--seed",
                str(seed),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        samples.append(float(out.stdout.strip().splitlines()[-1]) - start)
    return samples


def peak_rss_kb() -> int:
    """High-water RSS of this process and of its largest reaped child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def run_iterations(workload: Any, seconds: float) -> tuple[list[Any], int]:
    """Closed loop: iterations back to back while the budget allows.

    Each iteration's ``scale`` comes from the calibration on both sides.
    Also returns the peak RSS after the first iteration: later iterations
    only add allocator noise, and how many run depends on host speed.
    """
    iterations = []
    peak_kb = 0
    start = time.perf_counter()
    before = calibration_samples(workload.jobs)
    while True:
        began = time.perf_counter()
        iteration = workload.iterate()
        last = time.perf_counter() - began
        after = calibration_samples(workload.jobs)
        iteration.scale = host_scale(before, after)
        iterations.append(iteration)
        peak_kb = peak_kb or peak_rss_kb()
        before = after
        if time.perf_counter() - start + last > seconds:
            return iterations, peak_kb


def check_outputs(name: str, seed: int, iterations: list[Any]) -> list[str]:
    """Failures beyond the per-iteration invariants: determinism across
    iterations and, at the reference seed, the recorded digest."""
    failures = []
    digests = [digest(iteration.outputs) for iteration in iterations]
    if len(set(digests)) != 1:
        failures.append(f"iterations of one seed disagree: {sorted(set(digests))}")
    expected = reference_digest(name) if seed == REFERENCE_SEED else None
    if expected is not None and digests[0] != expected:
        failures.append(f"digest {digests[0]} != reference {expected}")
    return failures


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    setup_count: int = SETUP_SAMPLES,
) -> dict[str, Any]:
    """One benchmark run; returns the result document (plus report lines)."""
    import layertrace
    import metrics
    import workloads

    import_s = import_repro()
    main_setup_start = time.perf_counter()
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    lines: list[str] = []
    try:
        workload = workloads.WORKLOADS[name](seed, workdir)
        workload.prepare()
        lines.append(
            f"set-up in this process: {time.time() - PROCESS_START:.3f} s "
            f"(import {import_s:.3f} s, prepare "
            f"{time.perf_counter() - main_setup_start:.3f} s)"
        )
        iterations, peak_kb = run_iterations(workload, seconds)
        failures = [f for iteration in iterations for f in iteration.failures]
        failures += check_outputs(name, seed, iterations)
        attempted = sum(iteration.attempted for iteration in iterations)
        untraced_wall = statistics.median(i.wall_s for i in iterations)
        backends = {}
        for iteration in iterations:
            backends.update(iteration.backends)

        if trace:
            tracer = layertrace.LayerTrace(workdir).install()
            try:
                start = time.perf_counter()
                traced = workload.iterate()
                traced_wall = time.perf_counter() - start
                tracer.harvest()
            finally:
                tracer.remove()
            local_self_s = sum(tracer.self_s.values())
            merged = tracer.merge_workers()
            attempted += traced.attempted
            failures += traced.failures
            if digest(traced.outputs) != digest(iterations[0].outputs):
                failures.append("traced outputs differ from the untraced run")
            if tracer.counts["obs.unbalanced"]:
                failures.append(f"{tracer.counts['obs.unbalanced']:.0f} unbalanced ledgers")
            extra = iterations[0].extra
            values = metrics.layer_metrics(
                tracer, local_self_s, traced_wall, untraced_wall, import_s, extra
            )
            span_file = WORK_ROOT / f"trace-{name}-seed{seed}.json"
            tracer.dump(span_file)
            lines.append(
                f"traced iteration: {traced_wall:.3f} s vs untraced median "
                f"{untraced_wall:.3f} s; {merged} worker span files merged; "
                f"spans -> {span_file.relative_to(ROOT)}"
            )
            for metric, value in values.items():
                reason = metrics.absent_reason(name, metric) if value == 0 else ""
                note = f"  (absent: {reason})" if reason else ""
                lines.append(f"  {metric} = {value:.6g} {metrics.UNITS[metric]}{note}")
        else:
            setups = setup_samples(name, seed, setup_count)
            op_counts = [len(iteration.op_times_s) for iteration in iterations]
            scale = statistics.median(i.scale for i in iterations)
            values = {
                "setup_s": statistics.median(setups) * scale,
                "wall_s": statistics.median(i.wall_s * i.scale for i in iterations),
                "peak_rss_mb": peak_kb / 1024.0,
                "point_p50_s": metrics.iteration_quantile(iterations, 0.5),
                "point_p90_s": metrics.iteration_quantile(iterations, 0.9),
            }
            raw = {
                "setup_s": statistics.median(setups),
                "wall_s": untraced_wall,
                "point_p50_s": metrics.iteration_quantile(iterations, 0.5, scaled=False),
                "point_p90_s": metrics.iteration_quantile(iterations, 0.9, scaled=False),
            }
            lines.append(
                f"{len(iterations)} iterations of {op_counts} operations; "
                f"host scale median {scale:.3f} (reference seconds per host second); "
                f"set-up samples {[round(t, 3) for t in setups]} host s"
            )
            for metric, value in values.items():
                host = f"  [host {raw[metric]:.6g} s]" if metric in raw else ""
                lines.append(f"  {metric} = {value:.6g} {metrics.UNITS[metric]}{host}")
        failed = min(attempted, len(failures))
        lines.append(
            f"  fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}"
        )
        lines.extend(f"  FAILED: {failure}" for failure in failures)
        lines.append("manifest: " + json.dumps(manifest(name, seed, backends)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": metrics.UNITS[metric]}
            for metric, value in values.items()
        },
        "lines": lines,
    }


def record_reference(name: str) -> str:
    """Run one iteration at the reference seed and store its digest."""
    import workloads

    import_repro()
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](REFERENCE_SEED, workdir)
        workload.prepare()
        iteration = workload.iterate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if iteration.failures:
        raise SystemExit(f"error: {name} fails its checks: {iteration.failures}")
    references = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    references[name] = digest(iteration.outputs)
    REFERENCE_FILE.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    return references[name]


def main(argv: list[str] | None = None) -> int:
    import metrics

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(metrics.WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="regenerate BENCHMARK.json from metrics.py")
    parser.add_argument("--record-reference", action="store_true",
                        help="store the workload's digest at the reference seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write_spec:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(metrics.benchmark_spec(), indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    _use_checkout_sources()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.record_reference:
        print(f"{args.workload}: {record_reference(args.workload)}")
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in result.pop("lines"):
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
