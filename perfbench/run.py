"""hvw benchmark: one workload, one seed, one JSON line of results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload polytope|corpus|cli --seed N --seconds S --trace 0|1

The library is imported from `src/` of the same checkout; nothing needs to be
installed. A run sets up several times (import, seeded inputs, model files,
expected outputs) and reports the median set-up time. It then runs rounds of
operations from one caller, one at a time (a closed loop), until S seconds
have passed and there are enough samples for the 90th percentile. Each
operation's output is checked after its clock stops; a wrong or raised result
counts as a failure and the run goes on.

Every time reported is scaled to a machine of nominal speed, by a reference
loop timed around each stretch of operations and each set-up (see
`measure.REFERENCE_S`): a shared host changes speed by tens of percent within
a minute.

With `--trace 0` the last line holds the end-to-end metrics, with
`--trace 1` the per-layer ones. The traced run runs the first
`trace_rounds` rounds of the pool (cycling) twice, round by round: once plain and once
with every function in `layers.TRACED` wrapped, so the per-layer figures
cover a fixed amount of work and the difference between the two passes is
the tracing overhead. Span times are not scaled. Plain runs never install a
wrapper.

All human-readable lines come first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import layers
from measure import REFERENCE_S, percentile, reference_seconds, samples_beyond, samples_needed, scaled
from spans import Recorder
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
SETUP_READINGS = 3
SEGMENT_S = 0.1
IMPORT_REPEATS = 5
# No new round starts after this many seconds, whatever the sample count, so
# that a run always ends within a few minutes, even on a slow machine.
HARD_LIMIT_S = 120.0

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Sample:
    label: str
    latency: float
    ok: bool


def load_library():
    """Import hvw (and hvw.cli) afresh from this checkout's sources."""
    for name in [n for n in sys.modules if n == "hvw" or n.startswith("hvw.")]:
        del sys.modules[name]
    hvw = importlib.import_module("hvw")
    importlib.import_module("hvw.cli")
    if Path(hvw.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"hvw was imported from {hvw.__file__}, not from {SRC}")
    return hvw


def set_up(workload, seed: int, workdir: str, recorder: Recorder | None = None):
    """Import, generate the seeded inputs and record expected outputs.

    Returns the set-up time, scaled by the median of the reference readings
    taken just before and just after it. With a recorder, input generation
    is traced (not the expected outputs).
    """
    gc.collect()
    readings = [reference_seconds() for _ in range(SETUP_READINGS)]
    start = time.perf_counter()
    hvw = load_library()
    if recorder is not None:
        recorder.install(layers.library_modules(sys.modules), layers.targets(hvw))
    try:
        inputs = workload.generate(hvw, seed, workdir)
    finally:
        if recorder is not None:
            recorder.restore()
    pool = workload.rounds(hvw, inputs, workdir)
    seconds = time.perf_counter() - start
    readings += [reference_seconds() for _ in range(SETUP_READINGS)]
    return scaled(seconds, [statistics.median(readings)]), hvw, pool


def freeze_heap() -> None:
    """Leave the objects made in set-up out of later collections, so that the
    collection before each operation costs the same whatever the pool size."""
    gc.collect()
    gc.freeze()


def execute(ops: list[Op], readings: list[float]) -> list[tuple[Op, float, object, BaseException | None]]:
    """Time each operation; an exception is kept as its result, not raised.

    A reference reading (appended to `readings`) closes each stretch of at
    least SEGMENT_S of operation time, and every operation of the stretch is
    scaled by the mean of the readings just before and just after it.
    """
    done = []
    stretch: list[tuple[Op, float, object, BaseException | None]] = []
    readings.append(reference_seconds())
    for n, op in enumerate(ops, 1):
        args = op.prepare()
        gc.collect()
        start = time.perf_counter()
        try:
            result, error = op.run(*args), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, exc
        stretch.append((op, time.perf_counter() - start, result, error))
        if n == len(ops) or sum(seconds for _, seconds, _, _ in stretch) >= SEGMENT_S:
            readings.append(reference_seconds())
            done += [(o, scaled(seconds, readings[-2:]), r, e) for o, seconds, r, e in stretch]
            stretch = []
    return done


def verify(done) -> list[Sample]:
    """Check each result, after the clocks have stopped."""
    samples = []
    for op, latency, result, error in done:
        ok = False
        if error is None:
            try:
                ok = bool(op.check(result))
            except Exception as exc:  # a check that raises marks a wrong result
                error = exc
        if error is not None:
            print(f"{op.label}: {error!r}", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
        elif not ok:
            print(f"{op.label}: output failed its check", file=sys.stderr)
        samples.append(Sample(op.label, latency, ok))
    return samples


def measure(pool: list[list[Op]], seconds: float) -> tuple[list[Sample], int]:
    """Closed loop over whole rounds of the pool until `seconds` pass and
    p90 is reportable. Returns every sample and the number of rounds."""
    needed = samples_needed(90)
    readings: list[float] = []
    samples: list[Sample] = []
    start = time.perf_counter()
    for i in itertools.count():
        samples += verify(execute(pool[i % len(pool)], readings))
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and len(samples) >= needed):
            print(f"reference loop: median {1000 * statistics.median(readings):.3f} ms over "
                  f"{len(readings)} readings; times are scaled to {1000 * REFERENCE_S:g} ms")
            print(f"operations: {sum(s.latency for s in samples):.2f} s scaled, in {elapsed:.2f} s of wall time")
            return samples, i + 1


def measure_traced(hvw, pool: list[list[Op]], recorder: Recorder):
    """Each round of `pool`, plain and then traced."""
    modules = layers.library_modules(sys.modules)
    targets = layers.targets(hvw)
    readings: list[float] = []
    plain: list[Sample] = []
    traced: list[Sample] = []
    for ops in pool:
        plain += verify(execute(ops, readings))
        recorder.install(modules, targets)
        try:
            done = execute(ops, readings)
        finally:
            recorder.restore()
        traced += verify(done)
    return plain, traced


def import_seconds() -> float:
    """Median time of `import hvw.cli` in a fresh interpreter, start-up excluded."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import hvw.cli; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(samples: list[Sample], rounds: int, setup_times: list[float]) -> dict:
    latencies = [s.latency for s in samples]
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mib(),
        "setup_s": statistics.median(setup_times),
    }
    missing = [name for name, value in values.items() if value is None]
    if missing:
        raise RuntimeError(f"too few samples ({len(latencies)}) to report {missing}")
    print(f"samples: {len(latencies)} operations in {rounds} rounds; "
          f"{len(setup_times)} set-ups")
    for p in (50, 90):
        print(f"latency_p{p}_s rests on {samples_beyond(len(latencies), p)} samples above it")
    return values


def per_layer(plain: list[Sample], traced: list[Sample], recorder: Recorder) -> dict:
    measured: dict[str, float] = {}
    by_command: dict[str, list[float]] = {}
    for s in plain:
        if s.label in layers.CLI_SUBCOMMANDS:
            by_command.setdefault(s.label, []).append(s.latency)
    for sub in layers.CLI_SUBCOMMANDS:
        # 0 when the workload runs no such command or too few of them.
        measured[f"cli.{sub}.p50_s"] = percentile(by_command.get(sub, []), 50) or 0.0
    plain_s = sum(s.latency for s in plain)
    traced_s = sum(s.latency for s in traced)
    measured["trace.overhead_s"] = traced_s - plain_s
    measured["trace.overhead_pct"] = 100 * (traced_s - plain_s) / plain_s
    measured["cli.import_s"] = import_seconds()
    print(f"traced {len(traced)} operations: {traced_s:.4f} s traced, {plain_s:.4f} s plain")
    return layers.per_layer(recorder, measured)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance() -> str:
    return f"{cpu_model()}, {os.cpu_count()} cpus, Python {platform.python_version()}"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "hvw" / "__init__.py").is_file():
        print(f"error: no hvw sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            recorder = Recorder()
            _, hvw, pool = set_up(workload, args.seed, workdir, recorder)
            freeze_heap()
            traced_rounds = [pool[i % len(pool)] for i in range(workload.trace_rounds)]
            plain, traced = measure_traced(hvw, traced_rounds, recorder)
            samples = plain + traced
            values = per_layer(plain, traced, recorder)
            units = {name: unit for name, (unit, _) in layers.METRICS.items()}
        else:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                seconds, hvw, pool = set_up(workload, args.seed, workdir)
                setup_times.append(seconds)
            freeze_heap()
            samples, rounds = measure(pool, args.seconds)
            values = end_to_end(samples, rounds, setup_times)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not s.ok for s in samples)
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"machine: {provenance()}")
    print(f"fail_ratio {failed}/{len(samples)}")
    for name, value in values.items():
        print(f"{name:50s} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
