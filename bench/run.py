"""Benchmark for `subpb`: fixed workloads, end-to-end metrics with tracing
off, and per-layer metrics from a separate traced run.

Run from the repository root:

    python3 bench/run.py --workload sweep-exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

`--trace 0` reports setup_s, wall_s and peak_rss_mb; `--trace 1` reports
the per-layer metrics of spans recorded around calls into each module.
setup_s and wall_s are scaled for machine-speed drift (see calibration.py);
the raw times are printed beside them.
Every output cell is checked (see workloads.py). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; `--workload all` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

#: Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 11
#: Calibration units timed around each set-up process and each call
#: (about 0.12 s and 0.5 s).
SETUP_UNITS = 40
CALL_UNITS = 160
#: Fewest end-to-end calls per run, however short --seconds is.
MIN_CALLS = 3
#: Problems printed in full; the rest are only counted.
SHOWN_PROBLEMS = 10


def import_program() -> None:
    if not (SRC / "subpb" / "__init__.py").is_file():
        sys.exit(f"bench: no subpb package under {SRC}")
    sys.path.insert(0, str(SRC))


def workdir() -> Path:
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_once(name: str, seed: int) -> float:
    """Time a fresh import of the program plus the workload's set-up."""
    start = time.perf_counter()
    import workloads

    work = workdir()
    try:
        workloads.WORKLOADS[name].setup(seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return time.perf_counter() - start


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and scaled set-up times of fresh processes."""
    times, scaled = [], []
    clock = calibration.Clock(SETUP_UNITS)
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
        scaled.append(clock.scale(times[-1]))
    return times, scaled


def tail(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n <= 10:
        return f"no percentile has 10 of {n} samples beyond it"
    return f"p{100 * (n - 10) / n:.0f} {sorted(times)[n - 11]:.4f} s"


class Tally:
    """Cells from every end-to-end call of a run, checked after timing."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.attempted = self.failed = 0
        self.cells = []

    def add(self, call) -> float:
        """Run `call` once; keep its cells and return its wall time."""
        expected = self.workload.expected_cells(self.inputs)
        self.attempted += expected
        start = time.perf_counter()
        try:
            outcome = call()
        except Exception:  # noqa: BLE001 - a failing call is counted, not fatal
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            self.failed += expected
            return elapsed
        elapsed = time.perf_counter() - start
        cells, failed = self.workload.cells(self.inputs, outcome)
        self.cells += cells
        self.failed += failed
        return elapsed

    def wrong(self, checker) -> list[list[str]]:
        return [p for p in map(checker.problems, self.cells) if p]


def report(tally: Tally, wrong: list[list[str]], problems: list[str], metrics: dict) -> None:
    for cell_problems in wrong[:SHOWN_PROBLEMS]:
        print("wrong:", "; ".join(cell_problems))
    for problem in problems:
        print("problem:", problem)
    attempted = max(tally.attempted, 1)
    print(f"failed_frac  {tally.failed / attempted:.4f} ({tally.failed}/{tally.attempted} cells)")
    print(f"wrong_frac   {len(wrong) / attempted:.4f} ({len(wrong)}/{tally.attempted} cells)")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not wrong and not problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


def run_untraced(workload, seed: int, seconds: float, reference) -> None:
    import workloads

    setup_times, setup_scaled = measure_setup(workload.name, seed)
    work = workdir()
    try:
        inputs = workload.setup(seed, work)
        tally = Tally(workload, inputs)
        times, scaled = [], []
        start = time.perf_counter()
        clock = calibration.Clock(CALL_UNITS)
        while len(times) < MIN_CALLS or time.perf_counter() - start < seconds:
            times.append(tally.add(lambda: workload.call(inputs)))
            scaled.append(clock.scale(times[-1]))
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wrong = tally.wrong(workloads.Checker(workload, inputs, reference))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"setup_s over {len(setup_times)} processes, raw: "
          + " ".join(f"{t:.4f}" for t in setup_times)
          + f"; scaled: median {statistics.median(setup_scaled):.4f} s")
    print(f"wall_s over {len(times)} calls, raw: median {statistics.median(times):.4f} s, "
          f"{tail(times)}; scaled: median {statistics.median(scaled):.4f} s, {tail(scaled)}")
    report(tally, wrong, [], {
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "wall_s": {"value": statistics.median(scaled), "unit": "s"},
        "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
    })


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def repeat_problems(key: str, counts: dict) -> list[str]:
    """Compare exact counts with those an earlier run of the same source
    and seed left in this checkout, and record them for later runs."""
    path = OUT / "counts.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    earlier = seen.setdefault(key, counts)
    path.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
    return [f"{name} was {earlier.get(name)} in an earlier run, now {value}"
            for name, value in counts.items() if earlier.get(name) != value]


def run_traced(workload, seed: int, seconds: float, reference) -> None:
    """Alternate untraced calls with traced episodes (set-up plus call)."""
    import spans as sp
    import workloads

    tracer = sp.Tracer()
    episodes, plain, traced = [], [], []
    work = workdir()
    try:
        inputs = workload.setup(seed, work)
        tally = Tally(workload, inputs)
        start = time.perf_counter()
        while len(episodes) < 2 or time.perf_counter() - start < seconds:
            plain.append(tally.add(lambda: workload.call(inputs)))
            tracer.reset()
            with tracer.installed():
                with tracer.span("bench.setup"):
                    episode_inputs = workload.setup(seed, work)

                def call():
                    with tracer.span("bench.call"):
                        return workload.call(episode_inputs)

                tally.add(call)
            episodes.append(tracer.reset())
            traced.append(next(e - s for n, s, e, _ in episodes[-1][0] if n == "bench.call"))
        wrong = tally.wrong(workloads.Checker(workload, inputs, reference))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, problems, shares = {}, [], {}
    for spans, counts in episodes:
        selfs = sp.self_times(spans)
        root = next(i for i, s in enumerate(spans) if s[0] == "bench.call")
        for layer, share in sp.layer_shares(spans, selfs, root).items():
            shares.setdefault(layer, []).append(share)
        for metric in sp.METRICS:
            if any(t in tracer.present for t in metric.targets):
                metrics.setdefault(metric, []).append(metric.value(spans, selfs, counts))
    out = {}
    for metric, values in metrics.items():
        value = statistics.median(values)
        if metric.unit in sp.EXACT_UNITS:
            value = values[0]
            if len(set(values)) > 1:
                problems.append(f"{metric.name} differs across episodes: {values}")
        out[metric.name] = {"value": value, "unit": metric.unit}
    out["bench.trace_overhead_frac"] = {
        "value": statistics.median(traced) / statistics.median(plain) - 1, "unit": "ratio"}
    exact = {name: m["value"] for name, m in out.items() if m["unit"] in sp.EXACT_UNITS}
    problems += repeat_problems(f"{workload.name}/s{seed}/{source_digest()}", exact)

    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-s{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": workload.name, "seed": seed,
        "episodes": [{"spans": s, "counts": c} for s, c in episodes],
    }) + "\n")
    missing = [m.name for m in sp.METRICS if m.name not in out]
    if missing:
        print("dropped (targets gone):", ", ".join(missing))
    print(f"traced {len(episodes)} episodes into {trace_path.relative_to(BENCH.parent)}; "
          "share of traced wall_s by layer (self time):")
    for layer, values in sorted(shares.items(), key=lambda kv: -statistics.median(kv[1])):
        print(f"  {layer:12s} {statistics.median(values):.3f}")
    report(tally, wrong, problems, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    if args.setup_only:
        print(repr(setup_once(args.workload, args.seed)))
        return 0
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    if len(names) > 1:
        codes = [
            subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in names
        ]
        return max(codes)
    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    recorded = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference = recorded.get(workload.name, {}).get(str(args.seed))
    if reference is None:
        print(f"no reference for seed {args.seed}; checking invariants only")
    run = run_traced if args.trace else run_untraced
    run(workload, args.seed, args.seconds, reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
