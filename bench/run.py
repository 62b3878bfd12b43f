"""vcomp benchmark: one workload per invocation, timed with tracing off, or
traced for per-module numbers.

    python3 bench/run.py --workload fit_sweep [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; vcomp is imported from ``src/`` there.  The
last line of standard output is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named in
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Lines before it print every metric with its unit, the
sample counts, the report digests and the environment; the same record is
written to ``bench/results/<workload>-seed<N>-trace<T>.json``, and a traced
run writes its spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 3

_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.build_case(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int, workdir: Path) -> list[float]:
    """Cold import of vcomp plus building the workload's inputs, each time in
    a fresh interpreter."""
    times = []
    for i in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(BENCH_DIR), str(SRC), workload,
             str(seed), str(workdir / f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_once(case):
    """One timed operation; one that raises counts as failed, with its traceback."""
    import workloads

    t0 = time.perf_counter()
    try:
        return case.run()
    except Exception:
        return workloads.Outcome(
            seconds=time.perf_counter() - t0, ops=case.ops, failed=case.ops,
            problems=[traceback.format_exc()],
        )


def measure(case, seconds: float, tracer=None) -> dict:
    """Repeat the case's operation while the next repeat is expected to end
    within ``seconds``.  With a tracer, each repeat runs untraced and then
    traced, so the two can be compared."""
    untraced, traced, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        outcome = run_once(case)
        outcomes.append(outcome)
        untraced.append(outcome)
        if tracer is not None:
            tracer.repeat = len(traced)
            tracer.install()
            try:
                outcome = run_once(case)
            finally:
                tracer.uninstall()
            outcomes.append(outcome)
            traced.append(outcome)
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(untraced)) > seconds:
            break
    return {"untraced": untraced, "traced": traced, "outcomes": outcomes}


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def high_percentile(samples: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    return f"p{pct}", statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end(case, run: dict, setup: list[float]) -> dict[str, float]:
    run_s = statistics.median(o.seconds for o in run["untraced"])
    return {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "replicates_per_s": case.replicates / run_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None, tiny: bool = False) -> int:
    args = parse_args(argv)
    # One BLAS thread, for this process and every process it starts, so that
    # pool workers times BLAS threads never exceeds the core count.  Set
    # before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "vcomp" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: no vcomp source tree under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    seed = workloads.PINNED_SEEDS[args.workload] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    label = f"{args.workload}-seed{seed}-trace{args.trace}"
    workdir = BENCH_DIR / "_work" / f"{label}-{os.getpid()}"
    try:
        record = run_benchmark(args.workload, seed, seconds, args.trace, workdir, spec, tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for line in record["lines"]:
        print(line)
    print(json.dumps(record["result"]))
    return 0


def run_benchmark(workload: str, seed: int, seconds: float, trace: int, workdir: Path,
                  spec: dict, tiny: bool) -> dict:
    import spans
    import workloads

    workdir.mkdir(parents=True)
    setup = [] if trace else setup_seconds(workload, seed, workdir)
    case = workloads.build_case(workload, seed, workdir / "case", tiny=tiny)
    case.prepare()
    # warm-up: the same code path at a tiny size, so lazy imports and first
    # calls into BLAS are paid before timing
    warmup = workloads.build_case(workload, seed, workdir / "warmup", tiny=True)
    warmup.prepare()
    run_once(warmup)

    tracer = spans.Tracer(workdir / "trace") if trace else None
    run = measure(case, seconds, tracer)
    outcomes = run["outcomes"]
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    digests = sorted({o.digest for o in outcomes if o.digest})
    if len(digests) > 1:  # reports must be byte-identical across repeats and tracing
        failed = attempted
    problems = sorted({p for o in outcomes for p in o.problems})

    if trace:
        tracer.flush()
        all_spans = spans.read_spans(workdir / "trace")
        RESULTS.mkdir(exist_ok=True)
        spans_file = RESULTS / f"{workload}-seed{seed}.spans.jsonl"
        with open(spans_file, "w", encoding="utf-8") as fh:
            for span in all_spans:
                fh.write(json.dumps(span) + "\n")
        values = spans.layer_metrics(all_spans, run["untraced"], run["traced"])
        wanted = spec["per_layer"]
    else:
        values = end_to_end(case, run, setup)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment()
    times = [o.seconds for o in run["untraced"]]
    lines = [
        f"workload {workload}  seed {seed}  trace {trace}  repeats {len(run['untraced'])}"
        f"  nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}"
        f"  scipy {env['scipy']}  blas {env['blas']}  threads {env['blas_threads']}",
        f"run_s samples {len(times)}  median {statistics.median(times):.4f} s"
        f"  max {max(times):.4f} s",
    ]
    pct = high_percentile(times)
    lines.append(f"run_s {pct[0]} {pct[1]:.4f} s" if pct else
                 "run_s high percentile: none has 10 samples above it at this count")
    for part in sorted({k for o in run["untraced"] for k in o.parts}):
        vals = [o.parts[part] for o in run["untraced"]]
        lines.append(f"{part} median {statistics.median(vals):.4f} s over {len(vals)}")
    for name, m in metrics.items():
        lines.append(f"metric {name} {m['value']:.6g} {m['unit']}")
    lines.append(f"ops_failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    lines.extend(f"digest sha256 {d}" for d in digests)
    lines.extend(f"problem {p}" for p in problems)
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "lines": lines,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": env,
        "setup_samples_s": setup,
        "run_samples_s": times,
        "traced_run_samples_s": [o.seconds for o in run["traced"]],
        "parts_s": [o.parts for o in run["untraced"]],
        "digests_sha256": [o.digest for o in outcomes],
        "problems": problems,
    }


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
