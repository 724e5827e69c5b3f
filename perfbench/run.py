"""Benchmark of the mmcluster pipelines: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload components_segments4k --seed 1 \
        --seconds 20 --trace 0 [--out BENCH_components.json]

The package is imported from ``src/`` next to this directory, never from
an installed copy.  Set-up is the imports, the generation of the
workload's clouds, timed as the median of several repeats, and one
untimed, checked warm-up operation, which absorbs any cold start.  The
measured loop then runs whole operations until ``--seconds`` have passed,
with blocks of the reference kernel of ``reference.py`` between them.
With ``--trace 0`` the last line reports the end-to-end metrics:
operation times are in units of the reference kernel's time measured
around them (``ref``), so the machine's drift in speed cancels; peak
memory is the growth of the process's peak resident set since the
imports, read from ``getrusage``, so the timed operations pay nothing for
it.  With ``--trace 1`` plain, span-timed and memory-traced operations
take turns and the last line reports the per-layer metrics of
``tracer.py``.

Every line but the last is information: the machine record, a sha256 of
the warm-up outputs and, when traced, the spans that recorded no call.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SEGMENT_S = 0.5
# One BLAS thread: a 2-core machine shared with other work gives steadier
# timings, and multithreaded OpenBLAS made small eigh calls about 100x
# slower for the first second of some fresh processes.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result as JSON to this file")
    return ap.parse_args(argv)


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_op(wl, i, errors):
    """Run operation ``i``; return (seconds, result or None on failure)."""
    from mmcluster.errors import MMClusterError

    start = time.perf_counter()
    try:
        res = wl.op(i)
    except MMClusterError as exc:
        errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    if res.problem:
        errors.append(f"op {i}: {res.problem}")
        return elapsed, None
    return elapsed, res


def max_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mmcluster" / "__init__.py").is_file():
        print(f"error: no mmcluster package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))

    import mmcluster
    import workloads
    from reference import Reference
    from tracer import Tracer

    if Path(mmcluster.__file__).resolve().parent != SRC / "mmcluster":
        print(f"error: imported mmcluster from {mmcluster.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    ref = Reference()
    ref.block()                   # touches its arrays, so peak_mb leaves them out
    rss_after_imports = max_rss_bytes()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    errors: list[str] = []
    generate_times, cloud_digests = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed)
        wl.setup()
        generate_times.append(time.perf_counter() - start)
        cloud_digests.append(workloads.digest([c.coords for c in wl.clouds]))
    warmup_s, warm = run_op(wl, 0, errors)
    setup_failed = len(errors)
    if hasattr(wl, "spot_check"):
        problem = wl.spot_check()
        if problem:
            errors.append(f"spot check: {problem}")
            setup_failed += 1

    # A traced run cycles a plain operation, one under the span tracer and
    # one under the span tracer with tracemalloc for the peaks.  Operations
    # run in segments of at least SEGMENT_S seconds, each followed by a block
    # of the reference kernel, sized from the warm-up operation's time; a
    # plain operation's time in reference units is its wall time over the
    # mean of the blocks before and after its segment.
    spans, memory = Tracer(), Tracer()
    modes = ("plain", "spans", "memory") if args.trace else ("plain",)
    times = {mode: [] for mode in modes}
    calls = ref.calls_per_block(max(SEGMENT_S, warmup_s))
    blocks = [ref.block(calls)]
    segment_of = []               # index of the block before each plain time
    results = []
    attempted = failed = 0
    i = 1
    deadline = time.perf_counter() + args.seconds
    while True:
        segment_end = min(time.perf_counter() + SEGMENT_S, deadline)
        while True:
            for mode in modes:
                tracer = spans if mode == "spans" else memory if mode == "memory" else None
                if mode == "memory":
                    tracemalloc.start()
                if tracer:
                    tracer.install()
                try:
                    elapsed, res = run_op(wl, i, errors)
                finally:
                    if tracer:
                        tracer.uninstall()
                    if mode == "memory":
                        tracemalloc.stop()
                i += 1
                attempted += 1
                if res is None:
                    failed += 1
                    continue
                times[mode].append(elapsed)
                if mode == "plain":
                    segment_of.append(len(blocks) - 1)
                results.append(res)
            if time.perf_counter() >= segment_end:
                break
        blocks.append(ref.block(calls))
        if time.perf_counter() >= deadline:
            break
    plain = times["plain"]
    segments = {}                 # block index -> plain times in reference units
    for t, k in zip(plain, segment_of):
        segments.setdefault(k, []).append(t / ((blocks[k] + blocks[k + 1]) / 2))
    rel = [statistics.fmean(ts) for ts in segments.values()]

    finish_problem = wl.finish(results)
    if finish_problem:
        errors.append(f"run check: {finish_problem}")
    peak_mb = (max_rss_bytes() - rss_after_imports) / 1e6  # set-up and every operation
    correct = setup_failed == 0 and finish_problem is None

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine_record(),
        "warmup_sha256": workloads.digest(warm.outputs) if warm else None,
        "clouds_repeat": len(set(cloud_digests)) == 1,
        "generate_repeats_s": generate_times,
        "warmup_s": warmup_s,
        "import_s": import_s,
        "ops_timed": len(plain),
        "op_s": statistics.median(plain) if plain else None,
        "ref_s": statistics.median(blocks),
        "ref_calls_per_block": calls,
        "op_times_s": plain,
        "ref_blocks_s": blocks,
        "errors": errors[:10],
        **wl.info(results),
    }
    if not args.trace:
        if len(plain) >= 40:
            info["op_s.p90"] = statistics.quantiles(plain, n=10)[-1]
        metrics = {
            "setup_s": (import_s + statistics.median(generate_times) + warmup_s, "s"),
            "op_ref": (statistics.median(rel) if rel else None, "ref"),
            "points_per_ref": (sum(r.points for r in results)
                               / sum(map(sum, segments.values())) if rel else None,
                               "points/ref"),
            "peak_mb": (peak_mb, "MB"),
        }
    else:
        traced = times["spans"]
        metrics = spans.metrics(max(len(traced), 1), memory)
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain)
            if traced and plain else None, "s")
        info["missing_spans"] = spans.missing()
        info["ops_traced"] = len(traced)

    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if args.out:
        Path(args.out).write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
