"""Benchmark of mixcast's training and evaluation paths.

Run from the root of a source checkout:

    python3 bench/run.py --workload train_long --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  With ``--trace 0`` the run
measures the end-to-end metrics with nothing wrapped; with ``--trace 1``
it alternates untraced and traced operations, derives the per-layer
metrics from the traced spans (``spans.py``) and reports the tracing
overhead against the untraced ones.  Human-readable lines come first;
the last line of standard output is one JSON object.  The exit code is
0 only when every output check passed.

Results, spans and the files set-up writes go to ``.bench_out/`` in the
checkout.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import OP, OVERHEAD, PER_LAYER, Tracer, per_layer_metrics, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# BLAS threads, fixed so runs compare; capped at the cores this process
# may use.  One thread keeps the second core free for the kernel and
# other tenants, which makes runs on a shared 2-core machine steadier.
BLAS_THREADS = 1
# Set-up repeats per run; setup_s reports their median.  Each repeat is a
# fresh interpreter importing mixcast plus the workload's own set-up.
SETUP_REPEATS = 3
# Fewest operations per run: two let a train run compare loss histories.
MIN_OPS = 2

WORKLOAD_NAMES = ("train_long", "train_counts_ext", "evaluate_wide")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> tuple[int, int]:
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads, nproc


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable"


def environment(np, scipy, threads: int, nproc: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": threads, "nproc": nproc, "git_commit": git_commit(ROOT)}


def fresh_import_seconds(src: Path) -> float:
    """Wall time of a new interpreter that imports mixcast and exits."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mixcast.cli"], env=env, check=True)
    return time.perf_counter() - t0


def run_ops(wl, seconds: float, tracer, mixcast) -> tuple[list, list, int, int]:
    """Closed loop of operations for about ``seconds``; with a tracer every
    second operation is traced.  Returns ``(ops, problems, attempted,
    failed)`` with ops as (traced, seconds)."""
    ops, problems, attempted, failed = [], [], 0, 0
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if len(ops) >= MIN_OPS and (
                elapsed + statistics.median(t for _, t in ops) > seconds):
            break
        traced = tracer is not None and len(ops) % 2 == 1
        payload = wl.prepare()
        # Garbage of the previous operation is collected first, so every
        # operation starts like a fresh process and peak RSS does not
        # depend on how many operations fit in the run.
        gc.collect()
        if traced:
            tracer.install(mixcast)
            span = tracer.open(OP)
        t0 = time.perf_counter()
        try:
            result, error = wl.run(payload), None
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            result, error = None, f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - t0
        if traced:
            tracer.close(span)
            tracer.remove()
        faults = [error] if error else wl.check(result)
        attempted += wl.steps_per_op
        if faults:
            failed += wl.steps_per_op
            problems.extend(f"operation {len(ops)}: {msg}" for msg in faults)
        ops.append((traced, took))
    return ops, problems, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    threads, nproc = pin_threads()
    src = ROOT / "src"
    if not (src / "mixcast" / "__init__.py").is_file():
        print(f"bench: no mixcast sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np
    import scipy

    import mixcast.cli  # noqa: F401 - imports every module the workloads use
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            imports = fresh_import_seconds(src)
            gc.collect()
            if tracer:
                tracer.install(mixcast)
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append((imports, time.perf_counter() - t0))
            if tracer:
                tracer.remove()
        ops, problems, attempted, failed = run_ops(wl, args.seconds, tracer, mixcast)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(np, scipy, threads, nproc)
    env.update(seed=args.seed, workload=args.workload, input=wl.input_size())
    plain = [t for traced, t in ops if not traced]
    op_s = statistics.median(plain)
    is_train = args.workload.startswith("train")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))

    if args.trace:
        metrics, count_problems = per_layer_metrics(tracer.spans)
        problems += count_problems
        traced = [t for was, t in ops if was]
        metrics[OVERHEAD[0]] = (statistics.median(traced) / op_s - 1.0) * 100.0
        tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        units = {row[0]: row[1] for row in PER_LAYER}
        units[OVERHEAD[0]] = OVERHEAD[1]
        kinds = {row[0]: row[6] for row in PER_LAYER}
        for name, value in metrics.items():
            tag = {"count": "  (count)", "computed": "  (computed from shapes)"}.get(
                kinds.get(name), "")
            print(f"{name} {value!r} {units[name]}{tag}")
    else:
        metrics = {
            "setup_s": statistics.median(a + b for a, b in setup_times),
            "windows_per_s": wl.windows_per_op / op_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "windows_per_s": "windows/s", "peak_rss_mb": "MiB"}
        print(f"setup_s {metrics['setup_s']!r} s  (median of {SETUP_REPEATS} set-ups, "
              f"each a fresh import plus the workload's inputs: "
              f"{[(round(a, 4), round(b, 4)) for a, b in setup_times]} s)")
        if is_train:
            print(f"train_windows_per_s {metrics['windows_per_s']!r} windows/s  (median of "
                  f"{len(plain)} training.train calls, {wl.windows_per_op} windows each)")
        else:
            tail = tail_percentile(plain)
            tail_text = (f"p{tail[0]:g} {tail[1]!r} s" if tail
                         else "no percentile has 10 samples beyond it")
            print(f"evaluate_s {op_s!r} s  (median; {tail_text}; {len(plain)} samples)")
        print(f"peak_rss_mb {metrics['peak_rss_mb']!r} MiB")
    print(f"error_rate {failed / attempted!r}  ({failed} of {attempted} "
          f"{'steps' if is_train else 'evaluate calls'} failed)")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    correct = not problems

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}
    record = {"environment": env, "operations": ops, "setup_s": setup_times,
              "problems": problems, **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
