"""hsqd benchmark: one workload, timed end to end or traced by layer.

    python3 benchmark/run.py --workload chain6uv_hw --seed 11 --seconds 55 --trace 0

Every repeat is a fresh process (``child.py``) that runs the workload through
the user path, ``hsqd.cli.main(["run", CONFIG, "--out-dir", DIR])``.
Repeats continue while the next one is expected to end within ``--seconds``
(at least ``MIN_REPEATS``), and every repeat's artifacts pass the
correctness gate in ``gate.py``.  With ``--trace 0`` the last line of
standard output carries the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it carries the per-layer ones, from traced repeats that
alternate with untraced ones so that the tracing overhead is measured too.
Figures are medians over the repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
# two, not more, so that a run stays near --seconds even on a host slow
# enough that one repeat of chain8_fci_sqd takes half of it
MIN_REPEATS = 2
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run the workload at all."""


def spawn(config: Path, out_dir: Path, result: Path, *flags: str) -> tuple[float, dict]:
    """Run ``child.py`` once; returns set-up seconds and the child's result."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(config), str(out_dir), str(result), *flags],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"child process failed (exit {proc.returncode}) on {config}")
    if "--setup-only" in flags:
        return setup, {}
    return setup, json.loads(result.read_text())


def run_metadata(workload, seed: int) -> dict:
    import numpy
    import scipy

    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or sha
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "hsqd").glob("*.py"))
    return {
        "git_sha": sha,
        "src_hsqd_lines": src_lines,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "workload": workload.name,
        "seed": seed,
        "default_seed": workload.default_seed,
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "hsqd" / "__init__.py").is_file():
        print(f"error: no hsqd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hsqd.cli
    from gate import check_run, load_references
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be nonnegative")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref = load_references()[workload.name]
    print(json.dumps({"meta": run_metadata(workload, seed)}), flush=True)

    work = ROOT / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        config = workload.make_inputs(ROOT, work / "inputs", seed)
        solvers = hsqd.cli.config_from_file(config).solvers
        setups: list[float] = []
        runs: dict[bool, list[dict]] = {False: [], True: []}
        failures: dict[str, str] = {}
        attempted = 0

        def repeat(traced: bool) -> None:
            nonlocal attempted
            out_dir = work / "out"
            result = work / "result.json"
            flags = ("--trace",) if traced else ()
            setup, res = spawn(config, out_dir, result, *flags)
            setups.append(setup)
            runs[traced].append(res)
            attempted += 3 * len(solvers)
            for key, why in check_run(out_dir, solvers, ref, seed == workload.default_seed).items():
                failures[f"repeat {len(setups)} {key}"] = why
            shutil.rmtree(out_dir)
            result.unlink()

        start = perf_counter()
        durations: list[float] = []
        min_repeats = 1 if args.trace else MIN_REPEATS
        while len(durations) < min_repeats or \
                perf_counter() - start + statistics.median(durations) <= args.seconds:
            t0 = perf_counter()
            if args.trace:
                repeat(False)
            repeat(bool(args.trace))
            durations.append(perf_counter() - t0)
        while len(setups) < MIN_SETUPS:
            setups.append(spawn(config, work / "out", work / "result.json", "--setup-only")[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(failures)
    wall = statistics.median(r["wall_s"] for r in runs[False])
    if args.trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in runs[True])
            for name in runs[True][0]["layers"]
        }
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in runs[True]) - wall
        values = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs[False]),
            "pass_frac": 1.0 - failed / attempted,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for key, why in failures.items():
        print(f"GATE FAILED {key}: {why}", file=sys.stderr)
    walls = {traced: " ".join(f"{r['wall_s']:.2f}" for r in rs) for traced, rs in runs.items()}
    print(f"{workload.name} seed {seed}: wall_s {wall:.3f} s (median of [{walls[False]}]"
          + (f"; traced [{walls[True]}]" if args.trace else "") + "), "
          f"setup_s {statistics.median(setups):.3f} s (median of {len(setups)}), "
          f"fail_frac {failed / attempted:g} ({failed} of {attempted} solver/sector runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # turn SIGTERM into SystemExit so that the cleanup in ``spawn`` and ``main``
    # kills the running child and removes the work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
