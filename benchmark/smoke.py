"""Smoke check of the benchmark itself, on the two-site dimer (seconds).

    python3 benchmark/smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
untraced and traced; that the correctness gate passes the dimer's own
artifacts and trips on a deliberately perturbed reference; and that the
benchmark fails, printing no result, in a directory without the sources.
Exits nonzero on the first failed check.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hsqd.cli  # noqa: E402
from gate import check_run, load_references  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = ROOT / ".bench_work" / "smoke"


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "dimer", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metrics(spec: dict) -> None:
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_bench(ROOT, "--trace", trace)
        if proc.returncode != 0:
            raise SystemExit(f"--trace {trace} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want or not result["correct"] or result["failed"] != 0:
            raise SystemExit(f"--trace {trace}: emitted {got}, expected {want}; {result}")
        print(f"ok: --trace {trace} emits all {len(want)} {group} metrics with units")


def check_gate() -> None:
    workload = WORKLOADS["dimer"]
    ref = load_references()["dimer"]
    (WORK / "inputs").mkdir(parents=True)
    config = workload.make_inputs(ROOT, WORK / "inputs", workload.default_seed)
    solvers = hsqd.cli.config_from_file(config).solvers
    if hsqd.cli.main(["run", str(config), "--out-dir", str(WORK / "out")]) != 0:
        raise SystemExit("dimer run failed")
    if check_run(WORK / "out", solvers, ref, exact=True):
        raise SystemExit("gate fails the dimer's own artifacts")
    perturbed = {
        "FCI energy": ("fci", "Ne"),
        "sweep point": ("points", "sqd/Ne"),
        "gap": ("gaps", "extsqd"),
    }
    for what, (group, key) in perturbed.items():
        bad = copy.deepcopy(ref)
        if group == "points":
            bad[group][key][0][2] += 1e-6
        else:
            bad[group][key] += 1e-6
        if not check_run(WORK / "out", solvers, bad, exact=True):
            raise SystemExit(f"gate passes a perturbed {what} reference")
    print("ok: gate passes the dimer and trips on perturbed FCI, sweep-point and gap references")


def check_bare_directory() -> None:
    bare = WORK / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare)
    last = (proc.stdout.splitlines() or [""])[-1]
    if proc.returncode == 0 or '"metrics"' in last:
        raise SystemExit(f"benchmark without sources exited {proc.returncode}: {last}")
    print(f"ok: without sources the benchmark exits {proc.returncode} and prints no result")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        check_metrics(spec)
        check_gate()
        check_bare_directory()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    main()
