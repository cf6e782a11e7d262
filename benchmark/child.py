"""One fresh process running one ``hsqd run``.

Prints ``ready`` once set-up is done (interpreter start, ``import hsqd``,
config and lattice loaded), so that the parent can time set-up from spawn to
that line.  Then runs ``hsqd.cli.main(["run", ...])`` once, untraced or
traced, and writes wall time, peak RSS and per-layer figures to the result
file; the parent gates the artifacts.

    python3 benchmark/child.py CONFIG OUT_DIR RESULT [--trace] [--setup-only]
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402

import hsqd  # noqa: E402
import hsqd.cli  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if ROOT / "src" not in Path(hsqd.__file__).resolve().parents:
        print(f"imported hsqd from {hsqd.__file__}, not from this checkout", file=sys.stderr)
        return 2
    config = hsqd.cli.config_from_file(args.config)
    hsqd.load_lattice(config.lattice_path)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    run = hsqd.cli.main
    tracer = None
    if args.trace:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.span(ROOT_SPAN, run)
    start = perf_counter()
    run(["run", args.config, "--out-dir", args.out_dir])
    wall = perf_counter() - start
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
