"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload train_conv --seed 1 --seconds 30 --trace 0

Synthesizes the inputs from --seed, runs one workload against the package
under ./src for about --seconds, checks the outputs and prints one JSON
object as the last line of stdout: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run. Lines before it give each metric with
its unit, the environment stamp and any failed check. The same result,
with the stamp, is written under perfbench/.out/. Exits non-zero without
a result line when the package sources are missing.
"""

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# every matrix is at most 240 wide and the benchmark is one caller: one BLAS thread
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("train_conv", "train_fbank", "analyze")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    package = ROOT / "src" / "moe_profiler"
    if not (package / "__init__.py").is_file():
        print(f"error: package sources not found at {package}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path.insert(0, str(ROOT / "src"))
    import moe_profiler

    if Path(moe_profiler.__file__).resolve().parent != package.resolve():
        print(f"error: imported moe_profiler from {moe_profiler.__file__}, not {package}", file=sys.stderr)
        return 2
    import bench

    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=out_dir))
    try:
        values, figures, checks = bench.run(
            args.workload, args.seed, args.seconds, args.trace, work_dir, out_dir / f"{tag}.spans.csv"
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 3
    units = {name: unit for name, unit, _ in (bench.END_TO_END if not args.trace else bench.per_layer_metrics())}
    env = bench.environment(ROOT, args.seed, THREAD_VARS)
    for name, value in figures.items():
        if name not in values and isinstance(value, float):
            print(f"figure {name} {value!r}")
    for name, value in values.items():
        print(f"metric {name} {value!r} {units[name]}")
    for message in checks.messages:
        print(f"check failed: {message}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    with open(out_dir / f"{tag}.json", "w") as f:
        json.dump(dict(result, workload=args.workload, env=env, figures=figures, checks=checks.messages), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
