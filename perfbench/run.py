"""Launcher of the protostudent benchmark.

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. The
next-to-last stdout line is a JSON report (machine facts, determinism
digest, computed kernel counts, check failures); the last line is the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are end to end, with --trace 1 per layer. `--workload all` runs
every workload in its own process and prints their metrics prefixed by
the workload name.
"""
import os
import sys

# BLAS is pinned before numpy loads. One thread ran the teacher epoch
# faster than two on a 2-core machine, and keeps runs steadier there.
BLAS_THREADS = 1
# String hashing is pinned too: the randomized hash seed moved the peak
# RSS of identical runs by 18 MB. It only takes effect at interpreter
# start, so the launcher re-executes itself once.
HASH_SEED = "0"
if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    os.execv(sys.executable, [sys.executable, *sys.argv])
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train", "explain")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in a child process, so each has its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import protostudent
        import bench
    except ImportError as err:
        print(f"perfbench: cannot import protostudent from {src}: {err}", file=sys.stderr)
        return 2
    if Path(protostudent.__file__).resolve().parent.parent != src:
        print(f"perfbench: protostudent imported from {protostudent.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result, report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               blas_threads=BLAS_THREADS)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
