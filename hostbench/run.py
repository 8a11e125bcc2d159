#!/usr/bin/env python3
"""Builds the bwlab host benchmark from this checkout and runs it.

    python3 hostbench/run.py --workload clover2d-mpi4 --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under hostbench/; build output goes to stderr, so
the last stdout line is the benchmark's JSON result. Every argument is
passed through to the benchmark binary (see hostbench/README.md).
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "apps" / "app_common.hpp").is_file():
        sys.exit("hostbench: no bwlab sources under %s/src" % ROOT)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, **quiet)
    return build_dir / "hostbench"


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "hostbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("hostbench: build failed: %s" % e, file=sys.stderr)
        return 1
    cmd = [str(binary), "--out-dir", str(build_dir / "out")] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
