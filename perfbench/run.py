#!/usr/bin/env python3
"""Build the Ocelot benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark crate in this directory is compiled in release mode against
the repository's crates (``cargo build --offline --locked``) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), then run once. Its
standard output is passed through: the environment fingerprint, then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is non-zero, and no result is printed, when the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--locked",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print(f"perfbench: build failed with exit code {built.returncode}", file=sys.stderr)
        return 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "ocelot-perfbench")
    try:
        ran = subprocess.run([binary, *sys.argv[1:]], env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    if ran.returncode != 0:
        print(f"perfbench: run failed with exit code {ran.returncode}", file=sys.stderr)
        return ran.returncode
    sys.stdout.write(ran.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
