#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Two builds live side by side under $CARGO_TARGET_DIR (default
`.bench_build`): `plain` for untraced runs and `telemetry` (the crates'
counters and spans compiled in) for traced runs. Both are brought up to
date on every call, so whichever run comes first pays for both builds and
later runs start at once. The last line of standard output is the result
JSON printed by the benchmark binary; build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
VARIANTS = {"plain": [], "telemetry": ["--features", "telemetry"]}


def build(target_root):
    for variant, flags in VARIANTS.items():
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(target_root, variant))
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", MANIFEST] + flags
        # Cargo's stdout is routed to stderr: stdout carries only the result.
        status = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
        if status != 0:
            sys.exit(f"perfbench: building the {variant} variant failed ({status})")


def trace_flag(argv):
    for i, arg in enumerate(argv[:-1]):
        if arg == "--trace":
            return argv[i + 1]
    return "0"


def main():
    argv = sys.argv[1:]
    target_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target_root)
    variant = "telemetry" if trace_flag(argv) == "1" else "plain"
    binary = os.path.join(target_root, variant, "release", "perfbench")
    scratch = os.path.join(target_root, "scratch", f"run-{os.getpid()}")
    status = subprocess.run([binary, "--scratch", scratch] + argv).returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
