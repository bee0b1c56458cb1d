#!/usr/bin/env python3
"""Build Oak and the benchmark harness from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

`--trace 0` measures the end-to-end metrics against the real `oak-serve`
binary; `--trace 1` runs the traced per-layer breakdown. The last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Builds go to `$CARGO_TARGET_DIR` (default
`.bench_build`); run records go to `.bench_out/`. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave headroom for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The commit when this is a git checkout, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha1()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml", ".lock")))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def cargo(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                          cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--plan-only", action="store_true",
                        help="print the request-stream hash and exit")
    args = parser.parse_args()

    for needed in ("Cargo.toml", "crates", "perfbench/Cargo.toml"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} missing: run from a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    cargo(["-p", "oak-server", "--bin", "oak-serve"], target)
    cargo(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target)

    command = [
        os.path.join(target, "release", "oak-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--oak-serve", os.path.join(target, "release", "oak-serve"),
        "--commit", source_id(),
        "--out", os.path.join(ROOT, ".bench_out"),
    ]
    if args.plan_only:
        command.append("--plan-only")
    # Its own process group, so a timeout also stops the oak-serve
    # children it spawned.
    harness = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = harness.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except KeyboardInterrupt:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
