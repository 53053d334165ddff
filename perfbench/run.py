#!/usr/bin/env python3
"""Benchmark entry point: builds the program from the checkout's sources,
generates the seeded inputs of one workload and runs it.

    python3 perfbench/run.py --workload edit_session --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The last line of standard output is the
JSON result; the exit code is nonzero when the build fails or any output is
wrong. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("edit_session", "batch_match", "serve_explore")
TARGETS = ("emdbg_perfbench", "emdbg_match", "emdbg_serve")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the driver and the two tools."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target", *TARGETS])
    with open(log_path, "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                log(f"build failed: {' '.join(cmd)}")
                return False
    return True


def source_digest(root):
    """sha256 over the program's sources (the checkout is not a git repo)."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs.sort()
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, root).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_sha(root):
    # The ceiling keeps git from reporting an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def run(cmd, timeout):
    """Runs the driver; its stdout is forwarded. Returns (code, last line)."""
    # A process group of its own, so that a timeout also stops the programs
    # the driver started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out: {' '.join(cmd[:2])}")
        return 124, ""
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default="",
                    help="traced runs: write the spans (JSON lines) here")
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test corpus sizes")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="smoke test: poison the expected output")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "CMakeLists.txt")):
        log("no CMakeLists.txt here; run from the root of a checkout")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(root, build_dir):
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    tools = os.path.join(build_dir, "emdbg", "tools")

    run_dir = os.path.join(build_dir, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        driver = os.path.join(build_dir, "emdbg_perfbench")
        common = [f"--dir={run_dir}", f"--seed={args.seed}"]
        if args.tiny:
            common.append("--tiny")
        gen = subprocess.run([driver, "gen", f"--workload={args.workload}",
                              *common], capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
        if gen.returncode != 0:
            log(f"input generation failed: {gen.stderr.strip()}")
            return 1
        provenance = (f'"git_sha": "{git_sha(root)}", '
                      f'"source_sha256": "{source_digest(root)}"')
        cmd = [driver, args.workload, *common, f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--provenance={provenance}"]
        if args.workload == "batch_match":
            cmd.append(f"--bin={os.path.join(tools, 'emdbg_match')}")
        if args.workload == "serve_explore":
            cmd.append(f"--bin={os.path.join(tools, 'emdbg_serve')}")
        if args.spans_out:
            cmd.append(f"--spans-out={os.path.abspath(args.spans_out)}")
        if args.corrupt_expected:
            cmd.append("--corrupt-expected")
        code, last = run(cmd, max(1.0, deadline - time.monotonic()))
        if code == 0 and not last.startswith("{"):
            log("driver printed no result")
            return 1
        return code
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
