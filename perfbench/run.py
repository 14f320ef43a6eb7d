#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload render --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures the repository's
own CMake build with perfbench/hook.cmake (which adds the benchmark target)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, and builds the
`perfbench` target; later runs only re-check the build. The benchmark
binary prints the result line; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(os.cpu_count() or 1)
    hook = os.path.join(HERE, "hook.cmake")
    # The target's directory exists only after a configure with the hook
    # completed.
    target_dir = os.path.join(build_dir, "CMakeFiles", "perfbench.dir")
    steps = []
    if not os.path.isdir(target_dir):
        steps.append(["cmake", "-S", ROOT, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DCMAKE_PROJECT_INCLUDE=" + hook])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                return None
    exe = os.path.join(build_dir, "perfbench")
    return exe if os.path.isfile(exe) else None


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        return fail("the repository sources (CMakeLists.txt, src/) are "
                    "missing next to perfbench/")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    exe = build(build_dir)
    if exe is None:
        return fail("build failed (log in %s)" % build_dir)
    sys.stdout.flush()
    # Replace this process, so the benchmark is the only process left
    # running and its exit status is the run's.
    os.execv(exe, [exe] + argv + ["--scratch-root", build_dir])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
