#!/usr/bin/env python3
"""Build the perfbench harness from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload miss_1m --seed 1 --seconds 10 --trace 0

Every argument is passed to the Go program (see perfbench/main.go). The
build and all run scratch files stay under .bench_build/ in the current
directory: the Go build cache, temporary files and the datadirs the
workloads create. The program's last line of standard output is the JSON
result; build diagnostics go to standard error.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    pkg = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("TMPDIR", "tmp"),
                      ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[name] = path
    # Build offline with the installed toolchain, outside any workspace.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off", GOFLAGS="", GOENV="off")
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=pkg, env=env,
                               stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--workdir", os.path.join(build, "work")] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s, stopping it", file=sys.stderr)
        proc.kill()
        proc.wait()
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
