#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload band-skew --seed 1 --seconds 15 --trace 0

The build and everything the Go toolchain writes (build cache, temporary
files, configuration) stay under the build directory: $CARGO_TARGET_DIR when
set, else .bench_build, relative to the repository root. Arguments pass
through to the program, whose last line of standard output is the result.
A failed build exits with the toolchain's code and prints no result.
"""

import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode)
    sys.stdout.flush()
    os.execv(binary, [binary, "-trace-dir", build] + sys.argv[1:])


if __name__ == "__main__":
    main()
