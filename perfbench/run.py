#!/usr/bin/env python3
"""Build and run the sqlweave benchmark.

    python3 perfbench/run.py --workload <construct|script|edit> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (a Cargo package of its
own that depends on the repository's crates by path) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with the same
arguments. Build output goes to standard error; the benchmark's report goes
to standard output, its last line one JSON object. Traced runs also write
their spans to `$CARGO_TARGET_DIR/perfbench-traces/`. Exits non-zero, with
no result line, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "sqlweave-perfbench")
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        args += ["--trace-dir", os.path.join(target, "perfbench-traces")]
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
