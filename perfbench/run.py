#!/usr/bin/env python3
"""Build and run the faircrowd benchmark.

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds `perfbench/` (release, offline)
into `$CARGO_TARGET_DIR` (default `.bench_build`), prints a provenance
line, then runs one workload; the benchmark's last output line is the
result. The metrics of that line, with their units, are the ones
`BENCHMARK.json` lists: `end_to_end` with `--trace 0`, `per_layer` with
`--trace 1`. Exits non-zero without a result when the build or the run
fails.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench/src")


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    digest = hashlib.sha256()
    for entry in SOURCES:
        top = os.path.join(ROOT, entry)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def command_output(args):
    try:
        out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def commit():
    """HEAD of the repository the benchmark sits in, if it is one."""
    if command_output(["git", "rev-parse", "--show-toplevel"]) != ROOT:
        return "unknown"
    return command_output(["git", "rev-parse", "HEAD"])


def metric_list(trace):
    """`NAME:UNIT,...` of the metrics BENCHMARK.json lists for a run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return ",".join(f"{m['name']}:{m['unit']}" for m in spec[key])


def main():
    args = sys.argv[1:]
    trace = args[args.index("--trace") + 1] if "--trace" in args[:-1] else "0"
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env={**os.environ, "CARGO_TARGET_DIR": target},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    seed = args[args.index("--seed") + 1] if "--seed" in args else "?"
    provenance = {
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]),
        "commit": commit(),
        "source_digest": source_digest(),
        "seed": seed,
    }
    print(json.dumps({"provenance": provenance}), flush=True)

    workdir = os.path.join(target, "perfbench-work", str(os.getpid()))
    run = subprocess.run(
        [os.path.join(target, "release", "perfbench"), *args,
         "--workdir", workdir, "--metrics", metric_list(trace)],
        cwd=ROOT,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
