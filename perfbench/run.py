#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the given arguments plus the
source identity (git commit when available, and a digest of the sources)
and the directory for span files. The last line of standard output is the
result object. Exits non-zero without a result when the simulator sources
are missing or the build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]


def source_identity():
    """`<git commit or 'nogit'> src:<digest of the benchmarked sources>`."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "nogit"
    digest = hashlib.sha256()
    for top in SOURCES:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            if f.suffix in (".rs", ".toml", ".lock", ".py", ".md"):
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return f"{commit} src:{digest.hexdigest()[:16]}"


def main():
    if not (ROOT / "crates" / "accel" / "Cargo.toml").is_file():
        print("perfbench: simulator sources (crates/) not found beside perfbench/",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"]).resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = target / "release" / "perfbench"
    args = sys.argv[1:] + [
        "--commit", source_identity(),
        "--out-dir", str(target / "perfbench-out"),
    ]
    return subprocess.run([str(exe)] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
