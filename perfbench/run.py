#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep|lookup|churn --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is compiled from the
checkout's sources (CMake, Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; result files and traces go to
.bench_out. The last line of standard output is the run's JSON result.
Exit codes: 0 correct, 1 correctness gate failed, 2 the checkout cannot be
built or the run failed, 3 measurement fault, 4 timeout, 5 the result does
not match BENCHMARK.json.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170  # the benchmark itself; the build has its own budget
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    """The build tree of this checkout.

    It is keyed by the checkout's path: a CMake cache remembers the source
    tree it was configured for, so two checkouts sharing one
    $CARGO_TARGET_DIR must not share a build tree, or the second would
    time the first one's sources.
    """
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    d = d if d.is_absolute() else ROOT / d
    return d / hashlib.sha1(str(ROOT).encode()).hexdigest()[:16]


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    files = sorted(
        p for base in (ROOT / "src", HERE / "src", HERE / "golden")
        for p in base.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def git_describe():
    """`git describe` of the checkout now, or "none" outside a git tree.

    Read at every run, not when the build was configured, so it cannot go
    stale. Only the checkout's own .git counts, never an enclosing one.
    """
    if not (ROOT / ".git").exists():
        return "none"
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() \
        else "none"


def build(target):
    if not any((ROOT / "src").rglob("*.cpp")):
        log(f"no library sources under {ROOT / 'src'}; nothing to build")
        return None
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmds = []
        if not (out / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmds.append(["cmake", "-S", str(HERE), "-B", str(out), *gen,
                         "-DCMAKE_BUILD_TYPE=Release"])
        cmds.append(["cmake", "--build", str(out), "-j", jobs,
                     "--target", target])
        for cmd in cmds:
            try:
                r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                log("build timed out")
                return None
            if r.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return None
    return out / target


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The result line must carry exactly the keys and metrics promised."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        return f"metrics differ: missing {missing} extra {extra} unit {wrong}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    return None


def run(args):
    exe = build("perfbench")
    if exe is None:
        return 2
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", str(HERE / "golden" / "e1_large.txt"),
           "--out-dir", str(ROOT / ".bench_out"),
           "--source-digest", source_digest(),
           "--git-describe", git_describe()]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        return 4
    log(f"run took {time.monotonic() - start:.1f} s, exit {proc.returncode}")
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode or 2
    problem = check_result(lines[-1], args.trace == 1)
    if problem:
        log(f"result does not match BENCHMARK.json: {problem}")
        return 5
    print(lines[-1], flush=True)
    return proc.returncode


def self_test():
    exe = build("perfbench_tests")
    if exe is None:
        return 2
    return subprocess.run([str(exe)], timeout=RUN_TIMEOUT_S).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["sweep", "lookup", "churn"])
    p.add_argument("--seed", type=int, default=1713889)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
