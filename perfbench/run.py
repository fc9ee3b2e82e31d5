#!/usr/bin/env python3
"""End-to-end benchmark of the Charon verifier.

    python3 perfbench/run.py --workload image|acas|serve|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the `perfbench`
binary (CMake, RelWithDebInfo) under .bench_build/perfbench and trains the
networks once into its cache; later runs reuse both. Each workload runs in
its own process. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced run with --trace 1. The
lines before it record the host, build, kernel settings and, per metric,
its unit and sample count. The exit code is non-zero on any wrong verdict,
failed counterexample replay, rejected certificate or network fingerprint
mismatch.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
BUILD = WORK / "build"
BINARY = BUILD / "perfbench"
WORKLOADS = ("image", "acas", "serve")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def host_has_avx2():
    try:
        flags = Path("/proc/cpuinfo").read_text()
    except OSError:
        return False
    return " avx2" in flags and " fma" in flags


def revision():
    """The git revision, or a digest of the sources when not in git."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()[:16]


def kernel_env(threads, simd):
    """The kernel settings, set here rather than inherited."""
    env = dict(os.environ)
    env["CHARON_SIMD"] = simd
    env["CHARON_KERNEL_THREADS"] = str(threads)
    env["CHARON_KERNEL_THRESHOLD"] = str(1 << 21)
    return env


def build():
    WORK.mkdir(parents=True, exist_ok=True)
    log = WORK / "build.log"
    with open(log, "w") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(f"configure failed; see {log}")
        cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench",
               "-j", str(nproc())]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                          cwd=ROOT).returncode != 0:
            fail(f"build failed; see {log}")


def prepare():
    """Trains the networks once. Training runs the scalar kernels so the
    weights, and the fingerprints pinned with them, do not depend on the
    host's SIMD level."""
    stamp = WORK / "networks" / ".prepared"
    if stamp.exists():
        return
    (WORK / "networks").mkdir(parents=True, exist_ok=True)
    out = subprocess.run([str(BINARY), "prepare", "--root", str(ROOT)],
                         cwd=ROOT, env=kernel_env(min(4, nproc()), "scalar"),
                         capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        fail("preparing networks failed:\n" + out.stdout + out.stderr)
    stamp.write_text("ok\n")


def run_workload(args, workload):
    """Runs one workload in its own process; returns (exit code, result
    line, parsed result)."""
    # image and acas: one caller sharding wide kernels over 2 threads.
    # serve: 2 workers, each running its kernels inline, plus the polling
    # client. Fewer shards than CPUs keep one slow CPU of a shared host
    # from stalling every parallel kernel.
    threads = 1 if workload == "serve" else min(2, nproc())
    env = kernel_env(threads, "avx2" if host_has_avx2() else "scalar")
    env["PERFBENCH_REV"] = revision()
    cmd = [str(BINARY), "run", "--root", str(ROOT),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.count:
        cmd += ["--count", str(args.count)]
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(out.stderr)
    lines = out.stdout.splitlines()
    raw, result = None, None
    if lines and lines[-1].startswith("{"):
        raw = lines.pop()
        result = json.loads(raw)
    for line in lines:
        print(line)
    return out.returncode, raw, result


def check_result(result, trace):
    """The result object must carry exactly the metrics BENCHMARK.json
    names for this kind of run."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result object has unexpected keys")
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        names = {m["name"] for m in spec["per_layer" if trace else
                                         "end_to_end"]}
        if set(result["metrics"]) != names:
            missing = names ^ set(result["metrics"])
            fail(f"metrics differ from BENCHMARK.json: {sorted(missing)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--count", type=int, default=0,
                        help="properties or requests per run (tests only)")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no Charon sources under {ROOT}; run from a full checkout", 2)
    build()
    prepare()

    if args.workload != "all":
        code, raw, result = run_workload(args, args.workload)
        if result is None:
            fail(f"{args.workload} printed no result (exit {code})",
                 code or 1)
        check_result(result, args.trace)
        print(raw)
        sys.exit(code)

    # All three workloads, each in its own process, one combined object.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, _, result = run_workload(args, workload)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        check_result(result, args.trace)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
