#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload pipeline_run --seed 1 --seconds 10 --trace 0

Run from the repository root.  Configures perfbench/CMakeLists.txt (the pglb
library and pglb_serve from source, plus the perfbench driver) into
.bench_build/ (or $CARGO_TARGET_DIR when set), builds it, runs the workload,
and passes its report through.  The last line of standard output is the
perfbench JSON result; it is checked against BENCHMARK.json before it is
printed.  Exits non-zero on a build failure, a correctness mismatch, or a
malformed result.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configure once, then an incremental build (a no-op when up to date)."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", str(build_dir), "-j", jobs,
                "--target", "perfbench", "pglb_serve"]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed")


def unique_keys(pairs):
    keys = [key for key, _ in pairs]
    if len(keys) != len(set(keys)):
        fail(f"duplicate keys in the result: {sorted(k for k in set(keys) if keys.count(k) > 1)}")
    return dict(pairs)


def check_result(line, spec, trace):
    """Put the result's metrics in BENCHMARK.json's order and units.

    A traced run reports the per-layer metrics its workload measured; a
    listed metric it did not measure is a layer the workload leaves alone,
    reported as 0.  An untraced run must report every end-to-end metric.
    """
    result = json.loads(line, object_pairs_hook=unique_keys)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)}")
    listed = spec["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    unlisted = sorted(set(measured) - {m["name"] for m in listed})
    if unlisted:
        fail(f"metrics missing from BENCHMARK.json: {unlisted}")
    metrics = {}
    for metric in listed:
        name, unit = metric["name"], metric["unit"]
        if name not in measured:
            if not trace:
                fail(f"the workload did not report {name}")
            measured[name] = {"value": 0, "unit": unit}
        if measured[name]["unit"] != unit:
            fail(f"{name} is in {measured[name]['unit']}, BENCHMARK.json says {unit}")
        metrics[name] = measured[name]
    result["metrics"] = metrics
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    for needed in (spec_path, root / "src" / "CMakeLists.txt",
                   root / "tools" / "pglb_serve.cpp"):
        if not needed.exists():
            fail(f"{needed.relative_to(root)} not found; run from the repository root")
    spec = json.loads(spec_path.read_text())

    out_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out_root.is_absolute():
        out_root = root / out_root
    build_dir = out_root / "perfbench"
    build(root, build_dir)

    work_dir = out_root / "work"
    command = [str(build_dir / "perfbench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--work-dir={work_dir}", f"--serve={build_dir / 'pglb_serve'}"]
    # Its own process group, so a timeout also stops the replicas it spawned.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        if lines and lines[-1]:
            print(lines[-1])
        fail(f"workload exited with status {proc.returncode}", 1)
    result = check_result(lines[-1], spec, args.trace == 1)
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
