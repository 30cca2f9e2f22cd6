#!/usr/bin/env python3
"""End-to-end benchmark of the distributed MDegST reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload converge --seed 1 --seconds 15 --trace 0

Builds perfbench/ (which compiles the library from src/) under
.bench_build/perfbench on first use, runs the workload's campaign spec in a
process of its own, checks the outputs, and prints every metric by name
with its unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 runs the same trials once more as separate,
span-recorded layer calls and reports the per-layer metrics. Times are
reported at the speed of a fixed reference unit of work interleaved with
the trials (see perfbench/metrics.py). Exits 1 when
the correctness check fails and 2 when the benchmark cannot run.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

WORKLOADS = ("converge", "sweep", "adversity")
# The timed run alone; a first run also pays for the build before it.
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configure once, then build incrementally; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "mdst_perfbench"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha(root):
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root):
    """sha256 over the library sources and the benchmark: identifies the
    measured code where the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for top in (root / "src", HERE):
        files += sorted(p for p in top.rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root, build_fields):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": build_fields["compiler"],
        "build_type": build_fields["build_type"],
        "MDST_CHECK_LEVEL": build_fields["check_level"],
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
    }


def load_spans(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        fail("--seed must be in [0, 2^64)")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = Path.cwd()
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail("run from the repository root: CMakeLists.txt or src/ is missing")
    build_dir = root / ".bench_build" / "perfbench"
    binary = build(root, build_dir)
    results = build_dir / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = results / f"{stem}-spans.jsonl"

    cmd = [str(binary), f"--spec={HERE / 'workloads' / args.workload}.campaign",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}"]
    if args.trace:
        cmd.append(f"--spans={spans_path}")
    try:
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"mdst_perfbench exited with {done.returncode}")
    raw = json.loads(done.stdout)

    if args.trace:
        values = metrics.per_layer(raw, load_spans(spans_path))
        notes = {}
    else:
        values, notes = metrics.end_to_end(raw)
    trials = raw["trials"]
    failed = sum(t["status"] != metrics.OK for t in trials)
    correct = not raw["errors"]
    fp = fingerprint(root, raw["fingerprint"])

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"trials {len(trials)}  timed passes {len(raw['pass_wall_s'])}")
    print("# fingerprint " + json.dumps(fp, sort_keys=True))
    reference = raw["reference_ms"]
    print(f"# reference unit took {statistics.median(reference):.4g} ms (median, "
          f"{len(reference)} samples); times below are scaled to "
          f"{metrics.REFERENCE_MS} ms. Unscaled: pass "
          f"{statistics.median(raw['pass_wall_s']):.6g} s, set-up "
          f"{statistics.median(raw['setup_s']):.6g} s")
    for name, (value, unit) in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:28s} {value:16.6g} {unit}{note}")
    for t in trials:
        if t["status"] != metrics.OK:
            print(f"# trial {t['index']} {t['status']}: {t['error']}")
    for error in raw["errors"]:
        print(f"# CHECK FAILED: {error}")

    with open(results / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump({"fingerprint": fp, "metrics": values, "notes": notes,
                   "raw": raw}, f)
    print(json.dumps({
        "correct": correct,
        "attempted": len(trials),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
