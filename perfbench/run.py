#!/usr/bin/env python3
"""FaaSFlow simulator benchmark: one workload, one run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload paper7 --seed 1 --seconds 15 --trace 0

Builds the benchmark binary twice (with and without the core crate's
`loop-profile` feature) into `$CARGO_TARGET_DIR` (default `.bench_build`),
then runs the untraced passes from the plain build for `--seconds` seconds
and one traced pass from the profiled build. Prints every metric of the
chosen kind (`--trace 0`: end-to-end, `--trace 1`: per-layer) with its unit,
as listed in BENCHMARK.json, and as the last line of standard output one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
Exits non-zero when the build fails or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# One untraced or traced pass must end well inside the run's time limit.
PASS_TIMEOUT_S = 150


def build(target_root, profiled):
    """Builds one variant and returns the path of its binary."""
    target = os.path.join(target_root, "profiled" if profiled else "plain")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target]
    if profiled:
        cmd += ["--features", "loop-profile"]
    # Build output goes to stderr so the result stays the last stdout line.
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "faasflow-perfbench")


def run_pass(binary, args, kind, seconds):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--pass", kind]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {kind} pass exceeded {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"perfbench: {kind} pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        sys.exit("perfbench: --seed must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")

    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target_root = os.path.join(ROOT, target_root)
    plain = build(target_root, profiled=False)
    profiled = build(target_root, profiled=True)

    untraced = run_pass(plain, args, "untraced", args.seconds)
    traced = run_pass(profiled, args, "traced", 0)

    errors = untraced["errors"] + traced["errors"]
    if untraced["digest"] != traced["digest"]:
        errors.append(f"traced RunReport digest {traced['digest']} differs "
                      f"from untraced {untraced['digest']}")
    values = {**untraced["metrics"], **traced["metrics"]}
    values["trace.overhead"] = (values["core.run_s_traced"]
                                / values["core.run_s"] - 1.0)
    attempted = untraced["sent"] + traced["sent"]
    failed = untraced["failed"] + traced["failed"]

    kind = "per_layer" if args.trace else "end_to_end"
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] not in values:
            errors.append(f"metric {m['name']} was not measured")
    correct = not errors
    if not correct:
        # A failed check counts every invocation of the workload as failed.
        failed = attempted
        values["ok_share"] = 0.0

    print(f"workload {args.workload} seed {args.seed}: "
          f"{untraced['passes']} untraced passes, report digest "
          f"{untraced['digest']}, {values.get('sim_overhead.samples', 0):.0f} "
          f"overhead samples")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    metrics = {}
    for m in spec[kind]:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<34} {value:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
