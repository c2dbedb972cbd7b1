#!/usr/bin/env python3
"""Build and run the benchmark harness (perfbench/) from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (and the repository's
libraries under src/) in $CARGO_TARGET_DIR, default .bench_build, then runs
one workload. The last line of standard output is the run's JSON result;
with --trace 1 the benchmark's own spans are written next to the build.

--self-test runs every workload at a tiny size, untraced and traced, and
checks that each metric named in BENCHMARK.json is emitted with its unit and
that nothing failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["launch_storm", "circuit_traced", "stencil_dist", "service_mix"]
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def source_id():
    """A content hash of the benchmarked sources: the checkout may not be a
    git repository, so this stands in for the commit id."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    return os.path.join(out, "perfbench")


def run_build_step(cmd):
    # Build chatter goes to stderr: stdout ends with the result line.
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if r.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}", r.returncode or 1)


def run_binary(binary, args, capture):
    """Run the harness in its own process group, so that on a timeout the
    forked ranks of stencil_dist are stopped with it."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {RUN_TIMEOUT_S} s", 1)
    return proc.returncode, (out.decode() if capture else "")


def expected_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def self_test(binary):
    end_to_end, per_layer = expected_metrics()
    problems = []
    for workload in WORKLOADS:
        for trace, want in ((0, end_to_end), (1, per_layer)):
            code, out = run_binary(binary, ["--workload", workload, "--seed", "7",
                                            "--seconds", "0.6", "--trace", str(trace),
                                            "--tiny"], capture=True)
            tag = f"{workload} trace={trace}"
            if code != 0:
                problems.append(f"{tag}: exit code {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{tag}: attempted={result['attempted']} "
                                f"failed={result['failed']} correct={result['correct']}")
            if trace == 0 and result["metrics"]["ok_frac"]["value"] != 1.0:
                problems.append(f"{tag}: ok_frac != 1")
            print(f"self-test {tag}: {len(got)} metrics, attempted={result['attempted']}")
    for p in problems:
        print(f"self-test FAILED: {p}")
    print("self-test ok" if not problems else "self-test failed")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}.json")]
    sys.stdout.flush()
    code, _ = run_binary(binary, cmd, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
