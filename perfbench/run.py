#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record

Run from the root of a checkout.  The first call builds the simulator
libraries and the benchmark from source into .bench_build/ (Release); later
calls only re-check the build.  The last line of standard output is the
result object of the workload run; with --workload all it combines every
workload, metric names prefixed by the workload.  --record rewrites
perfbench/reference.json from the current program, one repetition per
workload and input variant.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["dense480", "ring480", "farm480", "pipeline64"]
VARIANTS = 8  # perfbench.cpp kVariants


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at src/; run from the root of a checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_describe():
    # Only a checkout's own repository; never one found above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "not a git checkout"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                           env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the simulator and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_workload(name, seed, seconds, trace, record=False):
    cmd = [BINARY, "--workload", name, "--seed", str(seed)]
    if record:
        cmd.append("--record")
    else:
        cmd += ["--seconds", str(seconds), "--trace", str(trace),
                "--reference", REFERENCE, "--out", OUT]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.splitlines()
    sys.stderr.write(r.stderr)
    if r.returncode != 0 or not lines:
        for line in lines:
            print(line)
        fail("%s exited with code %d" % (name, r.returncode))
    return lines


def run_and_report(name, seed, seconds, trace):
    lines = run_workload(name, seed, seconds, trace)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def record():
    """One repetition per workload and input variant, into REFERENCE."""
    entries = {}
    for name in WORKLOADS:
        for variant in range(VARIANTS):
            lines = run_workload(name, variant, 0, 0, record=True)
            if not json.loads(lines[-1])["correct"]:
                print("\n".join(lines))
                fail("%s variant %d breaks an invariant" % (name, variant))
            for line in lines:
                if line.startswith("reference: "):
                    e = json.loads(line[len("reference: "):])
                    entries[e["key"]] = e["value"]
    with open(REFERENCE, "w") as f:
        json.dump(entries, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %d entries to %s" % (len(entries), os.path.relpath(REFERENCE, ROOT)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    os.makedirs(OUT, exist_ok=True)
    print("host: " + json.dumps({
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "git_describe": git_describe(), "source_digest": source_digest()}))

    if args.record:
        record()
        return

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {n: run_and_report(n, args.seed, args.seconds, args.trace)
               for n in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
