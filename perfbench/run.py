#!/usr/bin/env python3
"""Build scimpi and the scimpi_perf harness from this checkout, then run one
workload of the benchmark.

    python3 perfbench/run.py --workload noncontig|osc_sparse|many_ranks \\
        --seed N --seconds S --trace 0|1

Run from the root of the checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr, so the last line on stdout is the harness's JSON result.
Any SCIMPI_* variable is dropped from the environment, so every
observability sink stays off unless the harness turns it on.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: scimpi sources (src/) not found next to perfbench/")
    cmake = os.path.join(bdir, "cmake")
    if not os.path.isfile(os.path.join(cmake, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(cmake, "scimpi_perf")


def reset_digests_on_rebuild(binary, out_dir):
    """Digests recorded by an earlier build of different code do not apply."""
    st = os.stat(binary)
    stamp = "%d %d" % (st.st_mtime_ns, st.st_size)
    stamp_file = os.path.join(out_dir, "binary.stamp")
    old = open(stamp_file).read() if os.path.isfile(stamp_file) else ""
    if old != stamp:
        for name in os.listdir(out_dir):
            if name.startswith("digest-"):
                os.remove(os.path.join(out_dir, name))
        with open(stamp_file, "w") as f:
            f.write(stamp)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["noncontig", "osc_sparse", "many_ranks"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    reset_digests_on_rebuild(binary, out_dir)

    env = {k: v for k, v in os.environ.items() if not k.startswith("SCIMPI_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
