#!/usr/bin/env python3
"""End-to-end benchmark of the hlts repository.

Run from the repository root:

    python3 perfbench/run.py --workload paper-atpg --seed 1 --seconds 25 --trace 0

Builds the library, hlts_serve and the hlts_perfbench binary from source into
.bench_build (or $CARGO_TARGET_DIR when set), then runs one workload.  The
workloads and their frozen settings live in perfbench/spec.json; the metric
names in BENCHMARK.json.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --selftest

runs every workload BENCHMARK.json lists once untraced and twice traced on
one seed, and checks that every output check passes, that the emitted
metric names are exactly the ones BENCHMARK.json lists, and that on the
in-process workloads the counters and output digests repeat exactly (the
serve-mix counters follow the timing of the run).
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(HERE, "spec.json")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no hlts sources next to perfbench/; nothing to build")
        sys.exit(2)
    out = build_dir()
    cmake = shutil.which("cmake")
    if cmake is None:
        log("perfbench: cmake not found")
        sys.exit(2)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run([cmake, "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run([cmake, "--build", out, "-j", jobs, "--target",
                    "hlts_perfbench", "hlts_serve"],
                   check=True, stdout=sys.stderr)
    return out


def clean_env():
    """The environment of a run: no HLTS_* knob leaks in from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HLTS_")}
    env["HLTS_THREADS"] = "1"
    return env


def run_workload(bindir, workload, seed, seconds, trace, echo=True):
    """Runs hlts_perfbench; returns its parsed result line (None on failure)."""
    scratch = os.path.join(build_dir(), "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [os.path.join(bindir, "hlts_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--spec", SPEC,
           "--scratch", scratch,
           "--serve-bin", os.path.join(bindir, "hlts_serve")]
    # A session of its own, so everything hlts_perfbench starts can be
    # stopped as one group whatever happens to it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        stdout = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n") if stdout else []
    if echo:
        for line in lines[:-1]:
            print(line, flush=True)
    if proc.returncode != 0 or not lines:
        log("perfbench: hlts_perfbench exited with %s" % proc.returncode)
        return None, lines
    try:
        return json.loads(lines[-1]), lines
    except ValueError:
        log("perfbench: hlts_perfbench printed no result line")
        return None, lines


def benchmark_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ([w["name"] for w in bench["workloads"]],
            {m["name"] for m in bench["end_to_end"]},
            {m["name"] for m in bench["per_layer"]})


def selftest(bindir):
    workloads, end_to_end, per_layer = benchmark_names()
    with open(SPEC) as f:
        kinds = {k: v["kind"] for k, v in json.load(f)["workloads"].items()}
    ok = True
    for w in workloads:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            runs = [run_workload(bindir, w, 7, 1, trace, echo=False)
                    for _ in range(2 if trace else 1)]
            for result, _ in runs:
                names = set(result["metrics"]) if result else set()
                bad = [n for n in names if not NAME_RE.match(n)]
                if result is None or names != expected or bad:
                    log("selftest %s trace %d: names differ from BENCHMARK.json: "
                        "missing %s extra %s bad %s" % (
                            w, trace, sorted(expected - names),
                            sorted(names - expected), bad))
                    ok = False
                elif not result["correct"]:
                    log("selftest %s trace %d: an output check failed" % (w, trace))
                    ok = False
            if trace == 0 or kinds[w] != "inprocess" or None in [r for r, _ in runs]:
                continue
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] in ("count", "cycles")} for r, _ in runs]
            digests = [[l for l in lines if l.startswith("digest ")]
                       for _, lines in runs]
            if counts[0] != counts[1] or digests[0] != digests[1]:
                log("selftest %s: counters or digests differ between two runs" % w)
                ok = False
            else:
                log("selftest %s: %d counters and digests repeat exactly" % (
                    w, len(counts[0])))
    log("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    bindir = build()
    if args.selftest:
        return selftest(bindir)
    result, _ = run_workload(bindir, args.workload, args.seed, args.seconds,
                             args.trace == 1)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
