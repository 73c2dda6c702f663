#!/usr/bin/env python3
"""Repository benchmark: cost of a Pi_Bin round, its public audit and a client upload.

    python3 vdpbench/run.py --workload clients|noise|fleet --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. Builds the vdp library, the
benchmark driver (vdpbench/driver.cc), verify_server and metrics_report from
source into $CARGO_TARGET_DIR (default .bench_build) with CMake, then runs the
driver for the workload and prints one JSON result object as the last line of
standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
the traced pass (see vdpbench/README.md). setup_s is the median over three
fresh processes: one that only sets up, the measuring one, and another that
only sets up. Exits non-zero
on a build failure, a failed correctness check, or a timeout.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("clients", "noise", "fleet")

END_TO_END = {
    "round_s": "s",
    "audit_s": "s",
    "client_upload_ms": "ms",
    "transcript_mb": "MB",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "client.upload_ms.p99": "ms",
    "client.upload_bytes": "bytes",
    "verify.s": "s",
    "verify.us_per_upload": "us",
    "verify.par": "ratio",
    "verify.rejected": "count",
    "verify.msm_calls": "count",
    "verify.msm_scalars": "count",
    "verify.shards": "count",
    "shard.busy_s": "s",
    "shard.fallbacks": "count",
    "stream.inflight_shards_hwm": "count",
    "backpressure.waits": "count",
    "core.share_check_s": "s",
    "prover.load_s": "s",
    "prover.commit_s": "s",
    "prover.commit_par": "ratio",
    "verifier.coin_proofs_s": "s",
    "morra.s": "s",
    "morra.coins": "count",
    "prover.output_s": "s",
    "verifier.final_s": "s",
    "driver.self_s": "s",
    "audit.encode_s": "s",
    "audit.decode_s": "s",
    "audit.check_s": "s",
    "audit.transcript_bytes": "bytes",
    "wire.bytes_out": "bytes",
    "wire.bytes_in": "bytes",
    "wire.frames_out": "count",
    "fleet.shards_remote": "count",
    "fleet.shards_recovered": "count",
    "fleet.retries": "count",
    "fleet.remote_share": "ratio",
    "auth.failures": "count",
    "mem.rss_hwm_kb": "KiB",
    "setup.tables_s": "s",
    "setup.clients_s": "s",
    "setup.fleet_s": "s",
    "host.ref_ms": "ms",
    "host.par": "ratio",
    "trace.round_s": "s",
    "trace.overhead_s": "s",
}

DRIVER_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 20
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "vdpbench")


def local_env(out):
    """The environment for every child: compiler and program temp files stay in the build tree."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build(out):
    """Configures and builds the driver and its tools; an up-to-date tree is a no-op."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "protocol.h")):
        log("vdpbench: no vdp sources (src/) in %s" % ROOT)
        return False
    env = local_env(out)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("vdpbench: build step failed: %s" % err)
            return False
        if done.returncode != 0:
            log("vdpbench: build step failed: %s" % " ".join(cmd))
            return False
    return True


def run_driver(out, args, extra, timeout):
    """Runs the driver once; returns its parsed result line and exit code.

    The driver runs in its own process group, so on a timeout the driver and
    the verify_server daemons it spawned are killed together.
    """
    cmd = [os.path.join(out, "vdpbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--out-dir", os.path.join(out, "runs")] + extra
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                env=local_env(out), text=True, start_new_session=True)
    except OSError as err:
        log("vdpbench: cannot start the driver: %s" % err)
        return None, 1
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("vdpbench: driver did not finish within %d s" % timeout)
        return None, 1
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        log("vdpbench: driver printed no result (exit %d)" % proc.returncode)
        return None, proc.returncode or 1
    try:
        return json.loads(lines[-1]), proc.returncode
    except ValueError:
        log("vdpbench: unparsable driver result: %s" % lines[-1])
        return None, proc.returncode or 1


def check_runlog(out, args):
    """The traced pass's run-log must render with tools/metrics_report."""
    path = os.path.join(out, "runs", "trace-%s-%d.jsonl" % (args.workload, args.seed))
    try:
        done = subprocess.run([os.path.join(out, "metrics_report"), path],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=60, check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        log("vdpbench: metrics_report failed: %s" % err)
        return False
    ok = (done.returncode == 0 and "round.layers" in done.stdout
          and "span tree" in done.stdout)
    if not ok:
        log(done.stdout[-4000:])
        log("vdpbench: metrics_report rejected %s" % path)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    if not build(out):
        return 1

    # Setup-only processes just before and just after the measuring one: the
    # set-up figures then sample the host at three points across the run.
    main_run = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    plan = [(main_run, DRIVER_TIMEOUT_S)]
    if args.trace == 0:
        setup_only = (["--setup-only"], SETUP_TIMEOUT_S)
        plan = [setup_only] + plan + [setup_only]
    runs = []
    for extra, timeout in plan:
        result, code = run_driver(out, args, extra, timeout)
        if result is None:
            return 1
        runs.append((result, code))
    attempted = sum(r["attempted"] for r, _ in runs)
    failed = sum(r["failed"] for r, _ in runs)
    correct = all(bool(r["correct"]) and code == 0 for r, code in runs)
    metrics = runs[len(runs) // 2][0]["metrics"]

    if args.trace == 0:
        setups = [r["metrics"]["setup_s"] for r, _ in runs]
        log("vdpbench: setup_s per process %s" % setups)
        metrics["setup_s"] = statistics.median(setups)
        wanted = END_TO_END
    else:
        correct = check_runlog(out, args) and correct
        wanted = PER_LAYER

    report = {}
    for name, unit in wanted.items():
        if name not in metrics:
            log("vdpbench: driver did not report %s" % name)
            return 1
        report[name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
