"""perfbench: end-to-end and per-layer benchmark of holim_cli and holimd.

Run from the root of a holim checkout:

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 20 --trace 0

It builds holim_cli and holimd_cli from the checkout's sources into
.bench_build/perfbench (CMake, Release), runs one workload (see
workloads.py) for --seconds, checks every answer, and prints one JSON
line as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 turns on the
programs' own timing output (holimd --echo-timings) and reports the
per-layer metrics instead, writing the spans to
.bench_build/perfbench/trace-<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import workloads  # noqa: E402

TARGETS = ("holim_cli", "holimd_cli")
RUN_LIMIT_S = 170  # a run after the build must end well within 180 s


def build(root):
    """Builds TARGETS from the checkout at `root`; returns {name: path}."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(root, "src"))):
        sys.exit("perfbench: no holim sources here (CMakeLists.txt, src/); "
                 "run from the root of a checkout")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    steps = [["cmake", "--build", build_dir, "--target", *TARGETS,
              "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", root, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"])
    with open(os.path.join(build_dir, "build.log"), "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  stdin=subprocess.DEVNULL, timeout=850)
            if done.returncode != 0:
                log.flush()
                with open(log.name) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build step failed: " + " ".join(step))
    return {t: os.path.join(build_dir, t) for t in TARGETS}, build_dir


# (name, unit) of every end-to-end metric (--trace 0) ...
END_TO_END = [("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("throughput_per_s", "1/s"), ("peak_rss_mib", "MiB"),
              ("setup_s", "s")]
# ... and of every per-layer metric (--trace 1). A workload that does not
# exercise a layer reports 0 for it.
PER_LAYER = [("engine_total_ms", "ms"), ("engine_artifact_ms", "ms"),
             ("engine_select_ms", "ms"), ("engine_spread_ms", "ms"),
             ("outside_engine_ms", "ms"), ("queue_wait_ms", "ms"),
             ("warm_hit_rate", "ratio"), ("sketch_builds_per_100", "count"),
             ("coalesced_per_100", "count"), ("sketch_arena_kib", "KiB"),
             ("cpu_ms_per_op", "ms")]


def metrics(out, trace):
    if trace:
        values = {name: out.spans.median_ms(name[:-3])
                  for name, unit in PER_LAYER if unit == "ms"}
        values["cpu_ms_per_op"] = 1e3 * out.cpu_s / len(out.latencies_s)
        values.update(out.layer)
        units = PER_LAYER
    else:
        lat = out.latencies_s
        values = {
            "latency_p50_ms": 1e3 * harness.median(lat),
            "latency_p90_ms": 1e3 * harness.percentile(lat, 0.9),
            "throughput_per_s": len(lat) / out.window_s,
            "peak_rss_mib": harness.median(out.rss_kib) / 1024,
            "setup_s": harness.median(out.setup_s),
        }
        units = END_TO_END
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bins, build_dir = build(os.getcwd())
    workdir = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(workdir)

    def on_alarm(signum, frame):
        raise TimeoutError("run exceeded %d s" % RUN_LIMIT_S)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        ctx = workloads.Context(bins, args.seed, args.seconds, args.trace,
                                workdir)
        out = workloads.WORKLOADS[args.workload](ctx)
    finally:
        signal.alarm(0)
        harness.kill_all()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        out.spans.write(os.path.join(
            build_dir, "trace-%s-%d.jsonl" % (args.workload, args.seed)))
    for error in out.errors:
        print("perfbench: check failed: " + error, file=sys.stderr)
    if not out.latencies_s:
        sys.exit("perfbench: no operation completed")
    print(json.dumps({"correct": not out.errors and out.failed == 0,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics(out, args.trace)}))


if __name__ == "__main__":
    main()
