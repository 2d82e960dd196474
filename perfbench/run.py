#!/usr/bin/env python3
"""The 2PCP benchmark: end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root. The script builds the tpcp library and the
`perfbench` binary from source (perfbench/CMakeLists.txt, default
RelWithDebInfo build with SIMD compiled out) into $CARGO_TARGET_DIR or
.bench_build, then for one workload:

  1. sets the workload up three times from --seed, each in a fresh process
     (generate the block store, warm the page cache, stage Phase 1, build the
     single-thread references), and reports the median CPU time as setup_s;
  2. times the workload's public call in one fresh process for --seconds
     seconds after one untimed repetition, checking every repetition
     against the references (ok_ratio);
  3. prints a table of the metrics, a context line (build type, SIMD
     backend, nproc, load average at start and end, host steal share, seed)
     and, as the last line, one JSON object {"correct", "attempted",
     "failed", "metrics"}.

The bounded timings are CPU seconds: on a shared virtual machine the wall
clock moves with the CPU time the hypervisor steals from the guest (the
steal share of each run is recorded). Wall time (wall_s, entries_per_s) is
measured on every run, printed, and reported as a per-layer metric.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, from traced repetitions alternated
with untraced ones, layer probes, and a Chrome trace_event file written to
.perfbench_work/<workload>-seed<N>.trace.json. `--workload all` runs every
workload and prints each end-to-end metric with its unit and sample count.

Workloads, metrics and what each per-layer metric is expected to move are
in BENCHMARK.json and perfbench/METRICS.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

SETUPS = 3
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the perfbench target; returns its path."""
    out = build_dir()
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(["which", "ninja"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0:
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench")


def host_ticks():
    """(busy, steal) clock ticks of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
        return v[0] + v[1] + v[2] + v[5] + v[6], v[7]
    except (OSError, ValueError, IndexError):
        return 0, 0


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise ValueError("no JSON line in output")
    return json.loads(lines[-1])


def call(args, timeout):
    """Runs the benchmark binary to completion; returns its last JSON line."""
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(args[:2]),
                                                  proc.returncode))
    return last_json(proc.stdout)


def run_workload(exe, spec, name, seed, seconds, trace):
    """One benchmark run; returns (result line, table rows, context)."""
    load_start = os.getloadavg()
    ticks_start = host_ticks()
    workdir = os.path.join(WORK, name)

    setups = []
    for _ in range(SETUPS):
        setups.append(call([exe, "setup", "--workload=" + name,
                            "--seed=%d" % seed, "--dir=" + workdir],
                           SETUP_TIMEOUT_S))
    references_agree = all(
        {k: v for k, v in s.items() if k.startswith("ref_")} ==
        {k: v for k, v in setups[0].items() if k.startswith("ref_")}
        for s in setups)

    trace_path = os.path.join(WORK, "%s-seed%d.trace.json" % (name, seed))
    out = call([exe, "run", "--workload=" + name, "--dir=" + workdir,
                "--seconds=%d" % seconds, "--trace=%d" % trace,
                "--trace-out=" + trace_path], RUN_TIMEOUT_S)

    # Time the hypervisor gave to other guests while this guest wanted to
    # run. It is what moves wall-clock times between runs on a shared host,
    # which is why the bounded timings are CPU times.
    busy, steal = (b - a for a, b in zip(ticks_start, host_ticks()))
    steal_share = steal / max(1, busy + steal)

    measured = dict(out["metrics"])
    measured["host.steal_share"] = steal_share
    for key in ["setup_s"] + [k for k in setups[0] if k.startswith("setup.")]:
        measured[key] = statistics.median(s[key] for s in setups)

    samples = out["samples"]
    counts = {"wall_s": samples["wall_s"], "entries_per_s": samples["wall_s"],
              "cpu_s": samples["cpu_s"], "fit": out["attempted"],
              "peak_rss_mb": 1, "ok_ratio": out["attempted"],
              "host.steal_share": 1}

    def row(name, unit):
        if name.startswith("setup"):
            n = SETUPS
        else:
            n = counts.get(name, samples["traced"] if trace else 1)
        return name, measured[name], unit, n

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, rows, missing = {}, [], []
    for m in declared:
        value = measured.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        rows.append(row(m["name"], m["unit"]))
    if not trace:
        # Measured on every run but unbounded (per-layer in BENCHMARK.json).
        rows += [row(name, unit) + ("(unbounded)",) for name, unit in
                 (("wall_s", "s"), ("entries_per_s", "1/s"),
                  ("setup.wall_s", "s"), ("host.steal_share", "ratio"))]

    correct = (out["failed"] == 0 and not missing and references_agree and
               (trace or metrics["ok_ratio"]["value"] == 1.0))
    if missing:
        log("perfbench: metrics not produced: " + ", ".join(missing))
    if not references_agree:
        log("perfbench: the %d set-ups disagree on the references" % SETUPS)
    for failure in out.get("failures", []):
        log("perfbench: gate failed: " + failure)

    context = {"workload": name, "seed": seed, "seconds": seconds,
               "trace": trace, "build_type": out["build"]["type"],
               "simd_target": out["build"]["simd_target"],
               "simd_compiled": out["build"]["simd_compiled"],
               "nproc": os.cpu_count(), "loadavg_start": load_start,
               "loadavg_end": os.getloadavg(),
               "host_steal_share": round(steal_share, 4),
               "trace_file": trace_path if trace else None}
    result = {"correct": bool(correct), "attempted": int(out["attempted"]),
              "failed": int(out["failed"]), "metrics": metrics}
    return result, rows, context


def print_table(name, rows):
    print("%s:" % name)
    for metric, value, unit, n, *note in rows:
        print("  %-40s %16.6g %-8s n=%-3d %s" % (metric, value, unit, n,
                                                " ".join(note)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "api", "session.h")) and
            os.path.isfile(spec_path)):
        fail("the tpcp sources or BENCHMARK.json are missing under " + ROOT, 2)
    with open(spec_path) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %r (have: %s)" % (args.workload, ", ".join(names)), 2)
    seconds = args.seconds or spec["run_seconds"]

    try:
        exe = build()
        os.makedirs(WORK, exist_ok=True)
        if args.workload != "all":
            result, rows, context = run_workload(exe, spec, args.workload,
                                                 args.seed, seconds, args.trace)
            print_table(args.workload, rows)
            print(json.dumps({"context": context}))
            results_dir = os.path.join(WORK, "results")
            os.makedirs(results_dir, exist_ok=True)
            with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
                    args.workload, args.seed, args.trace)), "w") as f:
                json.dump({"context": context, "result": result}, f, indent=1)
            print(json.dumps(result), flush=True)
            return 0
        summary = {}
        for name in names:
            result, rows, context = run_workload(exe, spec, name, args.seed,
                                                 seconds, args.trace)
            print_table(name, rows)
            summary[name] = {"context": context, "result": result}
        print(json.dumps(summary), flush=True)
        return 0
    except (subprocess.SubprocessError, RuntimeError, ValueError, KeyError,
            OSError) as e:
        fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
