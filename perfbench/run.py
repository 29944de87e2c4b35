#!/usr/bin/env python3
"""Host-cost benchmark of the SVM simulator, one workload per invocation.

    python3 perfbench/run.py --workload kv-mixed --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --capacity

It builds perfbench/perfbench.exe with dune from the checkout it sits in,
then starts one worker process per measured run until --seconds have
passed, so that every run starts from a fresh heap, as an svm_run
invocation does. Each worker also gauges the host's speed beside its run
with fixed pieces of work, and host times are reported at a reference
speed, so that a slow spell of a shared host does not read as a slower
simulator.
Every run's output is checked against a ~verify:true run
of the same workload and seed. The last line of standard output is one JSON
object: with --trace 0 it holds the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. Everything else goes to standard
error, and files go to perfbench/out/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sor-lrc16", "kv-mixed", "kv-read")
KV_WORKLOADS = ("kv-mixed", "kv-read")
# A worker takes under 10 s; the whole invocation must end within 180 s.
WORKER_TIMEOUT_S = 100
SETUPS_PER_RUN = 5
# Host seconds of one probe and of one slice (perfbench/probe.ml) at the
# host speed wall_s and setup_s are expressed at: what they take on the
# 2-core Xeon VM the bounds were set on, while that VM runs at full speed.
PROBE_REFERENCE_S = 0.06
SLICE_REFERENCE_S = 0.0015
E2E_SIM = ("sim_elapsed_s", "sim_messages", "sim_traffic_mb")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("the simulator's sources (dune-project, lib/) are not beside perfbench/")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/perfbench.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=840,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("dune build: %s" % e)
    if proc.returncode != 0:
        fail("dune build failed")


def worker_env():
    env = dict(os.environ)
    # Runs get the default GC settings, as svm_run does; only the traced
    # worker starts Runtime_events, with its ring file under perfbench/out.
    for var in ("OCAMLRUNPARAM", "CAMLRUNPARAM", "OCAML_RUNTIME_EVENTS_START", "OCAML_RUNTIME_EVENTS_PRESERVE"):
        env.pop(var, None)
    env["OCAML_RUNTIME_EVENTS_DIR"] = OUT
    return env


def worker(mode, workload, seed, *extra):
    cmd = [EXE, mode, "--workload", workload, "--seed", str(seed)] + list(extra)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % " ".join(cmd))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def write_json(path, value):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(value, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def reference_digest(workload, seed):
    """Final-memory digest of a ~verify:true run; it depends only on the
    inputs, so it is cached per (workload, seed). None if that run failed."""
    path = os.path.join(OUT, "reference-%s-%d.json" % (workload, seed))
    try:
        with open(path) as f:
            return json.load(f)["digest"]
    except (OSError, ValueError, KeyError):
        pass
    r = worker("verify", workload, seed)
    if r["failures"]:
        print("perfbench: FAILED: reference run: %s" % "; ".join(r["failures"]), file=sys.stderr)
        return None
    write_json(path, {"digest": r["digest"]})
    return r["digest"]


def repeat(seconds, run_one):
    """Run [run_one] back to back while one more run as long as the last
    still ends within [seconds]; at least once."""
    results, start = [], time.monotonic()
    while True:
        t = time.monotonic()
        results.append(run_one())
        took = time.monotonic() - t
        if time.monotonic() - start + took > seconds:
            return results


def tally(runs, reference):
    """(ops attempted, ops failed) over [runs]. A run that raised, failed
    its output check, or whose simulated figures differ from the first
    run's fails all of its ops; SOR has no request stream, so a run of it
    is one op."""
    attempted = failed = 0
    for r in runs:
        ops = int(r["ops_planned"]) or 1
        bad = list(r["failures"])
        if reference is None:
            bad.append("no reference digest")
        if r.get("sim") != runs[0].get("sim"):
            bad.append("simulated figures differ from the first run's")
        for b in bad:
            print("perfbench: FAILED: %s" % b, file=sys.stderr)
        attempted += ops
        failed += ops if bad else 0
    return attempted, failed


def serving_summary(workload, seed, r):
    """The kv serving figures, which sor-lrc16 has no counterpart of."""
    sim = r.get("sim", {})
    if "sim_ops_per_s" in sim:
        print(
            "perfbench: %s seed %d: %.1f ops/s served of %.0f offered; latency from scheduled arrival "
            "p50 %.0f us, p99 %.0f us, p999 %.0f us over %d ops"
            % (workload, seed, sim["sim_ops_per_s"], r["offered_ops_per_s"], sim["sim_op_p50_us"],
               sim["sim_op_p99_us"], sim["sim_op_p999_us"], sim["sim_op_samples"]),
            file=sys.stderr,
        )


def host_speed(r):
    """How fast the host ran beside a worker's measured run, against the
    reference: the geometric mean of what the probes around the run and the
    slices within it say."""
    by_probes = PROBE_REFERENCE_S / statistics.median(r["probe_before_s"] + r["probe_after_s"])
    if not r["slice_s"]:
        return by_probes
    return math.sqrt(by_probes * SLICE_REFERENCE_S / statistics.mean(r["slice_s"]))


def end_to_end(runs):
    """wall_s and setup_s are host seconds at the reference host speed: each
    of a worker's times multiplied by its host_speed, then the median over
    the workers (over every zero-work run for setup_s). On a shared machine a
    run slows by 15-60% for seconds to minutes at a time while other tenants
    load it; the probes and slices slow down with it, so the product stays
    put where the raw time does not (see README.md for the spreads). The rest
    are medians of the workers or, for the simulated figures, exact for a
    seed."""
    sim = next((r["sim"] for r in runs if "sim" in r), {})
    values = {k: sim[k] for k in E2E_SIM if k in sim}
    # The slices' own time is part of the measured run's.
    values["wall_s"] = statistics.median((r["wall_s"] - sum(r["slice_s"])) * host_speed(r) for r in runs)
    values["setup_s"] = statistics.median(t * host_speed(r) for r in runs for t in r["setup_s"])
    values["alloc_mwords"] = statistics.median(r["host"]["alloc_mwords"] for r in runs)
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
    speeds = [host_speed(r) for r in runs]
    print("perfbench: %d measured runs; raw wall_s median %.3f s, fastest %.3f s; host speed %.2f-%.2f of the reference"
          % (len(runs), statistics.median(r["wall_s"] for r in runs), min(r["wall_s"] for r in runs),
             min(speeds), max(speeds)), file=sys.stderr)
    return values


def per_layer(base, traced):
    """Counts come from the untraced run, where the sampler allocates
    nothing. Layer shares pool the samples of every traced run, and a
    layer's self_s is its share of the fastest traced run's wall time."""
    values = {k: v for k, v in base.get("sim", {}).items() if "." in k}
    values.update((k, v) for k, v in base["host"].items() if k.startswith("ocaml_gc."))
    samples = {layer: sum(r["samples"][layer] for r in traced) for layer in traced[0]["samples"]}
    total = sum(samples.values())
    wall = min(r["profile"]["traced.wall_s"] for r in traced)
    values.update((layer + ".self_s", wall * n / max(1, total)) for layer, n in samples.items())
    values["traced.wall_s"] = wall
    for k in ("ocaml_gc.minor_s", "ocaml_gc.major_s"):
        values[k] = statistics.median(r["profile"][k] for r in traced)
    if "sim.events" in values:
        values["sim.ns_per_event"] = values["sim.self_s"] * 1e9 / values["sim.events"]
    return values, samples


def emit(correct, attempted, failed, values, declared):
    units = {m["name"]: m["unit"] for m in declared}
    unknown, missing = set(values) - set(units), set(units) - set(values)
    # A run that raised has no simulated figures; its result says so.
    if unknown or (missing and correct):
        fail("measured metrics and BENCHMARK.json disagree on: %s" % ", ".join(sorted(unknown | missing)))
    metrics = {n: {"value": values.get(n), "unit": units[n]} for n in sorted(units)}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--capacity", action="store_true", help="print each kv mix's saturated throughput and exit")
    args = ap.parse_args()
    if not args.capacity and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("BENCHMARK.json: %s" % e)
    build()
    os.makedirs(OUT, exist_ok=True)

    if args.capacity:
        rows = {w: worker("capacity", w, args.seed) for w in KV_WORKLOADS}
        for w, r in rows.items():
            print("perfbench: %s: offered %.0f ops/s, %.0f%% of the %.0f ops/s it completes saturated"
                  % (w, r["offered_ops_per_s"], 100 * r["offered_ops_per_s"] / r["saturated_ops_per_s"],
                     r["saturated_ops_per_s"]), file=sys.stderr)
        print(json.dumps(rows))
        return

    w, seed = args.workload, args.seed
    reference = reference_digest(w, seed)
    expect = ["--expect-digest", reference or ""]
    start = time.monotonic()
    if args.trace == 0:
        runs = repeat(args.seconds, lambda: worker("measure", w, seed, "--setups", str(SETUPS_PER_RUN),
                                                   "--probe", *expect))
        values, declared = end_to_end(runs), bench["end_to_end"]
    else:
        base = worker("measure", w, seed, "--setups", "0", *expect)
        trace_out = os.path.join(OUT, "trace-%s-%d.json" % (w, seed))
        left = args.seconds - (time.monotonic() - start)
        traced = repeat(left, lambda: worker("traced", w, seed, "--trace-out", trace_out, *expect))
        (values, samples), declared = per_layer(base, traced), bench["per_layer"]
        runs = [base] + traced
        total = max(1, sum(samples.values()))
        print("perfbench: %d traced runs, %d samples: %s; spans in %s"
              % (len(traced), total, ", ".join("%s %.1f%%" % (k, 100 * n / total) for k, n in samples.items() if n),
                 os.path.relpath(trace_out, ROOT)),
              file=sys.stderr)
        if any(r["profile"]["traced.lost_events"] for r in traced):
            print("perfbench: the Runtime_events ring dropped events, so GC times are low", file=sys.stderr)
    attempted, failed = tally(runs, reference)
    serving_summary(w, seed, runs[0])
    write_json(os.path.join(OUT, "runs-%s-%d-trace%d.json" % (w, seed, args.trace)), runs)
    emit(failed == 0, attempted, failed, values, declared)


if __name__ == "__main__":
    main()
