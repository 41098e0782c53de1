#!/usr/bin/env python3
"""perfbench: the repository's benchmark, one command for every workload.

    python3 perfbench/run.py --workload tune|paper|serve --seed N \
        --seconds S --trace 0|1

Builds perfbench/worker.exe with dune, then runs the workload's units
of work, each in a fresh worker process, for about S seconds (at least
one pass).  Every unit checks its own outputs.  Human-readable lines go
to stdout first; the last line is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, measured with
tracing off.  With --trace 1 the units run traced instead, and the
metrics are the per-layer ledger (README.md lists both, with the layer
each number belongs to and the end-to-end metric it should move).
Traces are written to .perfbench_out/ at the repository root.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(ROOT, "_build", "default", "perfbench", "worker.exe")
# Every run ends within this many seconds of its build finishing; a unit
# still running at the deadline is killed and the run fails.
RUN_DEADLINE_S = 175
# Extra set-up-only processes per tune or paper run: their set-up is a
# few milliseconds, so more samples keep its median steady.
SETUP_SAMPLES = 20

# Workload definitions.  Programs and shapes are fixed; the seed only
# picks Video.Framegen frame numbers (stream offsets, so frame content).
WORKLOADS = {
    # `--opt auto` is the default of every CLI.  A cold compile spends
    # nearly all its time in Optimizer.Search, Gpu.Kir.static_cost and
    # the lib/analysis re-verify gates, and none executing frames.  1080p
    # is left out: one gaspardcl --opt auto compile there takes ~37 s.
    "tune": {
        "programs": [("sac", 72, 64), ("gaspard", 72, 64),
                     ("sac", 288, 352), ("gaspard", 288, 352)],
    },
    # The paper's evaluation at paper scale (1080x1920, 300 frames,
    # --opt off as the paper's compilers ran): front end, kernelizer,
    # Arrayol.Validate and the timing-only executor do the work, the
    # optimizer none.  A pass is ~7 s and pass times vary by ~10% on a
    # shared 2-core machine, so a run takes the median of at least 5.
    "paper": {"min_passes": 5},
    # Serve.Engine serving 4 streams (2 SAC, 2 Gaspard2) with auto-tuned
    # plans in an open loop at a fixed rate near half of saturation:
    # functional Kir execution on Gpu.Pool and the queue/batcher do the
    # request path, tuning happens only in set-up.  QCIF, not CIF: at CIF
    # half of saturation is ~3.5 requests/s, too few to reach 100
    # completions within one run.
    "serve": {"rate_hz": 12.0, "min_requests": 100},
}

# Which end-to-end metric each layer should move, on which workload
# (README.md lists the per-layer metrics of each row):
#   optimizer, sac_cuda/mde tuning, gpu cost layer -> p50_ms on tune and
#       setup_s on serve; flat on paper
#   front end, validation, analysis, emit, study -> p50_ms on paper, a
#       small share of p50_ms on tune
#   execution, pool, serving -> p50_ms and tail_ms on serve; queueing
#       layers tail_ms most
#   OCaml GC -> p50_ms on tune (frame-sized cost buffers per candidate),
#       tail_ms on serve

END_TO_END = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("modelled_us_per_frame", "us_modelled"),
    ("peak_rss_mb", "MB"),
]

# name, unit.  Every per-layer metric is printed for every workload; a
# layer the workload does not exercise reads 0.
PER_LAYER = [
    ("optimizer.candidates", "count"),
    ("optimizer.rules_applied", "count"),
    ("optimizer.verify_rejections", "count"),
    ("optimizer.apply_ratio", "ratio"),
    ("optimizer.apply_ms", "ms"),
    ("optimizer.cost_ms", "ms"),
    ("optimizer.fingerprint_ms", "ms"),
    ("optimizer.moves_ms", "ms"),
    ("optimizer.replay_ms", "ms"),
    ("optimizer.search_ms", "ms"),
    ("optimizer.accounted_pct", "%"),
    ("optimizer.plan_cache_hits", "count"),
    ("optimizer.plan_cache_misses", "count"),
    ("sac_cuda.tune_ms", "ms"),
    ("mde.tune_ms", "ms"),
    ("sac_cuda.cost_ms", "ms"),
    ("mde.cost_ms", "ms"),
    ("gpu.cost_static", "count"),
    ("gpu.cost_hits", "count"),
    ("gpu.static_cost_us", "us"),
    ("analysis.gate_ms", "ms"),
    ("analysis.kernels_checked", "count"),
    ("sac.parse_ms", "ms"),
    ("sac.optimize_ms", "ms"),
    ("sac.wlf_rounds", "count"),
    ("sac.withloops_after", "count"),
    ("sac_cuda.plan_ms", "ms"),
    ("sac_cuda.kernels", "count"),
    ("arrayol.validate_ms", "ms"),
    ("mde.transform_ms", "ms"),
    ("mde.verify_ms", "ms"),
    ("emit.cuda_ms", "ms"),
    ("emit.opencl_ms", "ms"),
    ("emit.metal_ms", "ms"),
    ("emit.bytes", "bytes"),
    ("study.table1_ms", "ms"),
    ("study.table2_ms", "ms"),
    ("study.fig9_ms", "ms"),
    ("study.fig12_ms", "ms"),
    ("study.claims_ms", "ms"),
    ("study.paper_error_pct", "%"),
    ("sac_cuda.exec_ms", "ms"),
    ("mde.run_ms", "ms"),
    ("gpu.launches", "count"),
    ("gpu.h2d_bytes", "bytes"),
    ("gpu.d2h_bytes", "bytes"),
    ("pool.tasks", "count"),
    ("pool.helped_tasks", "count"),
    ("serve.execute_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batch_gather_ms", "ms"),
    ("serve.batch_size", "frames"),
    ("serve.queue_high_water", "count"),
    ("serve.retries", "count"),
    ("loadgen.late_ms", "ms"),
    ("gc.minor_mwords", "Mwords"),
    ("gc.major_mwords", "Mwords"),
    ("gc.major_collections", "count"),
    ("trace.overhead_pct", "%"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------------
# Build and units
# ---------------------------------------------------------------------

def build():
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune not found on PATH")
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        raise BenchError("no dune-project at %s: not a checkout of the repository" % ROOT)
    p = subprocess.run([dune, "build", "--root", ROOT, "./perfbench/worker.exe"],
                       cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0 or not os.path.exists(WORKER):
        raise BenchError("build failed:\n" + p.stdout[-4000:])


deadline = None  # time.monotonic() value, set once the build is done


def unit(args, trace=None):
    """Run one unit of work in a fresh worker; its JSON plus setup_s."""
    cmd = [WORKER] + [str(a) for a in args]
    if trace is not None:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--traced", os.path.join(OUT, trace)]
    spawned = time.time()
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("unit timed out: " + " ".join(cmd))
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError("unit failed (exit %d): %s\n%s"
                         % (p.returncode, " ".join(cmd), p.stderr[-4000:]))
    out = json.loads(lines[-1])
    # Set-up: from spawn to the unit's first timed operation.
    out["setup_s"] = out["ready_unix_us"] / 1e6 - spawned
    return out


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it; with fewer than 11 samples, the maximum."""
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return (0, 0.0)
    if n < 11:
        return (100, xs[-1])
    pct = max(p for p in range(1, 100) if n - math.ceil(p * n / 100) >= 10)
    return (pct, xs[math.ceil(pct * n / 100) - 1])


def total(units, key):
    return sum(u.get(key, 0.0) for u in units)


def delta(units, name, field="deltas"):
    return sum(u.get(field, {}).get(name, 0.0) for u in units)


def ledger_sum(units, name, field="incl_ms"):
    return sum(u["ledger"].get(name, {}).get(field, 0.0) for u in units)


def ledger_samples(units, name):
    return [s for u in units for s in u["ledger"].get(name, {}).get("samples_ms", [])]


def ratio(a, b):
    return a / b if b else 0.0


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------

class Run:
    def __init__(self, seed, seconds, traced, fault):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.fault = fault
        self.units = []  # every unit but set-up-only ones: attempted/failed
        self.extra_failures = []  # cross-unit checks
        self.deterministic = {}
        self.requests = None  # (sent, failed) of a serving unit

    def run(self, args, trace=None):
        args = list(args) + ["--seed", self.seed]
        if self.fault:
            args += ["--fault", self.fault]
        u = unit(args, trace)
        if "--setup-only" not in args:
            self.units.append(u)
        for f in u["failures"]:
            log("  CHECK FAILED: " + f)
        return u

    def trace_name(self, tag):
        return "%s-seed%d.trace.json" % (tag, self.seed)


def compile_args(pipeline, rows, cols):
    return ["compile", "--pipeline", pipeline, "--rows", rows, "--cols", cols]


def tune(run):
    programs = WORKLOADS["tune"]["programs"]
    passes = []
    start = time.perf_counter()
    while not passes or (not run.traced and time.perf_counter() - start < run.seconds):
        units = [run.run(compile_args(*p)) for p in programs]
        passes.append(units)
        log("pass %d: compile_s %.3f, gpu.cost_hits %s" % (
            len(passes), total(units, "compile_s"),
            " ".join("%d" % u["deltas"]["gpu.cost_hits"] for u in units)))
    first = passes[0]
    for (pipeline, rows, cols), u in zip(programs, first):
        log("  %-7s %4dx%-4d %6.3f s  modelled %8.2f us/frame  rules [%s]" % (
            pipeline, rows, cols, u["compile_s"], u["modelled_us"],
            ", ".join(u["rules"])))
    pass_s = [total(units, "compile_s") for units in passes]
    run.deterministic = tune_deterministic(first)
    if not run.traced:
        log("compile_s %.3f (median of %d cold passes)" % (median(pass_s), len(pass_s)))
        # A pass's set-up is the sum over its 4 processes, like compile_s.
        setups = [[run.run(compile_args(*p) + ["--setup-only"]) for p in programs]
                  for _ in range(SETUP_SAMPLES // len(programs))]
        return {
            "setup_s": median([total(units, "setup_s") for units in setups + passes]),
            "p50_ms": 1e3 * median(pass_s),
            "tail_ms": 1e3 * tail(pass_s)[1],
            "modelled_us_per_frame": geomean([u["modelled_us"] for u in first]),
            "peak_rss_mb": median([max(u["peak_rss_mb"] for u in units)
                                   for units in passes]),
        }
    # Traced: each compile split per layer, then right after it (so both
    # see the same machine) the search re-driven through the public moves
    # with timing wrappers.
    traced, redriven = [], []
    for p in programs:
        traced.append(run.run(compile_args(*p), run.trace_name("tune-%s-%dx%d" % p)))
        redriven.append(run.run(["redrive", "--pipeline", p[0], "--rows", p[1],
                                 "--cols", p[2]],
                                run.trace_name("redrive-%s-%dx%d" % p)))
    for p, t, r in zip(programs, traced, redriven):
        if t["rules"] != r["rules"] or t["objective_us"] != r["objective_us"]:
            run.extra_failures.append(
                "re-driven search of %s %dx%d differs: %s %.6f vs %s %.6f" % (
                    p + (r["rules"], r["objective_us"], t["rules"], t["objective_us"])))
    run.deterministic = tune_deterministic(traced)
    layers = compile_layers(traced)
    layers.update(search_layers(traced, redriven))
    layers["trace.overhead_pct"] = 100.0 * ratio(
        total(traced, "compile_s") - pass_s[0], pass_s[0])
    return layers


def tune_deterministic(units):
    keys = ["optimizer.candidates", "optimizer.rules_applied",
            "optimizer.verify_rejections", "optimizer.plan_cache_misses",
            "gpu.cost_static", "analysis.kernels_checked"]
    return {
        "modelled_us": [u["modelled_us"] for u in units],
        "rules": [u["rules"] for u in units],
        "kernels": [u["kernels"] for u in units],
        "emit_bytes": [u["emit_bytes"] for u in units],
        "counts": [{k: u["deltas"][k] for k in keys} for u in units],
    }


def paper(run):
    passes = []
    start = time.perf_counter()
    min_passes = 1 if run.traced else WORKLOADS["paper"]["min_passes"]
    while len(passes) < min_passes or (
            not run.traced and time.perf_counter() - start < run.seconds):
        u = run.run(["paper"])
        passes.append(u)
        log("pass %d: repro_s %.3f" % (len(passes), u["repro_s"]))
    first = passes[0]
    log("paper_error_pct %.3f, modelled %.2f us/frame" % (
        first["paper_error_pct"], first["modelled_us"]))
    run.deterministic = paper_deterministic(first)
    repro_s = [u["repro_s"] for u in passes]
    if not run.traced:
        log("repro_s %.3f (median of %d passes)" % (median(repro_s), len(repro_s)))
        setups = [run.run(["paper", "--setup-only"]) for _ in range(SETUP_SAMPLES)]
        return {
            "setup_s": median([u["setup_s"] for u in setups + passes]),
            "p50_ms": 1e3 * median(repro_s),
            "tail_ms": 1e3 * tail(repro_s)[1],
            "modelled_us_per_frame": first["modelled_us"],
            "peak_rss_mb": median([u["peak_rss_mb"] for u in passes]),
        }
    traced = run.run(["paper"], run.trace_name("paper"))
    run.deterministic = paper_deterministic(traced)
    layers = compile_layers([traced])
    for name in ["table1", "table2", "fig9", "fig12", "claims"]:
        layers["study.%s_ms" % name] = ledger_sum([traced], "study." + name)
    layers["study.paper_error_pct"] = traced["paper_error_pct"]
    layers["trace.overhead_pct"] = 100.0 * ratio(traced["repro_s"] - repro_s[0], repro_s[0])
    return layers


def paper_deterministic(u):
    keys = ["gpu.cost_static", "gpu.launches", "gpu.h2d_bytes", "gpu.d2h_bytes",
            "analysis.kernels_checked"]
    return {
        "modelled_us": u["modelled_us"],
        "paper_error_pct": u["paper_error_pct"],
        "emit_bytes": u["emit_bytes"],
        "counts": {k: u["deltas"][k] for k in keys},
    }


def serve(run):
    spec = WORKLOADS["serve"]
    rate = spec["rate_hz"]
    seconds = max(run.seconds, spec["min_requests"] / rate)
    # Set-up (compiling and tuning both plans) is paid once per process,
    # so two fresh set-up-only processes sample it besides the main one.
    setups = [run.run(["serve", "--setup-only"]) for _ in range(2)]
    main = run.run(["serve", "--seconds", seconds, "--rate", rate],
                   run.trace_name("serve") if run.traced else None)
    # Request i went to stream i mod 4: streams 0 and 2 SAC, 1 and 3
    # Gaspard2.  NaN marks a request that did not complete.
    by_pipeline = {"sac": [], "gaspard": []}
    for i, x in enumerate(main["latency_ms"]):
        if x == x:
            by_pipeline["sac" if i % 2 == 0 else "gaspard"].append(x)
    lat = by_pipeline["sac"] + by_pipeline["gaspard"]
    # Half the requests are SAC (~3x slower than Gaspard2), so the
    # median of the mix falls in the gap between the two clusters.  Each
    # pipeline gets its own median and tail, and p50_ms / tail_ms are
    # their geometric means.
    p50 = geomean([median(xs) for xs in by_pipeline.values()])
    tail_v = geomean([tail(xs)[1] for xs in by_pipeline.values()])
    log("serve: %d requests at %.1f/s, %d completed, %d failed" % (
        main["requests"], rate, len(lat), main["failed_requests"]))
    for name, xs in sorted(by_pipeline.items()):
        pct, t = tail(xs)
        log("  %-7s p50 %.3f ms, p%d %.3f ms (%d samples)" % (
            name, median(xs), pct, t, len(xs)))
    pct, t = tail(lat)
    log("all requests: p50 %.3f ms, p%d %.3f ms (%d samples)" % (
        median(lat), pct, t, len(lat)))
    log("p50_ms %.3f, tail_ms %.3f, generator late p50 %.3f ms" % (
        p50, tail_v, median(main["late_ms"])))
    det_keys = ["gpu.launches", "gpu.h2d_bytes", "gpu.d2h_bytes"]
    setup_keys = ["optimizer.candidates", "optimizer.rules_applied",
                  "optimizer.verify_rejections", "gpu.cost_static"]
    run.deterministic = {
        "modelled_us": main["modelled_us"],
        "requests": main["requests"],
        "counts": {k: main["deltas"][k] for k in det_keys},
        "setup_counts": {k: main["setup_deltas"][k] for k in setup_keys},
    }
    # Each request counts as one operation, not the whole unit.
    run.requests = (main["requests"], main["failed_requests"])
    setup_s = [u["setup_s"] for u in setups + [main]]
    if not run.traced:
        return {
            "setup_s": median(setup_s),
            "p50_ms": p50,
            "tail_ms": tail_v,
            "modelled_us_per_frame": main["modelled_us"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
    layers = {}
    layers["sac_cuda.exec_ms"] = median(ledger_samples([main], "sac_cuda.exec"))
    layers["mde.run_ms"] = median(ledger_samples([main], "mde.run"))
    for k in ["optimizer.candidates", "optimizer.rules_applied",
              "optimizer.verify_rejections", "optimizer.plan_cache_hits",
              "optimizer.plan_cache_misses", "gpu.cost_static", "gpu.cost_hits",
              "analysis.kernels_checked"]:
        layers[k] = delta([main], k, "setup_deltas")
    layers["optimizer.apply_ratio"] = ratio(layers["optimizer.rules_applied"],
                                            layers["optimizer.candidates"])
    d = main["deltas"]
    for k in ["gpu.launches", "gpu.h2d_bytes", "gpu.d2h_bytes", "pool.tasks",
              "pool.helped_tasks", "serve.retries"]:
        layers[k] = d[k]
    for phase in ["execute", "queue_wait", "batch_gather"]:
        h = "serve.phase.%s_us" % phase
        layers["serve.%s_ms" % phase] = ratio(d[h + ".sum"], d[h + ".count"]) / 1e3
    layers["serve.batch_size"] = ratio(d["serve.batched_frames"], d["serve.batches"])
    layers["serve.queue_high_water"] = main["queue_high_water"]
    layers["loadgen.late_ms"] = tail(main["late_ms"])[1]
    add_gc(layers, [main])
    untraced = median([u["setup_s"] for u in setups])
    layers["trace.overhead_pct"] = 100.0 * ratio(main["setup_s"] - untraced, untraced)
    return layers


# ---------------------------------------------------------------------
# Per-layer ledger
# ---------------------------------------------------------------------

def add_gc(layers, units):
    layers["gc.minor_mwords"] = delta(units, "gc.minor_words") / 1e6
    layers["gc.major_mwords"] = delta(units, "gc.major_words") / 1e6
    layers["gc.major_collections"] = delta(units, "gc.major_collections")


def compile_layers(units):
    """Layers of traced compile units (tune) or paper passes."""
    sac = [u for u in units if "sac.parse" in u["ledger"]]
    layers = {
        "sac.parse_ms": ledger_sum(units, "sac.parse"),
        "sac.optimize_ms": ledger_sum(units, "sac.optimize"),
        "sac.wlf_rounds": total(sac, "wlf_rounds"),
        "sac.withloops_after": total(sac, "withloops_after"),
        "sac_cuda.plan_ms": ledger_sum(units, "sac_cuda.plan"),
        "sac_cuda.kernels": sum(u.get("kernels", 0) for u in sac),
        "sac_cuda.tune_ms": ledger_sum(units, "sac_cuda.tune"),
        "mde.tune_ms": ledger_sum(units, "mde.tune"),
        "arrayol.validate_ms": ledger_sum(units, "arrayol.validate"),
        "mde.transform_ms": ledger_sum(units, "mde.transform"),
        "mde.verify_ms": ledger_sum(units, "analysis.gate.mde"),
        "analysis.gate_ms": ledger_sum(units, "analysis.gate.sac")
        + ledger_sum(units, "analysis.gate.mde"),
        "emit.cuda_ms": ledger_sum(units, "emit.cuda"),
        "emit.opencl_ms": ledger_sum(units, "emit.opencl"),
        "emit.metal_ms": ledger_sum(units, "emit.metal"),
        "emit.bytes": total(units, "emit_bytes"),
        "gpu.static_cost_us": 1e3 * median(ledger_samples(units, "gpu.static_cost")),
    }
    for k in ["optimizer.candidates", "optimizer.rules_applied",
              "optimizer.verify_rejections", "optimizer.plan_cache_hits",
              "optimizer.plan_cache_misses", "gpu.cost_static", "gpu.cost_hits",
              "analysis.kernels_checked", "gpu.launches", "gpu.h2d_bytes",
              "gpu.d2h_bytes", "pool.tasks", "pool.helped_tasks"]:
        layers[k] = delta(units, k)
    layers["optimizer.apply_ratio"] = ratio(layers["optimizer.rules_applied"],
                                            layers["optimizer.candidates"])
    add_gc(layers, units)
    return layers


def search_layers(traced, redriven):
    """The re-driven search's breakdown, and how much of the measured
    tuning time (sac_cuda.tune_ms + mde.tune_ms) it accounts for."""
    real = ledger_sum(traced, "sac_cuda.tune") + ledger_sum(traced, "mde.tune")
    redriven_total = ledger_sum(redriven, "sac_cuda.tune") + ledger_sum(redriven, "mde.tune")
    layers = {
        "optimizer.apply_ms": ledger_sum(redriven, "optimizer.apply", "self_ms"),
        "optimizer.cost_ms": ledger_sum(redriven, "sac_cuda.cost", "self_ms")
        + ledger_sum(redriven, "mde.cost", "self_ms"),
        "optimizer.fingerprint_ms": ledger_sum(redriven, "optimizer.fingerprint", "self_ms"),
        "optimizer.moves_ms": ledger_sum(redriven, "optimizer.moves", "self_ms"),
        "optimizer.replay_ms": ledger_sum(redriven, "optimizer.replay", "self_ms"),
        "optimizer.search_ms": ledger_sum(redriven, "optimizer.search"),
        "optimizer.accounted_pct": 100.0 * ratio(redriven_total, real),
        "sac_cuda.cost_ms": median(ledger_samples(redriven, "sac_cuda.cost")),
        "mde.cost_ms": median(ledger_samples(redriven, "mde.cost")),
    }
    children = sum(layers[k] for k in ["optimizer.apply_ms", "optimizer.cost_ms",
                                       "optimizer.fingerprint_ms", "optimizer.moves_ms",
                                       "optimizer.replay_ms"])
    log("tuning: measured %.1f ms, re-driven %.1f ms (%.1f%%); children self "
        "apply %.1f + cost %.1f + fingerprint %.1f + moves %.1f + replay %.1f = %.1f ms"
        % (real, redriven_total, layers["optimizer.accounted_pct"],
           layers["optimizer.apply_ms"], layers["optimizer.cost_ms"],
           layers["optimizer.fingerprint_ms"], layers["optimizer.moves_ms"],
           layers["optimizer.replay_ms"], children))
    return layers


def geomean(xs):
    if not xs or min(xs) <= 0:
        return 0.0
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


# ---------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------

def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    # Self-test only: corrupt one output pixel, or one paper claim.
    ap.add_argument("--fault", choices=["pixel", "claim"], help=argparse.SUPPRESS)
    a = ap.parse_args(argv)
    global deadline
    try:
        build()
        deadline = time.monotonic() + RUN_DEADLINE_S
        run = Run(a.seed, a.seconds, a.trace == 1, a.fault)
        measured = {"tune": tune, "paper": paper, "serve": serve}[a.workload](run)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    failed_units = sum(1 for u in run.units if u["failures"])
    attempted = len(run.units)
    failed = failed_units + len(run.extra_failures)
    if run.requests is not None:
        # The serving unit stands for its requests: one operation each.
        requests, failed_requests = run.requests
        attempted += requests - 1
        failed += failed_requests - (1 if failed_requests else 0)
    for f in run.extra_failures:
        log("CHECK FAILED: " + f)
    log("error_rate %.4f (%d failed of %d attempted)" % (ratio(failed, attempted),
                                                        failed, attempted))
    log("deterministic: " + json.dumps(run.deterministic, sort_keys=True))
    spec = END_TO_END if a.trace == 0 else PER_LAYER
    names = {name for name, _ in spec}
    # Every end-to-end metric is measured by every workload; a per-layer
    # metric the workload does not exercise reads 0.
    wrong = set(measured) ^ names if a.trace == 0 else set(measured) - names
    if wrong:
        print("perfbench: measured metrics differ from the metric list: %s"
              % ", ".join(sorted(wrong)), file=sys.stderr)
        return 2
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in spec}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
