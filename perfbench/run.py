#!/usr/bin/env python3
"""Host-cost benchmark for NARMA (see perfbench/README.md).

Builds narma_perfbench from the checkout's sources, then runs one workload for
--seconds seconds as a series of repetitions, each in a fresh child process,
checks every repetition's result, and prints as its last stdout line one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload cholesky_na_16 --seed 1 --seconds 55 \
      --trace 0

--trace 0 reports the end-to-end metrics (medians over repetitions);
host times are scaled to a reference host speed (README.md, "Steadiness").
--trace 1 reports the per-layer metrics from a profiled pass, the per-layer
op-cost loops, and the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# tree_na_4096 is runnable but not listed in BENCHMARK.json: its host time
# swings up to 2x between minutes on a shared host, beyond what the
# calibrant corrects (README.md, "Workloads").
WORKLOADS = ("tree_na_4096", "cholesky_na_16", "stencil_na_ft_32")
DEFAULT_SEED = 1
REFERENCE = os.path.join(HERE, "reference.json")
MIN_REPS = 5          # a median needs a few samples even on a short run
CHILD_TIMEOUT_S = 150  # one repetition; far above any workload's wall time
# Host times are reported at a reference host speed: each is scaled by
# REF_CALIBRANT_NS / (narma_perfbench's memory probe, timed right before
# and after the measured child). See README.md, "Steadiness".
REF_CALIBRANT_NS = 75e6

# Profiler self times (the obs.phase_* gauges) -> per-layer metric names.
PHASES = {
    "sim.engine_pop_s": "obs.phase_engine_pop_ns",
    "sim.callback_s": "obs.phase_callback_ns",
    "sim.rank_exec_s": "obs.phase_rank_exec_ns",
    "core.match_s": "obs.phase_match_ns",
    "net.transfer_s": "obs.phase_transfer_ns",
    "apps.compute_s": "obs.phase_app_compute_ns",
}
# The obs phase itself is not reported as a time: with no recorder or
# msgtrace on it is 0 in every run. It still counts toward coverage.
OBS_PHASE = "obs.phase_obs_ns"
# Benchmark-side spans around the public entry points.
SPANS = {
    "world.ctor_s": "ctor_ns",
    "sim.fiber_start_s": "fiber_start_ns",
    "sim.fiber_reap_s": "fiber_reap_ns",
    "world.dtor_s": "dtor_ns",
}
# Exact work counts from the metrics registry.
COUNTS = {
    "sim.events": "sim.events_executed",
    "sim.events_posted": "sim.events_posted",
    "sim.event_pool_oversize": "sim.event_pool_oversize",
    "net.fma_ops": "net.fma_ops",
    "net.bte_ops": "net.bte_ops",
    "net.shm_ops": "net.shm_ops",
    "net.retries": "net.retries",
    "na.tests": "na.tests",
    "na.matches": "na.matches",
    "na.uq_inserts": "na.uq_inserts",
    "mp.sends_eager": "mp.sends_eager",
    "mp.sends_rdzv": "mp.sends_rdzv",
    "rma.flushes": "rma.flushes",
    "ft.ckpts": "ft.ckpts",
    "ft.ckpt_bytes": "ft.ckpt_bytes",
    "ft.replay_applied": "ft.replay_applied",
    "obs.registry_bytes": "obs.registry_bytes",
}
# Host ns/op of one public call per layer (narma_perfbench "ops" mode).
OP_COSTS = {
    "net.reserve_transfer_ns": "reserve_transfer_ns",
    "core.match_hit_ns": "match_hit_ns",
    "core.match_miss_ns": "match_miss_ns",
    "rma.put_flush_ns": "put_flush_ns",
    "mp.send_eager_ns": "send_eager_ns",
    "mp.send_rdzv_ns": "send_rdzv_ns",
    "ft.ckpt_round_ns": "ckpt_round_ns",
}
COUNT_UNITS = {"ft.ckpt_bytes": "B", "obs.registry_bytes": "B"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           ".bench_build")


def build():
    """Configures and builds narma_perfbench; returns its path."""
    out = build_dir()
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "narma_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "narma_perfbench")


def run_child(exe, args):
    """Runs narma_perfbench once; returns its JSON object, or None on
    failure."""
    try:
        p = subprocess.run([exe] + args, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("repetition timed out: %s" % " ".join(args))
        return None
    if p.returncode != 0:
        log("repetition failed (exit %d): %s\n%s" %
            (p.returncode, " ".join(args), p.stderr[-2000:]))
        return None
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("unparsable narma_perfbench output: %r" % p.stdout[-500:])
        return None


def check_rep(rep, workload, seed, reference):
    """Returns the list of reasons a repetition's result is wrong."""
    errs = []
    if rep is None:
        return ["no result"]
    if not rep.get("verified"):
        errs.append("app did not verify")
    if workload == "stencil_na_ft_32":
        if rep.get("fails") != 1 or rep.get("journal_fail") != 1:
            errs.append("expected exactly one fail-stop")
        if rep.get("recovered") != 1 or rep.get("journal_rejoin") != 1:
            errs.append("victim did not recover and rejoin")
        if rep.get("victim") != rep.get("planned_victim"):
            errs.append("victim %s is not the planned %s" %
                        (rep.get("victim"), rep.get("planned_victim")))
    if seed == reference["seed"]:
        want = reference["virtual_ps"][workload]
        if rep.get("virtual_ps") != want:
            errs.append("virtual time %s ps != pinned %s ps" %
                        (rep.get("virtual_ps"), want))
    return errs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def calibrant(exe):
    """Host ns of narma_perfbench's fixed memory probe (raises if it
    fails)."""
    res = run_child(exe, ["calib"])
    if res is None:
        raise OSError("the host-speed calibrant did not run")
    return res["calibrant_ns"]


def calibrated(exe, args, cal_before):
    """Runs narma_perfbench with `args` and times the calibrant after it.
    Returns (result or None, calibrant after); a result gets "speed", the
    factor that scales its host times to the reference host speed."""
    res = run_child(exe, args)
    cal_after = calibrant(exe)
    if res is not None:
        res["speed"] = REF_CALIBRANT_NS / ((cal_before + cal_after) / 2)
    return res, cal_after


def repetitions(exe, workload, seed, seconds, reference, profile_pattern,
                cal):
    """Runs repetitions for `seconds` (and at least MIN_REPS per profile
    setting); a repetition that would end past the window is not started.
    profile_pattern cycles the profile flag per repetition; `cal` is the
    calibrant time just before the first. Returns (reps by flag, attempted,
    failed)."""
    reps = {flag: [] for flag in set(profile_pattern)}
    attempted = failed = 0
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        per_rep = elapsed / attempted if attempted else 0.0
        enough = min(len(v) for v in reps.values()) >= MIN_REPS
        if enough and elapsed + per_rep > seconds:
            break
        if not enough and elapsed >= seconds and (
                attempted >= 2 * MIN_REPS * len(profile_pattern)):
            break  # repetitions keep failing; report what was seen
        flag = profile_pattern[attempted % len(profile_pattern)]
        rep, cal = calibrated(exe, ["rep", workload, str(seed), flag], cal)
        attempted += 1
        errs = check_rep(rep, workload, seed, reference)
        if errs:
            failed += 1
            log("repetition %d failed: %s" % (attempted, "; ".join(errs)))
        if rep is not None:
            reps[flag].append(rep)
    return reps, attempted, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reps):
    """Median end-to-end metrics. Quartiles, and the raw (unscaled) median
    of each host time, are logged beside them."""
    out = {}
    for name, key in (("wall_s", "wall_ns"), ("setup_s", "setup_ns"),
                      ("run_s", "run_ns")):
        vals = [r[key] * r["speed"] / 1e9 for r in reps]
        q1, med, q3 = quartiles(vals)
        raw = statistics.median(r[key] / 1e9 for r in reps)
        print("%-14s median %.6g s  q1 %.6g  q3 %.6g  raw %.6g s  (n=%d)" %
              (name, med, q1, q3, raw, len(vals)))
        out[name] = metric(med, "s")
    q1, med, q3 = quartiles([r["peak_rss_kb"] / 1024.0 for r in reps])
    print("%-14s median %.6g MiB  q1 %.6g  q3 %.6g  (n=%d)" %
          ("peak_rss_mib", med, q1, q3, len(reps)))
    out["peak_rss_mib"] = metric(med, "MiB")
    return out


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def scaled_s(reps, key):
    """Median of a host-time field (ns), at reference speed, in seconds."""
    return statistics.median(r[key] * r["speed"] for r in reps) / 1e9


def per_layer(traced, plain, ops):
    # Registry values of each traced repetition, with its host speed.
    reg = [dict(r["registry"], speed=r["speed"]) for r in traced]
    out = {}
    for name, key in SPANS.items():
        out[name] = metric(scaled_s(traced, key), "s")
    for name, key in PHASES.items():
        out[name] = metric(scaled_s(reg, key), "s")
    out["obs.unattributed_s"] = metric(
        scaled_s(reg, "obs.profile_unattributed_ns"), "s")
    out["obs.phase_coverage"] = metric(statistics.median(
        (sum(r[k] for k in PHASES.values()) + r[OBS_PHASE]) /
        r["obs.profile_total_ns"]
        for r in reg), "ratio")
    for name, key in COUNTS.items():
        out[name] = metric(median_of(reg, key),
                           COUNT_UNITS.get(name, "count"))
    tests = median_of(reg, "na.tests")
    out["na.match_hit_ratio"] = metric(
        median_of(reg, "na.matches") / tests if tests else 0.0, "ratio")
    out["sim.host_ns_per_event"] = metric(statistics.median(
        r["obs.profile_total_ns"] * r["speed"] / r["sim.events_executed"]
        for r in reg), "ns/event")
    out["trace_overhead"] = metric(
        scaled_s(traced, "run_ns") / scaled_s(plain, "run_ns"), "ratio")
    for name, key in OP_COSTS.items():
        out[name] = metric(ops[key] * ops["speed"], "ns")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    with open(REFERENCE) as f:
        reference = json.load(f)

    exe = build()
    window_start = time.monotonic()
    print("workload %s seed %d trace %d" %
          (args.workload, args.seed, args.trace))
    cal = calibrant(exe)
    ops = None
    if args.trace:
        ops, cal = calibrated(exe, ["ops", args.workload], cal)
        if ops is None:
            return 1
        print("ops " + json.dumps(ops))
        pattern = ["1", "0"]
    else:
        pattern = ["0"]
    # Calibration and a traced run's op-cost loops count against the
    # window.
    remaining = args.seconds - (time.monotonic() - window_start)
    reps, attempted, failed = repetitions(
        exe, args.workload, args.seed, remaining, reference, pattern, cal)
    if any(not v for v in reps.values()):
        log("no repetition produced a result")
        return 1
    first = reps[pattern[0]][0]
    print("inputs " + json.dumps(
        {k: first[k] for k in ("seed", "matrix_seed", "fault_seed",
                               "planned_victim") if k in first}))
    vus = sorted({r["virtual_ps"] / 1e6 for v in reps.values() for r in v})
    print("virtual_us %s" % " ".join("%.6f" % v for v in vus))
    if args.trace:
        metrics = per_layer(reps["1"], reps["0"], ops)
    else:
        metrics = end_to_end(reps["0"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
