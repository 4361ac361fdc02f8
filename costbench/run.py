#!/usr/bin/env python3
"""Simulator cost benchmark: host time, events and allocations per simulated
request, with a per-layer split.

    python3 costbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds costbench/ (the simulator libraries,
the ntier_run reference CLI and the costbench repetition binary) into
.bench_build/costbench, then:

  1. runs one repetition that also writes the replay trace (if any), then the
     reference `ntier_run <flags> --json` once;
  2. keeps running repetitions, each in its own process, until S seconds of
     measuring are used (at least MIN_REPS). With --trace 1 untraced and
     SIGPROF-sampled repetitions alternate;
  3. checks every repetition (accounting identities, summary bytes equal to
     the reference, deterministic counts equal across repetitions);
  4. prints context lines, then one JSON line: end-to-end metrics with
     --trace 0, per-layer metrics with --trace 1.

Workloads, metrics and the layer-to-end-to-end mapping are documented in
costbench/README.md. `--print-benchmark-json` prints the BENCHMARK.json this
file defines.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BUILD = REPO / ".bench_build" / "costbench"
WORK = BUILD / "work"
BENCH_BIN = BUILD / "costbench"
NTIER_RUN = BUILD / "ntier_run"

RUN_SECONDS = 20
# Host times are reported at a reference host speed: each repetition times a
# fixed calibration burst (calibration.h) after every simulated 100 ms, and
# a host time t measured while a burst took c microseconds is reported as
# t * CALIBRATION_REF_US / c. CALIBRATION_REF_US is a fixed constant, the
# typical burst on the host the benchmark was defined on (README.md), so
# the reported times read as that host's seconds and stay comparable when
# the machine runs faster or slower than usual.
CALIBRATION_REF_US = 180.0
DEFAULT_SEED = 42
# Seed kept out of all tuning; use it to confirm a claimed change.
HELD_OUT_SEED = 1729
MIN_REPS = 3
PER_PROCESS_TIMEOUT_S = 150

REPLAY_CSV = WORK / "replay_flash_day.csv"

# name -> why (one line, mirrored into BENCHMARK.json), ntier_run flags
# (--seed is appended), and the trace the benchmark generates for replay.
WORKLOADS = {
    "fig6_baseline": {
        "why": "Paper Fig. 6 / Table I: closed loop, 7000 clients, total_request"
               " + blocking, pdflush; sim/server/lb/os kernel, VLRT retransmits",
        "flags": [],
        "trace_gen": None,
    },
    "kv_cache_stack": {
        "why": "KV tier + look-aside cache (read_write), prequal, telemetry,"
               " detection, overload full, resilience, recovery: the only"
               " workload using those layers",
        "flags": ["--db-tier", "kv", "--kv-millibottlenecks", "--cache-tier",
                  "--mix", "read_write", "--policy", "prequal", "--telemetry",
                  "--detect", "--overload", "full", "--resilience",
                  "--recovery", "on"],
        "trace_gen": None,
    },
    "replay_flash_day": {
        "why": "Open-loop replay of a generated 60 s day with a 2x flash crowd"
               " (current_load + modified): set-up cost of trace gen/save/parse",
        "flags": ["--policy", "current_load", "--mechanism", "modified",
                  "--replay-trace", str(REPLAY_CSV),
                  "--replay-timeout-ms", "5000"],
        "trace_gen": "seed={seed},duration=60,base-rps=8000,"
                     "diurnal-amplitude=0.3,flash-at=30,flash-duration=5,"
                     "flash-multiplier=2",
    },
}

# Paper Table I row for the fig6_baseline configuration (reported, not gated).
PAPER_TABLE1 = {"mean_rt_ms": 41.00, "vlrt_pct": 5.33}

# name -> (unit, bound). Every end-to-end metric is host cost: lower is better.
# Host times get the widest bound: even calibrated they move by several
# percent between runs on a shared host, while the deterministic counts
# gate small regressions tightly.
END_TO_END = {
    "setup_s": ("s", 0.25),
    "run_s": ("s", 0.25),
    "ns_per_request": ("ns", 0.25),
    "ns_per_event": ("ns", 0.25),
    "slice_ms.p50": ("ms", 0.25),
    "slice_ms.p98": ("ms", 0.25),
    "events_per_request": ("count", 0.03),
    "allocs_per_request": ("count", 0.03),
    "peak_rss_mb": ("MiB", 0.1),
}

# Layers of the sampled split: the src/ modules, plus allocation and
# std::function machinery and the unattributed rest.
SAMPLED_LAYERS = ["sim", "std_function", "alloc", "os", "lb", "net", "server",
                  "experiment", "metrics", "workload", "probe", "kv", "cache",
                  "obs", "control", "millib", "recovery", "proto", "other"]

# name -> (unit, better)
PER_LAYER = {f"{layer}.self_share": ("share", "lower") for layer in SAMPLED_LAYERS}
PER_LAYER.update({
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.samples": ("count", "higher"),
    "sim.events_scheduled_per_request": ("count", "lower"),
    "sim.cancel_ratio": ("share", "lower"),
    "alloc.setup_count": ("count", "lower"),
    "os.tomcat_stall_s": ("s", "lower"),
    "os.cpu_work_core_s": ("s", "lower"),
    "lb.first_attempts": ("count", "lower"),
    "lb.retries": ("count", "lower"),
    "lb.balancer_errors": ("count", "lower"),
    "net.syn_drops": ("count", "lower"),
    "net.connection_drops": ("count", "lower"),
    "server.tomcat_served": ("count", "higher"),
    "server.db_queries_routed": ("count", "higher"),
    "server.connector_drops": ("count", "lower"),
    "experiment.build_s": ("s", "lower"),
    "experiment.summarize_ms": ("ms", "lower"),
    "workload.issued": ("count", "higher"),
    "workload.trace_gen_s": ("s", "lower"),
    "workload.trace_save_s": ("s", "lower"),
    "workload.trace_parse_s": ("s", "lower"),
    "workload.trace_rows": ("count", "higher"),
    "probe.probes_per_request": ("count", "lower"),
    "probe.piggybacked": ("count", "higher"),
    "kv.ops": ("count", "higher"),
    "kv.quorum_failed": ("count", "lower"),
    "cache.lookups": ("count", "higher"),
    "cache.hit_ratio": ("share", "higher"),
    "cache.invalidations_sent": ("count", "lower"),
    "cache.coalesced_fills": ("count", "higher"),
    "obs.events_emitted_per_request": ("count", "lower"),
    "control.sheds": ("count", "lower"),
    "control.admitted": ("count", "higher"),
    "millib.online_episodes": ("count", "higher"),
    "millib.windows_evaluated": ("count", "higher"),
    "recovery.interventions": ("count", "lower"),
    "recovery.ticks": ("count", "higher"),
})

# Counts that must repeat exactly across repetitions of one workload + seed.
DETERMINISTIC = ["events_executed", "events_scheduled", "run_allocations",
                 "issued", "setup_allocations", "trace_rows", "layers"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def benchmark_json():
    return {
        "command": ["python3", "costbench/run.py"],
        "paths": ["costbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, (u, b) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b) in PER_LAYER.items()],
    }


def build():
    """Configure (once) and build; exits 1 without a result on failure."""
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        log("costbench: simulator sources (src/) not found next to costbench/")
        sys.exit(1)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit(1)
    WORK.mkdir(parents=True, exist_ok=True)


def run_process(cmd, timeout):
    """Run one child to completion; (stdout, error or None)."""
    try:
        p = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        return "", f"timed out after {timeout:.0f} s: {cmd[0]}"
    if p.returncode != 0:
        return p.stdout, f"exit {p.returncode}: {p.stderr.strip()[-500:]}"
    return p.stdout, None


def repetition(name, seed, index, traced, timeout):
    w = WORKLOADS[name]
    summary = WORK / f"{name}.rep{index}.json"
    cmd = [str(BENCH_BIN), "--summary-out", str(summary)]
    if traced:
        cmd.append("--traced")
    if w["trace_gen"]:
        cmd += ["--trace-gen", w["trace_gen"].format(seed=seed)]
        if index == 0:
            cmd.append("--write-trace")
    cmd += ["--"] + w["flags"] + ["--seed", str(seed)]
    out, err = run_process(cmd, timeout)
    rep = {"traced": traced, "error": err}
    if err is None:
        try:
            rep.update(json.loads(out.strip().splitlines()[-1]))
            rep["summary"] = summary.read_bytes()
        except (ValueError, IndexError, OSError) as e:
            rep["error"] = f"unreadable repetition output: {e}"
    return rep


def reference_summary(name, seed, timeout):
    """The unmodified CLI's summary JSON for the same flags and seed."""
    path = WORK / f"{name}.reference.json"
    path.unlink(missing_ok=True)
    cmd = ([str(NTIER_RUN)] + WORKLOADS[name]["flags"] +
           ["--seed", str(seed), "--quiet", "--json", str(path)])
    _, err = run_process(cmd, timeout)
    if err is not None:
        return None, err
    return path.read_bytes(), None


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def percentile(sorted_values, q):
    """Nearest-rank percentile (q in 0..100) of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def check(reps, reference):
    """Mark each repetition's failure reason (None when it passed)."""
    base = next((r for r in reps if r["error"] is None), None)
    for r in reps:
        if r["error"] is not None:
            r["failure"] = r["error"]
        elif r["broken_identities"]:
            r["failure"] = "identity: " + r["broken_identities"]
        elif reference is None:
            r["failure"] = "no reference summary"
        elif r["summary"] != reference:
            r["failure"] = (f"summary digest {digest(r['summary'])} != "
                            f"reference {digest(reference)}")
        elif any(r[k] != base[k] for k in DETERMINISTIC):
            r["failure"] = "deterministic counts differ between repetitions: " + \
                ", ".join(k for k in DETERMINISTIC if r[k] != base[k])
        else:
            r["failure"] = None


def speed_scale(rep):
    """Reference-speed factor for host times measured during the run: the
    slice-time-weighted mean of CALIBRATION_REF_US / burst."""
    slices, bursts = rep["slices_ms"], rep["calibration_us"]
    return (CALIBRATION_REF_US * sum(s / c for s, c in zip(slices, bursts)) /
            sum(slices))


def scaled_run_s(rep):
    return rep["run_s"] * speed_scale(rep)


def scaled_setups(reps, key):
    """Every set-up's `key` time, scaled by the median of the bursts timed
    around that repetition's set-ups."""
    return [t * CALIBRATION_REF_US / statistics.median(r["setup_calibration_us"])
            for r in reps for t in r[key]]


def end_to_end(reps):
    plain = [r for r in reps if not r["traced"]]
    # Each simulated 100 ms does the same work in every repetition, so the
    # median over repetitions per slice drops host hiccups and keeps the
    # slices that millibottleneck episodes make heavy.
    per_rep = [[s * CALIBRATION_REF_US / c
                for s, c in zip(r["slices_ms"], r["calibration_us"])]
               for r in plain]
    slices = sorted(statistics.median(column) for column in zip(*per_rep))
    r0 = reps[0]
    return {
        "setup_s": statistics.median(scaled_setups(reps, "setup_s")),
        "run_s": statistics.median(scaled_run_s(r) for r in plain),
        "ns_per_request": statistics.median(
            scaled_run_s(r) * 1e9 / r["issued"] for r in plain),
        "ns_per_event": statistics.median(
            scaled_run_s(r) * 1e9 / r["events_executed"] for r in plain),
        "slice_ms.p50": percentile(slices, 50),
        "slice_ms.p98": percentile(slices, 98),
        "events_per_request": r0["events_executed"] / r0["issued"],
        "allocs_per_request": r0["run_allocations"] / r0["issued"],
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024,
    }, len(slices), len(plain)


def per_layer(reps):
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    # Samples in the benchmark's own checkpoint and calibration code are
    # left out, so the shares split the simulator's run time.
    samples = {layer: 0 for layer in SAMPLED_LAYERS}
    for r in traced:
        for layer, n in r["samples"].items():
            if layer != "bench":
                samples[layer if layer in samples else "other"] += n
    total = sum(samples.values())
    r0 = reps[0]
    scaled = lambda key: statistics.median(scaled_setups(reps, key))
    run_s = lambda group: statistics.median(scaled_run_s(r) for r in group)
    out = {f"{layer}.self_share": n / total if total else 0.0
           for layer, n in samples.items()}
    out.update({
        "trace.overhead_ratio": run_s(traced) / run_s(plain),
        "trace.samples": total,
        "sim.events_scheduled_per_request":
            r0["events_scheduled"] / r0["issued"],
        "sim.cancel_ratio":
            (r0["events_scheduled"] - r0["events_executed"]) /
            r0["events_scheduled"],
        "alloc.setup_count": r0["setup_allocations"],
        "experiment.build_s": scaled("build_s"),
        "experiment.summarize_ms": statistics.median(
            r["summarize_ms"] * speed_scale(r) for r in reps),
        "workload.trace_gen_s": scaled("trace_gen_s"),
        "workload.trace_save_s": scaled("trace_save_s"),
        "workload.trace_parse_s": scaled("trace_parse_s"),
        "workload.trace_rows": r0["trace_rows"],
    })
    out.update(r0["layers"])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; "
                         f"{HELD_OUT_SEED} is held out to confirm claims)")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--print-benchmark-json", action="store_true")
    args = ap.parse_args()
    if args.print_benchmark_json:
        print(json.dumps(benchmark_json(), indent=2))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    build()
    started = time.monotonic()
    limit = lambda: max(10.0, PER_PROCESS_TIMEOUT_S - (time.monotonic() - started))

    # Repetition 0 also writes the replay input the reference needs.
    reps = [repetition(args.workload, args.seed, 0, False, limit())]
    reference, ref_err = reference_summary(args.workload, args.seed, limit())
    measure_start = time.monotonic()
    deadline = measure_start + args.seconds
    last = reps[0].get("run_s", 0.0) + 0.5
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        now = time.monotonic()
        if len(reps) >= MIN_REPS + args.trace and now + last > deadline:
            break
        # On a very slow host, stop early rather than overrun the time limit.
        if len(reps) > args.trace and now + last > started + PER_PROCESS_TIMEOUT_S:
            break
        t = time.monotonic()
        reps.append(repetition(args.workload, args.seed, len(reps), traced,
                               limit()))
        last = time.monotonic() - t

    check(reps, reference)
    failed = [r for r in reps if r["failure"]]
    good = [r for r in reps if not r["failure"]]
    for r in failed:
        log("costbench: repetition failed:", r["failure"])
    if ref_err:
        log("costbench: reference run failed:", ref_err)

    r0 = good[0] if good else None
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions "
          f"({sum(r['traced'] for r in reps)} traced), {len(failed)} failed")
    if r0:
        print("fingerprint", json.dumps(r0["fingerprint"], sort_keys=True))
        print(f"summary_digest {digest(r0['summary'])} "
              f"(byte-identical to ntier_run --json: "
              f"{all(r['summary'] == reference for r in good)})")
        layers = r0["layers"]
        print(f"model output: {layers['workload.issued']:.0f} requests issued, "
              f"{layers['control.sheds']:.0f} shed, "
              f"{layers['recovery.interventions']:.0f} recovery interventions")
        mean_rt, vlrt_pct = r0["mean_rt_ms"], 100 * r0["vlrt_fraction"]
        if args.workload == "fig6_baseline":
            print(f"model reference: mean RT {mean_rt:.2f} ms, VLRT "
                  f"{vlrt_pct:.2f}% vs paper Table I total_request + blocking "
                  f"{PAPER_TABLE1['mean_rt_ms']:.2f} ms, "
                  f"{PAPER_TABLE1['vlrt_pct']:.2f}% (reported, not gated)")
        else:
            print(f"model reference: mean RT {mean_rt:.2f} ms, VLRT "
                  f"{vlrt_pct:.2f}%; no published reference for this "
                  f"workload (unvalidated)")

    metrics = {}
    plain_ok = any(not r["traced"] for r in good)
    traced_ok = any(r["traced"] for r in good)
    if plain_ok:
        plain = [r for r in good if not r["traced"]]
        bursts = statistics.median(c for r in plain for c in r["calibration_us"])
        print(f"host speed: calibration burst median {bursts:.1f} us "
              f"(reference {CALIBRATION_REF_US:.0f} us); unscaled run_s median "
              f"{statistics.median(r['run_s'] for r in plain):.4f} s")
    if args.trace == 0 and plain_ok:
        values, n_slices, n_reps = end_to_end(good)
        print(f"slice_ms samples: {n_slices} slices, each the median of "
              f"{n_reps} repetitions (p98 has "
              f"{n_slices - -(-n_slices * 98 // 100)} beyond it)")
        metrics = {n: {"value": values[n], "unit": END_TO_END[n][0]}
                   for n in END_TO_END}
    elif args.trace == 1 and plain_ok and traced_ok:
        values = per_layer(good)
        print(f"sampled {values['trace.samples']} simulator samples; "
              f"{sum(r['samples'].get('bench', 0) for r in good if r['traced'])}"
              f" more in the benchmark's checkpoints and calibration")
        metrics = {n: {"value": values[n], "unit": PER_LAYER[n][0]}
                   for n in PER_LAYER}
    print(json.dumps({"correct": not failed and bool(metrics),
                      "attempted": len(reps), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
