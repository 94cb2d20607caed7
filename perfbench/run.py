#!/usr/bin/env python3
"""Build and run the end-to-end pipeline benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the engine from ../src) with CMake into
$CARGO_TARGET_DIR, or .bench_build at the checkout root. A run is a set of
phases, each a fresh plan in its own process (src/main.cc):

  --trace 0: 5 paced phases and 7 saturation rounds (3 larger ones on
             feedback_gate), alternating, then set-up-only phases up to 9
             set-ups; every end-to-end metric is the median over its phases.
  --trace 1: 3 untraced saturation rounds, one traced saturation round,
             one traced paced phase, one untraced round on a single worker
             and one untraced paced phase; prints the per-layer metrics.

Build output and diagnostics go to stderr. Stdout ends with two lines:
the host facts, then the result object. Exits non-zero when the build or
a phase fails to run; a phase whose output is wrong still exits 0 with
"correct": false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170  # the whole run, build excluded

POOL = 2
PACED_PHASES = 5
# feedback_gate's saturation only settles on larger inputs (late feedback
# piles up guards, so a round slows as it goes), so it takes fewer, larger
# rounds in the same share of the run.
SATURATION_ROUNDS = {"feedback_gate": 3}
DEFAULT_SATURATION_ROUNDS = 7
MIN_SETUPS = 9
PACED_SHARE = 0.55  # of --seconds, split over the paced phases
SATURATION_SHARE = 0.35  # of --seconds, split over the saturation rounds

# Per-layer metrics: (name, unit), taken from the traced saturation round,
# then those only the traced paced phase measures.
SATURATION_LAYER = [
    ("ingest.produce_s", "s"), ("ingest.ns_per_tuple", "ns"),
    ("ingest.frames_in", "count"), ("ingest.bytes_in", "bytes"),
    ("ingest.backpressure_pauses", "count"), ("ingest.quarantined", "count"),
    ("exec.slices", "count"), ("exec.wakes_delivered", "count"),
    ("exec.wakes_coalesced", "count"), ("exec.requeues", "count"),
    ("exec.tuples_per_slice", "count"), ("exec.worker_busy_frac", "fraction"),
    ("exec.unattributed_cpu_s", "s"), ("ops.exchange.busy_s", "s"),
    ("ops.exchange.skew", "ratio"), ("ops.join.busy_s", "s"),
    ("ops.join.busy_max_s", "s"), ("ops.join.joined", "count"),
    ("ops.join.gate_feedbacks", "count"), ("ops.merge.busy_s", "s"),
    ("ops.merge.coalesced_puncts", "count"), ("ops.agg.busy_s", "s"),
    ("ops.agg.updates", "count"), ("ops.sink.busy_s", "s"),
    ("ops.sink.results", "count"), ("core.feedback_s", "s"),
    ("core.guards_peak", "count"), ("core.drops_exchange", "count"),
    ("core.drops_admission", "count"), ("core.saved_per_feedback", "ratio"),
    ("gen.cpu_frac", "fraction"), ("gen.send_blocked_s", "s"),
    ("trace.coverage", "fraction"),
]
PACED_LAYER = [
    ("ingest.feedback_frames_out", "count"), ("ingest.feedback_dropped", "count"),
    ("stream.hop_edge_ms", "ms"), ("stream.hop_exchange_ms", "ms"),
    ("stream.hop_join_ms", "ms"), ("stream.hop_merge_ms", "ms"),
    ("stream.hop_agg_ms", "ms"), ("core.feedback_delay_p50_ms", "ms"),
    ("gen.lag_p99_ms", "ms"), ("gen.drops_producer", "count"),
]


class PhaseError(Exception):
    pass


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "pipeline_bench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "pipeline_bench")


class Runner:
    def __init__(self, binary, args):
        self.binary = binary
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.phases = []

    def phase(self, kind, seed, seconds, pool=POOL, trace=0, corrupt=0):
        cmd = [self.binary, "--workload", self.args.workload, "--seed", str(seed),
               "--phase", kind, "--seconds", repr(seconds), "--pool", str(pool),
               "--trace", str(trace), "--corrupt-result", str(corrupt)]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise PhaseError("out of time before the %s phase" % kind)
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=left)
        except subprocess.TimeoutExpired:
            raise PhaseError("%s phase timed out" % kind)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise PhaseError("%s phase exited with %d" % (kind, proc.returncode))
        p = json.loads(lines[-1])
        if p["failures"] > 0 or not p["valid"]:
            print("perfbench: %s phase (seed %d): %s" % (kind, seed, p["note"]),
                  file=sys.stderr)
        self.phases.append(p)
        return p

    def seed(self, kind, i):
        # Every phase gets its own input, derived from --seed alone.
        return self.args.seed * 64 + {"paced": 0, "saturation": 16, "setup": 32,
                                      "traced": 48}[kind] + i

    def verdict(self):
        correct = all(p["failures"] == 0 and p["valid"] for p in self.phases)
        attempted = int(sum(p["attempts"] for p in self.phases))
        failed = int(sum(p["failures"] for p in self.phases))
        return correct, max(1, attempted), failed


def median(phases, key):
    return statistics.median(p[key] for p in phases)


def saturation_rounds(workload):
    return SATURATION_ROUNDS.get(workload, DEFAULT_SATURATION_ROUNDS)


def untraced(r, seconds):
    rounds = saturation_rounds(r.args.workload)
    paced_s = PACED_SHARE * seconds / PACED_PHASES
    round_s = SATURATION_SHARE * seconds / rounds
    # Alternate the two kinds so a slow spell on the host lands on both
    # rather than on every phase of one.
    paced, sat = [], []
    for i in range(max(PACED_PHASES, rounds)):
        if i < PACED_PHASES:
            paced.append(r.phase("paced", r.seed("paced", i), paced_s))
        if i < rounds:
            sat.append(r.phase("saturation", r.seed("saturation", i), round_s))
    i = 0
    while len(r.phases) < MIN_SETUPS:
        r.phase("setup", r.seed("setup", i), 0)
        i += 1
    metrics = [
        ("tuples_per_s", median(sat, "tuples_per_s"), "1/s"),
        ("latency_p50_ms", median(paced, "latency_p50_ms"), "ms"),
        ("work_done_frac", median(paced, "work_done_frac"), "fraction"),
        ("peak_rss_mb", median(paced, "peak_rss_mb"), "MB"),
        ("setup_s", median(r.phases, "setup_s"), "s"),
    ]
    facts = {"paced_rate": paced[0]["paced_rate"], "paced_phases": PACED_PHASES,
             "latency_samples_per_phase": min(p["latency_samples"] for p in paced)}
    return metrics, facts


def traced(r, seconds):
    paced_s = PACED_SHARE * seconds / PACED_PHASES
    round_s = SATURATION_SHARE * seconds / saturation_rounds(r.args.workload)
    base = [r.phase("saturation", r.seed("saturation", i), round_s) for i in range(3)]
    untraced_tps = median(base, "tuples_per_s")
    sat = r.phase("saturation", r.seed("traced", 0), round_s, trace=1,
                  corrupt=r.args.corrupt_result)
    paced = r.phase("paced", r.seed("traced", 1), paced_s, trace=1)
    pool1 = r.phase("saturation", r.seed("saturation", 0), round_s, pool=1)
    # p99 is dominated by host stalls (see METRICS.md), so it is reported
    # here, from an untraced paced phase, rather than gated.
    tail = r.phase("paced", r.seed("paced", 0), paced_s)
    _, attempted, failed = r.verdict()
    metrics = [(m, sat["layer"][m], u) for m, u in SATURATION_LAYER]
    metrics += [(m, paced["layer"][m], u) for m, u in PACED_LAYER]
    metrics += [
        ("exec.pool1_tuples_per_s", pool1["tuples_per_s"], "1/s"),
        ("exec.parallel_speedup", untraced_tps / pool1["tuples_per_s"], "ratio"),
        ("trace.overhead_frac", 1.0 - sat["tuples_per_s"] / untraced_tps, "fraction"),
        ("work_saved_frac", paced["work_saved_frac"], "fraction"),
        ("failed_frac", failed / attempted, "fraction"),
        ("latency_p99_ms", tail["latency_p99_ms"], "ms"),
        ("latency_samples", tail["latency_samples"], "count"),
        ("host.online_cpus", paced["online_cpus"], "count"),
        ("host.pool_size", POOL, "count"),
        ("host.seed", r.args.seed, "count"),
    ]
    return metrics, {"paced_rate": paced["paced_rate"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-result", type=int, choices=(0, 1), default=0,
                    help="self-test: tamper with one sink result")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    r = Runner(binary, args)
    try:
        if args.trace:
            metrics, facts = traced(r, args.seconds)
        else:
            if args.corrupt_result:
                r.phase("saturation", r.seed("saturation", 99), 0.5, corrupt=1)
            metrics, facts = untraced(r, args.seconds)
    except PhaseError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    correct, attempted, failed = r.verdict()
    facts.update({"workload": args.workload, "seed": args.seed, "pool_size": POOL,
                  "online_cpus": r.phases[0]["online_cpus"],
                  "generator_pinned": r.phases[0]["generator_pinned"]})
    print(json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
