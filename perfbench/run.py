#!/usr/bin/env python3
"""The icm benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload <paper-suite|fleet-endurance|daemon-mix>
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the program from
source (`icm-experiments`, `icm-report` and this directory's
`icm-perfbench`, into `$CARGO_TARGET_DIR`, default `.bench_build`), runs
the workload for about `--seconds` seconds, checks its outputs, and
prints one line per metric followed by one JSON object as the last line
of stdout. `--trace 0` reports the end-to-end metrics of BENCHMARK.json,
`--trace 1` the per-layer ones from a separate traced run. README.md in
this directory says what each workload and metric means.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
LEDGER = os.path.join(WORK_ROOT, "ledger")

# The ids of `icm-experiments all` that rerun a study an earlier id
# already ran; their own work is only rendering another view.
RERUN_IDS = {"table2", "fig6", "fig7", "fig9", "table5", "table6", "fig13"}
SUITE_ARTIFACTS = 32
# In step with perfbench/src/daemon.rs: the request kinds by code.
DAEMON_KINDS = ["predict", "status", "observe", "place", "tick"]
# The daemon's latencies are read on the rungs up to this rate, where it
# is busy under a third of the time even when the machine runs slow.
REFERENCE_RATE = 4000
# `max_rps` takes the throughput of the visits that ran this much longer
# than their schedule: the daemon fell behind on them.
SATURATION_STRETCH = 1.1
LAYERS = ["experiments", "core", "simcluster", "manager", "json", "server"]
ACTION_KINDS = ["migrate", "re_anneal", "shed", "circuit_break"]


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it, at
    most p99 (the maximum when there are fewer than eleven samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    index = n - 1 if n < 11 else min(math.ceil(0.99 * n) - 1, n - 11)
    return ordered[index]


def run_checked(cmd, **kwargs):
    proc = subprocess.run(cmd, stdout=sys.stderr, **kwargs)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")


def build(target):
    """Builds the three programs; returns their paths and a digest that
    identifies this build."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError("no Cargo workspace at the checkout root")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    run_checked(cargo + ["-p", "icm-experiments", "-p", "icm-report"], cwd=ROOT, env=env)
    run_checked(cargo + ["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
                cwd=ROOT, env=env)
    bins = {name: os.path.join(target, "release", name)
            for name in ("icm-experiments", "icm-report", "icm-perfbench")}
    digest = hashlib.sha256()
    for path in bins.values():
        with open(path, "rb") as f:
            digest.update(f.read())
    return bins, digest.hexdigest()[:16]


def spawn(cmd, work, stdout=subprocess.DEVNULL):
    """Runs `cmd` in `work` with its temporary files kept there. Returns
    (wall seconds, peak RSS in MB, stderr lines with their arrival time
    in seconds since the spawn, exit code)."""
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=stdout, stderr=subprocess.PIPE)
    lines = [(time.perf_counter() - start, raw.decode(errors="replace"))
             for raw in proc.stderr]
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for _, line in lines:
        if not line.startswith("[icm] "):
            sys.stderr.write(line)
    return wall, usage.ru_maxrss / 1024.0, lines, proc.returncode


def run_perfbench(bins, workload, seed, seconds, trace, work):
    """Runs one in-process workload of `icm-perfbench`; returns its raw
    samples."""
    out_path = os.path.join(work, "perfbench.json")
    with open(out_path, "w") as out:
        _, _, _, code = spawn(
            [bins["icm-perfbench"], workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", str(int(trace)), "--work", work], work, stdout=out)
    if code != 0:
        raise BenchError(f"icm-perfbench {workload} exited with {code}")
    with open(out_path) as f:
        return json.load(f)


class Checks:
    """Correctness gates: every check attempted and failed is counted."""

    def __init__(self, ledger_key):
        self.attempted = 0
        self.failed = 0
        self.ledger_key = ledger_key

    def check(self, ok, what, attempted=1, failed=None):
        self.attempted += attempted
        if not ok:
            self.failed += attempted if failed is None else failed
            print(f"check failed: {what}", file=sys.stderr)

    def same(self, name, values):
        """Counts that must repeat exactly within one run."""
        for i, value in enumerate(values[1:], 1):
            self.check(value == values[0], f"{name}: unit {i} gave {value}, unit 0 {values[0]}")

    def exact(self, counts):
        """Compares counts that must repeat exactly with every earlier run
        of this build, workload, seed and mode, kept in a ledger in the
        checkout; any difference is nondeterminism."""
        os.makedirs(LEDGER, exist_ok=True)
        path = os.path.join(LEDGER, self.ledger_key + ".json")
        if os.path.exists(path):
            with open(path) as f:
                earlier = json.load(f)
            for name, value in counts.items():
                if name in earlier:
                    self.check(earlier[name] == value,
                               f"{name} was {earlier[name]} on an earlier run, now {value}")
            counts = {**earlier, **counts}
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)


def read_spans(path):
    """Loads spans.tsv as {id: (parent, req, name, start_ns, end_ns)}."""
    spans = {}
    with open(path) as f:
        for line in f:
            ident, parent, req, name, start, end = line.rstrip("\n").split("\t")
            spans[int(ident)] = (int(parent), int(req), name, int(start), int(end))
    return spans


def span_summary(spans, units):
    """Self time per layer (ms per traced unit) and the time inside
    root spans, i.e. attributed to some layer call (ms in total)."""
    children = collections.defaultdict(int)
    for parent, _, _, start, end in spans.values():
        if parent:
            children[parent] += end - start
    self_ms = dict.fromkeys(LAYERS, 0.0)
    attributed = 0
    for ident, (parent, _, name, start, end) in spans.items():
        layer = name.split(".")[0]
        self_ms[layer] += (end - start - children[ident]) / 1e6 / units
        if not parent:
            attributed += end - start
    return self_ms, attributed / 1e6


def durations(spans, name):
    """Microseconds of every span named `name`."""
    return [(end - start) / 1e3 for _, _, n, start, end in spans.values() if n == name]


def per_unit_sums(spans, name, req_of_unit):
    """Milliseconds and calls of span `name` per unit, as lists."""
    ms = collections.defaultdict(float)
    calls = collections.defaultdict(int)
    for _, req, n, start, end in spans.values():
        if n == name:
            unit = req_of_unit(req)
            ms[unit] += (end - start) / 1e6
            calls[unit] += 1
    units = sorted(ms)
    return [ms[u] for u in units], [calls[u] for u in units]


def tracing_metrics(m, traced_ms, untraced_ms, attributed_ms, wall_ms, self_ms):
    m["bench.traced_unit_ms"] = traced_ms
    m["bench.untraced_unit_ms"] = untraced_ms
    m["bench.trace_overhead_pct"] = 100.0 * (traced_ms - untraced_ms) / untraced_ms
    m["bench.coverage_pct"] = 100.0 * attributed_ms / wall_ms
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_ms[layer]


# --------------------------------------------------------------- paper-suite

def suite_quality(results_path):
    """Mean Fig. 8 model error and the Table 3 binary-optimized
    profiling cost, both in percent."""
    with open(results_path) as f:
        doc = json.load(f)
    data = {e["id"]: e["data"] for e in doc["experiments"]}
    errors = [p["error_pct"] for t in data["fig8"]["targets"] for p in t["points"]]
    cost = next(a["cost_pct"] for a in data["table3"]["averages"]
                if a["algorithm"] == "binary-optimized")
    return sum(errors) / len(errors), cost


def strict_report(bins, results, work, checks):
    """`icm-report --strict`: every fidelity verdict is one attempt."""
    proc = subprocess.run(
        [bins["icm-report"], results, "--strict", "--text",
         "--out", os.path.join(work, "report.html")],
        cwd=work, capture_output=True, text=True)
    found = re.search(r"overall: (\d+) pass, (\d+) warn, (\d+) fail, (\d+) missing",
                      proc.stdout)
    if not found:
        checks.check(False, f"icm-report printed no verdict line (exit {proc.returncode})")
        return
    passed, warned, failed, missing = map(int, found.groups())
    checks.check(proc.returncode == 0 and failed + missing == 0,
                 f"icm-report --strict: {failed} fail, {missing} missing",
                 attempted=passed + warned + failed + missing,
                 failed=max(failed + missing, 1))


def suite_pass(bins, results, work):
    """One `icm-experiments all` run: (wall s, peak RSS MB, artifact start
    times in s since the spawn, exit code)."""
    wall, peak, lines, code = spawn(
        [bins["icm-experiments"], "all", "--results", results], work)
    starts = [t for t, line in lines if line.startswith("[icm] running ")]
    return wall, peak, starts, code


def paper_suite(bins, _seed, seconds, work, checks):
    # `all` runs as users run it, at its default seed: `--seed` does not
    # reach this workload (README.md says why).
    walls, rss, artifacts, setup = [], [], [], []
    first = None
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start + median(walls) <= seconds:
        rep = len(walls)
        results = os.path.join(work, f"results-{rep}.json")
        wall, peak, starts, code = suite_pass(bins, results, work)
        checks.check(code == 0 and len(starts) == SUITE_ARTIFACTS,
                     f"suite run {rep}: exit {code}, {len(starts)} artifacts")
        # The suite has no set-up phase of its own (each study builds
        # what it needs): its set-up is the binary's start-up, from the
        # spawn to the progress line of its first study. Each artifact
        # runs from its progress line to the next; the last one ends
        # when the process exits, after writing the results document.
        setup.append(starts[0] if starts else wall)
        artifacts += [(end - begin) * 1e3 for begin, end in zip(starts, starts[1:] + [wall])]
        walls.append(wall)
        rss.append(peak)
        with open(results, "rb") as f:
            text = f.read()
        if first is None:
            first = (results, text)
        else:
            checks.check(text == first[1], f"suite run {rep}: results differ from run 0")
    strict_report(bins, first[0], work, checks)
    model_error, profiling_cost = suite_quality(first[0])
    checks.exact({"model_error_pct": model_error, "profiling_cost_pct": profiling_cost})
    return {
        "setup_s": median(setup),
        "peak_rss_mb": max(rss),
        "run_s": median(walls),
        "p50_ms": median(artifacts),
        "rate_per_s": SUITE_ARTIFACTS * len(walls) / sum(walls),
        "quality_pct": model_error,
    }


def paper_suite_traced(bins, seed, seconds, work, checks):
    # The binary's suite, once: the in-process passes must reproduce its
    # results document byte for byte, so the spans below attribute the
    # same suite the untraced run measures.
    results = os.path.join(work, "results.json")
    wall, _, starts, code = suite_pass(bins, results, work)
    checks.check(code == 0 and len(starts) == SUITE_ARTIFACTS,
                 f"suite run: exit {code}, {len(starts)} artifacts")
    out = run_perfbench(bins, "suite", seed, max(seconds - wall, 0.0), True, work)
    passes = out["passes"]
    for i, p in enumerate(passes):
        checks.check(p["identical"], f"in-process pass {i}: results differ from pass 0")
    with open(results, "rb") as binary, \
            open(os.path.join(work, "results-inprocess.json"), "rb") as inprocess:
        checks.check(binary.read() == inprocess.read(),
                     "in-process results differ from icm-experiments all")
    model_error, profiling_cost = suite_quality(results)
    checks.exact({"model_error_pct": model_error, "profiling_cost_pct": profiling_cost})
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    spans = read_spans(os.path.join(work, "spans.tsv"))
    self_ms, attributed = span_summary(spans, len(traced))
    m = {}
    tracing_metrics(m, median([p["wall_ns"] / 1e6 for p in traced]),
                    median([p["wall_ns"] / 1e6 for p in untraced]),
                    attributed, sum(p["wall_ns"] for p in traced) / 1e6, self_ms)
    for ident in out["ids"]:
        per_pass, _ = per_unit_sums(spans, f"experiments.{ident}", lambda req: req)
        m[f"experiments.{ident}.ms"] = median(per_pass)
    m["experiments.rerun_ms"] = sum(m[f"experiments.{i}.ms"] for i in RERUN_IDS)
    ids = out["ids"]
    m["bench.tail_ms"] = tail([ns / 1e6 for p in untraced for ns in p["id_ns"]])
    m["bench.focus_tail_ms"] = tail([ns / 1e6 for p in untraced
                                     for i, ns in zip(ids, p["id_ns"]) if i in RERUN_IDS])
    m["core.profiling_cost_pct"] = profiling_cost
    return m


# ----------------------------------------------------------- fleet-endurance

def fleet_counts(r):
    return {
        "simcluster.run_app.count": r["probes"],
        "violation_s": r["violation_s"],
        "sim_seconds": r["sim_seconds"],
        "snapshot_bytes": r["snapshot_bytes"],
        **{f"manager.actions.{k}": r["actions"][k] for k in ACTION_KINDS},
    }


def fleet_checks(out, checks):
    """Per-round gates, and the counts every round must share with the
    rounds on the same crash-driver stream."""
    rounds, drivers, horizon = out["rounds"], int(out["drivers"]), out["horizon"]
    for i, r in enumerate(rounds):
        checks.check(r["ticks"] == horizon, f"round {i}: {r['ticks']} of {horizon} ticks ran",
                     attempted=horizon, failed=horizon - r["ticks"])
        checks.check(r["round_trips"], f"round {i}: last savestate does not round-trip")
        checks.check(r["store_matches"], f"round {i}: load_latest differs from the last save")
    counts = [fleet_counts(r) for r in rounds]
    for stream in range(drivers):
        for name in counts[0]:
            checks.same(f"driver {stream}: {name}", [c[name] for c in counts[stream::drivers]])
    checks.exact({f"{i}:{name}": value for i, c in enumerate(counts[:drivers])
                  for name, value in c.items()})


def eventful_reqs(r):
    """Request ids of the round's ticks on which the manager acted."""
    base = r["first_tick_req"] - 1
    return {base + tick for tick in r["eventful_ticks"]}


def violation_share_pct(out):
    """QoS violation-seconds per supervised app-second, in percent, over
    one round of each crash-driver stream."""
    first = out["rounds"][:int(out["drivers"])]
    return 100.0 * (sum(r["violation_s"] for r in first)
                    / sum(r["sim_seconds"] * r["apps"] for r in first))


def net_ticks(r):
    """The round's tick times without their `SnapshotStore::save`: the
    write's fsync waits on the shared disk, whose speed drifted twofold
    while the benchmark was tuned. The save is reported per layer."""
    return [tick - save for tick, save in zip(r["tick_ns"], r["save_ns"])]


def round_ms(r):
    """The round's wall time without its `SnapshotStore::save` calls (see
    `net_ticks`), in ms."""
    return (r["round_ns"] - sum(r["save_ns"])) / 1e6


def fleet_tails(rounds):
    """Median over rounds of each round's tick tail, and of its
    eventful-tick tail: a tail pooled over the run would be set by its
    one slowest stretch of seconds."""
    tails, eventful = [], []
    for r in rounds:
        net = net_ticks(r)
        events = {t - 1 for t in r["eventful_ticks"]}
        tails.append(tail(net))
        eventful.append(tail([ns for i, ns in enumerate(net) if i in events]))
    return median(tails) / 1e6, median(eventful) / 1e6


def fleet_endurance(bins, seed, seconds, work, checks):
    out = run_perfbench(bins, "fleet", seed, seconds, False, work)
    rounds = out["rounds"]
    fleet_checks(out, checks)
    horizons = [sum(net_ticks(r)) / 1e9 for r in rounds]
    return {
        "setup_s": median([r["setup_ns"] / 1e9 for r in rounds]),
        "peak_rss_mb": out["peak_rss_mb"],
        "run_s": median(horizons),
        "p50_ms": median([ns for r in rounds for ns in net_ticks(r)]) / 1e6,
        "rate_per_s": median([r["ticks"] / h for r, h in zip(rounds, horizons)]),
        "quality_pct": violation_share_pct(out),
    }


def fleet_endurance_traced(bins, seed, seconds, work, checks):
    out = run_perfbench(bins, "fleet", seed, seconds, True, work)
    rounds = out["rounds"]
    fleet_checks(out, checks)
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    spans = read_spans(os.path.join(work, "spans.tsv"))
    self_ms, attributed = span_summary(spans, len(traced))
    m = {}
    tracing_metrics(m, median([round_ms(r) for r in traced]),
                    median([round_ms(r) for r in untraced]),
                    attributed, sum(r["round_ns"] for r in traced) / 1e6, self_ms)
    # Every stream runs traced and untraced: the overhead compares each
    # stream with itself, so it holds no difference between crash
    # sequences.
    drivers = int(out["drivers"])
    m["bench.trace_overhead_pct"] = median([
        100.0 * (median([round_ms(r) for r in rounds[s::drivers] if r["traced"]])
                 / median([round_ms(r) for r in rounds[s::drivers] if not r["traced"]]) - 1.0)
        for s in range(drivers)])
    m["bench.tail_ms"], m["bench.focus_tail_ms"] = fleet_tails(untraced)
    for name in ("core.build_model", "simcluster.run_app", "simcluster.reporter"):
        ms, calls = per_unit_sums(spans, name, lambda req: req // (out["horizon"] + 1))
        m[f"{name}.ms"] = median(ms)
        m[f"{name}.count"] = median(calls)
    m["manager.start.ms"] = median(durations(spans, "manager.start")) / 1e3
    events = set().union(*(eventful_reqs(r) for r in traced))
    steps = [(req, (end - start) / 1e3) for _, req, n, start, end in spans.values()
             if n == "manager.step"]
    quiet = [us for req, us in steps if req not in events]
    eventful = [us for req, us in steps if req in events]
    m["manager.step.quiet_p50_us"] = median(quiet)
    m["manager.step.quiet_tail_us"] = tail(quiet)
    m["manager.step.eventful_p50_us"] = median(eventful)
    m["manager.step.eventful_tail_us"] = tail(eventful)
    r0 = rounds[0]
    for kind in ACTION_KINDS:
        m[f"manager.actions.{kind}"] = r0["actions"][kind]
    m["manager.violation_s"] = r0["violation_s"]
    m["manager.violation_share_pct"] = violation_share_pct(out)
    m["manager.snapshot.capture_p50_us"] = median(durations(spans, "manager.snapshot.capture"))
    encode = durations(spans, "manager.snapshot.encode")
    m["manager.snapshot.encode_p50_us"] = median(encode)
    m["manager.snapshot.encode_tail_us"] = tail(encode)
    sizes = r0["snapshot_bytes"]
    m["manager.snapshot.first_bytes"] = sizes[0]
    m["manager.snapshot.last_bytes"] = sizes[-1]
    m["manager.snapshot.growth_bytes_per_tick"] = (sizes[-1] - sizes[0]) / (len(sizes) - 1)
    save = durations(spans, "json.store_save")
    m["json.store_save_p50_us"] = median(save)
    m["json.store_save_tail_us"] = tail(save)
    m["json.store_prune_p50_us"] = median(durations(spans, "json.store_prune"))
    return m


# ---------------------------------------------------------------- daemon-mix

def by_kind(visits, field, kinds):
    codes = {DAEMON_KINDS.index(k) for k in kinds}
    return [v for visit in visits for v, k in zip(visit[field], visit["kind"]) if k in codes]


def saturated(visit):
    """Whether the daemon fell behind the visit's schedule: the visit took
    more than `SATURATION_STRETCH` times its scheduled span, so frames
    queued for most of it and the server never waited for one."""
    return visit["wall_ns"] / 1e9 > SATURATION_STRETCH * visit["frames"] / visit["rate"]


def max_rps(life):
    """The highest request rate the daemon sustains: the rate at which it
    served the ladder visits it fell behind on (frames ÷ the visit's wall
    time), median over those visits. A rung below that rate keeps its
    backlog flat; one above it grows its backlog without bound. When no
    visit saturates, the ladder's top rate (a floor: the daemon kept up
    with every rung)."""
    served = [v["frames"] / (v["wall_ns"] / 1e9) for v in life["visits"] if saturated(v)]
    return median(served) if served else max(v["rate"] for v in life["visits"])


def daemon_checks(lives, checks):
    for i, life in enumerate(lives):
        frames = sum(v["frames"] for v in life["visits"])
        bad = sum(v["bad_replies"] for v in life["visits"])
        checks.check(bad == 0, f"life {i}: {bad} frames without exactly one ok reply",
                     attempted=frames, failed=bad)
        checks.check(life["committed"] == frames == life["journal_entries"],
                     f"life {i}: {frames} frames, {life['committed']} committed, "
                     f"{life['journal_entries']} journal entries")
        checks.check(life["recovered_committed"] == life["committed"],
                     f"life {i}: restart recovered {life['recovered_committed']} commits")
    counts = [{"journal_bytes": life["journal_bytes"], "committed": life["committed"],
               "place_costs": life["place_costs"]} for life in lives]
    for name in counts[0]:
        checks.same(name, [c[name] for c in counts])
    checks.exact(counts[0])


def reference(life):
    return [visit for visit in life["visits"] if visit["rate"] <= REFERENCE_RATE]


def daemon_mix(bins, seed, seconds, work, checks):
    out = run_perfbench(bins, "daemon", seed, seconds, False, work)
    life = out["lives"][0]
    daemon_checks(out["lives"], checks)
    predict = by_kind(reference(life), "latency_ns", ["predict"])
    costs = life["place_costs"]
    return {
        "setup_s": median(life["setup_ns"]) / 1e9,
        "peak_rss_mb": life["peak_rss_mb"],
        "run_s": sum(sum(v["handle_ns"]) for v in life["visits"]) / 1e9,
        "p50_ms": median(predict) / 1e6,
        "rate_per_s": max_rps(life),
        "quality_pct": 100.0 * (sum(costs) / len(costs) / life["solo_s"] - 1.0),
    }


def daemon_mix_traced(bins, seed, seconds, work, checks):
    out = run_perfbench(bins, "daemon", seed, seconds, True, work)
    untraced, traced = out["lives"]
    daemon_checks(out["lives"], checks)
    spans = read_spans(os.path.join(work, "spans.tsv"))
    self_ms, attributed = span_summary(spans, 1)
    busy_wall = (traced["wall_ns"] - traced["idle_ns"]) / 1e6
    m = {}
    tracing_metrics(m, median(by_kind(reference(traced), "latency_ns", ["predict"])) / 1e6,
                    median(by_kind(reference(untraced), "latency_ns", ["predict"])) / 1e6,
                    attributed, busy_wall, self_ms)
    m["server.start.ms"] = median(durations(spans, "server.start")) / 1e3
    m["server.recover.ms"] = median(durations(spans, "server.recover")) / 1e3
    m["server.frame_p50_us"] = median(durations(spans, "server.frame"))
    m["server.parse_p50_us"] = median(durations(spans, "server.parse"))
    for kind in DAEMON_KINDS:
        handle = durations(spans, f"server.handle.{kind}")
        m[f"server.handle.{kind}.p50_us"] = median(handle)
        m[f"server.handle.{kind}.tail_us"] = tail(handle)
    flagged = [ns / 1e3 for v in traced["visits"]
               for ns, c in zip(v["handle_ns"], v["checkpoint"]) if c]
    m["server.checkpoint_frames"] = len(flagged)
    m["server.checkpoint_frame.tail_us"] = tail(flagged)
    m["server.journal_bytes"] = traced["journal_bytes"]
    ref = reference(untraced)
    m["bench.tail_ms"] = tail(by_kind(ref, "latency_ns", ["predict"])) / 1e6
    m["bench.focus_tail_ms"] = tail(by_kind(ref, "latency_ns", ["place"])) / 1e6
    m["bench.late_tail_ms"] = tail([ns for v in ref for ns in v["late_ns"]]) / 1e6
    m["bench.backlog_max"] = max(b for v in ref for b in v["backlog"])
    return m


WORKLOADS = {
    "paper-suite": (paper_suite, paper_suite_traced),
    "fleet-endurance": (fleet_endurance, fleet_endurance_traced),
    "daemon-mix": (daemon_mix, daemon_mix_traced),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        bins, build_id = build(os.path.abspath(target))
        work = os.path.join(WORK_ROOT, args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        mode = "traced" if args.trace else "untraced"
        checks = Checks(f"{build_id}-{args.workload}-{args.seed}-{args.seconds:g}-{mode}")
        measure = WORKLOADS[args.workload][args.trace]
        # Start from a clean page cache and leave one: writes a previous
        # run left dirty must not stall this run's fsyncs, nor ours the next.
        os.sync()
        values = measure(bins, args.seed, args.seconds, work, checks)
        os.sync()
    except (BenchError, OSError, KeyError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if not args.trace:
        values["pass_rate"] = 1.0 - checks.failed / max(checks.attempted, 1)
    if args.trace:
        # Layers this workload makes no call into read zero.
        values = {d["name"]: values.get(d["name"], 0.0) for d in declared}
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {}
    for d in declared:
        metrics[d["name"]] = {"value": values[d["name"]], "unit": d["unit"]}
        print(f"{args.workload:16s} {d['name']:40s} {values[d['name']]:>16.6g} {d['unit']}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
