#!/usr/bin/env python3
"""Host-cost benchmark of the GIL-elision simulator.

Builds hostbench_driver from the source tree (hostbench/CMakeLists.txt),
runs one workload for a fixed time, checks the simulated outputs and prints
the metrics. Run it from the repository root:

    python3 hostbench/run.py --workload bt-htm --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics of untraced runs; --trace 1 splits
the time between an untraced and a traced run and prints the per-layer
metrics. Host times are scaled to a nominal host speed by a probe loop timed
around them; the header line gives the measured speed and wall time. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. hostbench/README.md explains
the workloads, the metrics and how to read the tables.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "hostbench")

WORKLOADS = ("bt-htm", "bt-gil", "bt-stm", "serve-fleet")

# Engine (and, on the fleet, load) seeds per run, all derived from --seed.
# Op i uses seed i mod K, so a run's medians span K simulated schedules
# and every seed repeats when time allows (the determinism check).
SEEDS_PER_RUN = {"bt-htm": 4, "bt-gil": 4, "bt-stm": 4, "serve-fleet": 2}

# A value the benchmark cannot observe from outside on a workload, or a
# ratio whose denominator is zero.
UNOBSERVED = -1

# A time typical of the driver's host speed probe. Host times are reported
# at that speed: each is scaled by this over the mean of the probe times
# measured right before and right after it (README, "Host speed"). The
# value sets only the scale, the same for every commit.
PROBE_NOMINAL_S = 0.090

# Host-time fields of the driver's setup and op lines.
HOST_TIMES = ("wall_s", "user_s", "sys_s", "ctor_s", "load_s", "run_s")

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_insns_per_host_s", "1/s"),
    ("requests_per_host_s", "1/s"),
    ("sim_elapsed_cycles", "cycles"),
    ("lost_cycle_share", "ratio"),
    ("sim_latency_p99_cycles", "cycles"),
    ("sim_latency_p999_cycles", "cycles"),
    ("goodput", "ratio"),
]

PER_LAYER = [
    ("runtime.engine_ctor_s", "s"),
    ("vm.load_program_s", "s"),
    ("runtime.run_s", "s"),
    ("runtime.ns_per_insn", "ns"),
    ("htm.ns_per_tx", "ns"),
    ("htm.begins", "count"),
    ("htm.commits", "count"),
    ("htm.commit_ratio", "ratio"),
    ("htm.aborts.conflict", "count"),
    ("htm.aborts.overflow_read", "count"),
    ("htm.aborts.overflow_write", "count"),
    ("htm.aborts.interrupt", "count"),
    ("sim.total_cycles", "cycles"),
    ("sim.cycles.begin_end", "cycles"),
    ("sim.cycles.tx_success", "cycles"),
    ("sim.cycles.tx_aborted", "cycles"),
    ("sim.cycles.stm_work", "cycles"),
    ("sim.cycles.gil_held", "cycles"),
    ("sim.cycles.gil_wait", "cycles"),
    ("tle.length_adjustments", "count"),
    ("tle.fraction_length_one", "ratio"),
    ("tle.gil_fallbacks", "count"),
    ("tle.quarantine_enters", "count"),
    ("tle.quarantine_exits", "count"),
    ("stm.begins", "count"),
    ("stm.commits", "count"),
    ("stm.commit_ratio", "ratio"),
    ("stm.escalations", "count"),
    ("stm.gil_fallbacks", "count"),
    ("stm.validated_entries", "count"),
    ("stm.zombie_kills", "count"),
    ("fault.injected", "count"),
    ("gil.acquisitions", "count"),
    ("gil.contended_acquisitions", "count"),
    ("vm.insns_retired", "count"),
    ("vm.allocations", "count"),
    ("vm.ic_method_hit_rate", "ratio"),
    ("vm.fused_instructions", "count"),
    ("vm.gc_collections", "count"),
    ("vm.minor_collections", "count"),
    ("httpsim.make_schedule_s", "s"),
    ("httpsim.slice_setup_s", "s"),
    ("httpsim.queue_p99_cycles", "cycles"),
    ("httpsim.dropped", "count"),
    ("httpsim.shed", "count"),
    ("cluster.run_s", "s"),
    ("cluster.slices", "count"),
    ("cluster.setup_share", "ratio"),
    ("cluster.sys_s", "s"),
    ("cluster.stolen", "count"),
    ("cluster.steals", "count"),
    ("cluster.peak_depth", "count"),
    ("cluster.max_active", "count"),
    ("obs.trace_overhead_s", "s"),
]


class BenchError(Exception):
    """The benchmark could not run (no sources, build or driver failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def derive_seed(seed, salt):
    """A 62-bit seed for one input stream, a pure function of --seed."""
    digest = hashlib.sha256(f"hostbench:{salt}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 2


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "hostbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "engine.hpp")):
        raise BenchError("simulator sources (src/) not found next to hostbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "hostbench_driver",
                  "-j", str(os.cpu_count() or 2)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "hostbench_driver")


def run_driver(driver, args, timeout):
    """Runs the driver to completion; returns its parsed JSON lines."""
    proc = subprocess.run([driver] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"driver exited with {proc.returncode}: {args}")
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    end = [l for l in lines if l["kind"] == "end"]
    if len(end) != 1:
        raise BenchError(f"driver printed no end line: {args}")
    normalize(lines)
    return {
        "setup": [l for l in lines if l["kind"] == "setup"],
        "ops": [l for l in lines if l["kind"] == "op"],
        "end": end[0],
    }


def normalize(lines):
    """Scales the host times of every setup and op line to the nominal
    host speed, by the probe times the driver measured around it. Keeps the
    factor, the host speed the probes measured, as "speed" and the measured
    wall time as "raw_wall_s"."""
    before, pending = None, []
    for line in lines:
        if line["kind"] == "probe":
            for p in pending:
                p["speed"] = PROBE_NOMINAL_S / ((before + line["s"]) / 2)
                p["raw_wall_s"] = p.get("wall_s")
                for key in HOST_TIMES:
                    if key in p:
                        p[key] *= p["speed"]
            before, pending = line["s"], []
        elif line["kind"] in ("setup", "op"):
            if before is None:
                raise BenchError("driver line before the first probe")
            pending.append(line)
    if pending:
        raise BenchError("driver line after the last probe")


def fleet_counts(stem):
    """Sums the simulated counters of every slice engine from the per-shard
    metrics documents a traced fleet run writes, under the names the driver
    gives a BT run's counters."""
    c = {}

    def add(key, n):
        c[key] = c.get(key, 0) + n

    yp_rows = yp_at_one = 0
    ic_weighted = 0.0
    # Sorted, so the pooled hit rate sums in the same order every time.
    paths = sorted(glob.glob(glob.escape(stem) + ".shard*.metrics.json"))
    if not paths:
        raise BenchError(f"no per-shard metrics documents at {stem}")
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for r in doc["runs"]:
            add("insns_retired", r["insns_retired"])
            add("total_cycles", r["total_cycles"])
            add("htm.begins", r["begins"])
            add("htm.commits", r["commits"])
            for reason, n in r["aborts_by_reason"].items():
                add("htm.aborts." + reason, n)
            for bucket, n in r["cycles"].items():
                add("cycles." + bucket, n)
            add("tle.length_adjustments", r["length_adjustments"])
            add("tle.gil_fallbacks", r["gil_fallbacks"])
            add("tle.quarantine_enters", r["quarantine"]["enters"])
            add("tle.quarantine_exits", r["quarantine"]["exits"])
            for key, n in r.get("stm", {}).items():
                if isinstance(n, int):
                    add("stm." + key, n)
            add("fault.injected", r["faults_injected"])
            add("vm.fused_instructions", r["interp"]["fused_instructions"])
            ic_weighted += (r["interp"]["ic_method_hit_rate"]
                            * r["insns_retired"])
            add("vm.gc_collections", r["gc"]["collections"])
            add("vm.minor_collections", r["gc"].get("minor_collections", 0))
            for yp in r["yield_points"]:
                if yp["final_length"] > 0:
                    yp_rows += 1
                    yp_at_one += yp["final_length"] == 1
    # Pooled over every slice engine's yield points.
    c["tle.fraction_length_one"] = ratio(yp_at_one, yp_rows)
    # The documents carry each engine's rate, not its hits and misses, so
    # the fleet's rate is their mean weighted by instructions retired.
    c["vm.ic_method_hit_rate"] = ratio(ic_weighted, c.get("insns_retired", 0))
    return c


def ratio(num, den):
    return num / den if den else UNOBSERVED


def median(values):
    return statistics.median(values) if values else UNOBSERVED


def read_spans(path, speed):
    """The spans of a traced driver call, each with its duration and self
    time (the duration minus the part its child spans cover), scaled to the
    nominal host speed by `speed`, a factor per run id."""
    with open(path) as f:
        spans = [json.loads(l) for l in f if l.strip()]
    for s in spans:
        s["dur"] = s["self"] = (s["end_s"] - s["start_s"]) * speed[s["run"]]
    for s in spans:
        if s["parent"] >= 0:
            spans[s["parent"]]["self"] -= s["dur"]
    return spans


class Run:
    """One benchmark invocation: inputs from the seed, driver calls, the
    output checks and the determinism check."""

    def __init__(self, workload, seed, driver, expect_verify):
        self.fleet = workload == "serve-fleet"
        self.driver = driver
        self.k = SEEDS_PER_RUN[workload]
        self.engine_seeds = [derive_seed(seed, f"engine{i}")
                             for i in range(self.k)]
        self.load_seeds = [derive_seed(seed, f"load{i}")
                           for i in range(self.k)]
        self.args = [f"--workload={workload}",
                     "--engine-seeds=" + ",".join(map(str, self.engine_seeds))]
        if self.fleet:
            self.args.append(
                "--load-seeds=" + ",".join(map(str, self.load_seeds)))
        if expect_verify is not None:
            self.args.append(f"--expect-verify={expect_verify!r}")
        os.makedirs(build_dir(), exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=build_dir())
        self.ops = []        # every op of every driver call
        self.counts = {}     # fleet: seed index -> simulated counters
        self.failures = []   # reasons the run is not correct

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def call(self, seconds, traced, max_ops=None):
        """One driver process; every seed runs at least once."""
        args = self.args + [f"--seconds={seconds}", f"--min-ops={self.k}"]
        if max_ops:
            args.append(f"--max-ops={max_ops}")
        label = "traced" if traced else "untraced"
        spans = None
        if traced:
            spans = os.path.join(self.tmp, f"spans{len(self.ops)}.jsonl")
            args.append(f"--trace-out={spans}")
        # The timed part, set-up, and one op that may overrun the budget.
        out = run_driver(self.driver, args, timeout=seconds + 120)
        out["spans"] = spans
        for op in out["ops"]:
            op["label"] = f"{label} op {op['i']}"
            if not op["ok"]:
                self.failures.append(f"{op['label']}: {op['fail']}")
            elif self.fleet and traced:
                op["counts"] = fleet_counts(op["artifact_stem"])
                self.counts.setdefault(op["seed"], op["counts"])
        self.ops += out["ops"]
        return out

    def counters(self, op):
        """An op's simulated counters: the driver's for BT, the per-shard
        metrics documents' for the fleet (same seed, same counters)."""
        return self.counts[op["seed"]] if self.fleet else op["sim"]

    def check_determinism(self):
        """Every simulated quantity must repeat exactly across the ops of
        one seed, untraced and traced."""
        first = {}
        for op in self.ops:
            if not op["ok"]:
                continue
            # Only traced fleet ops carry the per-shard counters, so the
            # reference collects each quantity from the first op that has it.
            sim = dict(op["sim"], **op.get("counts", {}))
            label, ref = first.setdefault(op["seed"], (op["label"], {}))
            diff = sorted(k for k in sim.keys() & ref.keys()
                          if sim[k] != ref[k])
            if diff:
                self.failures.append(f"determinism: {op['label']} differs "
                                     f"from {label} in {diff[:4]}")
            for key, value in sim.items():
                ref.setdefault(key, value)

    def attempted_failed(self):
        """An op is one BT run or one scheduled request. A BT run fails as a
        whole; a fleet serve fails the requests it dropped or shed."""
        attempted = sum(op["units"] for op in self.ops)
        if self.fleet:
            failed = sum(op["lost"] for op in self.ops)
        else:
            failed = sum(op["units"] for op in self.ops if not op["ok"])
        return attempted, failed


def end_to_end(run, out):
    """The end-to-end metrics of an untraced driver call: host metrics are
    medians over its ops, simulated ones medians over its seeds."""
    ok = [op for op in out["ops"] if op["ok"]]
    if not ok:
        return None
    by_seed = {}
    for op in ok:
        by_seed.setdefault(op["seed"], op)

    def over_seeds(f):
        return median([f(op) for op in by_seed.values()])

    def lost(op):
        c = run.counters(op)
        return ratio(c["cycles.tx_aborted"] + c["cycles.gil_wait"],
                     c["cycles.total"])

    if run.fleet:
        p99 = lambda op: op["sim"]["latency_p99_cycles"]
        p999 = lambda op: op["sim"]["latency_p999_cycles"]
        goodput = (sum(op["sim"]["completed"] for op in ok)
                   / sum(op["units"] for op in out["ops"]))
    else:
        # An op is one BT run; its simulated latency is the run's length.
        p99 = p999 = lambda op: op["sim"]["total_cycles"]
        goodput = len(ok) / len(out["ops"])
    return {
        "wall_s": median([op["wall_s"] for op in ok]),
        "cpu_s": median([op["user_s"] + op["sys_s"] for op in ok]),
        "setup_s": median([s["ctor_s"] + s["load_s"] for s in out["setup"]]),
        "peak_rss_mb": out["end"]["peak_rss_mb"],
        "sim_insns_per_host_s": median(
            [run.counters(op)["insns_retired"] / op["wall_s"] for op in ok]),
        "requests_per_host_s": median(
            [op["units"] / op["wall_s"] for op in ok]),
        "sim_elapsed_cycles": over_seeds(
            lambda op: op["sim"]["elapsed_cycles"]),
        "lost_cycle_share": over_seeds(lost),
        "sim_latency_p99_cycles": over_seeds(p99),
        "sim_latency_p999_cycles": over_seeds(p999),
        "goodput": goodput,
    }


def op_layers(run, op, spans, setup):
    """Per-layer values of one traced op. `setup` is the median set-up
    probe (Engine ctor + load_program) of the call."""
    def span(run_id, name):
        durs = [s["dur"] for s in spans
                if s["run"] == run_id and s["name"] == name]
        return median(durs) if durs else 0.0

    c = run.counters(op)
    sim = op["sim"]
    v = {}
    if run.fleet:
        # Slice engines run inside the shard processes: their run time and
        # the counters the metrics documents do not carry are unobserved.
        for name in ("runtime.run_s", "runtime.ns_per_insn", "htm.ns_per_tx",
                     "gil.acquisitions", "gil.contended_acquisitions",
                     "vm.allocations"):
            v[name] = UNOBSERVED
        v["vm.ic_method_hit_rate"] = c["vm.ic_method_hit_rate"]
        v["runtime.engine_ctor_s"] = span("setup", "runtime.engine_ctor")
        v["vm.load_program_s"] = span("setup", "vm.load_program")
        v["httpsim.make_schedule_s"] = span("schedule", "httpsim.make_schedule")
        v["httpsim.slice_setup_s"] = setup
        v["httpsim.queue_p99_cycles"] = sim["queue_p99_cycles"]
        v["httpsim.dropped"] = sim["dropped"]
        v["httpsim.shed"] = sim["shed"]
        v["cluster.run_s"] = span(f"op{op['i']}", "httpsim.cluster.run_cluster")
        v["cluster.slices"] = sim["slices"]
        v["cluster.setup_share"] = (sim["slices"] * setup
                                    / (op["user_s"] + op["sys_s"]))
        v["cluster.sys_s"] = op["sys_s"]
        for name in ("stolen", "steals", "peak_depth", "max_active"):
            v["cluster." + name] = sim[name]
    else:
        run_s = span(f"op{op['i']}", "runtime.run")
        v["runtime.engine_ctor_s"] = span(f"op{op['i']}", "runtime.engine_ctor")
        v["vm.load_program_s"] = span(f"op{op['i']}", "vm.load_program")
        v["runtime.run_s"] = run_s
        v["runtime.ns_per_insn"] = ratio(run_s * 1e9, sim["insns_retired"])
        v["htm.ns_per_tx"] = ratio(run_s * 1e9, sim["htm.begins"])
        for name in ("gil.acquisitions", "gil.contended_acquisitions",
                     "vm.allocations"):
            v[name] = sim[name]
        hits = sim["vm.ic_method_hits"]
        v["vm.ic_method_hit_rate"] = ratio(
            hits, hits + sim["vm.ic_method_misses"])
        # No schedule and no cluster: those layers do no work on BT.
        for name, _ in PER_LAYER:
            if name.startswith(("httpsim.", "cluster.")):
                v[name] = 0
    v["htm.begins"] = c["htm.begins"]
    v["htm.commits"] = c["htm.commits"]
    v["htm.commit_ratio"] = ratio(c["htm.commits"], c["htm.begins"])
    for reason in ("conflict", "overflow-read", "overflow-write", "interrupt"):
        v["htm.aborts." + reason.replace("-", "_")] = c.get(
            "htm.aborts." + reason, 0)
    v["sim.total_cycles"] = c["total_cycles"]
    for bucket in ("begin_end", "tx_success", "tx_aborted", "stm_work",
                   "gil_held", "gil_wait"):
        v["sim.cycles." + bucket] = c.get("cycles." + bucket, 0)
    for name in ("tle.length_adjustments", "tle.fraction_length_one",
                 "tle.gil_fallbacks", "tle.quarantine_enters",
                 "tle.quarantine_exits", "stm.begins", "stm.commits",
                 "stm.escalations", "stm.gil_fallbacks",
                 "stm.validated_entries", "stm.zombie_kills",
                 "fault.injected", "vm.fused_instructions",
                 "vm.gc_collections", "vm.minor_collections"):
        v[name] = c.get(name, 0)
    v["stm.commit_ratio"] = ratio(v["stm.commits"], v["stm.begins"])
    v["vm.insns_retired"] = c["insns_retired"]
    return v


def per_layer(run, untraced, traced):
    """The per-layer metrics: medians over the traced call's ops, plus the
    tracing overhead against the untraced call of the same run."""
    ok = [op for op in traced["ops"] if op["ok"]]
    base = [op["wall_s"] for op in untraced["ops"] if op["ok"]]
    if not ok or not base:
        return None, []
    # The schedule span runs right after the set-up probes, before the next
    # host speed probe, so it shares their factor.
    speed = {"setup": traced["setup"][0]["speed"],
             "schedule": traced["setup"][0]["speed"]}
    speed.update((f"op{op['i']}", op["speed"]) for op in traced["ops"])
    spans = read_spans(traced["spans"], speed)
    setup = median([s["ctor_s"] + s["load_s"] for s in traced["setup"]])
    rows = [op_layers(run, op, spans, setup) for op in ok]
    v = {name: median([r[name] for r in rows]) for name in rows[0]}
    v["obs.trace_overhead_s"] = (median([op["wall_s"] for op in ok])
                                 - median(base))
    return v, spans


def print_spans(spans):
    """Per span name: count, total and self time, largest total first."""
    rows = {}
    for s in spans:
        row = rows.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s["dur"]
        row[2] += s["self"]
    print(f"  {'span':<28} {'count':>6} {'total_s':>10} {'self_s':>10}")
    for name, (n, total, own) in sorted(rows.items(), key=lambda r: -r[1][1]):
        print(f"  {name:<28} {n:>6} {total:>10.4f} {own:>10.4f}")


def print_metrics(metrics, names):
    width = max(len(n) for n, _ in names)
    for name, unit in names:
        value = metrics.get(name, UNOBSERVED)
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {text:>14}  {unit}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--expect-verify", type=float, default=None,
                   help="override the expected BT checksum (checks the check)")
    a = p.parse_args()

    run = None
    try:
        driver = build()
        run = Run(a.workload, a.seed, driver, a.expect_verify)
        spans = []
        if a.trace == 0:
            if run.fleet:
                # The fleet's simulated counters live in the per-shard
                # metrics documents, which only a traced run writes: one
                # untimed traced op per seed provides them.
                run.call(0, traced=True, max_ops=run.k)
            metrics = end_to_end(run, run.call(a.seconds, traced=False))
            names = END_TO_END
        else:
            untraced = run.call(a.seconds / 2, traced=False)
            traced = run.call(a.seconds / 2, traced=True)
            metrics, spans = per_layer(run, untraced, traced)
            names = PER_LAYER
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        log(f"hostbench: {type(e).__name__}: {e}")
        return 2
    finally:
        if run:
            run.close()

    run.check_determinism()
    attempted, failed = run.attempted_failed()
    if metrics is None:
        run.failures.append("no op passed its output check")
        metrics = {}
    for reason in run.failures:
        log(f"hostbench: FAIL {reason}")
    correct = not run.failures and failed == 0

    failed_ops = sum(1 for op in run.ops if not op["ok"])
    print(f"== hostbench {a.workload} seed={a.seed} trace={a.trace}: "
          f"ops={len(run.ops)} failed_ops={failed_ops} "
          f"requests_failed={failed if run.fleet else 0}")
    # The measured wall time, before scaling to the nominal host speed.
    print(f"  host speed {median([op['speed'] for op in run.ops]):.3f} of "
          f"nominal, measured wall_s "
          f"{median([op['raw_wall_s'] for op in run.ops]):.4f}")
    if spans:
        print_spans(spans)
    print_metrics(metrics, names)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in names if n in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
