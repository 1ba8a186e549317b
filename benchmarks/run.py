"""Benchmark for vdk: one workload per process, stdlib only.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload {cogrowth,arith,certify} \
        --seed N --seconds S --trace {0,1}

The run imports vdk from ./src, builds the workload's inputs from the
seed, then repeats a fixed round of operations (closed loop, one caller)
until S seconds have passed.  Round 1's outputs are checked against the
independent oracles in oracle.py; every later round must reproduce
them exactly.  The last stdout line is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  The line before it holds the run's details: machine and
provenance, CPU seconds of the timed rounds and of every calibration,
sample counts, and which spans each per-layer metric came from.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("cogrowth", "arith", "certify")
# fresh interpreters started per run to time set-up; the median is reported
SETUP_SAMPLES = 7
MIN_ROUNDS = 2

# Times are CPU time of the benchmark's process (its one thread), scaled by
# a calibration loop timed around every round.  On a shared host other
# tenants take 1-24% of the core, which moves wall-clock figures by as
# much, and they slow the CPU time of the same pure-Python work by up to
# 1.7x for seconds at a time; the ratio of a round to the calibration
# around it stays within a few percent.  A gated time is in reference
# seconds: CPU seconds on a host where one calibration takes CAL_REF_S.
# The raw CPU and wall-clock counterparts, and the p99 latencies (too
# unsteady on a shared host to gate on), are printed in the details line.
END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
CAL_ITERATIONS = 12000
CAL_REF_S = 0.020
# ops' CPU seconds between calibrations: the host's slow spells last
# seconds, and a round of certify takes 1.5 s
CAL_EVERY_S = 0.25
# calibrations timed after each set-up probe; their median scales it
SETUP_CALIBRATIONS = 3
FUNCTIONS = (
    "tables.compose", "tables.inverse", "tables.power", "tables.make_table",
    "tables.parse_table", "tables.format_table", "tables.act_point",
    "tables.act_clopen", "tables.embed_supported",
    "certificate.pingpong_verify", "certificate.check_certificate",
    "cantor.union", "cantor.intersect", "cantor.complement",
    "cantor.symmetric_difference", "cantor.member", "cantor.parse", "cantor.format",
    "measure.integral_sqrt_rn", "measure.quad_compare", "measure.mu",
    "measure.rn_exponent", "measure.deficit",
    "groupoid.bisection_compose", "groupoid.bisection_act",
    "groupoid.mv_compose", "groupoid.mv_act",
    "tails.related",
    "cli.main",
)
COUNTS = ("len2", "len4", "len6", "len8", "len10", "workers2")
MODULES = ("tables", "certificate", "cantor", "measure", "groupoid", "tails", "cli")


def per_layer_units() -> dict:
    units = {name + ".p50_us": "us" for name in FUNCTIONS}
    units.update({"certificate.convolution_count.%s_s" % c: "s" for c in COUNTS})
    for m in MODULES:
        units.update({m + ".busy_s": "s", m + ".calls": "count", m + ".failed": "count"})
    units.update({"cli.overhead_us": "us", "trace.overhead_ratio": "ratio",
                  "trace.busy_over_wall": "ratio"})
    return units


class Raised:
    """Marks an operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.exc = exc


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int):
    import workloads

    return workloads.BUILDERS[workload](Random(seed))


def setup_probe(workload: str, seed: int) -> dict:
    """Set-up in a fresh interpreter: CPU and wall seconds from just before
    `import vdk` to inputs ready, the same CPU time in reference seconds,
    and the CPU seconds spent in vdk (its import, and the calls that build
    the inputs); the rest is the benchmark's own text generation."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def timed_setup(workload: str, seed: int) -> dict:
    # the benchmark's own oracle module is loaded before the clock starts;
    # what is timed is vdk's import and building the inputs
    import oracle  # noqa: F401

    cpu0, wall0 = time.process_time(), time.perf_counter()
    import vdk.cli  # noqa: F401

    import_cpu = time.process_time() - cpu0
    setup(workload, seed)
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    import workloads

    cal = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS)) / 1e9
    return {"cpu": cpu, "wall": wall, "cal": cal, "scaled": cpu * CAL_REF_S / cal,
            "vdk_cpu": import_cpu + workloads.setup_vdk_s, "vdk_import_cpu": import_cpu}


# ---------------------------------------------------------------------------
# execution


def calibrate() -> int:
    """Thread CPU ns of a fixed piece of pure-Python work: a dict keyed by
    byte strings, as vdk keys its packed words.  It calls no vdk code, so a
    change to vdk leaves it alone, while the host's slow spells slow it as
    much as they slow a round."""
    t0 = time.thread_time_ns()
    d: dict = {}
    x = 1
    for i in range(CAL_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        b = x.to_bytes(4, "little") + bytes((i & 255,))
        d[b[1:]] = d.get(b[:3], 0) + 1
        if i % 7 == 0:
            d.pop(b[:3], None)
    sorted(d)
    return time.thread_time_ns() - t0


def run_round(ops, traced: bool, spans: list, op_base: int = 0, cals: list | None = None):
    """Run every op once.

    With a list `cals`, a calibration is appended to it before the first op
    and again after every CAL_EVERY_S of the ops' CPU time; the round's wall
    and CPU time leave the calibrations out.  Returns (results, wall
    latencies, CPU latencies, index in `cals` of the calibration before each
    op, wall, CPU), times in ns.
    """
    perf, cpu = time.perf_counter_ns, time.thread_time_ns
    results, lat, lat_cpu, segment = [], [], [], []
    start, start_cpu = perf(), cpu()
    paused = paused_cpu = 0
    since = math.inf
    for i, op in enumerate(ops):
        if cals is not None and since >= CAL_EVERY_S * 1e9:
            p0, q0 = perf(), cpu()
            cals.append(calibrate())
            paused, paused_cpu = paused + perf() - p0, paused_cpu + cpu() - q0
            since = 0
        c0, t0 = cpu(), perf()
        try:
            r = op.fn(*op.args)
        except Exception as e:  # a raising call is a failed operation, not a crash
            r = Raised(e)
        t1, c1 = perf(), cpu()
        results.append(r)
        lat.append(t1 - t0)
        lat_cpu.append(c1 - c0)
        since += c1 - c0
        segment.append(None if cals is None else len(cals) - 1)
        if traced:
            spans.append([op.name, t0, t1, op_base + i, isinstance(r, Raised)])
    return results, lat, lat_cpu, segment, perf() - start - paused, cpu() - start_cpu - paused_cpu


def fingerprint(r):
    """What must repeat exactly between rounds (BoxTable by its boxes)."""
    kind = type(r).__name__
    if kind in ("TableElement", "Bisection"):
        return r.packed
    if kind == "BoxTable":
        return r.pairs
    return r


def passes(op, r) -> bool:
    if isinstance(r, Raised):
        return False
    if op.check is None:
        return True
    try:
        return bool(op.check(r))
    except Exception:  # an output the oracle cannot read is a wrong output
        return False


def quantile(sorted_values, q: float):
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ---------------------------------------------------------------------------
# provenance


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": commit(),
    }


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# timed rounds


@dataclass
class Timed:
    """What the timed rounds of one run produced."""

    rounds: int = 0
    walls: list = field(default_factory=list)  # untraced rounds, ns
    cpus: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    traced_cpus: list = field(default_factory=list)
    traced_busy: list = field(default_factory=list)  # summed span time per traced round
    latencies: list = field(default_factory=list)  # untraced ops, ns
    cpu_latencies: list = field(default_factory=list)  # per untraced round
    segments: list = field(default_factory=list)  # per untraced round: each op's calibration
    cals: list = field(default_factory=list)  # in order, ns; the last after the last round
    untraced: list = field(default_factory=list)  # indices of untraced rounds
    spans: list = field(default_factory=list)
    first: list = field(default_factory=list)  # round 1's results
    mismatch: list = field(default_factory=list)  # per round: ops not reproducing round 1
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0


def timed_rounds(ops, seconds: float, trace: bool) -> Timed:
    """Repeat the round of ops for `seconds`; with tracing, untraced and
    traced rounds alternate so the overhead is measured under the same
    machine conditions.  Calibrations run within the rounds (see run_round)
    and after the last one."""
    t = Timed()
    cpu0, begin = time.process_time(), time.perf_counter()
    while t.rounds < MIN_ROUNDS * (1 + trace) or time.perf_counter() - begin < seconds:
        traced = trace and t.rounds % 2 == 1
        before = len(t.spans)
        results, lat, lat_cpu, segment, wall, cpu = run_round(
            ops, traced, t.spans, t.rounds * len(ops), t.cals)
        if not t.first:
            t.first = results
            fps = [fingerprint(r) for r in results]
        t.mismatch.append([i for i, r in enumerate(results)
                           if isinstance(r, Raised) or fingerprint(r) != fps[i]])
        if traced:
            t.traced_walls.append(wall)
            t.traced_cpus.append(cpu)
            t.traced_busy.append(sum(s[2] - s[1] for s in t.spans[before:]))
        else:
            t.walls.append(wall)
            t.cpus.append(cpu)
            t.latencies.extend(lat)
            t.cpu_latencies.append(lat_cpu)
            t.segments.append(segment)
            t.untraced.append(t.rounds)
        t.rounds += 1
    t.cals.append(calibrate())
    t.cpu_s, t.wall_s = time.process_time() - cpu0, time.perf_counter() - begin
    t.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return t


def checked_pass(ops) -> tuple[list, bool]:
    """One traced pass over ops; each span flagged failed unless its oracle passes."""
    spans: list = []
    results = run_round(ops, True, spans)[0]
    for s, op, r in zip(spans, ops, results):
        s[4] = not passes(op, r)
    return spans, not any(s[4] for s in spans)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(t: Timed, setup_samples, failed_per_round) -> tuple[dict, dict]:
    """The gated metrics, in reference seconds, and figures reported
    without a gate: raw CPU time, wall time and the p99s."""
    # an op's CPU time over the mean of the calibrations either side of it
    scale = [CAL_REF_S * 2e9 / (a + b) for a, b in zip(t.cals, t.cals[1:])]
    rounds = [[x * scale[k] for x, k in zip(xs, ks)] for xs, ks in zip(t.cpu_latencies, t.segments)]
    ref = [sum(r) for r in rounds]
    ref_lat = sorted(x for r in rounds for x in r)
    lat, cpu = sorted(t.latencies), sorted(x for xs in t.cpu_latencies for x in xs)
    good = len(lat) - sum(failed_per_round[r] for r in t.untraced)
    values = {
        "setup_s": statistics.median(s["scaled"] for s in setup_samples),
        "round_s": statistics.median(ref) / 1e9,
        "ops_per_s": good / (sum(ref) / 1e9),
        "op_p50_ms": quantile(ref_lat, 0.50) / 1e6,
        "peak_rss_mb": t.peak_rss_mb,
    }
    ungated = {
        "op_p99_ms": quantile(ref_lat, 0.99) / 1e6,
        "calibration_ms": statistics.median(t.cals) / 1e6,
        "setup_cpu_s": statistics.median(s["cpu"] for s in setup_samples),
        "round_cpu_s": statistics.median(t.cpus) / 1e9,
        "ops_per_cpu_s": good / (sum(t.cpus) / 1e9),
        "op_p50_cpu_ms": quantile(cpu, 0.50) / 1e6,
        "op_p99_cpu_ms": quantile(cpu, 0.99) / 1e6,
        "setup_wall_s": statistics.median(s["wall"] for s in setup_samples),
        "setup_vdk_cpu_s": statistics.median(s["vdk_cpu"] for s in setup_samples),
        "setup_vdk_import_cpu_s": statistics.median(s["vdk_import_cpu"] for s in setup_samples),
        "round_wall_s": statistics.median(t.walls) / 1e9,
        "ops_per_wall_s": good / (sum(t.walls) / 1e9),
        "op_p50_wall_ms": quantile(lat, 0.50) / 1e6,
        "op_p99_wall_ms": quantile(lat, 0.99) / 1e6,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}, ungated


def layer_metrics(ops, t: Timed, extras, reference, counts) -> tuple[dict, dict, dict]:
    """Per-layer metrics, the source of each, and the reference suite's medians.

    A function's p50 and a count's time come from the workload's own spans
    (its traced rounds and extras); where the workload never makes that
    call they come from the reference suite that every traced run ends
    with.  A module's busy_s, calls and failed come from the traced rounds
    only, per round, so the modules the workload calls add up to the
    round; a module the rounds never call reads its figures per pass of
    the reference suite.
    """
    import tracing
    import workloads

    own = tracing.durations(t.spans + extras)
    ref = tracing.durations(reference + counts)
    values, sources = {}, {}

    def pick(name):
        if own.get(name):
            return own[name], "workload"
        return ref[name], "reference"

    for name in FUNCTIONS:
        ds, sources[name + ".p50_us"] = pick(name)
        values[name + ".p50_us"] = tracing.median_us(ds)
    for c in COUNTS:
        key = "certificate.convolution_count.%s_s" % c
        ds, sources[key] = pick("certificate.convolution_count." + c)
        values[key] = statistics.median(ds) / 1e9
    rounds = tracing.modules(t.spans, len(t.traced_walls))
    passes = tracing.modules(reference, workloads.REFERENCE_PASSES)
    for m in MODULES:
        src, mod = ("workload", rounds[m]) if m in rounds else ("reference", passes[m])
        for key in ("busy_s", "calls", "failed"):
            values["%s.%s" % (m, key)] = mod[key]
            sources["%s.%s" % (m, key)] = src
    # cli cost on top of the certificate check it wraps, on the same inputs
    checks = {i for i, op in enumerate(ops)
              if op.name == "cli.main" and op.args[0][:2] == ["certificate", "check"]}
    via_cli = [s[2] - s[1] for s in t.spans if s[0] == "cli.main" and s[3] % len(ops) in checks]
    direct = own.get("certificate.check_certificate")
    if via_cli and direct:
        sources["cli.overhead_us"] = "workload"
    else:
        via_cli, direct = ref["cli.main"], ref["certificate.check_certificate"]
        sources["cli.overhead_us"] = "reference"
    values["cli.overhead_us"] = tracing.median_us(via_cli) - tracing.median_us(direct)
    # each traced round against the untraced round just before it, so that
    # drift of the host cancels; the overhead by CPU time, the span total
    # (the busy_s of the modules the rounds call) by wall time like the
    # spans themselves
    pairs = list(zip(t.cpus, t.walls, t.traced_cpus, t.traced_busy))
    values["trace.overhead_ratio"] = statistics.median(tc / c for c, _, tc, _ in pairs) - 1
    values["trace.busy_over_wall"] = statistics.median(busy / w for _, w, _, busy in pairs)
    units = per_layer_units()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    reference_p50 = {name: tracing.median_us(ds) for name, ds in ref.items()}
    return metrics, sources, reference_p50


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "vdk" / "__init__.py").is_file():
        print("error: no vdk sources at %s; run from the root of a checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        print(json.dumps(timed_setup(args.workload, args.seed)))
        return 0

    setup_samples = [] if args.trace else [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    ops = setup(args.workload, args.seed)
    import workloads

    t = timed_rounds(ops, args.seconds, bool(args.trace))
    # oracle checks on round 1; every later round must have reproduced it
    bad = {i for i, (op, r) in enumerate(zip(ops, t.first)) if not passes(op, r)}
    failed_per_round = [len(bad | set(m)) for m in t.mismatch]
    failed = sum(failed_per_round)
    for s in t.spans:
        s[4] = s[4] or s[3] % len(ops) in bad or s[3] % len(ops) in t.mismatch[s[3] // len(ops)]

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(),
        "rounds": t.rounds, "ops_per_round": len(ops), "latency_samples": len(t.latencies),
        "timed_wall_s": t.wall_s, "timed_cpu_s": t.cpu_s,
        "setup_samples": setup_samples,
        "failed_ops": sorted({ops[i].name for i in bad}),
        "deep_probe_past_62_letters": workloads.deep_probe(),
    }
    correct = failed == 0
    if args.trace:
        extras, ok_extras = checked_pass(workloads.traced_extras(args.workload, ops))
        reference, ok_reference = checked_pass(
            workloads.build_reference(Random("reference-%d" % args.seed)))
        # cogrowth times every count itself
        counts, ok_counts = checked_pass([] if args.workload == "cogrowth" else workloads.count_ops())
        correct = correct and ok_extras and ok_reference and ok_counts
        metrics, details["metric_sources"], details["reference_p50_us"] = layer_metrics(
            ops, t, extras, reference, counts)
    else:
        metrics, details["ungated"] = end_to_end(t, setup_samples, failed_per_round)
        details["round_cpu_s"] = [c / 1e9 for c in t.cpus]
        details["calibrations_ms"] = [c / 1e6 for c in t.cals]

    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(ops) * t.rounds, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
