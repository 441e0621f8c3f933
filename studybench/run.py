#!/usr/bin/env python3
"""studybench: host-time benchmark of satnetperf's measurement study.

Usage (from the repository root):

    python3 studybench/run.py --workload report_cold --seed 0 --seconds 30 --trace 0
    python3 studybench/run.py --self-test
    python3 studybench/run.py --record-golden 32

Builds studybench_meter (CMakeLists.txt in this folder) under
.bench_build/, runs it in a fresh process per measured operation set for
--seconds seconds, checks every output, and prints one JSON result as the
last line of stdout. --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced processes and reports the per-layer
metrics plus the tracing overhead. README.md says why each workload exists
and which layer metric should move which end-to-end metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
WORKLOADS = ("report_cold", "report_warm", "matrix_sweep")

# Fewest measured processes per run (studies, sweeps): with --trace 1
# half of them are traced.
MIN_STUDIES = 4
MIN_SWEEPS = 2
# Cold studies that produce the warm workload's timeline file (set-up).
PREPARES = 3
METER_TIMEOUT_S = 170

# Counters that pin what the simulator simulated. A change meant only to
# make the simulator faster leaves every one of them unchanged.
FINGERPRINT_COUNTERS = (
    "transport.tcp.flows",
    "transport.tcp.handoffs",
    "transport.tcp.rtos",
    "transport.tcp.bytes_sent",
    "transport.tcp.bytes_retrans",
    "mlab.tests_generated",
    "mlab.records",
    "ripe.traceroutes",
    "ripe.traceroute_hops",
    "ripe.sslcerts",
)

# Spans timed per layer. Each reports <span>_s (wall) and <span>_cpu_s;
# a layer a workload never calls reads 0.
LAYER_SPANS = (
    "synth.world",
    "synth.generate",
    "mlab.plan",
    "orbit.timeline_build",
    "mlab.campaign",
    "snoid.pipeline",
    "ripe.atlas",
    "io.report",
    "io.timeline_load",
    "io.timeline_save",
    "matrix.check_sgp4",
    "matrix.check_walker",
)
# Spans repeated inside one process: per-process value is their median
# (set-up repeats) or their sum (one span per world).
MEDIAN_SPANS = {"synth.generate"}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, failed build)."""


# ---------------------------------------------------------------- helpers


def percentile(values, p):
    """Linear-interpolated percentile (p in [0, 100]) and its sample count."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo), len(xs)


def self_time(spans, index):
    """Span duration minus the part of it its direct children cover."""
    span = spans[index]
    kids = sorted(
        (max(s["start"], span["start"]), min(s["end"], span["end"]))
        for s in spans
        if s["parent"] == index
    )
    covered, reach = 0.0, span["start"]
    for start, end in kids:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return span["end"] - span["start"] - covered


def md5(data):
    return hashlib.md5(data).hexdigest()


def report_ok(data, expected_md5):
    """A report passes when its bytes hash to the recorded digest."""
    return md5(data) == expected_md5


def world_failures(worlds):
    """Worlds that violated an invariant or threw inside check_spec."""
    return sum(1 for w in worlds if w["error"])


def error_rate(attempted, failed):
    return failed / attempted if attempted else 1.0


def fingerprint(counters, report_md5=None):
    fp = {name: counters.get(name, 0) for name in FINGERPRINT_COUNTERS}
    if report_md5 is not None:
        fp["report_md5"] = report_md5
    return fp


def median(values):
    return statistics.median(values) if values else 0.0


def spans_named(rec, name):
    return [s for s in rec.get("spans", []) if s["name"] == name]


def span_s(rec, name, field="wall"):
    """Per-process time of a span name: wall (end-start) or cpu."""
    vals = [s["end"] - s["start"] if field == "wall" else s["cpu"] for s in spans_named(rec, name)]
    if not vals:
        return 0.0
    return median(vals) if name in MEDIAN_SPANS else sum(vals)


def root_index(rec, name):
    for i, s in enumerate(rec.get("spans", [])):
        if s["name"] == name and s["parent"] == -1:
            return i
    return None


# ------------------------------------------------------------ build/drive


def threads():
    return len(os.sched_getaffinity(0))


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "studybench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no satnetperf sources under {ROOT / 'src'}")
    out = build_dir()
    cmd = ["cmake", "-S", str(BENCH), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", str(threads()), "--target", "studybench_meter"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("meter build failed")
    (out / "out").mkdir(exist_ok=True)
    return out / "studybench_meter"


def measure(meter, args):
    """One meter process; returns its record (ok false on any failure)."""
    try:
        p = subprocess.run(
            [str(meter)] + args, capture_output=True, text=True, timeout=METER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"meter timed out after {METER_TIMEOUT_S}s"}
    lines = p.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = p.stderr.strip().splitlines()[-1:] or [""]
        return {"ok": False, "error": f"meter exit {p.returncode}: {tail[0]}"}
    if p.returncode != 0 and rec.get("ok"):
        rec["ok"] = False
        rec["error"] = f"meter exit {p.returncode}"
    return rec


def repeat(seconds, least, once):
    """Calls once(i) until `seconds` have passed and it ran `least` times."""
    recs, t0 = [], time.monotonic()
    while len(recs) < least or time.monotonic() - t0 < seconds:
        recs.append(once(len(recs)))
    return recs


# -------------------------------------------------------------- workloads


class Run:
    """One benchmark run: records, outcome counts and printed notes."""

    def __init__(self, workload, seed, trace):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.root = "sweep" if workload == "matrix_sweep" else "study"
        self.n = threads()
        self.attempted = self.failed = 0
        self.reps = []  # measured meter records
        self.prepares = []  # report_warm set-up records
        self.notes = []
        self.world_ms = []
        self.timeline_files = []

    def fail(self, why):
        self.notes.append("FAIL " + why)

    def traced(self, i):
        return self.trace and i % 2 == 1


def study_args(run, i, tag, extra):
    out = build_dir() / "out" / f"{run.workload}-{tag}{i}.md"
    args = ["study", "--seed", str(run.seed), "--threads", str(run.n), "--run-id", str(i)]
    return args + ["--report-out", str(out)] + extra, out


def run_study(run, meter, i, tag, extra, traced):
    args, out = study_args(run, i, tag, extra + (["--trace"] if traced else []))
    if out.exists():
        out.unlink()
    rec = measure(meter, args)
    rec["traced"] = traced
    rec["report"] = out.read_bytes() if rec.get("ok") and out.exists() else None
    return rec


def check_studies(run, golden):
    """Every study, set-up ones included, must reproduce one report and
    one simulated-statistics fingerprint: the recorded ones for a seed in
    golden.json, otherwise those of the run's first study."""
    ref = golden.get(str(run.seed))
    for rec in run.prepares + run.reps:
        run.attempted += 1
        if not rec.get("ok") or rec["report"] is None:
            run.failed += 1
            run.fail(f"study: {rec.get('error', 'no report')}")
            continue
        fp = fingerprint(rec["counters"], md5(rec["report"]))
        if ref is None:
            ref = fp
        if not report_ok(rec["report"], ref["report_md5"]):
            run.failed += 1
            run.fail(f"report md5 {fp['report_md5']} != {ref['report_md5']}")
        elif fp != ref:
            run.failed += 1
            run.fail("simulated statistics differ: " + json.dumps(fp, sort_keys=True))
    source = "golden.json" if str(run.seed) in golden else "first study of this run"
    run.notes.append(f"fingerprint ({source}) " + json.dumps(ref, sort_keys=True))
    files = {md5(p.read_bytes()) if p.exists() else None for p in run.timeline_files}
    if len(files) > 1:
        run.failed += 1
        run.fail("the set-up studies saved different timeline files")
    if run.prepares:
        run.notes.append(f"warm reports checked against {len(run.prepares)} cold set-up studies")


def workload_report(run, meter, seconds):
    extra = []
    if run.workload == "report_warm":
        for i in range(PREPARES):
            tl = build_dir() / "out" / f"timeline-{i}.bin"
            run.timeline_files.append(tl)
            run.prepares.append(
                run_study(run, meter, i, "cold", ["--timeline-out", str(tl)], False)
            )
        extra = ["--timeline-in", str(run.timeline_files[0])]
    run.reps = repeat(
        seconds, MIN_STUDIES, lambda i: run_study(run, meter, i, "rep", extra, run.traced(i))
    )
    run.world_ms = [
        1e3 * span_s(r, "study") for r in run.reps if r.get("ok") and not r["traced"]
    ]


def workload_sweep(run, meter, seconds):
    def once(i):
        args = ["sweep", "--seed", str(run.seed), "--threads", str(run.n), "--run-id", str(i)]
        rec = measure(meter, args + (["--trace"] if run.traced(i) else []))
        rec["traced"] = run.traced(i)
        return rec

    run.reps = repeat(seconds, MIN_SWEEPS, once)
    ref = None
    for rec in run.reps:
        worlds = rec.get("worlds", [])
        if not rec.get("ok") or not worlds:
            run.attempted += max(len(worlds), 1)
            run.failed += max(len(worlds), 1)
            run.fail(f"sweep: {rec.get('error', 'no worlds')}")
            continue
        run.attempted += len(worlds)
        bad = world_failures(worlds)
        run.failed += bad
        for w in worlds:
            if w["error"]:
                run.fail(f"world {w['seed']}: {w['error']}")
        fp = fingerprint(rec["counters"])
        fp["worlds"] = [w["seed"] for w in worlds]
        if ref is None:
            ref = fp
            sgp4 = sum(w["sgp4"] for w in worlds)
            run.notes.append(
                f"sweep of {len(worlds)} worlds from seed {worlds[0]['seed']}, "
                f"{sgp4} on SGP4; thread counts {{1, 2, {run.n}}}"
            )
            shown = {k: v for k, v in fp.items() if k != "worlds"}
            run.notes.append("fingerprint " + json.dumps(shown, sort_keys=True))
        elif fp != ref:
            run.failed += len(worlds) - bad
            run.fail("sweep fingerprint differs from the run's first sweep")
        if not rec["traced"]:
            run.world_ms += [w["ms"] for w in worlds]


# ---------------------------------------------------------------- metrics


def end_to_end(run):
    setup_span = "synth.generate" if run.workload == "matrix_sweep" else "synth.world"
    good = [r for r in run.reps if r.get("ok") and not r["traced"]]
    setup = median([span_s(r, setup_span) for r in good])
    if run.workload == "report_warm":
        # Producing the timeline file is set-up too: a cold study plus the save.
        prep = [p for p in run.prepares if p.get("ok")]
        setup += median(
            [span_s(p, "synth.world") + span_s(p, "study") + span_s(p, "io.timeline_save")
             for p in prep]
        )
    p50, n = percentile(run.world_ms, 50) if run.world_ms else (0.0, 0)
    p90, _ = percentile(run.world_ms, 90) if run.world_ms else (0.0, 0)
    what = "world" if run.workload == "matrix_sweep" else "study"
    run.notes.append(f"world_p50_ms / world_p90_ms over {n} {what} samples")
    return {
        "setup_s": (setup, "s"),
        "wall_s": (median([span_s(r, run.root) for r in good]), "s"),
        "cpu_s": (median([span_s(r, run.root, "cpu") for r in good]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in good]), "MB"),
        "world_p50_ms": (p50, "ms"),
        "world_p90_ms": (p90, "ms"),
    }


def layer_values(rec, run):
    """Per-layer metrics of one traced process."""
    out = {}
    for name in LAYER_SPANS:
        out[name + "_s"] = (span_s(rec, name), "s")
        out[name + "_cpu_s"] = (span_s(rec, name, "cpu"), "s")
    c = rec.get("counters", {})

    def ratio(a, b):
        return a / b if b else 0.0

    built, hits = c.get("timeline.build.epochs", 0), c.get("timeline.replay.hit", 0)
    busy, idle = c.get("runtime.pool.busy_us", 0) / 1e6, c.get("runtime.pool.idle_us", 0) / 1e6
    ahit, amiss = c.get("access.cache.hit", 0), c.get("access.cache.miss", 0)
    wait = sum(v for k, v in c.items() if k.startswith("profile.") and k.endswith(".queue_wait_us"))
    out.update({
        "orbit.timeline.epochs_built": (built, "count"),
        "orbit.timeline.replay_hits": (hits, "count"),
        "orbit.timeline.fallbacks": (c.get("timeline.replay.fallback", 0), "count"),
        "orbit.timeline.useful_ratio": (ratio(hits, built), "ratio"),
        "orbit.access.slab_builds": (c.get("access.cache.slab_build", 0), "count"),
        "orbit.access.hit_ratio": (ratio(ahit, ahit + amiss), "ratio"),
        "runtime.pool.busy_s": (busy, "s"),
        "runtime.pool.idle_s": (idle, "s"),
        "runtime.queue_wait_s": (wait / 1e6, "s"),
        "runtime.busy_fraction": (ratio(busy, busy + idle), "ratio"),
        "runtime.shard.retries": (c.get("runtime.shard.retry", 0), "count"),
        "runtime.shard.degraded": (c.get("runtime.shard.degraded", 0), "count"),
        "transport.tcp.flows": (c.get("transport.tcp.flows", 0), "count"),
        "transport.tcp.handoffs": (c.get("transport.tcp.handoffs", 0), "count"),
        "transport.tcp.rtos": (c.get("transport.tcp.rtos", 0), "count"),
        "transport.tcp.retrans_ratio": (
            ratio(c.get("transport.tcp.bytes_retrans", 0), c.get("transport.tcp.bytes_sent", 0)),
            "ratio",
        ),
        "ripe.traceroutes": (c.get("ripe.traceroutes", 0), "count"),
        "ripe.traceroute_hops": (c.get("ripe.traceroute_hops", 0), "count"),
        "mlab.records": (c.get("mlab.records", 0), "count"),
    })
    root = root_index(rec, run.root)
    wall = span_s(rec, run.root)
    own = self_time(rec["spans"], root)
    out["trace.root_self_s"] = (own, "s")
    out["trace.span_coverage"] = (ratio(wall - own, wall), "ratio")
    return out


def per_layer(run):
    traced = [r for r in run.reps if r.get("ok") and r["traced"]]
    plain = [r for r in run.reps if r.get("ok") and not r["traced"]]
    if not traced or not plain:
        raise BenchError("traced run needs traced and untraced processes")
    rows = [layer_values(r, run) for r in traced]
    metrics = {k: (median([row[k][0] for row in rows]), unit) for k, (_, unit) in rows[0].items()}
    if run.workload == "report_warm":
        saves = [span_s(p, "io.timeline_save") for p in run.prepares if p.get("ok")]
        save_cpu = [span_s(p, "io.timeline_save", "cpu") for p in run.prepares if p.get("ok")]
        metrics["io.timeline_save_s"] = (median(saves), "s")
        metrics["io.timeline_save_cpu_s"] = (median(save_cpu), "s")
    sizes = [r.get("timeline_bytes", 0) for r in traced]
    metrics["io.timeline.file_bytes"] = (median(sizes), "bytes")
    overhead = median([span_s(r, run.root) for r in traced]) - median(
        [span_s(r, run.root) for r in plain]
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    run.notes.append(
        f"per-layer values are medians of {len(traced)} traced processes; tracing overhead "
        f"against {len(plain)} untraced ones"
        + ("; the traced study runs mlab.plan once more (inside mlab.campaign)"
           if run.root == "study" else "")
    )
    return metrics


def write_spans(run):
    """Spans stay in memory in each process and are written here at exit."""
    path = build_dir() / "out" / f"spans-{run.workload}-seed{run.seed}.jsonl"
    with open(path, "w") as f:
        for rec in run.prepares + run.reps:
            for i, s in enumerate(rec.get("spans", [])):
                row = dict(s, run_id=rec.get("run_id"), index=i, traced=rec.get("traced"))
                row["self"] = self_time(rec["spans"], i)
                f.write(json.dumps(row) + "\n")
    run.notes.append(f"spans written to {path.relative_to(ROOT)}")


def bench(workload, seed, seconds, trace):
    meter = build()
    golden = json.loads(GOLDEN.read_text())["studies"]
    run = Run(workload, seed, trace)
    if workload == "matrix_sweep":
        workload_sweep(run, meter, seconds)
    else:
        workload_report(run, meter, seconds)
        check_studies(run, golden)
    metrics = per_layer(run) if trace else end_to_end(run)
    write_spans(run)
    print(f"studybench {workload} seed={seed} threads={run.n} processes={len(run.reps)}"
          + (f" (+{len(run.prepares)} set-up studies)" if run.prepares else ""))
    for note in run.notes:
        print("  " + note)
    rate = error_rate(run.attempted, run.failed)
    print(f"  error_rate {run.failed}/{run.attempted} = {rate:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def record_golden(count):
    """Writes golden.json: report digest and fingerprint of the cold
    study for benchmark seeds 0..count-1. Seed 0 is `satnetctl report`."""
    meter = build()
    run = Run("report_cold", 0, False)
    studies = {}
    for seed in range(count):
        run.seed = seed
        rec = run_study(run, meter, 0, "golden", [], False)
        if not rec.get("ok"):
            raise BenchError(f"seed {seed}: {rec.get('error')}")
        studies[str(seed)] = fingerprint(rec["counters"], md5(rec["report"]))
        print(f"seed {seed}: {studies[str(seed)]['report_md5']}", file=sys.stderr)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden["studies"] = studies
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-golden", type=int, metavar="SEEDS")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        if args.self_test:
            import unittest

            sys.path.insert(0, str(BENCH))
            suite = unittest.defaultTestLoader.loadTestsFromName("selftest")
            return 0 if unittest.TextTestRunner().run(suite).wasSuccessful() else 1
        if args.record_golden:
            record_golden(args.record_golden)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"studybench: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
