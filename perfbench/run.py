#!/usr/bin/env python3
"""Benchmark of the GETAFIX reproduction, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig2-efopt --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``fig2-efopt``, ``width-chain``, ``fig3-cbr`` — offline: one client
  calls the public batch API ``run_batch(queries, jobs=1)`` in a closed
  loop, one pass over the workload's queries after another, until
  ``--seconds`` have elapsed (the pass that crosses the limit completes).
* ``daemon-zipf`` — the server as shipped (``python -m
  repro.frontends.server --port 0 --workers 2``) driven by one client
  over one TCP connection: closed-loop sweeps over its corpus, then an
  open-loop Zipf stream at ``RATE`` requests/s for ``--seconds``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` is a separate run that reports the per-layer metrics: after
two untraced passes it wraps the public entry points of each layer
(:mod:`tracer`) and repeats passes, then writes the spans to
``perfbench/out/``.  Per-layer values are per pass.  The layer self times
(``*.self_s``) plus ``harness.unattributed_s`` add up to
``harness.trace_wall_s``.  A metric of a layer the workload does not run
in this process reads 0: the daemon's kernel runs in its workers, and the
offline workloads have no service layer.

Every verdict is checked against an answer that does not come from the
engine under test: the generators' known verdicts offline, and the
explicit Bebop and Moped baselines for the daemon's corpus (computed after
set-up, before the timed phase).  The last line of standard output is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Exit
status: 0 when every query was answered correctly, 1 when any query
failed, 2 when the source tree is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from hostspeed import REFERENCE_PROBE_S, SpeedProbe, median_probe  # noqa: E402  (beside this file)

OFFLINE = ("fig2-efopt", "width-chain", "fig3-cbr")
WORKLOADS = OFFLINE + ("daemon-zipf",)
#: Open-loop request rate of ``daemon-zipf`` (requests per second).
RATE = 50.0
#: Fresh processes whose set-up is timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Probe runs a set-up process makes before it sets up.
SETUP_PROBE_RUNS = 15
#: Outcome classes of a query; every class but ``ok`` is a failure.
#: ``drift``: the query's pass did other work than the run's first pass.
OUTCOMES = ("ok", "resource", "crash", "refused", "wrong", "drift")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Set-up: imports, input generation and, for the daemon, the server.
# ---------------------------------------------------------------------------

def prepare(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """Build the workload's inputs (and start the server for the daemon)."""
    import workloads

    if workload == "fig2-efopt":
        return {"queries": workloads.fig2_queries(seed)}
    if workload == "width-chain":
        return {"queries": workloads.width_chain_queries(seed)}
    if workload == "fig3-cbr":
        return {"queries": workloads.fig3_queries(seed)}
    import daemon_load

    corpus = workloads.zipf_corpus()
    stream = workloads.zipf_stream(corpus, max(1, int(RATE * seconds)), seed)
    server = daemon_load.ServerProcess(ROOT)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return {"corpus": corpus, "stream": stream, "server": server}


def release(prepared: Dict[str, object]) -> None:
    server = prepared.get("server")
    if server is not None:
        server.stop()


def setup_probe(args: argparse.Namespace) -> int:
    """Child side of a set-up measurement: set up, say ``ready``, wait for EOF.

    The host-speed probe runs first, before anything of the program is
    imported, and its median and duration go out with ``ready``.
    """
    started = time.perf_counter()
    speed = median_probe(SETUP_PROBE_RUNS)
    probing = time.perf_counter() - started
    prepared = prepare(args.workload, args.seed, args.seconds)
    try:
        print(f"ready {speed!r} {probing!r}", flush=True)
        sys.stdin.read()
    finally:
        release(prepared)
    return 0


def measure_setup(args: argparse.Namespace) -> List[Tuple[float, float]]:
    """Seconds from spawning a fresh process to the end of its set-up.

    Returns ``(scaled, raw)`` pairs.  The raw time leaves out the child's
    own probe runs.  Offline, the scaled time divides it by the slowdown
    those runs saw; they ran before the set-up did, so its CPU use cannot
    slow them.  The daemon's set-up spreads over the set-up process, the
    server and its two workers on both cores, which one process's probe
    does not speak for: the caller rescales it by the run's idle probes
    (the echo chain's factor).
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdin.close()
        child.stdout.close()
        try:
            code = child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            code = child.wait()
        said = line.split()
        if len(said) != 3 or said[0] != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        speed, probing = float(said[1]), float(said[2])
        raw = ready - started - probing
        scaled = raw / (speed / REFERENCE_PROBE_S) if args.workload in OFFLINE else raw
        samples.append((scaled, raw))
    return samples


# ---------------------------------------------------------------------------
# Offline workloads: run_batch passes.
# ---------------------------------------------------------------------------

def classify_shard(shard) -> str:
    if shard.status in ("timeout", "resource"):
        return "resource"
    if not shard.ok:
        return "crash"
    if shard.result.reachable != shard.expected:
        return "wrong"
    return "ok"


def pass_counts(shards) -> Dict[str, float]:
    """Deterministic work counts of one pass, from the shards' kernel statistics."""
    counts: Counter = Counter()
    peak = 0
    for shard in shards:
        result = shard.result
        if result is None:
            continue
        stats = result.stats
        manager = stats["manager"]
        for op, numbers in manager["ops"].items():
            counts[f"{op}.hits"] += numbers["hits"]
            counts[f"{op}.misses"] += numbers["misses"]
            counts["misses_total"] += numbers["misses"]
        peak = max(peak, manager["peak_nodes"])
        counts["rename_fallbacks"] += manager["rename_fallback"]
        counts["gc.collections"] += manager["gc"]["collections"]
        counts["gc.reclaimed"] += manager["gc"]["reclaimed"]
        counts["plan_memo_hits"] += stats.get("plan_memo_hits", 0)
        counts["plan_memo_misses"] += stats.get("plan_memo_misses", 0)
        counts["iterations"] += result.iterations
        counts["equation_evals"] += result.equation_evaluations
        counts["bdd_vars"] += result.details.get("bdd_variables", 0)
    counts["peak_nodes"] = peak
    return dict(counts)


def one_pass(queries) -> Dict[str, object]:
    import repro.algorithms as algorithms

    started = time.perf_counter()
    report = algorithms.run_batch(queries, jobs=1)
    ended = time.perf_counter()
    outcomes = [classify_shard(shard) for shard in report.shards]
    return {
        "start": started,
        "end": ended,
        "wall": ended - started,
        "latencies": [shard.elapsed_seconds for shard in report.shards],
        "outcomes": Counter(outcomes),
        "problems": [f"{shard.name}: {outcome} {shard.error or ''}".strip()
                     for shard, outcome in zip(report.shards, outcomes) if outcome != "ok"],
        "counts": pass_counts(report.shards),
    }


def scaled_pass(p: Dict[str, object], probe) -> Tuple[float, List[float]]:
    """A pass's wall time and query latencies rescaled to the reference host speed.

    Queries run one after another, so each one's interval is recovered
    from the pass start and the latencies before it.
    """
    latencies = []
    at = p["start"]
    for latency in p["latencies"]:
        latencies.append(probe.scaled(at, at + latency))
        at += latency
    return probe.scaled(p["start"], p["end"]), latencies


def run_offline(prepared, seconds: float, trace: bool, trace_path: Path) -> Dict[str, object]:
    """Closed-loop passes; a traced run first makes two untraced passes."""
    queries = prepared["queries"]
    started = time.perf_counter()
    baselines = []
    tracer = None
    if trace:
        from tracer import Tracer

        # The first pass of a process is slower (lazy imports, heap growth),
        # so the untraced pass that tracing is compared with is the second.
        # The probe keeps sampling in the traced passes; its time lands in
        # whichever span it interrupts, about 1.5% of each layer's time.
        with SpeedProbe() as probe:
            baselines = [one_pass(queries), one_pass(queries)]
        baseline_wall = probe.scaled(baselines[1]["start"], baselines[1]["end"])
        tracer = Tracer()
        tracer.install()
    probe = SpeedProbe()
    passes = []
    try:
        with probe:
            while True:
                passes.append(one_pass(queries))
                if len(passes) == 1:
                    # The heap grows over the first few passes and then
                    # levels off, so the high-water mark of later passes
                    # depends on how many fitted in the run.
                    first_pass_rss = self_peak_rss_mb()
                if time.perf_counter() - started >= seconds:
                    break
    finally:
        if tracer is not None:
            tracer.uninstall()
    measured = passes + baselines
    outcomes: Counter = Counter()
    problems: List[str] = []
    drifted = 0
    for p in measured:
        if p["counts"] != passes[0]["counts"]:
            # Work counts are deterministic: a pass that did different work
            # fails all of its otherwise correct queries.
            drifted += 1
            p["outcomes"]["drift"] += p["outcomes"].pop("ok", 0)
            changed = {key: value for key, value in p["counts"].items()
                       if passes[0]["counts"].get(key) != value}
            p["problems"].append(f"work counts differ from the first pass: {changed}")
        outcomes.update(p["outcomes"])
        problems.extend(p["problems"])
    raw_walls = [p["wall"] for p in passes]
    raw_latencies = [x for p in passes for x in p["latencies"]]
    scaled = [scaled_pass(p, probe) for p in passes]
    walls = [wall for wall, _ in scaled]
    latencies = [x for _, pass_latencies in scaled for x in pass_latencies]
    out = {
        "passes": len(passes),
        "outcomes": outcomes,
        "problems": problems,
        "counts": passes[0]["counts"],
        "counts_repeat": drifted == 0,
        "metrics": {
            "sweep_s": statistics.median(walls),
            "req_p50_ms": percentile(latencies, 50) * 1e3,
            "req_p95_ms": percentile(latencies, 95) * 1e3,
            "peak_rss_mb": first_pass_rss,
        },
        "raw": {
            "sweep_s": statistics.median(raw_walls),
            "req_p50_ms": percentile(raw_latencies, 50) * 1e3,
            "req_p95_ms": percentile(raw_latencies, 95) * 1e3,
        },
        "samples": {"sweep_s": len(walls), "req": len(latencies)},
    }
    if tracer is not None:
        trace_wall = passes[-1]["end"] - passes[0]["start"]
        out["layers"] = offline_layers(tracer, passes, trace_wall,
                                       statistics.median(walls) / baseline_wall)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
    return out


def offline_layers(tracer, passes, trace_wall: float, overhead: float) -> Dict[str, float]:
    """Per-pass per-layer metrics of a traced offline run."""
    from tracer import LAYERS, OP_FAMILIES

    n = len(passes)
    counts = passes[0]["counts"]
    busy = {layer: tracer.busy_s.get(layer, 0.0) / n for layer in LAYERS}
    own = {layer: tracer.self_s.get(layer, 0.0) / n for layer in LAYERS}
    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own[layer]
    m["boolprog.front_s"] = busy["boolprog.front"]
    m["encode.busy_s"] = busy["encode"]
    m["encode.bdd_vars"] = counts.get("bdd_vars", 0)
    m["fixedpoint.busy_s"] = busy["fixedpoint"]
    m["fixedpoint.iterations"] = counts.get("iterations", 0)
    m["fixedpoint.equation_evals"] = counts.get("equation_evals", 0)
    memo = counts.get("plan_memo_hits", 0) + counts.get("plan_memo_misses", 0)
    m["fixedpoint.plan_memo_hit_rate"] = counts.get("plan_memo_hits", 0) / memo if memo else 0.0
    for op in OP_FAMILIES:
        m[f"bdd.{op}.calls"] = tracer.calls.get(f"bdd.{op}", 0) / n
        m[f"bdd.{op}.busy_s"] = busy[f"bdd.{op}"]
        if f"{op}.hits" in counts:  # families with an operation cache of their own
            hits = counts.get(f"{op}.hits", 0)
            misses = counts.get(f"{op}.misses", 0)
            m[f"bdd.{op}.misses"] = misses
            m[f"bdd.{op}.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m["bdd.rename.fallbacks"] = counts.get("rename_fallbacks", 0)
    m["bdd.misses_total"] = counts.get("misses_total", 0)
    m["bdd.peak_nodes"] = counts.get("peak_nodes", 0)
    m["bdd.gc.collections"] = counts.get("gc.collections", 0)
    m["bdd.gc.busy_s"] = busy["bdd.gc"]
    m["bdd.gc.reclaimed"] = counts.get("gc.reclaimed", 0)
    m["api.solve_s"] = busy["api.solve"]
    m["api.check_s"] = busy["api.check"]
    m["parallel.batch_overhead_s"] = busy["parallel.batch"] - busy["parallel.query"]
    m["harness.trace_overhead"] = overhead
    m["harness.trace_wall_s"] = trace_wall / n
    m["harness.unattributed_s"] = (trace_wall - tracer.root_time()) / n
    return m


# ---------------------------------------------------------------------------
# daemon-zipf: open-loop stream against the served daemon.
# ---------------------------------------------------------------------------

def classify_response(response, expected: bool) -> str:
    if response is None:
        return "crash"
    status = response.get("status")
    if status in ("timeout", "resource"):
        return "resource"
    if status in ("shed", "circuit-open", "draining"):
        return "refused"
    if not response.get("ok"):
        return "crash"
    if response.get("reachable") != expected:
        return "wrong"
    return "ok"


def run_daemon(prepared) -> Dict[str, object]:
    import daemon_load
    import workloads

    corpus, stream, server = prepared["corpus"], prepared["stream"], prepared["server"]
    expected = workloads.explicit_verdicts(corpus)
    result = daemon_load.drive(server.port, corpus, stream, RATE, workloads.CORPUS_TARGET)
    # The server and its workers share both cores with this process, so the
    # probes ran only while they were idle, and one factor for the whole run
    # rescales every daemon time: the echo chain's, which tracked the
    # daemon's times from run to run better than the pure-Python probe's
    # (printed beside it).
    host_slowdown = result.probe.median_slowdown()
    slowdown = result.probe.median_chain_slowdown()
    rss = server.peak_rss_mb()
    outcomes: Counter = Counter()
    problems: List[str] = []
    latencies, overheads, workers, late = [], [], [], []
    warm = 0
    for index, name in enumerate(stream):
        response = result.responses[index]
        outcome = classify_response(response, expected[name])
        outcomes[outcome] += 1
        late.append(result.sent[index] - result.due[index])
        if outcome != "ok":
            problems.append(f"request {index} ({name}): {outcome} {response}")
            continue
        answered = result.answered[index]
        latencies.append(answered - result.due[index])
        elapsed = float(response.get("elapsed_seconds", 0.0))
        workers.append(elapsed)
        overheads.append(answered - result.sent[index] - elapsed)
        warm += 1 if response.get("warm") else 0
    for name, response in result.warmup:
        outcome = classify_response(response, expected[name])
        outcomes[outcome] += 1
        if outcome != "ok":
            problems.append(f"sweep {name}: {outcome} {response}")
    before = result.metrics_before.get("counters", {})
    counters = {key: value - before.get(key, 0)
                for key, value in result.metrics.get("counters", {}).items()}
    if not latencies:
        latencies = overheads = workers = [0.0]
    return {
        "passes": 1,
        "outcomes": outcomes,
        "problems": problems,
        "metrics": {
            "sweep_s": statistics.median(result.sweep_walls) / slowdown,
            "req_p50_ms": percentile(latencies, 50) * 1e3 / slowdown,
            "req_p95_ms": percentile(latencies, 95) * 1e3 / slowdown,
            "peak_rss_mb": rss,
        },
        "raw": {
            "sweep_s": statistics.median(result.sweep_walls),
            "req_p50_ms": percentile(latencies, 50) * 1e3,
            "req_p95_ms": percentile(latencies, 95) * 1e3,
        },
        "samples": {"sweep_s": len(result.sweep_walls), "req": len(latencies)},
        "slowdown": slowdown,
        "layers": {
            "service.overhead_ms": percentile(overheads, 50) * 1e3,
            "service.warm_share": warm / len(stream),
            "service.worker_ms": percentile(workers, 50) * 1e3,
            "service.solves": counters.get("solves", 0),
            "service.evictions": counters.get("evictions", 0),
            "service.coalesced": counters.get("coalesced", 0),
            "service.retried": counters.get("retried", 0),
            "service.shed": counters.get("shed_ladder", 0) + counters.get("shed_rejected", 0),
            "harness.gen_late_ms": percentile(late, 99) * 1e3,
            "harness.idle_probes": len(result.probe.samples),
            "harness.host_slowdown": host_slowdown,
            "harness.hop_slowdown": slowdown,
        },
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def bypassed(workload: str, metric: str) -> bool:
    """Whether ``metric`` belongs to a layer ``workload`` does not run in this process."""
    daemon_side = metric.startswith("service.") or metric == "harness.gen_late_ms"
    if workload in OFFLINE:
        return daemon_side
    return not daemon_side


def benchmark_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


def report(args, setup_samples: List[Tuple[float, float]], out: Dict[str, object]) -> int:
    spec = benchmark_spec()
    outcomes: Counter = out["outcomes"]
    attempted = sum(outcomes.values())
    failed = attempted - outcomes["ok"]
    values = dict(out["metrics"])
    values["setup_s"] = statistics.median(scaled for scaled, _ in setup_samples)
    raw = dict(out.get("raw", {}))
    raw["setup_s"] = statistics.median(raw_s for _, raw_s in setup_samples)
    if args.trace:
        layers = dict(out.get("layers", {}))
        chosen = spec["per_layer"]
    else:
        layers = {}
        chosen = spec["end_to_end"]
    metrics = {}
    for entry in chosen:
        name = entry["name"]
        if name in values:
            value = values[name]
        elif name in layers:
            value = layers[name]
        elif bypassed(args.workload, name):
            value = 0
        else:
            raise KeyError(f"{args.workload} produced no value for metric {name!r}")
        metrics[name] = {"value": value, "unit": entry["unit"]}

    samples = out["samples"]
    print(f"== {args.workload}  seed={args.seed}  trace={args.trace}  "
          f"passes={out['passes']}  queries={attempted} ==")
    print(f"{args.workload}: setup_s={values['setup_s']:.4f} s (median of "
          f"{len(setup_samples)})  sweep_s={values['sweep_s']:.4f} s (median of "
          f"{samples['sweep_s']})  req_p50_ms={values['req_p50_ms']:.3f} ms  "
          f"req_p95_ms={values['req_p95_ms']:.3f} ms (n={samples['req']})  "
          f"peak_rss_mb={values['peak_rss_mb']:.1f} MB")
    if not args.trace:
        print(f"{args.workload}: unscaled wall clock: "
              + "  ".join(f"{name}={value:.4f}" for name, value in raw.items()))
    print(f"{args.workload}: failed_share={failed / attempted if attempted else 0.0:.4f}  "
          + "  ".join(f"{name}={outcomes[name]}" for name in OUTCOMES))
    if not args.trace and args.workload not in OFFLINE:
        print(f"{args.workload}: " + "  ".join(
            f"{name}={value:.4f}" for name, value in out["layers"].items()))
    if "counts" in out:
        counts = out["counts"]
        print(f"{args.workload}: work counts per pass: misses_total={counts['misses_total']} "
              f"peak_nodes={counts['peak_nodes']} iterations={counts['iterations']} "
              f"(identical in every pass: {out['counts_repeat']})")
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name:34s} {entry['value']:>16.6f} {entry['unit']}")
        if "harness.trace_wall_s" in layers:
            self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            print(f"{args.workload}: sum of layer self times {self_sum:.6f} s + unattributed "
                  f"{layers['harness.unattributed_s']:.6f} s = traced wall "
                  f"{layers['harness.trace_wall_s']:.6f} s per pass")
    for problem in out["problems"][:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one set-up in a fresh process")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    setup_samples = measure_setup(args)
    prepared = prepare(args.workload, args.seed, args.seconds)
    try:
        if args.workload in OFFLINE:
            trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            out = run_offline(prepared, args.seconds, bool(args.trace), trace_path)
        else:
            out = run_daemon(prepared)
            setup_samples = [(raw / out["slowdown"], raw) for _, raw in setup_samples]
    finally:
        release(prepared)
    return report(args, setup_samples, out)


if __name__ == "__main__":
    sys.exit(main())
