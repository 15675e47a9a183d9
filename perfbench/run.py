"""The SDK benchmark: one workload run, or a comparison of result sets.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--out RESULTS.jsonl]
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

A run builds its inputs from ``--seed``, sets up several times (median
reported as ``setup_s``), measures a fixed number of ops (scaled with
``--seconds``), checks every op's output and prints a summary followed by
one JSON line: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``.  ``--out`` also appends the run to a result set;
``--compare`` prints, per (workload, metric), both sides' median and
quartiles and a verdict.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
sys.path.insert(0, HERE)

#: Set-up samples per untraced run (the median is reported).
SETUPS = 5
#: Environment knobs that change the program's behaviour: unset for
#: every process the benchmark starts.
UNSET_ENV = ("REPRO_JOBS", "REPRO_TILE_THRESHOLD", "REPRO_CC")
#: The highest tail percentile must leave at least this many samples.
TAIL_SAMPLES = 10
#: Fewest paired runs on which compare may call a metric improved.
MIN_PAIRS = 10
#: Checked warm-up requests of a run (only serve-hot has any).
NO_WARMUP = {"attempted": 0, "errors": []}


def tail_percentile(n_ops: int) -> float:
    """The highest percentile (0.1 steps) with >= TAIL_SAMPLES beyond."""
    return int(1000 * (1 - TAIL_SAMPLES / n_ops)) / 10


def block_tail(latencies: List[float], blocks: int) -> float:
    """Median over ``blocks`` consecutive blocks of each block's latency
    at its tail percentile."""
    size = len(latencies) // blocks
    return statistics.median(
        percentile(latencies[b * size:(b + 1) * size], tail_percentile(size))
        for b in range(blocks))


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class Scratch:
    """The run's private directory inside the checkout and the processes
    it started; :meth:`close` stops them and removes the directory."""

    def __init__(self) -> None:
        base = os.path.join(ROOT, ".perfbench")
        os.makedirs(base, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=base)
        self._fresh = 0
        self._procs: List[subprocess.Popen] = []

    def spawn(self, command: List[str], **kwargs) -> subprocess.Popen:
        """Start a child with its own empty cbackend cache."""
        self._fresh += 1
        cache = os.path.join(self.path, f"cbackend-{self._fresh}")
        env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
        env.update(PYTHONPATH=os.path.join(ROOT, "src"),
                   REPRO_CBACKEND_CACHE=cache, TMPDIR=self.path)
        proc = subprocess.Popen(command, env=env, cwd=ROOT, **kwargs)
        self._procs.append(proc)
        return proc

    def close(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass


# -- in-process workloads --------------------------------------------------------------

def _worker(scratch: Scratch, args, n_ops: int, trace_file: str):
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               args.workload, str(args.seed), str(n_ops),
               str(args.trace), trace_file]
    start = time.perf_counter()
    proc = scratch.spawn(command, stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        raise RuntimeError(f"{args.workload} worker failed during set-up")
    return proc, setup


def run_in_process(scratch: Scratch, args, n_ops: int) -> dict:
    trace_file = os.path.join(scratch.path, "trace.json")
    setups = []
    for sample in range(1 if args.trace else SETUPS):
        proc, setup = _worker(scratch, args, n_ops, trace_file)
        setups.append(setup)
        last = sample == (0 if args.trace else SETUPS - 1)
        out, _ = proc.communicate("go\n" if last else "exit\n",
                                  timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"{args.workload} worker exited with "
                               f"{proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setups"] = setups
    if args.trace:
        from layers import load
        from worker import SETUP_OP

        spans, counts = load(trace_file)
        result["traced"]["spans"] = spans
        result["traced"]["counts"] = counts
        result["traced"]["setup_spans"] = [s for s in spans
                                           if s[0] == SETUP_OP]
        result["traced"]["roots"] = {
            int(op): tuple(interval)
            for op, interval in result["traced"]["roots"].items()}
    return result


# -- serve-hot ---------------------------------------------------------------------------

def run_serve(scratch: Scratch, args, n_ops: int) -> dict:
    import serve_hot
    from workloads import geomean

    requests = serve_hot.Requests(args.seed)
    # Warm-up replies are checked too; they count as attempted ops.
    warmup: dict = {"attempted": 0, "errors": []}

    def start(trace_file: Optional[str]):
        daemon, errors = serve_hot.start(
            requests, serve_hot.serve_command(trace_file), scratch.spawn)
        warmup["attempted"] += requests.n_distinct
        warmup["errors"] += errors
        return daemon

    setups = []
    for sample in range(1 if args.trace else SETUPS):
        begin = time.perf_counter()
        daemon = start(None)
        setups.append(time.perf_counter() - begin)
        if sample < (0 if args.trace else SETUPS - 1):
            daemon.stop()
    try:
        untraced = serve_hot.measure(daemon, requests,
                                     requests.schedule(n_ops, 0), False)
    finally:
        daemon.stop()
    after, before = untraced["stats_after"], untraced["stats_before"]
    result = {"setups": setups, "untraced": untraced, "warmup": warmup,
              "outcomes": {
        "makespan_s": sum(untraced["makespans"]),
        "hls_cycles_geomean": geomean(untraced["cycles"]),
        "pipeline.cache_entries": after["cache"]["entries"],
        "pipeline.singleflight_waits":
            after["singleflight"]["waits"] - before["singleflight"]["waits"],
    }}
    if args.trace:
        from layers import load

        trace_file = os.path.join(scratch.path, "serve-trace.json")
        daemon = start(trace_file)
        try:
            traced = serve_hot.measure(daemon, requests,
                                       requests.schedule(n_ops, 1), True)
        finally:
            daemon.stop()
        traced["spans"], traced["counts"] = load(trace_file)
        traced["setup_spans"] = []
        traced["ops_after_canonicalize"] = 0.0
        result["traced"] = traced
    return result


# -- metrics ---------------------------------------------------------------------------

def end_to_end(result: dict, blocks: int) -> Dict[str, float]:
    phase = result["untraced"]
    latencies = phase["latencies"]
    verified = len(latencies) - len(phase["errors"])
    return {
        "setup_s": statistics.median(result["setups"]),
        "ops_per_s": verified / phase["wall"],
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": block_tail(latencies, blocks) * 1e3,
        "peak_rss_mb": phase["peak_rss_mb"],
    }


def per_layer(workload: str, result: dict,
              names: List[str]) -> Tuple[Dict[str, float], int]:
    """Per-layer metrics of a traced run; also returns the number of
    ops whose layer self times fail to sum to their latency."""
    from layers import attribute

    phase, untraced = result["traced"], result["untraced"]
    n = len(phase["latencies"])
    root_metric = "serve.http_ms" if workload == "serve-hot" \
        else "trace.unattributed_ms"
    totals, violations, durations = attribute(phase["spans"], phase["roots"],
                                              root_metric)
    counts: Dict[str, float] = {}
    for (op, name), value in phase["counts"].items():
        if op >= 0:
            counts[name] = counts.get(name, 0.0) + value

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    values = {name: totals.get(name, 0.0) / n for name in names
              if name.endswith("_ms")}
    values["engine.run_ms"] = durations["engine.run_ms"] / n
    # On serve-hot the root's self time is part of serve.http_ms, so what
    # is left unattributed is only the accounting residue.
    layer_ms = sum(v for k, v in totals.items()
                   if k != "trace.unattributed_ms") / n
    values["trace.unattributed_ms"] = \
        statistics.fmean(phase["latencies"]) * 1e3 - layer_ms
    setup_cc = [s for s in phase["setup_spans"] if s[3] == "cbackend.cc"]
    values["cbackend.cc_ms"] = sum(s[5] - s[4] for s in setup_cc) * 1e3
    values["cbackend.cc_calls"] = sum(
        v for (op, name), v in phase["counts"].items()
        if op < 0 and name == "cbackend.cc_calls")
    kernel_seconds = totals.get("kernel.run_ms", 0.0) / 1e3
    untraced_rate = len(untraced["latencies"]) / untraced["wall"]
    traced_rate = n / phase["wall"]
    warmup = result.get("warmup", NO_WARMUP)
    failed = len(untraced["errors"]) + len(phase["errors"]) \
        + len(warmup["errors"])
    attempted = len(untraced["latencies"]) + n + warmup["attempted"]
    values.update({
        "serve.refused": untraced.get("refused", 0)
        + phase.get("refused", 0),
        "pipeline.run_stage_calls_per_op":
            counts.get("pipeline.run_stage_calls", 0.0) / n,
        "pipeline.cache_hit_ratio":
            ratio("pipeline.cache_hits", "pipeline.cache_lookups"),
        "pipeline.report_events_per_op":
            counts.get("pipeline.report_events", 0.0) / n,
        "ir.verify_typed_calls_per_op":
            counts.get("ir.verify_typed_calls", 0.0) / n,
        "ir.ops_after_canonicalize": phase["ops_after_canonicalize"],
        "ir.fused_buffers": ratio("ir.fused_buffers", "ir.fusion_runs"),
        "codegen.cache_hit_ratio": ratio("codegen.hits", "codegen.calls"),
        "codegen.fallback_ratio": ratio("codegen.fallbacks",
                                        "codegen.calls"),
        "kernel.gflops": counts.get("kernel.flops", 0.0) / kernel_seconds
        / 1e9 if kernel_seconds else 0.0,
        "kernel.mbytes_per_run": ratio("kernel.bytes", "kernel.runs") / 1e6,
        "engine.rescheduled_tasks":
            counts.get("engine.rescheduled_tasks", 0.0) / n,
        "trace.overhead_pct": 100 * (untraced_rate - traced_rate)
        / untraced_rate,
        "error_rate": failed / attempted,
        "rss_growth_mb": untraced["rss_growth_mb"],
        "makespan_s": 0.0, "hls_cycles_geomean": 0.0,
        "pipeline.cache_entries": 0, "pipeline.singleflight_waits": 0,
    })
    values.update(result["outcomes"])
    return {name: values[name] for name in names}, violations


# -- compare -----------------------------------------------------------------------------

def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old: List[float], new: List[float], better: str,
            bound: Optional[float]) -> str:
    """The choosing-metrics section 8 rule for one (workload, metric).

    improved: at least MIN_PAIRS pairs, the new side wins >= 9/10 of
    them (ties count for neither side) and the medians
    differ by more than the old side's interquartile distance.  worse:
    the new median is worse by more than ``bound`` (a share of the old
    median) — unresolved instead when either side's spread exceeds the
    bound, unless every new run is worse than every old one.
    """
    sign = 1 if better == "higher" else -1
    q1, med_old, q3 = _quartiles(old)
    n1, med_new, n3 = _quartiles(new)
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) \
            and sign * (med_new - med_old) > q3 - q1:
        return "improved"
    if bound is None:
        return "unchanged"
    scale = abs(med_old) or 1.0
    worse = sign * (med_old - med_new) > bound * scale
    spread = max((q3 - q1) / scale, (n3 - n1) / (abs(med_new) or 1.0))
    all_worse = all(sign * (n - o) < 0 for o in old for n in new)
    if all_worse and worse:
        return "worse"
    if spread > bound:
        return "unresolved"
    return "worse" if worse else "unchanged"


def compare(old_path: str, new_path: str) -> int:
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def load_set(path: str) -> Dict[Tuple[str, str], List[float]]:
        runs: Dict[Tuple[str, str], list] = {}
        with open(path) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        for record in sorted(records, key=lambda r: r["seed"]):
            for name, entry in record["result"]["metrics"].items():
                runs.setdefault((record["workload"], name), []).append(
                    entry["value"])
        return runs

    old, new = load_set(old_path), load_set(new_path)
    print(f"{'workload':13s} {'metric':32s} {'old median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s}  verdict")
    for key in sorted(set(old) & set(new)):
        workload, name = key
        spec_entry = metrics.get(name)
        if spec_entry is None:
            continue
        q = [_quartiles(old[key]), _quartiles(new[key])]
        text = [f"{m:.4g} [{a:.4g}, {b:.4g}]" for a, m, b in q]
        print(f"{workload:13s} {name:32s} {text[0]:>34s} {text[1]:>34s}  "
              + verdict(old[key], new[key], spec_entry["better"],
                        spec_entry.get("bound")))
    return 0


# -- main --------------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run to a result set")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    from workloads import OPS_PER_10S, TAIL_BLOCKS, ops_for

    if args.workload not in OPS_PER_10S:
        parser.error(f"--workload must be one of {', '.join(OPS_PER_10S)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: error: no SDK sources (src/repro) next to "
              "perfbench/", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    n_ops = ops_for(args.workload, args.seconds)
    blocks = TAIL_BLOCKS[args.workload]
    scratch = Scratch()
    try:
        runner = run_serve if args.workload == "serve-hot" \
            else run_in_process
        result = runner(scratch, args, n_ops)
    finally:
        scratch.close()
    warmup = result.get("warmup", NO_WARMUP)
    attempted = len(result["untraced"]["latencies"]) + warmup["attempted"]
    errors = result["untraced"]["errors"] + warmup["errors"]
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, violations = per_layer(args.workload, result, names)
        attempted += len(result["traced"]["latencies"])
        errors += result["traced"]["errors"]
        if violations:
            errors.append(f"{violations} op(s): layer self times do not "
                          "sum to op latency within tolerance")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(result, blocks)
    for error in errors[:10]:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} ops={n_ops} "
          f"tail=p{tail_percentile(n_ops // blocks)} of {n_ops // blocks}"
          f" ops (median of {blocks} blocks) trace={args.trace} "
          f"unset={','.join(UNSET_ENV)}")
    by_kind: Dict[str, List[float]] = {}
    for kind, latency in zip(result["untraced"]["kinds"],
                             result["untraced"]["latencies"]):
        by_kind.setdefault(kind, []).append(latency * 1e3)
    print("# p50 by op kind: " + ", ".join(
        f"{kind}={statistics.median(v):.3f}ms (n={len(v)})"
        for kind, v in sorted(by_kind.items())))
    if args.trace:
        print("# kernel.mbytes_per_run is computed from tensor sizes "
              "(input + output nbytes per run), not measured traffic")
    for name in names:
        print(f"{name:32s} {values[name]:14.6g} {units[name]}")
    line = {"correct": not errors, "attempted": attempted,
            "failed": len(errors),
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in names}}
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({"workload": args.workload,
                                     "seed": args.seed, "trace": args.trace,
                                     "result": line}) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
