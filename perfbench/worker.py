"""One in-process workload run, driven by ``run.py`` over stdin/stdout.

Protocol: the worker sets up (imports, session, warm-up, inputs), prints
``READY`` and waits for one line: ``exit`` ends it there (a set-up-only
sample), ``go`` runs the measured phase(s) and prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED OPS TRACE TRACE_FILE
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS  # noqa: E402

#: Op id under which a traced run records its set-up (cbackend cc).
SETUP_OP = -1


def rss_mb(field: str = "VmRSS") -> float:
    """A ``/proc/<pid>/status`` memory field of this process, in MB."""
    return proc_status_mb(os.getpid(), field)


def proc_status_mb(pid: int, field: str) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


def measure(workload, ops, rec=None) -> dict:
    """Run ``ops`` back to back; verification time is off the clock."""
    latencies, roots, errors = [], {}, []
    rss_start = rss_mb()
    checking = 0.0
    begin = time.perf_counter()
    for index, op in enumerate(ops):
        if rec is None:
            start = time.perf_counter()
            result = workload.run(op)
            end = time.perf_counter()
        else:
            with rec.op(index):
                start = time.perf_counter()
                result = workload.run(op)
                end = time.perf_counter()
            roots[index] = (start, end)
        latencies.append(end - start)
        error = workload.check(op, result)
        if error is not None:
            errors.append(error)
        del result
        checking += time.perf_counter() - end
    wall = time.perf_counter() - begin - checking
    return {"latencies": latencies, "wall": wall, "errors": errors,
            "kinds": [workload.kind(op) for op in ops],
            "roots": roots, "rss_growth_mb": rss_mb() - rss_start,
            "peak_rss_mb": rss_mb("VmHWM")}


def main(argv) -> int:
    name, seed, n_ops, trace, trace_file = argv
    seed, n_ops, trace = int(seed), int(n_ops), trace == "1"
    workload = WORKLOADS[name](seed, n_ops)
    rec = None
    if trace:
        from layers import Recorder, install

        rec = Recorder()
        uninstall = install(rec)
        with rec.op(SETUP_OP):
            workload.setup()
        uninstall()
    else:
        workload.setup()
    gc.collect()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    untraced = measure(workload, workload.ops(0))
    out = {"untraced": {k: v for k, v in untraced.items() if k != "roots"},
           "outcomes": workload.outcomes()}
    if trace:
        install(rec)
        traced = measure(workload, workload.ops(1), rec)
        rec.dump(trace_file)
        sizes = [sum(1 for _ in module.walk())
                 for op, module in rec.modules if op >= 0]
        out["traced"] = {"latencies": traced["latencies"],
                         "wall": traced["wall"], "errors": traced["errors"],
                         "roots": traced["roots"],
                         "ops_after_canonicalize":
                             sum(sizes) / len(sizes) if sizes else 0.0}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
