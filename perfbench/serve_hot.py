"""serve-hot: a real ``basecamp serve`` daemon driven closed-loop by two
keep-alive HTTP/1.1 connections from this process.

The request mix is 60% compile / 25% execute / 15% runtime over six hot
seeded kernels (f64 and f32 formats) and 10-task runtime plans.  Every
distinct request is sent once while warming up, so in the measured
phase nearly every stage-cache lookup hits.  Connections stay open
(no ``Connection: close``): the per-request cost of keep-alive is part
of what this workload measures.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import selectors
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from layers import OP_HEADER
from worker import proc_status_mb

HERE = os.path.dirname(os.path.abspath(__file__))
CONNECTIONS = 2
MIX = (("compile", 0.60), ("execute", 0.25), ("runtime", 0.15))
START_TIMEOUT = 60.0


def hot_kernels(seed: int) -> List[Tuple[str, float]]:
    """Six small seeded kernels: (EKL source, the added constant)."""
    rng = random.Random(seed)
    kernels = []
    for k in range(6):
        n, m = rng.choice((16, 32, 48)), rng.choice((4, 8))
        const = round(rng.uniform(0.5, 4.0), 3)
        kernels.append((f"""
kernel hot{k} {{
  index i: {n}, j: {m}
  input a[i, j]: f64
  input b[i, j]: f64
  output c
  c = sum[j](a * b + {const!r})
}}
""", const))
    return kernels


class Requests:
    """The distinct requests of one seed and their expected replies."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.kernels = hot_kernels(seed)
        rng = random.Random(seed)
        input_seeds = (rng.randrange(1 << 20), rng.randrange(1 << 20))
        self.distinct: Dict[str, List[dict]] = {
            "compile": [{"source": src, "number_format": fmt}
                        for src, _ in self.kernels for fmt in (None, "f32")],
            "execute": [{"source": src, "random_seed": s,
                         "full_outputs": True}
                        for src, _ in self.kernels for s in input_seeds],
            "runtime": [{"policy": policy, "tasks": 10, "nodes": 2,
                         "seed": s}
                        for policy in ("heft", "min-load")
                        for s in range(4)],
        }
        self.n_distinct = sum(len(v) for v in self.distinct.values())
        self._expected = self._references()

    def _references(self) -> Dict[str, object]:
        """Replies computed in this process, off the clock."""
        from repro.basecamp.inputs import gather_inputs
        from repro.pipeline import PipelineSession
        from repro.runtime import default_cluster
        from repro.runtime.engine import RuntimeEngine, synthetic_workflow

        session = PipelineSession()
        expected: Dict[str, object] = {}
        for payload in self.distinct["compile"]:
            result = session.compile(payload["source"],
                                     number_format=payload["number_format"])
            expected[self.key("compile", payload)] = (
                result.key, result.report.total_cycles, result.report.flops)
        consts = dict(self.kernels)
        for payload in self.distinct["execute"]:
            lowered = session.lower(payload["source"])
            inputs = gather_inputs(lowered.module, lowered.kernel.name, {},
                                   payload["random_seed"])
            const = consts[payload["source"]]
            expected[self.key("execute", payload)] = \
                (inputs["a"] * inputs["b"] + const).sum(axis=1)
        for payload in self.distinct["runtime"]:
            engine = RuntimeEngine(default_cluster(payload["nodes"]),
                                   policy=payload["policy"])
            synthetic_workflow(engine, n_tasks=payload["tasks"],
                               seed=payload["seed"])
            expected[self.key("runtime", payload)] = engine.run().makespan
        return expected

    @staticmethod
    def key(endpoint: str, payload: dict) -> str:
        return endpoint + json.dumps(payload, sort_keys=True)

    def schedule(self, n_ops: int, salt: int) -> List[Tuple[str, dict]]:
        """``n_ops`` requests in the fixed mix, seeded order."""
        rng = random.Random(self.seed * 7 + salt)
        ops: List[Tuple[str, dict]] = []
        for endpoint, share in MIX[1:]:
            ops += [(endpoint, rng.choice(self.distinct[endpoint]))
                    for _ in range(round(n_ops * share))]
        ops += [("compile", rng.choice(self.distinct["compile"]))
                for _ in range(n_ops - len(ops))]
        rng.shuffle(ops)
        return ops

    def check(self, endpoint: str, payload: dict, status: int,
              body: bytes) -> Optional[str]:
        if status != 200:
            return f"{endpoint}: HTTP {status}"
        reply = json.loads(body)
        expected = self._expected[self.key(endpoint, payload)]
        if endpoint == "compile":
            got = (reply["key"], reply["total_cycles"], reply["flops"])
            return None if got == expected else \
                f"compile: {got} != {expected}"
        if endpoint == "execute":
            values = np.asarray(reply["outputs"]["c"]["values"])
            return None if np.allclose(values, expected, rtol=1e-12,
                                       atol=0) \
                else "execute: outputs differ from numpy"
        makespan = reply["results"][0]["makespan"]
        return None if makespan == expected else \
            f"runtime: makespan {makespan} != {expected}"


class Daemon:
    """One ``basecamp serve --port 0`` subprocess."""

    def __init__(self, command: List[str], spawn: Callable) -> None:
        self.proc = spawn(command, stdout=subprocess.PIPE, text=True)
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        ready = selector.select(timeout=START_TIMEOUT)
        selector.close()
        line = self.proc.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)

    def get(self, path: str) -> bytes:
        conn = self.connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path}: HTTP {response.status}")
            return body
        finally:
            conn.close()

    def memory(self, field: str) -> float:
        return proc_status_mb(self.proc.pid, field)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _post(conn, endpoint: str, payload: dict,
          op: Optional[int]) -> Tuple[int, bytes]:
    headers = {"Content-Type": "application/json"}
    if op is not None:
        headers[OP_HEADER] = str(op)
    conn.request("POST", "/" + endpoint, body=json.dumps(payload),
                 headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def drive(daemon: Daemon, ops: List[Tuple[str, dict]],
          tag_ops: bool) -> Tuple[list, float]:
    """Send ``ops`` closed-loop over CONNECTIONS keep-alive connections.

    Returns ([(op, start, end, status, body)], wall seconds).
    """
    records: list = []
    barrier = threading.Barrier(CONNECTIONS)

    def client(lane: int) -> None:
        conn = daemon.connect()
        conn.connect()
        barrier.wait()
        try:
            for op in range(lane, len(ops), CONNECTIONS):
                endpoint, payload = ops[op]
                start = time.perf_counter()
                try:
                    status, body = _post(conn, endpoint, payload,
                                         op if tag_ops else None)
                except (OSError, http.client.HTTPException):
                    status, body = 0, b""
                    conn.close()
                    conn = daemon.connect()
                records.append((op, start, time.perf_counter(), status,
                                body))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(lane,))
               for lane in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records.sort()
    wall = max(r[2] for r in records) - min(r[1] for r in records)
    return records, wall


def start(requests: Requests, command: List[str],
          spawn: Callable) -> Tuple[Daemon, List[str]]:
    """Spawn, health-check and warm a daemon: the set-up being timed.

    Returns the daemon and the errors of the warm-up replies.
    """
    daemon = Daemon(command, spawn)
    try:
        json.loads(daemon.get("/healthz"))
        warm = [(endpoint, payload)
                for endpoint, payloads in requests.distinct.items()
                for payload in payloads]
        records, _ = drive(daemon, warm, tag_ops=False)
    except BaseException:
        daemon.stop()
        raise
    errors = [error for op, _, _, status, body in records
              if (error := requests.check(*warm[op], status, body))]
    return daemon, errors


def serve_command(trace_file: Optional[str]) -> List[str]:
    if trace_file is None:
        return [sys.executable, "-m", "repro.basecamp.cli", "serve",
                "--port", "0"]
    return [sys.executable, os.path.join(HERE, "serve_boot.py"),
            trace_file, "--port", "0"]


def measure(daemon: Daemon, requests: Requests,
            ops: List[Tuple[str, dict]], tag_ops: bool) -> dict:
    """One measured phase; /stats and /metrics are read only around it."""
    stats_before = json.loads(daemon.get("/stats"))
    rss_start = daemon.memory("VmRSS")
    records, wall = drive(daemon, ops, tag_ops)
    rss_end, peak = daemon.memory("VmRSS"), daemon.memory("VmHWM")
    stats_after = json.loads(daemon.get("/stats"))
    metrics_text = daemon.get("/metrics").decode()
    errors, refused, makespans, cycles = [], 0, [], []
    for op, _, _, status, body in records:
        endpoint, payload = ops[op]
        if status == 429 or status >= 500 or status == 0:
            refused += 1
        error = requests.check(endpoint, payload, status, body)
        if error:
            errors.append(error)
        elif endpoint == "runtime":
            makespans.append(json.loads(body)["results"][0]["makespan"])
        elif endpoint == "compile":
            cycles.append(json.loads(body)["total_cycles"])
    ok = sum(1 for r in records if r[3] == 200)
    served = _prometheus_value(metrics_text, "basecamp_responses_total",
                               'outcome="ok"')
    if served != stats_after["server"]["ok"] or \
            stats_after["server"]["ok"] - stats_before["server"]["ok"] != ok:
        errors.append(f"daemon counted {served} ok replies, client saw "
                      f"{ok} in this phase")
    return {
        "latencies": [end - start for _, start, end, _, _ in records],
        "kinds": [ops[op][0] for op, _, _, _, _ in records],
        "roots": {op: (start, end) for op, start, end, _, _ in records},
        "wall": wall, "errors": errors, "refused": refused,
        "rss_growth_mb": rss_end - rss_start, "peak_rss_mb": peak,
        "makespans": makespans, "cycles": cycles,
        "stats_before": stats_before, "stats_after": stats_after,
    }


def _prometheus_value(text: str, name: str, labels: str) -> float:
    prefix = f"{name}{{{labels}}} "
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    return 0.0
