"""The in-process workloads: compile-cold, exec-large and runtime-plan.

Each workload draws its inputs from the seed alone, exposes a list of
ops per measured phase, runs one op (the timed call into the SDK) and
checks one op's outputs (off the clock).  ``phase`` 0 is the untraced
phase and ``phase`` 1 the traced one; compile-cold gives them disjoint
kernel sets so that every compile in either phase is cold.
"""

from __future__ import annotations

import math
import os
import random
import sys
import threading
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Ops per measured phase at ``--seconds 10`` (scaled linearly with the
#: run length; the count, not the clock, ends a phase).
OPS_PER_10S = {
    "serve-hot": 400,
    "compile-cold": 1200,
    "exec-large": 300,
    "runtime-plan": 60,
}


#: Consecutive blocks a measured phase is cut into for the tail: the
#: tail is read per block (at the block's op count) and the median over
#: blocks reported, so that one burst of machine noise or one more GC
#: pause moves one block, not the metric.
TAIL_BLOCKS = {
    "serve-hot": 1,
    "compile-cold": 5,
    "exec-large": 5,
    "runtime-plan": 1,
}


def ops_for(workload: str, seconds: int) -> int:
    return max(20 * TAIL_BLOCKS[workload],
               round(OPS_PER_10S[workload] * seconds / 10))


def _import_tool(name: str):
    tools = os.path.join(ROOT, "tools")
    if tools not in sys.path:
        sys.path.insert(0, tools)
    return __import__(name)


class CompileCold:
    """Never-seen kernels through one long-lived session: every stage-cache
    lookup misses and stores, so parse, lowering, typed verification,
    canonicalize/fusion, HLS and codegen do the work."""

    #: One op in FIG3_EVERY compiles the Fig. 3 kernel under a fresh name,
    #: in the number formats in turn: every tail block holds enough of
    #: them that its tail falls inside their latencies, above the
    #: generation-2 GC pauses the growing cache causes.
    FIG3_EVERY = 20
    FORMATS = (None, "f32", "fixed<8.8>", "posit<16,1>")

    def __init__(self, seed: int, n_ops: int) -> None:
        self.seed, self.n_ops = seed, n_ops
        self.cycles: List[int] = []

    def setup(self) -> None:
        from repro.basecamp.inputs import gather_inputs
        from repro.frontends.ekl import FIG3_MAJOR_ABSORBER
        from repro.pipeline import PipelineSession
        from repro.tensorpipe.affine_interp import AffineInterpreter

        self._interpreter = AffineInterpreter
        self._irfuzz = _import_tool("irfuzz")
        self._fig3 = FIG3_MAJOR_ABSORBER
        self.session = PipelineSession()
        fig3 = self._fig3_source("warm")
        compiled = self.session.compile(fig3)
        self._fig3_inputs = gather_inputs(compiled.module,
                                          compiled.kernel.name, {}, self.seed)
        self.session.execute(fig3, self._fig3_inputs)
        # Every Fig. 3 op runs the same computation on the same inputs:
        # interpret it once.
        self._fig3_expected = AffineInterpreter(
            compiled.module, compiled.kernel.name).run(self._fig3_inputs)
        for k in range(3):
            source, inputs = self._irfuzz.generate_ekl_case(
                self._case_seed(-1, k))
            self.session.compile(source)
            self.session.execute(source, inputs)
        self._ops: Dict[int, List[tuple]] = {}

    def _case_seed(self, phase: int, index: int) -> int:
        return (self.seed * 4 + phase + 1) * 1_000_003 + index

    def _fig3_source(self, tag: str) -> str:
        return self._fig3.replace("kernel tau_major",
                                  f"kernel tau_major_{tag}", 1)

    def _draw(self, phase: int) -> List[tuple]:
        rng = random.Random(self._case_seed(phase, -1))
        ops = []
        for i in range(self.n_ops):
            fmt = rng.choice(self.FORMATS)
            if i % self.FIG3_EVERY == self.FIG3_EVERY // 2:
                tag = f"s{self.seed}_p{phase}_{i}"
                fmt = self.FORMATS[i // self.FIG3_EVERY % len(self.FORMATS)]
                ops.append((self._fig3_source(tag), self._fig3_inputs, fmt))
            else:
                source, inputs = self._irfuzz.generate_ekl_case(
                    self._case_seed(phase, i))
                ops.append((source, inputs, fmt))
        return ops

    def ops(self, phase: int) -> List[tuple]:
        # Drawn after set-up: generating the kernels is harness work,
        # not part of setup_s.
        if phase not in self._ops:
            self._ops[phase] = self._draw(phase)
        return self._ops[phase]

    @staticmethod
    def kind(op: tuple) -> str:
        return "fig3" if "tau_major" in op[0] else "irfuzz"

    def run(self, op: tuple) -> Any:
        source, inputs, fmt = op
        compiled = self.session.compile(source, number_format=fmt)
        return compiled, self.session.execute(source, inputs)

    def check(self, op: tuple, result: Any) -> Optional[str]:
        compiled, executed = result
        if self.kind(op) == "fig3":
            expected = self._fig3_expected
        else:
            expected = self._interpreter(
                compiled.module, compiled.kernel.name).run(op[1])
        for name, value in expected.items():
            if not np.array_equal(executed.outputs[name], value):
                return f"{compiled.kernel.name}: {name} differs from the " \
                       "interpreter"
        if compiled.report.total_cycles < 0:
            return f"{compiled.kernel.name}: negative HLS cycle count"
        self.cycles.append(compiled.report.total_cycles)
        return None

    def outcomes(self) -> Dict[str, float]:
        return {"hls_cycles_geomean": geomean(self.cycles),
                "pipeline.cache_entries": len(self.session.cache),
                "pipeline.singleflight_waits":
                    self.session.singleflight.waits}


CHAIN = """
kernel chain {
  index i: 150000, j: 8
  input a[i, j]: f64
  input b[i, j]: f64
  output out
  t0 = a * b + a
  t1 = t0 * b - a
  t2 = t1 * t1 + t0
  t3 = t2 * b + t1
  out = sum[j](t3 * t2)
}
"""

CONTRACTION = """
kernel contraction {
  index i: 256, j: 256, k: 256
  input a[i, j]: f64
  input b[j, k]: f64
  output c
  c = sum[j](a * b)
}
"""


class ExecLarge:
    """Warm ``session.execute`` of two large kernels on the default
    backend and on cbackend: the generated kernel's run is the work."""

    INPUT_SETS = 2
    #: One round of ops, always in this order and on one input set per
    #: round, alternating: an op's latency depends on which op ran before
    #: it (a warm repeat of the same kernel is faster), so every run keeps
    #: the same sequence and only the input values follow the seed.  The
    #: cbackend contraction runs twice so that the latency median falls
    #: inside one op kind (the cbackend chain), not on the boundary
    #: between two.
    ROUND = (("contraction", "cbackend"), ("chain", "cbackend"),
             ("contraction", "compiled"), ("contraction", "cbackend"),
             ("chain", "compiled"))

    def __init__(self, seed: int, n_ops: int) -> None:
        self.seed, self.n_ops = seed, n_ops

    def setup(self) -> None:
        from repro.pipeline import PipelineSession

        rng = np.random.default_rng(self.seed)
        self.sources = {"chain": CHAIN, "contraction": CONTRACTION}
        self.inputs: Dict[str, list] = {"chain": [], "contraction": []}
        self.expected: Dict[str, list] = {"chain": [], "contraction": []}
        for _ in range(self.INPUT_SETS):
            a, b = rng.normal(size=(150000, 8)), rng.normal(size=(150000, 8))
            self.inputs["chain"].append({"a": a, "b": b})
            t0 = a * b + a
            t1 = t0 * b - a
            t2 = t1 * t1 + t0
            t3 = t2 * b + t1
            self.expected["chain"].append({"out": (t3 * t2).sum(axis=1)})
            a, b = rng.normal(size=(256, 256)), rng.normal(size=(256, 256))
            self.inputs["contraction"].append({"a": a, "b": b})
            self.expected["contraction"].append({"c": a @ b})
        self.session = PipelineSession()
        for kernel, backend in dict.fromkeys(self.ROUND):
            self.run((kernel, backend, 0))
        self._ops = [self.ROUND[i % len(self.ROUND)]
                     + (i // len(self.ROUND) % self.INPUT_SETS,)
                     for i in range(self.n_ops)]

    def ops(self, phase: int) -> List[tuple]:
        return self._ops

    @staticmethod
    def kind(op: tuple) -> str:
        return f"{op[0]}/{op[1]}"

    def run(self, op: tuple) -> Any:
        kernel, backend, which = op
        return self.session.execute(self.sources[kernel],
                                    self.inputs[kernel][which],
                                    backend=backend)

    def check(self, op: tuple, result: Any) -> Optional[str]:
        kernel, backend, which = op
        if result.kernel.backend != backend:
            return f"{kernel}: ran on {result.kernel.backend} " \
                   f"({result.kernel.fallback}) instead of {backend}"
        for name, value in self.expected[kernel][which].items():
            if not np.allclose(result.outputs[name], value,
                               rtol=1e-10, atol=1e-10):
                return f"{kernel}/{backend}: {name} differs from numpy"
        return None

    def outcomes(self) -> Dict[str, float]:
        return {"pipeline.cache_entries": len(self.session.cache),
                "pipeline.singleflight_waits":
                    self.session.singleflight.waits}


class _CountingTarget:
    """What ``synthetic_workflow`` submits to: forwards to the engine and
    records each task's dependencies and real invocation count."""

    def __init__(self, engine) -> None:
        from repro.runtime.taskgraph import Future

        self.engine = engine
        self.deps: List[tuple] = []
        self.calls: Dict[int, int] = {}
        self._future = Future
        self._lock = threading.Lock()

    def submit(self, fn, *args, **kwargs):
        index = len(self.deps)
        self.deps.append(tuple(a.task_id for a in args
                               if isinstance(a, self._future)))

        def task(*task_args):
            # Worker threads: a task lost to a failure may still be
            # running when its replacement starts.
            with self._lock:
                self.calls[index] = self.calls.get(index, 0) + 1
            return fn(*task_args)

        return self.engine.submit(task, *args, **kwargs)


class RuntimePlan:
    """Seeded 1000-task workflows on 16 nodes through the runtime engine,
    rotating the three policies, with one node failure per plan."""

    POLICIES = ("heft", "min-load", "round-robin")
    TASKS, NODES, FPGA_FRACTION = 1000, 16, 0.3

    def __init__(self, seed: int, n_ops: int) -> None:
        self.seed, self.n_ops = seed, n_ops
        self.makespans: List[float] = []
        self._replayed = False

    def setup(self) -> None:
        from repro.runtime import default_cluster
        from repro.runtime.engine import RuntimeEngine, synthetic_workflow

        self._checks = _import_tool("workloadfuzz")
        self._cluster = default_cluster
        self._engine = RuntimeEngine
        self._workflow = synthetic_workflow
        rng = random.Random(self.seed)
        self._ops = [(self.POLICIES[i % len(self.POLICIES)],
                      rng.randrange(1 << 30),
                      round(rng.uniform(5.0, 20.0), 3),
                      f"node{rng.randrange(self.NODES)}")
                     for i in range(self.n_ops)]
        for policy in self.POLICIES:
            self.run((policy, self.seed, 2.0, "node0"), tasks=100)

    def ops(self, phase: int) -> List[tuple]:
        return self._ops

    @staticmethod
    def kind(op: tuple) -> str:
        return op[0]

    def run(self, op: tuple, tasks: int = TASKS) -> Any:
        policy, workflow_seed, fail_at, victim = op
        engine = self._engine(self._cluster(self.NODES), policy=policy)
        target = _CountingTarget(engine)
        self._workflow(target, n_tasks=tasks, seed=workflow_seed,
                       fpga_fraction=self.FPGA_FRACTION)
        engine.fail_node_at(fail_at, victim)
        return engine, engine.run(), target

    def check(self, op: tuple, result: Any) -> Optional[str]:
        engine, schedule, target = result
        policy, workflow_seed, fail_at, victim = op
        case = SimpleNamespace(
            seed=workflow_seed, failures=[(fail_at, victim)],
            tasks=[SimpleNamespace(index=i, deps=deps)
                   for i, deps in enumerate(target.deps)])
        checks = self._checks
        try:
            for checker in (checks.check_completeness,
                            checks.check_dependencies,
                            checks.check_no_overcommit):
                checker(case, policy, engine, schedule, target.calls)
        except AssertionError as error:
            return str(error)
        if not self._replayed:
            # The same seed must give the same plan: replay one per run.
            self._replayed = True
            _, replay, _ = self.run(op)
            if replay.makespan != schedule.makespan:
                return f"{policy}: replay makespan {replay.makespan} " \
                       f"!= {schedule.makespan}"
        self.makespans.append(schedule.makespan)
        return None

    def outcomes(self) -> Dict[str, float]:
        return {"makespan_s": sum(self.makespans)}


WORKLOADS = {"compile-cold": CompileCold, "exec-large": ExecLarge,
             "runtime-plan": RuntimePlan}


def geomean(values: List[int]) -> float:
    """Geometric mean over the positive values (a kernel folded to
    constants has 0 HLS cycles)."""
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0
