"""Static arena planner: liveness, placement and HLS wiring.

Covers the contract chain end to end:

* :func:`repro.tensorpipe.arena.plan_arena` produces an overlap-free,
  aligned first-fit plan whose sharing follows buffer liveness;
* ``KernelReport.planned_arena_bytes`` (HLS) equals the planner's peak;
* the plan feeds Olympus PLM sharing via
  :func:`repro.olympus.plm_sharing.requests_from_arena` and sizes the
  generated scratch PLM.
"""

import pytest

from repro.frontends.cfdlang import (
    lower_cfdlang_to_teil,
    lower_program_to_cfdlang,
    parse_program,
)
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER, parse_kernel
from repro.frontends.ekl.lower import lower_ekl_to_esn, lower_kernel_to_ekl
from repro.hls import synthesize_kernel
from repro.ir import CanonicalizePass, FusionPass, analyze_module
from repro.ir.analysis import MEMREF_ALLOC_ZERO_INIT
from repro.olympus import (
    OlympusGenerator,
    peak_live_bytes,
    requests_from_arena,
    share_plm,
)
from repro.platforms import device_by_name
from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine
from repro.tensorpipe.arena import default_element_bytes, plan_arena

CHAIN = """
kernel arena_chain {
  index i: 40, j: 6
  input a[i, j]: f64
  input b[i, j]: f64
  output out
  t0 = a * b + a
  t1 = t0 * b - a
  t2 = t1 * t1 + t0
  out = sum[j](t2 * t1)
}
"""

CFD_MATVEC = """
var input A : [3 4]
var input x : [4]
var output y : [3]
y = (A # x) . [[2 3]]
"""


def _lower_ekl(source, *, fuse=False):
    kernel = parse_kernel(source)
    module = lower_teil_to_affine(
        lower_esn_to_teil(
            lower_ekl_to_esn(lower_kernel_to_ekl(kernel),
                             canonicalize=False),
            canonicalize=False,
        ),
        canonicalize=False,
    )
    CanonicalizePass().run(module)
    if fuse:
        FusionPass().run(module)
    return module, kernel.name


def _lower_cfd(source):
    module = lower_teil_to_affine(
        lower_cfdlang_to_teil(
            lower_program_to_cfdlang(parse_program(source))),
        canonicalize=True,
    )
    names = [op.attr("sym_name") for op in module.body
             if op.name == "func.func"
             and op.attr("kernel_lang") == "affine"]
    assert len(names) == 1
    return module, names[0]


def _golden_cases():
    module, name = _lower_ekl(CHAIN)
    yield "chain", module, name
    module, name = _lower_ekl(CHAIN, fuse=True)
    yield "chain-fused", module, name
    module, name = _lower_ekl(FIG3_MAJOR_ABSORBER)
    yield "fig3", module, name
    module, name = _lower_cfd(CFD_MATVEC)
    yield "cfd-matvec", module, name


GOLDEN = list(_golden_cases())


# -- planner invariants ------------------------------------------------------


@pytest.mark.parametrize("label,module,name",
                         GOLDEN, ids=[c[0] for c in GOLDEN])
def test_plan_is_aligned_and_overlap_free(label, module, name):
    plan = plan_arena(module.lookup(name))
    assert plan.slots, f"{label}: expected local buffers to plan"
    for slot in plan.slots:
        assert slot.offset % slot.align == 0
        assert slot.start <= slot.end
        assert slot.offset + slot.size <= plan.total_bytes
    # Slots with intersecting live ranges must occupy disjoint bytes.
    for i, a in enumerate(plan.slots):
        for b in plan.slots[i + 1:]:
            if a.overlaps_lifetime(b.start, b.end):
                assert (a.offset + a.size <= b.offset
                        or b.offset + b.size <= a.offset), \
                    f"{label}: {a} and {b} overlap in time and space"
    assert plan.total_bytes <= plan.unshared_bytes
    assert 0.0 <= plan.saving < 1.0


def test_liveness_sharing_actually_shares():
    module, name = _lower_ekl(CHAIN)
    plan = plan_arena(module.lookup(name))
    assert plan.total_bytes < plan.unshared_bytes, \
        "the chain kernel has dead intermediates; the plan must reuse them"
    offsets = {slot.offset for slot in plan.slots}
    assert len(offsets) < len(plan.slots)


def test_analysis_records_zero_init_contract():
    module, name = _lower_ekl(CHAIN)
    analysis = analyze_module(module)
    allocs = [op for op in module.lookup(name).regions[0].entry.operations
              if op.name == "memref.alloc"]
    assert allocs
    for op in allocs:
        assert analysis.of(op.results[0]).const == MEMREF_ALLOC_ZERO_INIT


# -- HLS + Olympus wiring ----------------------------------------------------


@pytest.mark.parametrize("label,module,name",
                         GOLDEN, ids=[c[0] for c in GOLDEN])
def test_hls_report_matches_planner_and_executor(label, module, name):
    report = synthesize_kernel(module, name)
    plan = plan_arena(module.lookup(name))
    assert report.planned_arena_bytes == plan.total_bytes
    assert report.planned_arena_slots == len(plan.slots)
    assert f"scratch-arena={plan.total_bytes}B" in report.summary()


def test_custom_format_rescales_planned_arena():
    from repro.numerics import make_format

    module, name = _lower_ekl(CHAIN)
    f64_report = synthesize_kernel(module, name)
    f32_report = synthesize_kernel(module, name,
                                   number_format=make_format("f32"))
    assert 0 < f32_report.planned_arena_bytes < f64_report.planned_arena_bytes


def test_requests_from_arena_feed_plm_sharing():
    module, name = _lower_ekl(CHAIN)
    plan = plan_arena(module.lookup(name))
    requests = requests_from_arena(plan)
    assert len(requests) == len([s for s in plan.slots if s.size > 0])
    allocation = share_plm(requests)
    assert peak_live_bytes(requests) <= allocation.total_bytes
    assert allocation.total_bytes <= plan.unshared_bytes
    # Both allocators exploit the same lifetimes; first-fit-decreasing
    # must share at least as well as dedicated buffers.
    assert allocation.saving > 0.0


def test_olympus_instance_gets_scratch_plm():
    module, name = _lower_ekl(CHAIN)
    report = synthesize_kernel(module, name)
    generator = OlympusGenerator(device_by_name("alveo-u55c"))
    _, instance = generator.estimate(
        report, generator.candidate_configs()[0])
    scratch = [p for p in instance.plms if p.name == "scratch"]
    assert len(scratch) == 1
    assert scratch[0].bytes == report.planned_arena_bytes
    assert not scratch[0].double_buffered


def test_default_element_bytes_match_numpy():
    from repro.ir import types as T

    for ty, expected in [(T.f64, 8), (T.f32, 4), (T.i64, 8), (T.i32, 4),
                         (T.i1, 1), (T.index, 8)]:
        assert default_element_bytes(ty) == expected
