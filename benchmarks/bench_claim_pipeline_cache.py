"""CLAIM: stage caching makes repeated SDK compiles effectively free.

The PipelineSession fingerprints every stage input, so recompiling the
same kernel/configuration skips the frontend, the dialect lowerings and
HLS entirely.  Timed: a cache-hot compile through the session versus the
cold hand-chained flow (the `bench_fig3` compile path), plus the parallel
format-DSE sweep against its serial twin.
"""

from repro.frontends.ekl import FIG3_MAJOR_ABSORBER
from repro.pipeline import PipelineSession

FORMATS = ["f64", "f32", "bf16", "fixed<8.8>", "posit<16,1>"]


def test_cache_hot_recompile(benchmark):
    session = PipelineSession()
    cold = session.compile(FIG3_MAJOR_ABSORBER)  # warm the cache
    cold_misses = session.report.cache_misses

    warm = benchmark(lambda: session.compile(FIG3_MAJOR_ABSORBER))
    assert warm.report is cold.report
    assert session.report.cache_hits >= 4
    # Every timed iteration was served from the cache.
    assert session.report.cache_misses == cold_misses


def test_parallel_format_sweep(benchmark):
    serial = PipelineSession().format_sweep(FIG3_MAJOR_ABSORBER, FORMATS,
                                            parallel=False)

    def sweep():
        return PipelineSession().format_sweep(FIG3_MAJOR_ABSORBER, FORMATS,
                                              parallel=True)

    parallel = benchmark(sweep)
    assert list(parallel) == FORMATS
    for spec in FORMATS:
        assert parallel[spec].total_cycles == serial[spec].total_cycles
