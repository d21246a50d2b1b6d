"""End-to-end campaign speedup from the process-wide codegen cache.

Every experiment machine is a fresh fork of a checkpoint rung, so the
blocks the rung never reached are compiled again in every experiment.
The process tier of ``repro.compile.blocks`` compiles each clean kernel
block once per process instead.  This bench measures what that buys
end to end: the same code campaign run *cold* and *warm*, ladder
capture included on both sides (each repeat clears the context's
ladder cache, as ``bench_checkpoint_speedup.py`` does).

* **warm** is the program as shipped: the process tier is primed by
  one untimed run, as any second campaign in a process finds it;
* **cold** is made by this bench alone: it wraps
  ``repro.compile.blocks.compile_block`` so the process tier is
  cleared before every call, so no compiled block is ever reused
  across machines — the behaviour before the tier existed.

Two entry points:

* the pytest-benchmark test below (``pytest benchmarks/``), which
  prints the per-arch speedup and appends a JSON trajectory row when
  ``REPRO_BENCH_JSON`` is set;
* a script mode used as the CI performance gate::

      PYTHONPATH=src python benchmarks/bench_codegen_cache.py \\
          --enforce-min-speedup 1.4 --json bench.jsonl

  best-of-N with the two sides interleaved (so host drift hits both
  alike) and GC paused; exits non-zero if either architecture falls
  below the floor.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from contextlib import contextmanager

import repro.compile.blocks as blocks
from repro.injection.campaign import (
    Campaign, CampaignConfig, CampaignContext,
)
from repro.injection.outcomes import CampaignKind
from repro.store.codec import results_digest

try:
    from benchmarks import common
except ImportError:                      # script mode: sys.path[0] is
    import common                        # the benchmarks directory

_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
COUNT = max(24, int(60 * _SCALE))
SEED = 3
OPS = 36


@contextmanager
def _cold_compiles():
    """Clear the process tier before every ``compile_block`` call; the
    tier's entries from before are put back on exit, so the warm side
    that follows finds it primed."""
    compile_block = blocks.compile_block
    primed = dict(blocks._process_blocks)

    def cold(*args):
        blocks.clear_caches()
        return compile_block(*args)

    blocks.compile_block = cold
    try:
        yield
    finally:
        blocks.compile_block = compile_block
        blocks.clear_caches()
        blocks._process_blocks.update(primed)


def _run_once(context: CampaignContext) -> "tuple[float, str]":
    """One full code campaign: (seconds, results digest)."""
    context._ladders.clear()
    config = CampaignConfig(arch=context.arch, kind=CampaignKind.CODE,
                            count=COUNT, seed=SEED, ops=OPS)
    start = time.perf_counter()
    result = Campaign(config, context).run()
    elapsed = time.perf_counter() - start
    assert result.injected == COUNT
    assert not result.failures
    return elapsed, results_digest(result.results)


def measure_pair(arch: str, repeats: int = 3) -> "tuple[float, float]":
    """(cold, warm) best-of-*repeats* campaign wall time in seconds.

    Both sides must produce the same results digest; the cache is a
    pure performance layer."""
    context = CampaignContext.get(arch, SEED, OPS)
    _, digest = _run_once(context)           # primes the process tier
    best = {"cold": float("inf"), "warm": float("inf")}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            with _cold_compiles():
                elapsed, cold_digest = _run_once(context)
            best["cold"] = min(best["cold"], elapsed)
            elapsed, warm_digest = _run_once(context)
            best["warm"] = min(best["warm"], elapsed)
            assert cold_digest == warm_digest == digest
    finally:
        if gc_was_enabled:
            gc.enable()
    return best["cold"], best["warm"]


# ---------------------------------------------------------------------------
# pytest-benchmark entry point


def test_bench_codegen_cache(benchmark, arch):
    state = {}

    def run_once():
        state["pair"] = measure_pair(arch, repeats=1)

    benchmark.pedantic(run_once, rounds=1, iterations=1)
    cold, warm = state["pair"]
    speedup = cold / warm
    print(f"\n[{arch}] codegen cache cold: {COUNT / cold:.1f} inj/s, "
          f"warm: {COUNT / warm:.1f} inj/s ({speedup:.2f}x)")
    common.emit(common.env_json_path(), "codegen_cache",
                arch=arch, count=COUNT, ops=OPS, seed=SEED,
                cold_seconds=round(cold, 3), warm_seconds=round(warm, 3),
                speedup=round(speedup, 3))
    assert speedup > 1.0


def pytest_generate_tests(metafunc):
    if "arch" in metafunc.fixturenames:
        metafunc.parametrize("arch", ["x86", "ppc"])


# ---------------------------------------------------------------------------
# script mode: the CI speedup gate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="codegen-cache campaign throughput gate")
    parser.add_argument("--enforce-min-speedup", type=float,
                        default=None, metavar="X",
                        help="exit non-zero unless cold/warm >= X on "
                             "both architectures")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N repeats per side")
    common.add_json_argument(parser)
    args = parser.parse_args(argv)

    print(f"{'arch':<6} {'cold inj/s':>11} {'warm inj/s':>11} "
          f"{'speedup':>9}   ({COUNT} code injections, seed {SEED}, "
          f"ladder build included)")
    failures = []
    for arch in ("x86", "ppc"):
        cold, warm = measure_pair(arch, args.repeats)
        speedup = cold / warm
        print(f"{arch:<6} {COUNT / cold:>11.1f} {COUNT / warm:>11.1f} "
              f"{speedup:>8.2f}x")
        common.emit(args.json, "codegen_cache", arch=arch, count=COUNT,
                    ops=OPS, seed=SEED, cold_seconds=round(cold, 3),
                    warm_seconds=round(warm, 3),
                    speedup=round(speedup, 3))
        if args.enforce_min_speedup is not None and \
                speedup < args.enforce_min_speedup:
            failures.append((arch, speedup))
    if failures:
        for arch, speedup in failures:
            print(f"FAIL: {arch} code campaign with the codegen cache is "
                  f"only {speedup:.2f}x the cold path (floor "
                  f"{args.enforce_min_speedup:.2f}x)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
