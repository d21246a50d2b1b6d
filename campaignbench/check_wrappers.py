#!/usr/bin/env python3
"""Check the layer wrappers of ``spans.py`` against known counts.

Runs the campaigns of the baseline recorded in ``ROADMAP.md`` (seed 3,
default campaign settings) under the wrappers and compares what they
count with what that baseline counted by other means:

* 80-injection code campaigns: stepped instructions by fallback reason
  (x86: 469k forced, 399k halted, 264k breakpoint, 1.13M of 4.53M
  dispatch units, 25%; ppc: 282k forced, 181k breakpoint, 19%);
* a 200-injection x86 code campaign: 4,220 block compiles (calls of
  ``builtins.compile``) for 134 executed experiments.  The benchmark's
  ``compile.blocks`` counts ``compile_block`` calls, which also return
  the negative markers of uncompilable block heads without compiling;
  the check counts those apart.

Run from the root of a checkout (about a minute)::

    python3 campaignbench/check_wrappers.py

Exit code 0 when every count agrees with the baseline to its printed
precision.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402

REASONS = ("forced", "halted", "breakpoint", "guard")

#: (arch, injections) -> {what: (baseline value, relative precision)}
BASELINE = {
    ("x86", 80): {"forced": (469_000, 0.002), "halted": (399_000, 0.002),
                  "breakpoint": (264_000, 0.002),
                  "stepped": (1_130_000, 0.005),
                  "units": (4_530_000, 0.002), "share": (0.25, 0.02)},
    ("ppc", 80): {"forced": (282_000, 0.002),
                  "breakpoint": (181_000, 0.003), "share": (0.19, 0.03)},
    ("x86", 200): {"compiled": (4_220, 0.0), "executed": (134, 0.0)},
}


def count_uncompiled(tracer) -> None:
    """Count ``compile_block`` calls that compiled nothing (a negative
    marker or a failed first fetch) under ``("uncompiled",)``."""
    import repro.compile.blocks as blocks
    traced = blocks.compile_block

    def compile_block(*args):
        block = traced(*args)
        if block is None or block.fn is None:
            tracer.counts[("uncompiled",)] += 1
        return block

    spans._replace_everywhere(traced, compile_block)


def measure(tracer, arch: str, count: int) -> dict:
    from repro.injection.campaign import (Campaign, CampaignConfig,
                                          CampaignContext)
    from repro.injection.outcomes import CampaignKind
    # a fresh context: the baseline counted whole campaigns, set-up
    # (probe, profile, ladder) included
    CampaignContext.clear_cache()
    tracer.spans.clear()
    tracer.counts.clear()
    Campaign(CampaignConfig(arch=arch, kind=CampaignKind.CODE,
                            count=count, seed=3)).run()
    counts = tracer.counts
    out = {reason: counts[("stepped", arch, reason)] for reason in REASONS}
    out["stepped"] = sum(out[reason] for reason in REASONS)
    # dispatch units: steps plus instructions retired inside blocks
    out["units"] = (out["stepped"] + counts[("retired", arch)]
                    - counts[("step_retired", arch)])
    out["share"] = out["stepped"] / out["units"]
    out["blocks"] = sum(1 for span in tracer.spans
                        if span[0] == "compile.block")
    out["compiled"] = out["blocks"] - counts[("uncompiled",)]
    out["executed"] = sum(1 for span in tracer.spans
                          if span[0] == "injection.execute")
    return out


def _show(value) -> str:
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def main() -> int:
    tracer = spans.Tracer()
    spans.install(tracer)
    count_uncompiled(tracer)
    ok = True
    for (arch, count), expected in BASELINE.items():
        measured = measure(tracer, arch, count)
        print(f"{arch} code, {count} injections: "
              + ", ".join(f"{key} {_show(value)}"
                          for key, value in measured.items()))
        for key, (value, precision) in expected.items():
            agrees = abs(measured[key] - value) <= precision * value
            ok &= agrees
            print(f"  {key:10s} baseline {_show(value):>10} measured "
                  f"{_show(measured[key]):>10} "
                  f"{'ok' if agrees else 'DIFFERS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
