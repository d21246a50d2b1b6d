"""Superblock compilation for the interpreter cores.

``blocks`` holds the per-machine compiled-block cache, the process-wide
tier of clean kernel blocks behind it, and the discovery pass;
``gen_x86``/``gen_ppc`` translate a run of decoded instructions into
one specialized Python function with operands pre-bound.
"""

from repro.compile.blocks import (  # noqa: F401
    BlockCache, CompiledBlock, clear_caches, compile_block, leaders_for,
    lookup_block,
)
