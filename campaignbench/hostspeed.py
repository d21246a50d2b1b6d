"""Host speed: a fixed reference loop timed between pieces of the pass.

The benchmark's shared host has slow and fast phases that last minutes:
identical work took 12.3 s in one run and 24.8 s in another, and a plain
integer loop slowed down with it (README.md, "Host noise").  No pass
that fits a benchmark check's time allowance outlasts such a phase, so
every end-to-end timing is scaled to a fixed reference speed: the
reference loop (:func:`probe`) runs right before and right after each
piece of timed work, outside its clock, and the piece's host seconds
are multiplied by ``REFERENCE_SECONDS`` over the mean of the two probe
times.  A piece measured while the host runs at half speed is halved.

The loop does the kinds of work the simulator does (integer arithmetic,
dict stores and lookups, byte reads and writes at scattered addresses
of a 4-MB buffer, calls through a table of closures) and shares none of
the program's code, so a change to the program does not move it.  It
allocates about 7 MB.
"""

from __future__ import annotations

import random
import statistics
import time

#: the probe time that defines reference speed, about its median on
#: the development host (README.md)
REFERENCE_SECONDS = 0.040

_MEMORY_BYTES = 4 << 20
_state: dict = {}


def _buffers():
    if not _state:
        rng = random.Random(5)
        _state["memory"] = bytearray(_MEMORY_BYTES)
        _state["addresses"] = [rng.randrange(_MEMORY_BYTES - 4)
                               for _ in range(10000)]
    return _state["memory"], _state["addresses"]


def _loop(memory: bytearray, addresses: list) -> int:
    total = 0
    for i in range(100000):
        total += i * i
    table = {}
    for i in range(40000):
        table[i * 7919 % 1000003] = i
    for key in table:
        total += table[key]
    handlers = (lambda a, v: v + 1, lambda a, v: v ^ a,
                lambda a, v: (v * 3) & 0xFFFFFFFF)
    load = int.from_bytes
    for n, address in enumerate(addresses):
        value = handlers[n % 3](address, load(memory[address:address + 4],
                                              "little"))
        memory[address:address + 4] = (value & 0xFFFFFFFF).to_bytes(
            4, "little")
        total ^= value
    return total


def probe() -> float:
    """Host seconds of one reference loop (its buffers are made once,
    outside the clock)."""
    memory, addresses = _buffers()
    start = time.perf_counter()
    _loop(memory, addresses)
    return time.perf_counter() - start


class Scaler:
    """Probe times around timed work, and the factors they give.

    The scaler probes once when made.  Either call :meth:`lap` after
    each piece of work, which times the piece from the previous probe,
    or time the piece yourself and call :meth:`probe` and
    :meth:`factor`."""

    def __init__(self):
        self.probes: list = []
        #: host and reference seconds of the laps so far
        self.host = 0.0
        self.scaled = 0.0
        self.probe()

    def probe(self) -> float:
        seconds = probe()
        self.probes.append(seconds)
        self._mark = time.perf_counter()
        return seconds

    def factor(self, first: int = 0) -> float:
        """Reference over host speed, from the probes since *first*
        (``-2``: the two around the latest piece)."""
        return REFERENCE_SECONDS / statistics.fmean(self.probes[first:])

    def lap(self) -> None:
        """Probe; the host time since the previous probe is one piece."""
        seconds = time.perf_counter() - self._mark
        self.probe()
        self.host += seconds
        self.scaled += seconds * self.factor(-2)
