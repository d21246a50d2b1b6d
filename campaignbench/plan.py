"""What each workload runs: campaigns, chunk sizes and sample counts.

A *stream* is one campaign configuration with ``STREAM_COUNT``
pre-generated targets, far more than a measurement window reaches.
Target generation is prefix-stable, so the first ``k`` targets of the
stream are exactly the targets of the same campaign with ``count=k``.
A *chunk* is ``chunk`` consecutive global indices of one stream; a
*round* runs one chunk of every stream of the workload.  A timed pass
runs a fixed number of rounds, set by ``--seconds``
(:func:`window_rounds`), so every run at the same ``--seconds`` does
the same work and only the time it takes varies.

Every stream uses campaign seed ``CAMPAIGN_SEED``, whatever the
benchmark seed: round *r* runs the same experiments in every run, and
the benchmark seed only shuffles the order of the streams within each
round (:func:`round_streams`).  Experiment costs are heavy-tailed (a
hang costs up to 50 times a typical experiment), so windows drawn
from different campaign seeds differed by 25-40% in injections/s, and
a window cut by the clock moved by 10% with the round it happened to
end on; README.md has the measurements.
"""

from __future__ import annotations

import random

#: the benchmark's default ``--seed``
DEFAULT_SEED = 3
#: campaign seed of every stream (``CampaignConfig.seed``)
CAMPAIGN_SEED = 3
#: monitored workload window per experiment (``CampaignConfig.ops``)
OPS = 36
#: targets per stream; the fastest workload reaches a few hundred
STREAM_COUNT = 4000
#: top-up size of a ``memory-service`` job: the smallest campaign
#: ``repro study`` runs (``StudyConfig.min_campaign``)
SERVICE_CHUNK = 40
#: results returned by one progress read (``/results?limit=``): one
#: job's worth, so a read's size does not grow with the rounds a pass
#: reaches
READ_PAGE = SERVICE_CHUNK
#: experiments between two progress reads of a chunked workload
READ_EVERY = 5

WORKLOADS = {
    # compile + dispatch heavy: every code flip invalidates blocks and
    # the first-fetch breakpoint forces the step core
    "code": {
        "streams": [
            {"arch": "x86", "kind": "code", "fault_model": "single-bit",
             "prune": "taint"},
            {"arch": "ppc", "kind": "code", "fault_model": "single-bit",
             "prune": "taint"},
        ],
        "chunk": 20,
        "round_seconds": 2.5,
        "setup_samples": 3,
        "trace_rounds": 2,
        "static": True,
        "parallel": True,
    },
    # the control: never screened, blocks reused, almost nothing
    # stepped.  Not in BENCHMARK.json: a third workload leaves a
    # benchmark check's time allowance no room for slow host phases
    # (README.md)
    "register": {
        "streams": [
            {"arch": "x86", "kind": "register",
             "fault_model": "single-bit"},
            {"arch": "ppc", "kind": "register",
             "fault_model": "single-bit"},
        ],
        "chunk": 10,
        "round_seconds": 1.2,
        "setup_samples": 3,
        "trace_rounds": 3,
        "static": False,
        "parallel": True,
    },
    # service-bound: mostly screened targets, journal appends, resume
    # replay and reads beside writes; each round tops every campaign
    # up by ``chunk`` experiments
    "memory-service": {
        "streams": [
            {"arch": arch, "kind": kind, "fault_model": model}
            for arch in ("x86", "ppc")
            for kind, model in (("stack", "single-bit"),
                                ("stack", "intermittent"),
                                ("data", "burst"),
                                ("data", "targeted"))
        ],
        "chunk": SERVICE_CHUNK,
        # a round takes about 3.5 s here, but a longer pass gives more
        # reads per run (README.md)
        "round_seconds": 2.0,
        "setup_samples": 3,
        "trace_rounds": 2,
        "static": False,
        "parallel": False,
        # a fixed choice, not observed traffic: README.md gives the
        # measurements that chose it
        "read_interval": 0.25,
    },
}


def arches(workload: str) -> list:
    """Architectures a workload needs contexts for, in stream order."""
    seen: list = []
    for stream in WORKLOADS[workload]["streams"]:
        if stream["arch"] not in seen:
            seen.append(stream["arch"])
    return seen


def window_rounds(workload: str, seconds: float) -> int:
    """Rounds in the timed pass: *seconds* over the workload's
    ``round_seconds`` (README.md)."""
    return max(1, round(seconds / WORKLOADS[workload]["round_seconds"]))


def round_streams(workload: str, seed: int, number: int) -> list:
    """The streams of round *number*, in the order the benchmark seed
    gives them."""
    streams = list(WORKLOADS[workload]["streams"])
    random.Random(f"{seed}/{number}").shuffle(streams)
    return streams


def stream_key(stream: dict) -> str:
    return f"{stream['arch']}/{stream['kind']}/{stream['fault_model']}"


def stream_payload(stream: dict, count: int) -> dict:
    """The campaign-config payload (service protocol field names)."""
    payload = dict(stream, seed=CAMPAIGN_SEED, ops=OPS, count=count)
    payload.setdefault("prune", "none")
    return payload
