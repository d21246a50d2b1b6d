"""One fresh interpreter of the campaign benchmark.

Usage (from ``run.py``, never by hand)::

    python3 campaignbench/child.py '<json spec>'

The spec names the workload, the seed, and what to do after set-up:

* ``"mode": "setup"`` — build every context and ladder (plus the taint
  analysis for ``code``), print ``READY <probe seconds> <factor>`` and
  exit; the parent times interpreter start to ``READY``, takes out the
  host-speed probes run between the set-up steps and scales the rest by
  the factor they gave those steps (``hostspeed.py``);
* ``"mode": "window"`` — the same set-up, then the timed pass:
  exactly ``rounds`` rounds, with a progress read after every
  ``plan.READ_EVERY`` experiments and a host-speed probe after each
  chunk, both left out of the pass's clock; chunk and read times are
  scaled by the probes on either side of the chunk;
* ``"mode": "rounds"`` — the same set-up, then exactly ``rounds``
  rounds without reads, optionally traced (``"trace": true``) and
  optionally followed by a ``workers=2`` replay of the same rounds
  (``"parallel": true``).

The last stdout line is one JSON object with the pass's results.
"""

from __future__ import annotations

import json
import os
import sys
import time

import plan


def setup(workload: str, scaler) -> None:
    """Everything a campaign needs before its first experiment, each
    step a lap of *scaler*."""
    from repro.checkpoint.ladder import DEFAULT_CHECKPOINTS
    from repro.injection.campaign import CampaignContext
    from repro.static.predictor import taint_masked_bits
    for arch in plan.arches(workload):
        context = CampaignContext.get(arch, plan.CAMPAIGN_SEED, plan.OPS)
        scaler.lap()
        context.ladder(DEFAULT_CHECKPOINTS)
        scaler.lap()
        if plan.WORKLOADS[workload]["static"]:
            taint_masked_bits(arch)
            scaler.lap()


def run_rounds(workload: str, seed: int, rounds: int, tracer=None,
               reads=None, export=None, scaler=None):
    """Chunks of every stream, round by round (the timed pass).

    Returns ``(round_seconds, chunks)`` where *chunks* holds, per chunk,
    the stream key, round, the ``(global_index, target)`` items and the
    results.  Stream set-up (target generation) is timed into round 0.
    With a *reads* list, every ``plan.READ_EVERY`` experiments of a
    stream are followed by one progress read: its latest
    ``plan.READ_PAGE`` results exported to the file *export* as
    ``repro campaign --json`` writes them, timed into *reads* and left
    out of the round's time.  With a *scaler*, a host-speed probe
    follows each chunk, outside the clock, and chunk and read times are
    in reference seconds."""
    from repro.analysis.export import dump_results
    from repro.injection.campaign import Campaign, CampaignConfig
    from repro.injection.outcomes import CampaignKind
    spec = plan.WORKLOADS[workload]
    size = spec["chunk"]
    if tracer is not None:
        tracer.phase = "pass"
    piece_start = time.perf_counter()
    streams = {}
    for stream in spec["streams"]:
        payload = plan.stream_payload(stream, plan.STREAM_COUNT)
        config = CampaignConfig(
            arch=payload["arch"], kind=CampaignKind(payload["kind"]),
            count=payload["count"], seed=payload["seed"], ops=plan.OPS,
            prune=payload["prune"], fault_model=payload["fault_model"])
        campaign = Campaign(config)
        campaign.context.collector.clear()
        streams[plan.stream_key(stream)] = (campaign,
                                            campaign.generate_targets())
    chunks = []
    produced: dict = {key: [] for key in streams}
    round_seconds = []
    for number in range(rounds):
        spent = 0.0
        for stream in plan.round_streams(workload, seed, number):
            key = plan.stream_key(stream)
            campaign, targets = streams[key]
            low = number * size
            items = list(enumerate(targets[low:low + size], start=low))
            results = []
            chunk_reads = []
            for index, target in items:
                result = campaign.run_target(index, target)
                results.append(result)
                produced[key].append(result)
                if reads is not None and \
                        len(produced[key]) % plan.READ_EVERY == 0:
                    begin = time.perf_counter()
                    dump_results(produced[key][-plan.READ_PAGE:], export)
                    chunk_reads.append(time.perf_counter() - begin)
            chunks.append({"stream": key, "round": number,
                           "items": items, "results": results,
                           "campaign": campaign})
            seconds = time.perf_counter() - piece_start - sum(chunk_reads)
            factor = 1.0
            if scaler is not None:
                scaler.probe()
                factor = scaler.factor(-2)
            if reads is not None:
                reads.extend(read * factor for read in chunk_reads)
            spent += seconds * factor
            piece_start = time.perf_counter()
        round_seconds.append(spent)
    return round_seconds, chunks


def parallel_replay(chunks) -> dict:
    """The same chunks at ``workers=2`` through the sharded engine."""
    from repro.injection.parallel import run_items
    from repro.store.codec import results_digest
    failures = 0
    mismatches = 0
    start = time.perf_counter()
    merged_chunks = []
    for chunk in chunks:
        merged, shard_failures = run_items(chunk["campaign"],
                                           chunk["items"], 2)
        failures += len(shard_failures)
        merged_chunks.append([result for _index, result in merged])
    elapsed = time.perf_counter() - start
    for chunk, results in zip(chunks, merged_chunks):
        if results_digest(results) != results_digest(chunk["results"]):
            mismatches += 1
    return {"elapsed": elapsed, "shard_failures": failures,
            "mismatches": mismatches, "chunks": len(chunks)}


def prefix_check(chunks) -> bool:
    """Round 0 of every stream equals ``Campaign.run`` with
    ``count=chunk``: the chunked loop is the public campaign path."""
    from dataclasses import replace
    from repro.injection.campaign import Campaign
    from repro.store.codec import results_digest
    for chunk in chunks:
        if chunk["round"] != 0:
            continue
        campaign = chunk["campaign"]
        config = replace(campaign.config, count=len(chunk["items"]))
        result = Campaign(config, campaign.context).run()
        if results_digest(result.results) != \
                results_digest(chunk["results"]):
            return False
    return True


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload, seed, mode = spec["workload"], spec["seed"], spec["mode"]
    tracer = None
    if spec.get("trace"):
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    if workload == "memory-service":
        import service_loop
        out = service_loop.traced_child(spec, tracer)
        print(json.dumps(out), flush=True)
        return 0

    import hostspeed
    scaler = hostspeed.Scaler()
    setup(workload, scaler)
    # the parent scales the whole set-up, interpreter start included,
    # by the factor the probes gave the steps
    print(f"READY {sum(scaler.probes)!r} {scaler.scaled / scaler.host!r}",
          flush=True)
    if mode == "setup":
        return 0

    from repro.store.codec import results_digest
    reads: list = []
    if mode == "window":
        round_seconds, chunks = run_rounds(
            workload, seed, spec["rounds"], reads=reads,
            export=os.path.join(spec["work"], "export.jsonl"),
            scaler=scaler)
    else:
        round_seconds, chunks = run_rounds(
            workload, seed, spec["rounds"], tracer=tracer)
    out = {
        "elapsed": sum(round_seconds),
        "factors": [hostspeed.REFERENCE_SECONDS / seconds
                    for seconds in scaler.probes],
        "round_seconds": round_seconds,
        "attempted": sum(len(chunk["items"]) for chunk in chunks),
        "executed": sum(1 for chunk in chunks
                        for result in chunk["results"]
                        if not result.screened),
        "chunks": [{"stream": chunk["stream"], "round": chunk["round"],
                    "digest": results_digest(chunk["results"])}
                   for chunk in chunks],
        "reads": reads,
    }
    if tracer is not None:
        import spans
        out["layers"] = spans.layer_metrics(tracer)
        if spec.get("spans_out"):
            spans.write_spans(tracer, spec["spans_out"])
    if spec.get("parallel"):
        out["parallel"] = parallel_replay(chunks)
    if spec.get("prefix_check"):
        out["prefix_ok"] = prefix_check(chunks)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
