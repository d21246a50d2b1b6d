"""Outside-in layer tracing: wrappers installed from the benchmark.

No program file knows about this module.  :func:`install` replaces the
public functions of each layer with wrappers that record a span (name,
start, end, parent span, phase, experiment index) or bump a counter,
patching every module that imported the function by name, so calls
are seen where they are made.  Spans stay in memory; :func:`layer_metrics`
reduces them when the run ends.

A span's self time is its duration minus the time its child spans
cover.  Children are recorded on the same thread as their parent, so
they never overlap each other.  Async handlers are recorded as root
spans (coroutines interleave on the event loop thread).  Counters are
bumped only on the thread that runs experiments, so they need no lock.
"""

from __future__ import annotations

import collections
import json
import sys
import threading
import time


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        #: [name, start, end, parent index or -1, phase, experiment]
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.phase = "setup"
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, experiment_arg=None):
        """A wrapper of *fn* recording one *name* span per call.

        *experiment_arg* is the positional index of the experiment's
        global index among *fn*'s arguments; the wrapper then tags
        every span opened inside the call with it."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            local = tracer._local
            parent = stack[-1] if stack else -1
            previous = getattr(local, "experiment", None)
            if experiment_arg is not None:
                local.experiment = args[experiment_arg]
            record = [name, time.perf_counter(), 0.0, parent,
                      tracer.phase, getattr(local, "experiment", None)]
            tracer.spans.append(record)
            stack.append(len(tracer.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                local.experiment = previous

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap_async(self, fn, name, streamed=False):
        """Root span around a coroutine function; with *streamed* the
        span also covers the draining of the returned response stream."""
        tracer = self

        async def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, -1, tracer.phase,
                      None]
            tracer.spans.append(record)
            try:
                response = await fn(*args, **kwargs)
            except BaseException:
                record[2] = time.perf_counter()
                raise
            if not streamed or response.stream is None:
                record[2] = time.perf_counter()
                return response
            inner = response.stream

            async def timed_stream():
                try:
                    async for chunk in inner:
                        yield chunk
                finally:
                    record[2] = time.perf_counter()

            response.stream = timed_stream()
            return response

        wrapper.__wrapped__ = fn
        return wrapper


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro.*`` module global that is *original*."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(tracer, module, attr, name):
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(original, name))


def _patch_method(tracer, cls, attr, name, experiment_arg=None):
    setattr(cls, attr, tracer.wrap(getattr(cls, attr), name,
                                   experiment_arg))


def _dispatch_wrappers(tracer, cpu_classes, machine_cls) -> None:
    """Count stepped instructions by fallback reason, and retired
    instructions per outermost kernel call (instret deltas)."""
    local = threading.local()

    for cls in cpu_classes:
        arch = "x86" if cls.__name__.startswith("X86") else "ppc"
        original = cls.step

        def step(self, _original=original, _arch=arch):
            if self.halted:
                reason = "halted"
            elif self._block_cache is None or self.tracer is not None:
                reason = "forced"
            elif self.debug._insn_bps:
                reason = "breakpoint"
            else:
                reason = "guard"
            before = self.instret
            try:
                _original(self)
            finally:
                counts = tracer.counts
                counts[("stepped", _arch, reason)] += 1
                counts[("step_retired", _arch)] += self.instret - before

        step.__wrapped__ = original
        cls.step = step

    original_call = machine_cls.call_kernel

    def call_kernel(self, *args, **kwargs):
        depth = getattr(local, "depth", 0)
        if depth:
            return original_call(self, *args, **kwargs)
        local.depth = 1
        before = self.cpu.instret
        start = time.perf_counter()
        try:
            return original_call(self, *args, **kwargs)
        finally:
            local.depth = 0
            counts = tracer.counts
            counts[("retired", self.arch)] += self.cpu.instret - before
            counts["dispatch_s"] += time.perf_counter() - start

    call_kernel.__wrapped__ = original_call
    machine_cls.call_kernel = call_kernel


def install(tracer: Tracer) -> None:
    """Wrap every traced layer (import the whole stack first)."""
    import repro.checkpoint.ladder as ladder
    import repro.compile.blocks as blocks
    import repro.injection.campaign as campaign_mod
    import repro.injection.injector as injector
    import repro.kernel.build as build
    import repro.service.daemon as daemon
    import repro.static.predictor as predictor
    import repro.store.journal as journal
    import repro.workload.probe as probe
    import repro.workload.profiler as profiler
    import repro.analysis.classify as classify
    from repro.machine.machine import Machine
    from repro.ppc.cpu import PPCCPU
    from repro.x86.cpu import X86CPU

    _patch_function(tracer, build, "build_kernel", "kernel.build")
    _patch_function(tracer, probe, "probe_clean_run", "workload.probe")
    _patch_function(tracer, profiler, "profile_kernel", "workload.profile")
    _patch_function(tracer, ladder, "build_ladder", "checkpoint.ladder")
    _patch_function(tracer, predictor, "taint_masked_bits",
                    "static.analyze")
    _patch_function(tracer, blocks, "lookup_block", "compile.lookup")
    _patch_function(tracer, blocks, "compile_block", "compile.block")
    _patch_function(tracer, classify, "classify_crash",
                    "analysis.classify")
    _patch_function(tracer, journal, "replay", "store.replay")

    _patch_method(tracer, Machine, "boot", "machine.boot")
    _patch_method(tracer, Machine, "fork", "machine.fork")
    Campaign = campaign_mod.Campaign
    _patch_method(tracer, Campaign, "generate_targets",
                  "injection.targets")
    _patch_method(tracer, Campaign, "_screen_not_activated",
                  "injection.screen")
    _patch_method(tracer, Campaign, "run_target", "injection.experiment",
                  experiment_arg=1)
    _patch_method(tracer, injector.InjectionRun, "execute",
                  "injection.execute")
    _patch_method(tracer, journal.Journal, "append", "store.append")
    _patch_method(tracer, daemon.CampaignService, "_journaled",
                  "store.read")
    service_cls = daemon.CampaignService
    service_cls.handle_summary = tracer.wrap_async(
        service_cls.handle_summary, "service.summary")
    service_cls.handle_results = tracer.wrap_async(
        service_cls.handle_results, "service.results", streamed=True)

    original_spec_for = Campaign.spec_for

    def spec_for(self, index, target):
        spec = original_spec_for(self, index, target)
        trigger, _inclusive = self._trigger_instret(target)
        if trigger is not None and tracer.phase == "pass":
            start = (spec.checkpoint.instret if spec.checkpoint is not None
                     else self.context.probe.boot_instret)
            tracer.counts["residue_insns"] += trigger - start
            tracer.counts["residue_specs"] += 1
        return spec

    spec_for.__wrapped__ = original_spec_for
    Campaign.spec_for = spec_for
    _dispatch_wrappers(tracer, (X86CPU, PPCCPU), Machine)


def _totals(tracer: Tracer):
    """Per (name, phase): [count, total seconds, self seconds]."""
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, _phase, _exp in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for position, (name, start, end, _parent, phase, _exp) in \
            enumerate(tracer.spans):
        entry = totals[(name, phase)]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[position]
    return totals


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Reduce the spans and counters to the per-layer metric values.

    Set-up layers (kernel, boot, probe, profile, ladder, static) sum
    every phase; campaign layers count the timed pass only.  Dispatch
    counters cover set-up and pass, as the campaign baseline in the
    benchmark's README does."""
    totals = _totals(tracer)
    counts = tracer.counts

    def total(name, phase=None, column=1):
        phases = ("setup", "pass") if phase is None else (phase,)
        return sum(totals[(name, each)][column] for each in phases)

    lookups = total("compile.lookup", "pass", 0)
    blocks = total("compile.block", "pass", 0)
    attempted = total("injection.experiment", "pass", 0)
    executed = total("injection.execute", "pass", 0)
    # journal replays under a daemon read are read time, not resume
    read_replay_s = sum(
        end - start for name, start, end, parent, phase, _x
        in tracer.spans
        if name == "store.replay" and phase == "pass" and parent >= 0
        and tracer.spans[parent][0] == "store.read")

    metrics = {
        "kernel.build_s": total("kernel.build"),
        "machine.boot_s": total("machine.boot"),
        "machine.forks": total("machine.fork", "pass", 0),
        "machine.fork_s": total("machine.fork", "pass"),
        "workload.probe_s": total("workload.probe"),
        "workload.profile_s": total("workload.profile"),
        "checkpoint.ladder_s": total("checkpoint.ladder"),
        "checkpoint.residue_insns_per_inj": _ratio(
            counts["residue_insns"], counts["residue_specs"]),
        "static.analyze_s": total("static.analyze"),
        "compile.lookups": lookups,
        "compile.blocks": blocks,
        "compile.block_s": total("compile.block", "pass"),
        "compile.hit_share": _ratio(lookups - blocks, lookups),
        "compile.blocks_per_executed": _ratio(blocks, executed),
        "injection.attempted": attempted,
        "injection.executed_share": _ratio(executed, attempted),
        "injection.targets_s": total("injection.targets", "pass"),
        "injection.screen_s": total("injection.screen", "pass"),
        "injection.execute_s": total("injection.execute", "pass", 2),
        "analysis.classify_s": total("analysis.classify", "pass"),
        "store.appends": total("store.append", "pass", 0),
        "store.append_s": total("store.append", "pass"),
        "store.replay_s": total("store.replay", "pass") - read_replay_s,
        "store.read_s": total("store.read", "pass"),
        "service.summary_s": total("service.summary", "pass"),
        "service.results_s": total("service.results", "pass"),
    }

    stepped_total = 0
    retired_total = 0
    step_retired_total = 0
    for reason in ("forced", "halted", "breakpoint", "guard"):
        value = sum(counts[("stepped", arch, reason)]
                    for arch in ("x86", "ppc"))
        metrics[f"dispatch.stepped.{reason}"] = value
        stepped_total += value
    for arch in ("x86", "ppc"):
        stepped = sum(counts[("stepped", arch, reason)]
                      for reason in ("forced", "halted", "breakpoint",
                                     "guard"))
        retired = counts[("retired", arch)]
        step_retired = counts[("step_retired", arch)]
        retired_total += retired
        step_retired_total += step_retired
        # dispatch units: steps (halted idles included) plus
        # instructions retired inside compiled blocks
        metrics[f"dispatch.{arch}.step_share"] = _ratio(
            stepped, stepped + retired - step_retired)
    metrics["dispatch.sim_insns"] = retired_total
    metrics["dispatch.step_share"] = _ratio(
        stepped_total, stepped_total + retired_total - step_retired_total)
    metrics["dispatch.ns_per_insn"] = _ratio(
        counts["dispatch_s"] * 1e9, retired_total)
    return metrics


def write_spans(tracer: Tracer, path) -> None:
    """Every span as one JSON line (``--spans-out``)."""
    with open(path, "w", encoding="utf-8") as handle:
        for position, (name, start, end, parent, phase, experiment) in \
                enumerate(tracer.spans):
            handle.write(json.dumps({
                "id": position, "name": name, "start": start, "end": end,
                "parent": parent if parent >= 0 else None, "phase": phase,
                "experiment": experiment}) + "\n")
