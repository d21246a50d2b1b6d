#!/usr/bin/env python3
"""Campaign benchmark: set-up time, injections/s, memory, read latency.

Run from the root of a checkout::

    python3 campaignbench/run.py --workload code --seed 3 --seconds 20 --trace 0

Workloads are ``code``, ``register`` and ``memory-service`` (see
``plan.py`` and ``README.md``).  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; the timed pass runs the fixed number of
rounds that took ``--seconds`` on the development host.  ``--trace 1``
runs a fixed number of rounds untraced and then traced, and prints the
per-layer metrics.
The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only
when every check passed.

``--record`` rewrites ``digests.json`` (pinned chunk and job digests
plus the traced exact counts at the default seed); use it only when a
change is meant to move results, and say why.
"""

from __future__ import annotations

import sys

# the checkout must stay as it was: bytecode goes to the work directory
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import plan  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
#: traced counts that must repeat exactly at the default seed
EXACT_COUNTS = ("dispatch.sim_insns", "compile.blocks", "machine.forks",
                "store.appends", "injection.executed_share")
#: a child that outlives this is killed (the whole run must end < 180 s)
CHILD_TIMEOUT = 170.0
#: work directories in the checkout: ``<prefix><pid>-<random>``
WORK_PREFIX = ".campaignbench-"
#: rounds pinned per workload by ``--record``
RECORD_ROUNDS = {"code": 30, "register": 40, "memory-service": 20}


class Ops:
    """Operations attempted and failed: experiments, jobs, HTTP calls
    and digest checks.  Failures are also logged to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int = 0, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"FAILED: {failed} of {attempted} {what}",
                  file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        self.add(1, 0 if ok else 1, what)


class ChildFailed(RuntimeError):
    pass


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONPYCACHEPREFIX"] = str(work / "pyc")
    # fixed hash seed: set iteration order (and so the work done) is the
    # same from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict, env: dict):
    """Run ``child.py``; returns (set-up seconds, last JSON line).

    Set-up is the time from start until the child prints ``READY``,
    less the host-speed probes it ran, at reference speed."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    ready = None
    last = b""
    try:
        for line in proc.stdout:
            line = line.strip()
            if line.startswith(b"READY") and ready is None:
                seconds = time.perf_counter() - start
                _word, probes, factor = line.split()
                ready = (seconds - float(probes)) * float(factor)
            elif line:
                last = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise ChildFailed(f"child {spec['mode']} exited with "
                          f"{proc.returncode}")
    return ready, (json.loads(last) if last.startswith(b"{") else None)


def remove_stale_work() -> None:
    """Remove the work directories of runs that were killed before they
    could remove their own (the directory name carries the run's pid)."""
    for path in ROOT.glob(WORK_PREFIX + "*"):
        pid = path.name[len(WORK_PREFIX):].split("-", 1)[0]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except PermissionError:
            pass


def load_pins() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    return {}


def check_pinned(ops: Ops, pins: dict, section: str, workload: str,
                 records: list) -> None:
    """Each chunk/job digest against the table (every seed runs the
    same campaigns, see ``plan.py``)."""
    table = pins.get(section, {}).get(workload, {})
    unpinned = 0
    for record in records:
        pinned = table.get(record["stream"], [])
        if record["round"] < len(pinned):
            ops.check(record["digest"] == pinned[record["round"]],
                      f"pinned digest {record['stream']} round "
                      f"{record['round']}")
        else:
            unpinned += 1
    if unpinned:
        print(f"note: {unpinned} {section} beyond the pinned rounds",
              file=sys.stderr)


def tail(ordered: list) -> str:
    """The highest percentile of sorted *ordered* with at least ten
    samples beyond it."""
    if len(ordered) < 11:
        return "no tail (fewer than 11 samples)"
    position = len(ordered) - 11
    return (f"tail p{100.0 * (position + 1) / len(ordered):.1f} "
            f"{ordered[position]:.3f} ms")


def read_metrics(reads: list, metrics: dict, lateness=None) -> None:
    """``read_ms.p50`` from ``(kind, seconds)`` reads: the median over
    all of them, both endpoints together (README.md says why).
    Per-endpoint figures and the tail go to stderr only: the tail does
    not repeat within a tenth from run to run."""
    if not reads:
        raise ChildFailed("no read samples")
    kinds: dict = {}
    for kind, seconds in reads:
        kinds.setdefault(kind, []).append(seconds * 1000.0)
    every = [ms for values in kinds.values() for ms in values]
    metrics["read_ms.p50"] = statistics.median(every)
    note = ""
    if lateness:
        late = [value * 1000.0 for value in lateness]
        note = (f", generator late by median {statistics.median(late):.2f}"
                f" ms, max {max(late):.2f} ms")
    split = ", ".join(f"{kind} {len(values)} median "
                      f"{statistics.median(values):.3f} mean "
                      f"{statistics.fmean(values):.3f}"
                      for kind, values in kinds.items())
    print(f"reads: {len(reads)} samples, p50 "
          f"{metrics['read_ms.p50']:.3f} ms ({split}), "
          f"{tail(sorted(every))}{note}", file=sys.stderr)


def speeds(factors: list) -> str:
    """Host-speed factors (reference over host speed) in brief."""
    ordered = sorted(factors)
    return (f"{len(ordered)} probes, factor min {ordered[0]:.2f} median "
            f"{statistics.median(ordered):.2f} max {ordered[-1]:.2f}")


def peak_rss_mb() -> float:
    """This process plus its largest waited-for child (the pass child
    or the daemon; they never run side by side with each other)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- untraced: end-to-end metrics ---------------------------------------------

def timed_run(workload, seed, rounds, env, work, ops, pins) -> dict:
    if workload == "memory-service":
        return service_run(seed, rounds, env, work, ops, pins)
    samples = []
    for _ in range(plan.WORKLOADS[workload]["setup_samples"] - 1):
        ready, _out = run_child({"workload": workload, "seed": seed,
                                 "mode": "setup"}, env)
        samples.append(ready)
    ready, out = run_child({"workload": workload, "seed": seed,
                            "mode": "window", "rounds": rounds,
                            "work": str(work)}, env)
    samples.append(ready)
    ops.add(out["attempted"], 0, "experiments")
    check_pinned(ops, pins, "chunks", workload, out["chunks"])
    metrics = {"setup_s": statistics.median(samples),
               "inj_per_s": out["attempted"] / out["elapsed"],
               "peak_rss_mb": peak_rss_mb()}
    read_metrics([("export", seconds) for seconds in out["reads"]],
                 metrics)
    print(f"round seconds: {[round(t, 2) for t in out['round_seconds']]}",
          file=sys.stderr)
    print(f"host speed: {speeds(out['factors'])}", file=sys.stderr)
    print(f"setup samples: {[round(s, 3) for s in samples]}; "
          f"{out['attempted']} injections ({out['executed']} executed) "
          f"in {out['elapsed']:.2f}s, {len(out['chunks'])} chunks",
          file=sys.stderr)
    return metrics


def service_setup(env, work, ops, samples):
    """Start one daemon and warm it up, appending the set-up seconds to
    *samples*; returns (daemon, client, store directory, scaler).  The
    start and each warm-up job are laps of the scaler, so the sample is
    in reference seconds."""
    import hostspeed
    import service_loop
    from repro.service.client import ServiceClient
    store = work / f"store-{len(samples)}"
    scaler = hostspeed.Scaler()
    daemon = service_loop.Daemon(store, env, ROOT)
    try:
        client = ServiceClient(f"http://127.0.0.1:{daemon.port}",
                               timeout=150)
        client.wait_ready(timeout=60)
        scaler.lap()
        views = service_loop.warm_up(client, scaler.lap)
    except BaseException:
        daemon.stop()
        raise
    samples.append(scaler.scaled)
    for view in views:
        ops.check(view["state"] == "done", "warm-up job")
    return daemon, client, store, scaler


def service_loop_checked(client, daemon, store, seed, ops, pins, rounds,
                         scaler=None):
    """Closed loop on a started daemon, then the untimed checks."""
    import service_loop
    try:
        loop = service_loop.closed_loop(client, seed, rounds, scaler)
    finally:
        daemon.stop()
    jobs = loop["jobs"]
    ops.add(loop["attempted"], 0, "experiments")
    ops.add(loop["calls"], loop["errors"], "HTTP calls")
    ops.add(len(jobs), sum(1 for job in jobs
                           if job["view"].get("state") != "done"), "jobs")
    for job, ok in zip(jobs, service_loop.read_back(store, jobs)):
        ops.check(bool(ok), f"journal read-back {job['stream']} round "
                            f"{job['round']}")
    records = [{"stream": job["stream"], "round": job["round"],
                "digest": job["view"].get("digest")} for job in jobs]
    check_pinned(ops, pins, "jobs", "memory-service", records)
    return loop, records


def service_run(seed, rounds, env, work, ops, pins) -> dict:
    samples: list = []
    for _ in range(plan.WORKLOADS["memory-service"]["setup_samples"] - 1):
        daemon = service_setup(env, work, ops, samples)[0]
        daemon.stop()
    daemon, client, store, scaler = service_setup(env, work, ops, samples)
    loop, _records = service_loop_checked(client, daemon, store, seed,
                                          ops, pins, rounds, scaler)
    metrics = {"setup_s": statistics.median(samples),
               "inj_per_s": loop["attempted"] / loop["elapsed"],
               "peak_rss_mb": peak_rss_mb()}
    read_metrics([(kind, latency) for kind, latency, _late in loop["reads"]],
                 metrics,
                 lateness=[late for _kind, _latency, late in loop["reads"]])
    print(f"setup samples: {[round(s, 3) for s in samples]}; "
          f"{loop['attempted']} injections in {len(loop['jobs'])} jobs, "
          f"{loop['elapsed']:.2f}s", file=sys.stderr)
    print(f"host speed: {speeds(loop['factors'])}", file=sys.stderr)
    return metrics


# -- traced: per-layer metrics --------------------------------------------------

def compare_digests(ops: Ops, left: list, right: list, what: str) -> None:
    pairs = list(zip(left, right))
    ops.add(len(pairs), sum(1 for a, b in pairs
                            if a["digest"] != b["digest"]), what)


def traced_run(workload, seed, env, work, ops, pins, spans_out) -> dict:
    rounds = plan.WORKLOADS[workload]["trace_rounds"]
    base = {"workload": workload, "seed": seed, "mode": "rounds",
            "rounds": rounds, "work": str(work)}
    if workload == "memory-service":
        daemon, client, store, _scaler = service_setup(env, work, ops, [])
        plain, plain_records = service_loop_checked(
            client, daemon, store, seed, ops, pins, rounds=rounds)
        _ready, traced = run_child(
            dict(base, trace=True, spans_out=spans_out), env)
        jobs = traced["loop"]["jobs"]
        ops.add(traced["loop"]["attempted"], 0, "traced experiments")
        ops.add(traced["loop"]["calls"], traced["loop"]["errors"],
                "traced HTTP calls")
        ops.add(len(jobs), sum(1 for job in jobs if job["state"] != "done"),
                "traced jobs")
        for view in traced["warm"]:
            ops.check(view["state"] == "done", "traced warm-up job")
        ops.add(len(traced["checks"]),
                sum(1 for ok in traced["checks"] if not ok),
                "traced journal read-backs")
        compare_digests(ops, plain_records, jobs, "traced vs untraced jobs")
        check_pinned(ops, pins, "jobs", workload, jobs)
        layers = traced["layers"]
        plain_rate = plain["attempted"] / plain["elapsed"]
        traced_rate = traced["loop"]["attempted"] / traced["loop"]["elapsed"]
    else:
        _ready, plain = run_child(
            dict(base, parallel=plan.WORKLOADS[workload]["parallel"]),
            env)
        _ready, traced = run_child(
            dict(base, trace=True, spans_out=spans_out), env)
        ops.add(plain["attempted"] + traced["attempted"], 0,
                "experiments")
        compare_digests(ops, plain["chunks"], traced["chunks"],
                        "traced vs untraced chunks")
        check_pinned(ops, pins, "chunks", workload, traced["chunks"])
        layers = traced["layers"]
        plain_rate = plain["attempted"] / plain["elapsed"]
        traced_rate = traced["attempted"] / traced["elapsed"]
        if "parallel" in plain:
            parallel = plain["parallel"]
            ops.add(parallel["chunks"], parallel["mismatches"],
                    "workers=2 vs serial chunks")
            ops.add(2 * parallel["chunks"], parallel["shard_failures"],
                    "workers=2 shards")
            layers["parallel.efficiency"] = (
                plain["elapsed"] / (2 * parallel["elapsed"]))
            layers["parallel.shard_failures"] = parallel["shard_failures"]
    layers["trace.overhead_ratio"] = plain_rate / traced_rate
    if seed == plan.DEFAULT_SEED:
        pinned = pins.get("counts", {}).get(workload, {})
        for name in EXACT_COUNTS:
            if name in pinned:
                ops.check(layers.get(name) == pinned[name],
                          f"exact count {name}: {layers.get(name)} != "
                          f"pinned {pinned[name]}")
    return layers


# -- recording -------------------------------------------------------------------

def record(env, work) -> None:
    """Pin chunk/job digests and exact counts at the default seed."""
    seed = plan.DEFAULT_SEED
    pins: dict = {"seed": seed, "chunks": {}, "jobs": {}, "counts": {}}
    for workload in plan.WORKLOADS:
        rounds = RECORD_ROUNDS[workload]
        if workload == "memory-service":
            ops = Ops()
            daemon, client, store, _scaler = service_setup(env, work, ops,
                                                           [])
            _loop, records = service_loop_checked(
                client, daemon, store, seed, ops, {}, rounds=rounds)
            if ops.failed:
                raise ChildFailed("memory-service record run failed")
            section = pins["jobs"]
        else:
            _ready, out = run_child({"workload": workload, "seed": seed,
                                     "mode": "rounds", "rounds": rounds,
                                     "prefix_check": True}, env)
            if not out["prefix_ok"]:
                raise ChildFailed(f"{workload}: round 0 differs from "
                                  f"Campaign.run")
            records = out["chunks"]
            section = pins["chunks"]
        table = section.setdefault(workload, {})
        for item in records:
            table.setdefault(item["stream"], []).append(item["digest"])
        ops = Ops()
        layers = traced_run(workload, seed, env, work, ops, pins, None)
        if ops.failed:
            raise ChildFailed(f"{workload} traced record run failed")
        pins["counts"][workload] = {name: layers[name]
                                    for name in EXACT_COUNTS}
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


# -- entry point -------------------------------------------------------------------

def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(plan.WORKLOADS),
                        default="code")
    parser.add_argument("--seed", type=int, default=plan.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed pass on the development "
                             "host; sets its number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", metavar="FILE",
                        help="with --trace 1: write every span as JSON "
                             "lines to FILE")
    parser.add_argument("--record", action="store_true",
                        help="rewrite digests.json at the default seed")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2

    if not (args.trace or args.record):
        # one CPU for this process and every child: the cores of a
        # shared host slow down separately, and a host-speed probe must
        # time the core the work runs on (README.md).  Traced runs are
        # not scaled, and their workers=2 replay needs both cores.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a terminated run still stops its daemon and removes its work
    # directory: SIGTERM unwinds through the ``finally`` blocks
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the work directory stays inside the checkout, the only place the
    # benchmark may write
    remove_stale_work()
    work = Path(tempfile.mkdtemp(prefix=f"{WORK_PREFIX}{os.getpid()}-",
                                 dir=ROOT))
    try:
        sys.pycache_prefix = str(work / "pyc")
        compileall.compile_dir(str(SRC / "repro"), quiet=1)
        compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
        sys.path.insert(0, str(SRC))
        env = child_env(work)
        if args.record:
            record(env, work)
            return 0
        ops = Ops()
        pins = load_pins()
        if args.trace:
            spans_out = (os.path.abspath(args.spans_out)
                         if args.spans_out else None)
            values = traced_run(args.workload, args.seed, env, work, ops,
                                pins, spans_out)
        else:
            values = timed_run(
                args.workload, args.seed,
                plan.window_rounds(args.workload, args.seconds), env, work,
                ops, pins)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for entry in declared_metrics(bool(args.trace)):
        # a layer that does not run in a workload reads 0; an
        # end-to-end metric is always measured
        value = values.get(entry["name"], 0) if args.trace \
            else values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = ops.failed == 0
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
