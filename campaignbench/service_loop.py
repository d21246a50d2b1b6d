"""The ``memory-service`` workload: top-up jobs against ``repro serve``.

Jobs run as a closed loop: one job is in flight, and the next is
submitted when it ends.  Round ``r`` raises every campaign's count to
``(r + 1) * chunk``, so the daemon replays the journaled prefix and
injects only the new tail.  While a job runs, the same client reads
``/summary`` and the first page of ``/results`` of the job's campaign
on a fixed open-loop schedule: from the job's first progress event,
one read every ``read_interval`` reference seconds, alternating the two
endpoints.  Each read is timed from when it was due.  The schedule
restarts with every job, so a job reads at the same points of its work
whatever order the benchmark seed gives the jobs; and it runs in
reference seconds (stretched on a slow host by the latest three
host-speed probes), so a slow stretch does not add reads to a job.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import threading
import time

import hostspeed
import plan

_PORT = re.compile(rb"http://[^:/]+:(\d+)")


class Daemon:
    """``python -m repro serve --workers 1`` in its own interpreter."""

    def __init__(self, store, env, cwd):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store),
             "--workers", "1", "--port", "0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
            cwd=cwd)
        first = self.proc.stderr.readline()
        match = _PORT.search(first)
        self._drain = threading.Thread(target=self._drain_stderr,
                                       daemon=True)
        self._drain.start()
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {first!r}")
        self.port = int(match.group(1))

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            sys.stderr.write(line.decode("utf-8", "replace"))

    def stop(self) -> None:
        """Graceful drain, then wait; kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=10)
        self.proc.stderr.close()


class ThreadDaemon:
    """The same service on a thread of this process (traced runs), so
    the layer wrappers see the daemon's calls."""

    def __init__(self, store):
        self.store = str(store)
        self.loop = asyncio.new_event_loop()
        self.port = None
        self._error = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        from repro.service.daemon import CampaignService
        asyncio.set_event_loop(self.loop)
        try:
            service = CampaignService(self.store, workers=1, port=0)
            self.port = self.loop.run_until_complete(service.start())
        except Exception as exc:         # noqa: BLE001 — reported below
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self.loop.run_forever()
            self.loop.run_until_complete(service.stop())
        finally:
            self.loop.close()

    def __enter__(self) -> "ThreadDaemon":
        self._thread.start()
        self._ready.wait(timeout=60)
        if self.port is None:
            raise RuntimeError(f"in-process daemon did not start: "
                               f"{self._error!r}")
        return self

    def __exit__(self, *exc_info) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=120)


def warm_up(client, after_job=None) -> list:
    """One-experiment register job per arch: the daemon builds each
    context and its ladder, as the first real job would.  *after_job*
    is called when each job has ended."""
    views = []
    for arch in plan.arches("memory-service"):
        job = client.submit({"arch": arch, "kind": "register", "count": 1,
                             "seed": plan.CAMPAIGN_SEED,
                             "ops": plan.OPS})["job"]
        views.append(client.wait(job["id"], timeout=150))
        if after_job is not None:
            after_job()
    return views


def closed_loop(client, seed: int, rounds: int, scaler=None) -> dict:
    """Run *rounds* top-up rounds; returns job records, read timings
    (``(endpoint, latency, lateness)``), the window length and the
    host-speed factors.  With a *scaler* whose latest probe has just
    run, a host-speed probe follows each job, outside the window's
    clock and the read schedule, and each job's time and its reads'
    latencies are in reference seconds.  HTTP failures are counted, not
    raised."""
    size = plan.WORKLOADS["memory-service"]["chunk"]
    jobs: list = []
    timings: list = []
    reader = {"calls": 0, "errors": 0}
    elapsed = 0.0
    for number in range(rounds):
        for stream in plan.round_streams("memory-service", seed, number):
            reads: list = []
            stretch = 1.0 if scaler is None else 1.0 / scaler.factor(-3)
            start = time.perf_counter()
            jobs.append(_job(client, stream, number, (number + 1) * size,
                             reader, reads, stretch))
            seconds = time.perf_counter() - start
            factor = 1.0
            if scaler is not None:
                scaler.probe()
                factor = scaler.factor(-2)
            elapsed += seconds * factor
            timings.extend((kind, latency * factor, late)
                           for kind, latency, late in reads)
    factors = ([hostspeed.REFERENCE_SECONDS / probe
                for probe in scaler.probes] if scaler is not None else [])
    return {"elapsed": elapsed, "jobs": jobs, "reads": timings,
            "calls": reader["calls"], "errors": reader["errors"],
            "attempted": size * len(jobs), "factors": factors}


def _job(client, stream: dict, number: int, count: int, reader: dict,
         reads: list, stretch: float) -> dict:
    """Submit one top-up job and wait for it, reading on schedule while
    it runs; the reads go to *reads*.  The endpoints alternate, the
    first chosen by the round, so every run reads each job alike.  The
    read interval is *stretch* times ``read_interval`` host seconds."""
    from repro.service.client import ServiceError
    interval = plan.WORKLOADS["memory-service"]["read_interval"] * stretch
    submitted = time.perf_counter()
    reader["calls"] += 1
    try:
        job = client.submit(plan.stream_payload(stream, count))["job"]
    except (OSError, ServiceError) as exc:
        reader["errors"] += 1
        return {"stream": plan.stream_key(stream), "round": number,
                "count": count,
                "view": {"state": "failed", "error": str(exc)}}
    target = job["campaign_id"]
    done = threading.Event()
    started = threading.Event()
    box: dict = {}

    def on_event(event):
        if event.get("event") == "progress":
            started.set()

    def wait():
        try:
            box["view"] = client.wait(job["id"], timeout=150,
                                      on_event=on_event)
        except Exception as exc:  # noqa: BLE001 — counted
            box["error"] = exc
        finally:
            done.set()

    waiter = threading.Thread(target=wait, daemon=True)
    waiter.start()
    due = None
    while not done.is_set():
        if not started.is_set():
            done.wait(0.01)
            continue
        if due is None:
            due = time.perf_counter()
        delay = due - time.perf_counter()
        if delay > 0 and done.wait(delay):
            break
        kind = ("summary", "results")[(number + len(reads)) % 2]
        begin = time.perf_counter()
        reader["calls"] += 1
        try:
            if kind == "summary":
                client.summary(target)
            else:
                client.results(target, limit=plan.READ_PAGE)
        except (OSError, ServiceError):
            reader["errors"] += 1
        end = time.perf_counter()
        reads.append((kind, end - due, begin - due))
        due += interval
    done.wait()
    waiter.join()
    finished = time.perf_counter()
    reader["calls"] += 1
    if "error" in box:
        reader["errors"] += 1
    return {"stream": plan.stream_key(stream), "round": number,
            "count": count, "campaign_id": job["campaign_id"],
            "turnaround": finished - submitted,
            "view": box.get("view", {"state": "failed",
                                     "error": repr(box.get("error"))})}


def job_layers(jobs: list) -> dict:
    """Service-layer times from the job views (daemon clock) and the
    client's turnaround."""
    queue_wait = run = overhead = 0.0
    for job in jobs:
        view = job["view"]
        if view.get("state") != "done":
            continue
        queue_wait += view["started_at"] - view["submitted_at"]
        run += view["finished_at"] - view["started_at"]
        overhead += job["turnaround"] - (view["finished_at"]
                                         - view["started_at"])
    return {"service.queue_wait_s": queue_wait, "service.run_s": run,
            "service.overhead_s": overhead}


def read_back(store_dir, jobs: list) -> list:
    """Untimed: each done job's digest recomputed from its journal."""
    from repro.store import CampaignStore
    from repro.store.codec import results_digest
    store = CampaignStore(store_dir, create=False)
    checked = []
    for job in jobs:
        view = job["view"]
        if view.get("state") != "done":
            checked.append(None)
            continue
        results = store.results(job["campaign_id"])[:job["count"]]
        checked.append(results_digest(results) == view.get("digest"))
    return checked


def traced_child(spec: dict, tracer) -> dict:
    """The traced pass: daemon on a thread, fixed rounds."""
    import spans
    from repro.service.client import ServiceClient
    store = os.path.join(spec["work"], "traced-store")
    with ThreadDaemon(store) as daemon:
        client = ServiceClient(f"http://127.0.0.1:{daemon.port}",
                               timeout=150)
        client.wait_ready(timeout=60)
        warm = warm_up(client)
        tracer.phase = "pass"
        loop = closed_loop(client, spec["seed"], spec["rounds"])
    layers = spans.layer_metrics(tracer)
    layers.update(job_layers(loop["jobs"]))
    if spec.get("spans_out"):
        spans.write_spans(tracer, spec["spans_out"])
    checks = read_back(store, loop["jobs"])
    return {"loop": _portable(loop), "warm": warm, "checks": checks,
            "layers": layers}


def _portable(loop: dict) -> dict:
    """*loop* with job records reduced to what the parent checks."""
    out = dict(loop)
    out["jobs"] = [{"stream": job["stream"], "round": job["round"],
                    "count": job["count"],
                    "state": job["view"].get("state"),
                    "digest": job["view"].get("digest")}
                   for job in loop["jobs"]]
    return out
