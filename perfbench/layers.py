"""The traced pass: per-layer metrics timed from outside the program.

:class:`Probes` wraps the public functions at each layer boundary —
training, the ring collective, codecs, wire framing, transports, the AM
handler, the worker agent, chunked and sharded replication and the
replication planner — and records one span (name, start, end, thread)
per call in memory.  Counts come from the program's own
:class:`~repro.observability.MetricRegistry`, which a traced run hands
to the AM, the links and the workers.  Nothing in the program changes:
the wrappers are installed before the job is built and removed after.

Only spans inside the run's measured range count (the timed window and
the adjustment cycles), so set-up jobs and the wind-down do not.
"""

from __future__ import annotations

import collections
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import typing

from repro.coordination.messages import MessageType
from repro.net import collective, master_service, wire
from repro.net.agent import WorkerAgent
from repro.net.chunks import (
    ChunkedUploader,
    ShardedFetcher,
    ShardStore,
    StateBlob,
)
from repro.net.collective import RingNode
from repro.net.master_service import NetworkedApplicationMaster
from repro.net.shm import ShmTransport
from repro.net.tcp import TcpTransport
from repro.net.transport import InMemoryTransport, ReliableLink
from repro.observability import MetricRegistry
from repro.perfmodel.collectives import ring_allreduce_time
from repro.training import architectures
from repro.training.dataloader import SerialLoader
from repro.training.optim import MomentumSGD

#: message types with a per-type request / AM metric.
AM_TYPES = (
    "join", "coordinate", "sync", "state_upload", "state_chunk",
    "state_done", "state_fetch", "adjustment_request", "status",
)
PEER_TYPES = ("ring_segment", "ring_fetch")

#: span names whose time counts against the ring's self time.
COST_SPANS = frozenset({
    "codecs.encode", "codecs.decode", "wire.encode", "wire.decode",
    "wire.buffers", "transport.send",
})
#: span names that make up state migration.
MIGRATION_SPANS = (
    "chunks.encode", "chunks.upload", "shards.register", "shards.serve",
    "shards.fetch", "planner.plan",
)

UNITS = {
    "training.compute_ms": "ms",
    "training.step_ms": "ms",
    "training.loader_ms": "ms",
    "collective.allreduce_ms": "ms",
    "collective.self_ms": "ms",
    "collective.model_allreduce_ms": "ms",
    "collective.bytes_per_member_iter": "bytes",
    "collective.degraded": "count",
    "threads_started_per_iter": "count",
    "codecs.encode_ms": "ms/it",
    "codecs.decode_ms": "ms/it",
    "wire.encode_ms": "ms/it",
    "wire.decode_ms": "ms/it",
    "wire.bytes_per_iter": "bytes",
    "transport.send_ms": "ms/it",
    "transport.throughput_MBps": "MB/s",
    "transport.resends": "count",
    **{f"transport.request_ms.{k}": "ms" for k in AM_TYPES + PEER_TYPES},
    **{f"am.handle_ms.{k}": "ms" for k in AM_TYPES},
    **{f"am.wait_ms.{k}": "ms" for k in AM_TYPES},
    "am.requests_per_commit": "count",
    "am.grad_bytes_per_iter": "bytes",
    "agent.admit_ms": "ms",
    "chunks.encode_ms": "ms",
    "chunks.upload_ms": "ms",
    "chunks.upload_bytes_per_join": "bytes",
    "shards.register_ms": "ms",
    "shards.serve_ms": "ms",
    "shards.fetch_ms": "ms",
    "shards.fetch_MBps": "MB/s",
    "shards.peer_byte_share": "ratio",
    "shards.replans": "count",
    "planner.plan_ms": "ms",
    "split.allreduce_share_of_iter": "ratio",
    "split.am_share_of_commit": "ratio",
    "split.migration_share_of_join": "ratio",
    "trace.overhead_pct": "%",
    "failed_op_ratio": "ratio",
    "threads_alive_after": "count",
    "shm.segments_left": "count",
}

#: which end-to-end metric a prediction check reads, per workload.
PREDICTIONS = {
    "steady-ring": (
        "collective.allreduce_ms is most of iter_ms_p50",
        "split.allreduce_share_of_iter",
    ),
    "elastic-churn": (
        "am.handle_ms + am.wait_ms is most of commit_ms_p50",
        "split.am_share_of_commit",
    ),
    "join-large-state": (
        "shards.* + chunks.* time is most of join_ms_p50",
        "split.migration_share_of_join",
    ),
}


class Span(typing.NamedTuple):
    name: str
    start: float
    end: float
    thread: str
    #: the message type of a request or AM-handler span.
    kind: str = ""
    #: for requests: ``id`` of the link (every link stays referenced by
    #: :attr:`Probes.links` for the whole run, so ids stay unique).
    link: int = 0
    #: bytes produced, for wire-encoding spans.
    nbytes: int = 0


class Probes:
    """Wrappers around each layer's public functions, and their report."""

    def __init__(self):
        #: the program's own counters for the traced run.
        self.metrics = MetricRegistry()
        self.spans: "list[Span]" = []
        self.lines: "list[str]" = []
        self.links: "list[ReliableLink]" = []
        self.job = None
        self._local = threading.local()
        self._patches: list = []

    # -- installation ----------------------------------------------------------

    def watch(self, job) -> None:
        """Remember the measured job (its AM links tell requests apart)."""
        self.job = job

    def _patch(self, owner, attr: str, factory) -> None:
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        self._patches.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(factory(original.__func__)))
        else:
            setattr(owner, attr, factory(original))

    def _timed(self, name: str, kind_of=None, size_of=None):
        """A factory wrapping a function in one span per call.

        ``kind_of(args)`` gives the span's message type and
        ``size_of(result)`` its byte count.  Codec, wire and send spans
        also add their time to the calling thread's cost total, which
        :meth:`_allreduce` subtracts to get the ring's self time.
        """
        probes = self
        is_cost = name in COST_SPANS

        def factory(original):
            def wrapper(*args, **kwargs):
                local = probes._local
                depth = getattr(local, "cost_depth", 0)
                if is_cost:
                    local.cost_depth = depth + 1
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    if is_cost:
                        local.cost_depth = depth
                        if depth == 0:
                            local.cost = getattr(local, "cost", 0.0) + (
                                end - start
                            )
                probes.spans.append(Span(
                    name, start, end, threading.current_thread().name,
                    kind_of(args) if kind_of else "", 0,
                    size_of(result) if size_of else 0,
                ))
                return result

            return wrapper

        return factory

    def install(self) -> None:
        timed = self._timed
        self._patch(architectures, "loss_and_gradients",
                    timed("training.compute"))
        self._patch(MomentumSGD, "step", timed("training.step"))
        self._patch(SerialLoader, "next_iteration", timed("training.loader"))
        self._patch(collective, "encode_bucket", timed("codecs.encode"))
        self._patch(collective, "decode_bucket", timed("codecs.decode"))
        self._patch(wire, "encode_frame", timed("wire.encode", size_of=len))
        self._patch(wire, "binary_frame_buffers",
                    timed("wire.buffers", size_of=lambda result: result[1]))
        # read_frame blocks on its socket until a frame arrives, so its
        # span would be mostly idle; decode_frame is its parse work.
        self._patch(wire, "decode_frame", timed("wire.decode"))
        for transport in (TcpTransport, InMemoryTransport, ShmTransport):
            self._patch(transport, "send", timed("transport.send"))
        self._patch(NetworkedApplicationMaster, "handle", timed(
            "am.handle", kind_of=lambda args: args[1].msg_type.value,
        ))
        self._patch(ReliableLink, "request", self._request)
        self._patch(ReliableLink, "__init__", self._register_link)
        self._patch(WorkerAgent, "run", self._agent_run)
        self._patch(RingNode, "allreduce", self._allreduce)
        self._patch(StateBlob, "encode", timed("chunks.encode"))
        self._patch(ChunkedUploader, "upload", timed("chunks.upload"))
        self._patch(ShardStore, "register", timed("shards.register"))
        self._patch(ShardStore, "handle_fetch", timed("shards.serve"))
        self._patch(ShardedFetcher, "fetch", timed("shards.fetch"))
        self._patch(master_service, "plan_replication",
                    timed("planner.plan"))
        self._patch(threading.Thread, "start", self._thread_start)

    def _request(self, original):
        """One span per request; a JOIN that admits also ends the
        worker's admission span, which began when its ``run`` did."""
        probes = self

        def request(link, msg_type, *args, **kwargs):
            start = time.perf_counter()
            reply = original(link, msg_type, *args, **kwargs)
            end = time.perf_counter()
            thread = threading.current_thread().name
            probes.spans.append(Span(
                "transport.request", start, end, thread, msg_type.value,
                id(link),
            ))
            began = getattr(probes._local, "run_started", None)
            if (
                msg_type is MessageType.JOIN and began is not None
                and reply.get("status") in ("start", "join")
            ):
                probes.spans.append(Span("agent.admit", began, end, thread))
                probes._local.run_started = None
            return reply

        return request

    def _register_link(self, original):
        probes = self

        def init(link, *args, **kwargs):
            original(link, *args, **kwargs)
            probes.links.append(link)

        return init

    def _agent_run(self, original):
        probes = self

        def run(agent, *args, **kwargs):
            probes._local.run_started = time.perf_counter()
            return original(agent, *args, **kwargs)

        return run

    def _thread_start(self, original):
        probes = self

        def start(thread, *args, **kwargs):
            now = time.perf_counter()
            probes.spans.append(Span("thread.start", now, now, ""))
            return original(thread, *args, **kwargs)

        return start

    def _allreduce(self, original):
        """The ring collective, and its self time on the calling thread."""
        probes = self

        def allreduce(node, *args, **kwargs):
            local = probes._local
            cost = getattr(local, "cost", 0.0)
            start = time.perf_counter()
            try:
                return original(node, *args, **kwargs)
            finally:
                end = time.perf_counter()
                spent = getattr(local, "cost", 0.0) - cost
                thread = threading.current_thread().name
                probes.spans.append(
                    Span("collective.allreduce", start, end, thread)
                )
                probes.spans.append(
                    Span("collective.self", start, end - spent, thread)
                )

        return allreduce

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the report ------------------------------------------------------------

    def report(self, record, e2e: dict, failed: int,
               untraced: "dict | None") -> "dict[str, float]":
        """Every per-layer metric; report lines land in :attr:`lines`."""
        low, high = record.measured
        # A joiner's fetch ends after its commit: keep the last one.
        for adjustment in record.adjustments:
            for worker in adjustment.workers:
                if adjustment.kind == "scale_out" and record.steps.get(worker):
                    high = max(high, record.steps[worker][0])
        by_name = collections.defaultdict(list)
        for span in self.spans:
            if low <= span.start and span.end <= high:
                by_name[span.name].append(span)

        def mean_ms(spans):
            if not spans:
                return 0.0
            return statistics.fmean(s.end - s.start for s in spans) * 1e3

        def total_s(*names):
            return sum(
                s.end - s.start for name in names for s in by_name[name]
            )

        before, after = record.counters
        counts = {
            k: v - before.get(k, 0) for k, v in after.items()
            if isinstance(v, (int, float))
        }
        steps = {
            worker: [t for t in times if low <= t <= high]
            for worker, times in record.steps.items()
        }
        iterations = max(1, len(steps.get("w0", ())))
        worker_steps = max(1, sum(len(v) for v in steps.values()))
        requests = by_name["transport.request"]
        handles = by_name["am.handle"]
        am_links = {id(link) for link in self.job.am_links}
        out = {
            "training.compute_ms": mean_ms(by_name["training.compute"]),
            "training.step_ms": mean_ms(by_name["training.step"]),
            "training.loader_ms": mean_ms(by_name["training.loader"]),
            "collective.allreduce_ms": mean_ms(
                by_name["collective.allreduce"]
            ),
            "collective.self_ms": mean_ms(by_name["collective.self"]),
            "collective.bytes_per_member_iter": (
                counts.get("net.allreduce.bytes_sent", 0)
                / max(1, counts.get("net.allreduce.count", 0))
            ),
            "collective.degraded": counts.get("net.allreduce.degraded", 0),
            "threads_started_per_iter": (
                len(by_name["thread.start"]) / iterations
            ),
            "codecs.encode_ms": total_s("codecs.encode") * 1e3 / worker_steps,
            "codecs.decode_ms": total_s("codecs.decode") * 1e3 / worker_steps,
            "wire.encode_ms": (
                total_s("wire.encode", "wire.buffers") * 1e3 / worker_steps
            ),
            "wire.decode_ms": total_s("wire.decode") * 1e3 / worker_steps,
            "wire.bytes_per_iter": sum(
                s.nbytes for name in ("wire.encode", "wire.buffers")
                for s in by_name[name]
            ) / iterations,
            "transport.send_ms": (
                total_s("transport.send") * 1e3 / worker_steps
            ),
            "transport.resends": sum(link.resends for link in self.links),
            "am.grad_bytes_per_iter": (
                counts.get("net.sync.grad_bytes", 0) / iterations
            ),
            "agent.admit_ms": mean_ms(by_name["agent.admit"]),
            "chunks.encode_ms": mean_ms(by_name["chunks.encode"]),
            "chunks.upload_ms": mean_ms(by_name["chunks.upload"]),
            "shards.register_ms": mean_ms(by_name["shards.register"]),
            "shards.serve_ms": mean_ms(by_name["shards.serve"]),
            "shards.fetch_ms": mean_ms(by_name["shards.fetch"]),
            "shards.replans": counts.get("net.shards.replans", 0),
            "planner.plan_ms": mean_ms(by_name["planner.plan"]),
        }
        sent = sum(
            counts.get(name, 0) for name in (
                "net.wire_bytes_sent", "net.shm.bytes_sent",
                "net.payload_bytes_sent",
            )
        )
        send_seconds = total_s("transport.send")
        throughput = sent / send_seconds if send_seconds else 0.0
        out["transport.throughput_MBps"] = throughput / 1e6
        out["collective.model_allreduce_ms"] = (
            ring_allreduce_time(
                record.workload.workers, record.grad_bytes, throughput
            ) * 1e3 if throughput else 0.0
        )
        for kind in AM_TYPES + PEER_TYPES:
            out[f"transport.request_ms.{kind}"] = mean_ms(
                [s for s in requests if s.kind == kind]
            )
        for kind in AM_TYPES:
            handle = mean_ms([s for s in handles if s.kind == kind])
            round_trips = [
                s for s in requests if s.kind == kind and s.link in am_links
            ]
            out[f"am.handle_ms.{kind}"] = handle
            out[f"am.wait_ms.{kind}"] = (
                max(0.0, mean_ms(round_trips) - handle) if round_trips
                else 0.0
            )
        commits = [
            (a.requested, a.committed) for a in record.adjustments
            if a.committed is not None
        ]
        begun = sum(
            1 for s in handles for lo, hi in commits
            if lo <= s.start <= hi and s.kind != "status"
        )
        out["am.requests_per_commit"] = begun / len(commits) if commits else 0.0
        joins = [
            a for a in record.adjustments
            if a.kind == "scale_out" and a.committed is not None
        ]
        out["chunks.upload_bytes_per_join"] = (
            counts.get("net.chunks.bytes_sent", 0) / len(joins)
            if joins else 0.0
        )
        fetch_seconds = total_s("shards.fetch")
        fetched = counts.get("net.chunks.bytes_fetched", 0)
        out["shards.fetch_MBps"] = (
            counts.get("net.shards.bytes_fetched", 0) / fetch_seconds / 1e6
            if fetch_seconds else 0.0
        )
        out["shards.peer_byte_share"] = (
            counts.get("net.shards.bytes_served", 0) / fetched
            if fetched else 0.0
        )
        out["split.allreduce_share_of_iter"] = (
            out["collective.allreduce_ms"] / e2e["iter_ms_p50"]
        )
        out["split.am_share_of_commit"] = _median_cover(
            [
                (s.start, s.end) for s in requests
                if s.link in am_links and s.thread != "MainThread"
            ],
            commits,
        )
        out["split.migration_share_of_join"] = _median_cover(
            [(s.start, s.end) for name in MIGRATION_SPANS
             for s in by_name[name]],
            [
                (adjustment.accepted_at, record.steps[worker][0])
                for adjustment in joins for worker in adjustment.workers
                if record.steps.get(worker)
            ],
        )
        out["trace.overhead_pct"] = (
            (e2e["iter_ms_p50"] / untraced["iter_ms_p50"] - 1.0) * 100.0
            if untraced else 0.0
        )
        out["failed_op_ratio"] = failed / record.attempted
        out["threads_alive_after"] = record.leftovers["threads_alive_after"]
        out["shm.segments_left"] = record.leftovers["shm.segments_left"]
        self._describe(record, out, e2e, untraced)
        return {name: float(out[name]) for name in UNITS}

    def _describe(self, record, out, e2e, untraced) -> None:
        members = record.workload.workers
        size = record.grad_bytes
        lines = self.lines
        lines.append(
            f"collective.allreduce_ms {out['collective.allreduce_ms']:.3f} "
            f"vs perfmodel ring_allreduce_time({members}, {size}, "
            f"{out['transport.throughput_MBps']:.1f} MB/s) = "
            f"{out['collective.model_allreduce_ms']:.3f} ms"
        )
        lines.append(
            f"collective.bytes_per_member_iter "
            f"{out['collective.bytes_per_member_iter']:.0f} vs 2*S*(N-1)/N "
            f"= {2 * size * (members - 1) / members:.0f}"
        )
        if untraced:
            lines.append(
                f"trace.overhead_pct {out['trace.overhead_pct']:.2f} "
                f"(traced iter_ms_p50 {e2e['iter_ms_p50']:.3f} vs untraced "
                f"{untraced['iter_ms_p50']:.3f})"
            )
        else:
            lines.append("trace.overhead_pct: the untraced run failed")
        claim, metric = PREDICTIONS[record.workload.name]
        verdict = "met" if out[metric] > 0.5 else "not met"
        lines.append(
            f"prediction {record.workload.name}: {claim}: {metric} "
            f"{out[metric]:.3f} -> {verdict}"
        )


def _median_cover(intervals, windows) -> float:
    """Median share of each window covered by the union of intervals."""
    ordered = sorted(intervals)
    shares = []
    for low, high in windows:
        if high <= low:
            continue
        covered, cursor = 0.0, low
        for start, end in ordered:
            if start >= high:
                break
            start, end = max(start, cursor), min(end, high)
            if end > start:
                covered += end - start
                cursor = end
        shares.append(covered / (high - low))
    return statistics.median(shares) if shares else 0.0


def untraced_baseline(workload: str, seed: int,
                      seconds: float) -> "dict | None":
    """End-to-end metrics of an untraced run of the same workload and
    seed, in a fresh process: the reference for ``trace.overhead_pct``."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    completed = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=150,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result.get("correct"):
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}
