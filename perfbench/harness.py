"""One live elastic job under a closed-loop driver, measured end to end.

A run builds the networked stack in this process — a
:class:`NetworkedApplicationMaster`, one :class:`WorkerAgent` thread per
worker and a peer host for the ring plane — and drives it from the main
thread over one control connection.  The driver asks for the next
adjustment only after the previous one committed (closed loop, one
client).  The workers are the program under test; the driver is the load.

The only instrumentation of an untraced run is one timestamp per
training step (:class:`StepClock`).  Everything else is read from the
driver's own clock and from what the program reports after the run.
"""

from __future__ import annotations

import collections
import dataclasses
import glob
import resource
import statistics
import threading
import time
import traceback
import typing

import numpy as np

from repro.coordination.messages import MessageType
from repro.net import (
    JobSpec,
    MemoryPeerHost,
    NetworkedApplicationMaster,
    ShmPeerHost,
    TcpPeerHost,
    WorkerAgent,
    memory_link,
    params_digest,
    ring_reference_average,
    tcp_link,
)
from repro.training.architectures import mlp_architecture
from repro.training.dataloader import SerialLoader
from repro.training.datasets import make_classification
from repro.training.nn import loss_and_gradients
from repro.training.optim import MomentumSGD

PEER_HOSTS = {
    "memory": MemoryPeerHost,
    "tcp": TcpPeerHost,
    "shm": ShmPeerHost,
}


@dataclasses.dataclass(frozen=True)
class Workload:
    """One fixed job shape plus the driver's adjustment pattern."""

    name: str
    #: AM control-plane transport: "tcp" or "memory".
    am: str
    #: ring peer mesh: "tcp", "memory" or "shm".
    peers: str
    workers: int
    #: JobSpec fields beyond the seed and the iteration budget.
    spec: dict
    #: one adjustment cycle: the kinds the driver alternates.
    pattern: "tuple[str, ...]"
    #: workers added or removed per adjustment.
    step: int
    #: iterations trained with no adjustment after the warm-up, per
    #: second of ``--seconds``; the timed window of a steady workload.
    steady_per_s: float
    #: adjustment cycles (one of each kind in ``pattern``) per second of
    #: ``--seconds``.
    cycles_per_s: float
    #: iteration budget per cycle: the job ends after the budget, so
    #: cycles that need more iterations stop the driver early.
    iterations_per_cycle: float
    #: the driver stops asking for adjustments this many iterations
    #: before the job's last one, so every request can still commit.
    margin: int


WARMUP_ITERATIONS = 3

#: Why each workload exists is in perfbench/README.md.
WORKLOADS = {
    "steady-ring": Workload(
        name="steady-ring",
        am="tcp", peers="tcp", workers=4,
        spec=dict(
            input_dim=512, hidden_dim=480, num_classes=10,
            total_batch_size=256, train_size=4096, test_size=512,
        ),
        pattern=("scale_in", "scale_out"), step=1,
        steady_per_s=4.0, cycles_per_s=1.5, iterations_per_cycle=3,
        margin=8,
    ),
    "elastic-churn": Workload(
        name="elastic-churn",
        am="memory", peers="memory", workers=2,
        # The default 2 KB model.  A larger dataset than the default
        # keeps the final loss comparable across seeds.
        spec=dict(train_size=4096, test_size=2048),
        pattern=("scale_out", "scale_in"), step=2,
        steady_per_s=0.0, cycles_per_s=12.0, iterations_per_cycle=5,
        margin=12,
    ),
    "join-large-state": Workload(
        name="join-large-state",
        am="tcp", peers="shm", workers=4,
        spec=dict(
            input_dim=1024, hidden_dim=512, num_classes=4,
            total_batch_size=256, train_size=4096, test_size=256,
            replication_shards=4,
            # At the default rate this model's test loss diverges.
            base_lr=0.01,
        ),
        pattern=("scale_in", "scale_out"), step=1,
        steady_per_s=0.0, cycles_per_s=1.2, iterations_per_cycle=3,
        margin=8,
    ),
}

#: set-ups per run; the reported ``setup_s`` is their median.
SETUP_REPEATS = 5


def job_spec(workload: Workload, seed: int, iterations: int) -> JobSpec:
    """Every workload coordinates at every iteration, as in the paper."""
    return JobSpec(
        seed=seed, iterations=iterations, coordination_interval=1,
        **workload.spec,
    )


class StepClock:
    """One ``perf_counter`` timestamp per training step, per worker.

    Wraps :meth:`MomentumSGD.step` (each worker applies exactly one
    optimizer step per iteration) and files the time under the calling
    thread's name, which the harness sets to the worker id.
    """

    def __init__(self):
        self.steps: "dict[str, list[float]]" = collections.defaultdict(list)
        self._original = None

    def install(self) -> None:
        original = self._original = MomentumSGD.step
        steps = self.steps

        def step(optimizer, params, grads):
            original(optimizer, params, grads)
            steps[threading.current_thread().name].append(time.perf_counter())

        MomentumSGD.step = step

    def uninstall(self) -> None:
        if self._original is not None:
            MomentumSGD.step = self._original
            self._original = None

    def count(self, worker: str) -> int:
        return len(self.steps.get(worker, ()))


def _outcome(agent: WorkerAgent) -> dict:
    """What the harness keeps of a finished worker."""
    outcome = {
        name: getattr(agent, name)
        for name in (
            "joined_at", "ring_fallbacks", "ring_repairs", "join_retries",
            "am_retries", "stale_repairs",
        )
    }
    if agent.final_state is not None and agent.worker_id == "w0":
        outcome["params"] = agent.final_state["params"]
    return outcome


class LiveJob:
    """The program under test: AM, worker threads and peer mesh."""

    def __init__(self, workload: Workload, spec: JobSpec, metrics=None):
        self.spec = spec
        self.metrics = metrics
        self.initial = [f"w{i}" for i in range(workload.workers)]
        self.master = NetworkedApplicationMaster(
            spec, self.initial, metrics=metrics
        )
        self.server = (
            self.master.serve_tcp() if workload.am == "tcp" else None
        )
        self.mesh = PEER_HOSTS[workload.peers]()
        self.am_links: list = []
        #: per-worker outcome, filed when its thread ends (the agent
        #: itself is dropped so departed replicas free their memory).
        self.outcomes: "dict[str, dict]" = {}
        self.threads: "dict[str, threading.Thread]" = {}
        self.errors: "dict[str, str]" = {}

    def link(self, node_id: str, ack_timeout: "float | None" = None):
        """A reliable link to the AM over the workload's transport."""
        if self.server is not None:
            link, _transport = tcp_link(
                self.server.host, self.server.port, node_id,
                ack_timeout=ack_timeout or 1.0, metrics=self.metrics,
            )
        else:
            link = memory_link(
                self.master.core, node_id,
                ack_timeout=ack_timeout or 0.2, metrics=self.metrics,
            )
        self.am_links.append(link)
        return link

    def start_worker(self, worker_id: str) -> None:
        def run():
            link = None
            try:
                link = self.link(worker_id)
                agent = WorkerAgent(
                    worker_id, link, peer_host=self.mesh,
                    metrics=self.metrics,
                )
                try:
                    agent.run()
                finally:
                    self.outcomes[worker_id] = _outcome(agent)
            except Exception:
                self.errors[worker_id] = traceback.format_exc()
            finally:
                if link is not None:
                    link.close()

        thread = threading.Thread(target=run, name=worker_id, daemon=True)
        self.threads[worker_id] = thread
        thread.start()

    def start(self) -> None:
        for worker_id in self.initial:
            self.start_worker(worker_id)

    def wait_workers(self, timeout: float) -> bool:
        """Join every worker thread; False if any is still running."""
        deadline = time.monotonic() + timeout
        for thread in list(self.threads.values()):
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        return not any(t.is_alive() for t in self.threads.values())

    def close(self) -> None:
        self.master.close()
        self.mesh.close()


@dataclasses.dataclass
class Adjustment:
    """One driver request, as the driver saw it."""

    kind: str
    workers: "list[str]"
    requested: float
    accepted_at: float
    accepted: bool
    committed: "float | None" = None


class Driver:
    """The load generator: the main thread with one control link."""

    def __init__(self, job: LiveJob, clock: StepClock):
        self.job = job
        self.clock = clock
        self.control = job.link("driver", ack_timeout=2.0)
        self.adjustments: "list[Adjustment]" = []
        self.committed = 0
        self._fresh = 0

    def status(self) -> dict:
        return self.control.request(MessageType.STATUS)

    def wait_steps(self, worker: str, count: int, timeout: float) -> bool:
        """Block until ``worker`` finished ``count`` training steps."""
        deadline = time.monotonic() + timeout
        while self.clock.count(worker) < count:
            if time.monotonic() >= deadline or self.job.errors:
                return False
            time.sleep(0.002)
        return True

    def _next_ids(self, count: int) -> "list[str]":
        ids = [f"j{self._fresh + i}" for i in range(count)]
        self._fresh += count
        return ids

    def adjust(self, kind: str, count: int, timeout: float,
               workers: "list[str] | None" = None) -> Adjustment:
        """Request one adjustment and wait until it commits."""
        if workers is not None:
            payload = {"kind": kind, "remove": list(workers)}
        elif kind == "scale_out":
            workers = self._next_ids(count)
            payload = {"kind": kind, "add": workers}
        else:
            # Remove the most recently added members; w0 (the uploader
            # and the job's reference clock) always survives.
            group = self.status()["group"]
            workers = list(group[-count:])
            payload = {"kind": kind, "remove": workers}
        requested = time.perf_counter()
        reply = self.control.request(MessageType.ADJUSTMENT_REQUEST, payload)
        record = Adjustment(
            kind=kind, workers=workers, requested=requested,
            accepted_at=time.perf_counter(),
            accepted=bool(reply.get("accepted")),
        )
        self.adjustments.append(record)
        if not record.accepted:
            return record
        if kind == "scale_out":
            for worker in workers:
                self.job.start_worker(worker)
        target = self.committed + 1
        deadline = time.monotonic() + timeout
        while True:
            if self.status()["adjustments_committed"] >= target:
                record.committed = time.perf_counter()
                self.committed = target
                return record
            if time.monotonic() >= deadline or self.job.errors:
                return record
            # Poll at ~5% of the elapsed wait: the resolution scales
            # with the commit time without flooding the AM.
            elapsed = time.perf_counter() - requested
            time.sleep(min(0.02, max(0.0005, 0.05 * elapsed)))

    def close(self) -> None:
        self.control.close()


@dataclasses.dataclass
class RunRecord:
    """Raw observations of one run; metrics are derived from it."""

    workload: Workload
    spec: JobSpec
    setups: "list[float]"
    steps: "dict[str, list[float]]"
    start_iteration: "dict[str, int]"
    adjustments: "list[Adjustment]"
    #: the closing scale-in to w0 alone (not part of any cycle).
    wind_down: "Adjustment | None"
    #: (commit_iteration, old_group, new_group) per committed adjustment.
    commits: "list[tuple[int, tuple, tuple]]"
    window: "tuple[float, float]"
    window_cpu: float
    window_iterations: int
    steady_range: "tuple[int, int] | None"
    final_digests: "dict[str, str]"
    final_params: "dict[str, np.ndarray] | None"
    errors: "dict[str, str]"
    finished: bool
    peak_rss_mb: float
    failures: "dict[str, int]"
    attempted: int
    #: from the first timed moment to the last cycle's commit: the
    #: range the traced pass reports on.
    measured: "tuple[float, float]"
    #: the AM's metric registry at both ends of ``measured`` (in a
    #: traced run it also holds the links' and workers' counters).
    counters: "tuple[dict, dict]"
    #: bytes of one full gradient (float64 parameters).
    grad_bytes: int
    #: threads and shm segments left after teardown (set by the caller).
    leftovers: dict = dataclasses.field(default_factory=dict)


def _measure_setup(workload: Workload, seed: int, clock: StepClock,
                   iterations: int, metrics=None) -> "tuple[float, LiveJob]":
    """Build the stack and admit the initial group.

    Set-up ends when every initial worker has finished its first
    training step: the AM, the links and the peer mesh exist, and the
    group is admitted and training.
    """
    started = time.perf_counter()
    job = LiveJob(workload, job_spec(workload, seed, iterations), metrics)
    job.start()
    deadline = time.monotonic() + 60.0
    while not all(clock.count(w) >= 1 for w in job.initial):
        if time.monotonic() >= deadline or job.errors:
            raise RuntimeError(f"set-up failed: {job.errors or 'timeout'}")
        time.sleep(0.001)
    return time.perf_counter() - started, job


def _drain(job: LiveJob, timeout: float = 60.0) -> bool:
    finished = job.wait_workers(timeout)
    job.close()
    return finished


def work(workload: Workload, seconds: float) -> "tuple[int, int, int]":
    """(steady iterations, cycles, iteration budget) for one run.

    The work is fixed by ``--seconds``, not timed out by it, so two
    builds of the program are measured on the same work.
    """
    steady = int(round(workload.steady_per_s * seconds))
    count = int(round(workload.cycles_per_s * seconds))
    budget = (
        WARMUP_ITERATIONS + steady
        + int(count * workload.iterations_per_cycle) + 2 * workload.margin
    )
    return steady, count, budget


def run_workload(workload: Workload, seed: int, seconds: float,
                 clock: StepClock, metrics=None,
                 on_job: "typing.Callable[[LiveJob], None] | None" = None,
                 ) -> RunRecord:
    """Set up, drive and tear down one job; returns its raw record."""
    steady, count, iterations = work(workload, seconds)
    setups = []
    # Throwaway set-ups first (a two-iteration job each), then the
    # measured job's own set-up; ``setup_s`` is the median of all.
    for _ in range(SETUP_REPEATS - 1):
        elapsed, scratch = _measure_setup(workload, seed, clock, 2)
        setups.append(elapsed)
        if not _drain(scratch):
            raise RuntimeError("a set-up job did not finish")
        clock.steps.clear()
    elapsed, job = _measure_setup(workload, seed, clock, iterations, metrics)
    setups.append(elapsed)
    if on_job is not None:
        on_job(job)
    driver = Driver(job, clock)
    steady_range = None
    wind_down = None

    def mark():
        return time.perf_counter(), time.process_time(), clock.count("w0")

    def counters():
        return job.master.metrics.snapshot()

    try:
        # A worker that raises or stalls ends the driving early, and the
        # correctness gates report it.
        training = driver.wait_steps("w0", WARMUP_ITERATIONS, 60.0)
        start = end = mark()
        counters_start = counters()
        if steady:
            steady_range = (WARMUP_ITERATIONS, WARMUP_ITERATIONS + steady)
            training = training and driver.wait_steps(
                "w0", WARMUP_ITERATIONS + steady, 120.0
            )
            end = mark()
        else:
            start = mark()
            counters_start = counters()
        # w0 steps once per iteration from iteration 0, and never leaves.
        last_request = iterations - 1 - workload.margin
        for index in range(count * len(workload.pattern)):
            if not training or job.errors or (
                clock.count("w0") >= last_request
            ):
                break
            kind = workload.pattern[index % len(workload.pattern)]
            record = driver.adjust(kind, workload.step, timeout=60.0)
            if record.committed is None:
                break
            if not steady:
                end = mark()
        measured_end = time.perf_counter()
        counters_end = counters()
        if training and not job.errors and (
            clock.count("w0") < last_request
        ):
            # Wind down to w0 alone: the rest of the iteration budget
            # then trains without a ring and ends quickly.
            group = driver.status()["group"]
            if len(group) > 1:
                wind_down = driver.adjust(
                    "scale_in", 0, timeout=60.0, workers=group[1:]
                )
                driver.adjustments.remove(wind_down)
        finished = job.wait_workers(120.0)
        status = driver.status()
    finally:
        driver.close()
        job.close()
    outcomes = dict(job.outcomes)
    start_iteration = {
        w: o["joined_at"] or 0 for w, o in outcomes.items()
    }
    commits = [
        (
            int(r["data"]["commit_iteration"]),
            tuple(r["data"]["old_group"]),
            tuple(r["data"]["new_group"]),
        )
        for r in job.master.journal.records() if r["kind"] == "commit"
    ]
    adjustments = list(driver.adjustments)
    failures = _failure_counts(
        job, adjustments + ([wind_down] if wind_down else []), status
    )
    attempted = (
        len(adjustments) + (wind_down is not None)
        + sum(len(v) for v in clock.steps.values())
        + len(outcomes)
    )
    return RunRecord(
        workload=workload,
        spec=job.spec,
        setups=setups,
        steps={k: list(v) for k, v in clock.steps.items()},
        start_iteration=start_iteration,
        adjustments=adjustments,
        wind_down=wind_down,
        commits=commits,
        window=(start[0], end[0]),
        window_cpu=end[1] - start[1],
        window_iterations=end[2] - start[2],
        steady_range=steady_range,
        final_digests=dict(status.get("digests", {})),
        final_params=outcomes.get("w0", {}).get("params"),
        errors=dict(job.errors),
        finished=finished and bool(status.get("complete")),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        failures=failures,
        attempted=attempted,
        measured=(start[0], measured_end),
        counters=(counters_start, counters_end),
        grad_bytes=sum(
            array.nbytes for array in mlp_architecture(
                job.spec.input_dim, job.spec.hidden_dim, job.spec.num_classes
            ).init(job.spec.seed).values()
        ),
    )


def _failure_counts(job: LiveJob, adjustments: "list[Adjustment]",
                    status: dict) -> dict:
    """Failed or retried operations, by kind (all expected to be 0)."""
    outcomes = job.outcomes.values()
    snap = job.master.metrics.snapshot()

    def total(name):
        return sum(o[name] for o in outcomes)

    return {
        "ring_fallbacks": total("ring_fallbacks"),
        "ring_repairs": total("ring_repairs"),
        "star_fallback_syncs": int(snap.get("net.sync.ring_fallbacks", 0)),
        "request_resends": sum(link.resends for link in job.am_links),
        "join_retries": total("join_retries"),
        "am_retries": total("am_retries"),
        "stale_repairs": total("stale_repairs"),
        "adjustments_rejected": sum(not a.accepted for a in adjustments),
        "adjustments_uncommitted": sum(
            a.accepted and a.committed is None for a in adjustments
        ),
        "am_duplicates": int(status.get("duplicates", 0)),
    }


# -- leftovers ---------------------------------------------------------------


def leftovers(baseline: "set[int]", grace: float = 2.0) -> dict:
    """Threads and shm segments the run left behind (expected: none)."""
    deadline = time.monotonic() + grace
    while True:
        alive = [
            t for t in threading.enumerate()
            if t.ident not in baseline and t.is_alive()
        ]
        if not alive or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    return {
        "threads_alive_after": len(alive),
        "thread_names": sorted(t.name for t in alive),
        "shm.segments_left": len(glob.glob("/dev/shm/elanshm_*")),
    }


# -- correctness -------------------------------------------------------------


def reference_params(spec: JobSpec, initial: "list[str]",
                     commits: "list[tuple[int, tuple, tuple]]"):
    """Replay the job serially from its seed and commit schedule.

    Each iteration averages every rank's gradients with
    :func:`ring_reference_average` in group order — the arithmetic both
    the ring and the AM's star fallback reproduce bit for bit — so the
    live replicas must end on exactly these parameters.
    """
    dataset = make_classification(
        train_size=spec.train_size, test_size=spec.test_size,
        input_dim=spec.input_dim, num_classes=spec.num_classes,
        seed=spec.seed,
    )
    architecture = mlp_architecture(
        spec.input_dim, spec.hidden_dim, spec.num_classes
    )
    loader = SerialLoader(dataset_size=spec.train_size, seed=spec.seed)
    optimizer = MomentumSGD(spec.base_lr, momentum=spec.momentum)
    params = architecture.init(spec.seed)
    groups = {c[0]: list(c[2]) for c in commits}
    group = list(initial)
    for iteration in range(spec.iterations):
        group = groups.get(iteration, group)
        shards = loader.next_iteration(
            len(group), spec.per_worker_batch(len(group))
        )
        contributions = []
        for indices in shards:
            if indices.size:
                _, grads = architecture.loss_and_gradients(
                    params, dataset.train_x[indices],
                    dataset.train_y[indices],
                )
            else:
                grads = {k: np.zeros_like(v) for k, v in params.items()}
            contributions.append(grads)
        optimizer.step(params, ring_reference_average(contributions))
    return params


def check_correctness(record: RunRecord) -> "list[str]":
    """The run's gates; any message fails the run."""
    problems = []
    if record.errors:
        for worker, text in sorted(record.errors.items()):
            problems.append(f"worker {worker} raised:\n{text}")
    if not record.finished:
        problems.append("the job did not complete")
    for adjustment in record.adjustments + [record.wind_down]:
        if adjustment is None:
            continue
        if not adjustment.accepted:
            problems.append(f"adjustment rejected: {adjustment.kind}")
        elif adjustment.committed is None:
            problems.append(f"adjustment never committed: {adjustment.kind}")
    digests = set(record.final_digests.values())
    if len(digests) != 1:
        problems.append(f"replicas disagree: {record.final_digests}")
    if problems:
        return problems
    params = reference_params(
        record.spec, [f"w{i}" for i in range(record.workload.workers)],
        record.commits,
    )
    expected = params_digest(params)
    if digests != {expected}:
        problems.append(
            f"final digest {digests.pop()} differs from the serial "
            f"replay of the seed and commit schedule ({expected})"
        )
    return problems


def final_loss(record: RunRecord) -> float:
    spec = record.spec
    dataset = make_classification(
        train_size=spec.train_size, test_size=spec.test_size,
        input_dim=spec.input_dim, num_classes=spec.num_classes,
        seed=spec.seed,
    )
    loss, _ = loss_and_gradients(
        record.final_params, dataset.test_x, dataset.test_y
    )
    return loss


# -- end-to-end metrics ------------------------------------------------------


def percentile(values: "typing.Sequence[float]", q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def step_at(record: RunRecord, worker: str, iteration: int) -> "float | None":
    index = iteration - record.start_iteration.get(worker, 0)
    steps = record.steps.get(worker, ())
    return steps[index] if 0 <= index < len(steps) else None


def step_gaps(record: RunRecord) -> "list[tuple[float, float]]":
    """Every worker's (end time, gap) between consecutive steps."""
    return [
        (after, after - before)
        for steps in record.steps.values()
        for before, after in zip(steps, steps[1:])
    ]


def steady_gaps(record: RunRecord) -> "list[float]":
    """Per-worker step-to-step wall times in the steady window."""
    first, last = record.steady_range
    gaps = []
    for worker, steps in record.steps.items():
        start = record.start_iteration.get(worker, 0)
        for iteration in range(first + 1, last + 1):
            index = iteration - start
            if 1 <= index < len(steps):
                gaps.append(steps[index] - steps[index - 1])
    return gaps


def cycles(record: RunRecord) -> "list[tuple[Adjustment, ...]]":
    """The driver's adjustments grouped into whole pattern cycles.

    A scale-out and a scale-in cost different amounts, and the driver
    alternates them, so per-adjustment samples mix two populations half
    and half — their median would sit in the gap between the two.  A
    cycle holds one of each, so per-cycle values have one population.
    """
    size = len(record.workload.pattern)
    done = [a for a in record.adjustments if a.committed is not None]
    return [
        tuple(done[i:i + size])
        for i in range(0, len(done) - size + 1, size)
    ]


def boundary_gaps(record: RunRecord,
                  adjustments: "typing.Sequence[Adjustment]") -> "list[float]":
    """Survivors' step gaps across the commit boundaries of
    ``adjustments`` (matched to the AM's commits in order)."""
    index = {id(a): i for i, a in enumerate(
        a for a in record.adjustments if a.committed is not None
    )}
    gaps = []
    for adjustment in adjustments:
        commit_iteration, old, new = record.commits[index[id(adjustment)]]
        for worker in sorted(set(old) & set(new)):
            before = step_at(record, worker, commit_iteration - 1)
            after = step_at(record, worker, commit_iteration)
            if before is not None and after is not None:
                gaps.append(after - before)
    return gaps


def end_to_end(record: RunRecord) -> "tuple[dict, dict]":
    """The end-to-end metrics and the sample counts behind them."""
    groups = cycles(record)
    if record.steady_range is not None:
        gaps = steady_gaps(record)
        first, last = record.steady_range
        w0 = record.steps["w0"][first:last + 1]
    else:
        # Under churn, one sample per cycle: the mean step gap of every
        # worker step that ended inside it.
        all_gaps = step_gaps(record)
        gaps = []
        for group in groups:
            low, high = group[0].requested, group[-1].committed
            inside = [gap for end, gap in all_gaps if low < end <= high]
            if inside:
                gaps.append(statistics.fmean(inside))
        low, high = record.window
        w0 = [t for t in record.steps["w0"] if low <= t <= high]
    commits = [
        statistics.fmean(a.committed - a.requested for a in group)
        for group in groups
    ]
    stalls = []
    for group in groups:
        boundary = boundary_gaps(record, group)
        if boundary:
            stalls.append(statistics.fmean(boundary))
    joins = []
    for adjustment in record.adjustments:
        if adjustment.kind != "scale_out":
            continue
        for worker in adjustment.workers:
            steps = record.steps.get(worker)
            if steps:
                joins.append(steps[0] - adjustment.accepted_at)
    iter_p50 = percentile(gaps, 50)
    samples = (len(w0) - 1) * record.spec.total_batch_size
    metrics = {
        "iter_ms_p50": iter_p50 * 1e3,
        "iter_ms_p90": percentile(gaps, 90) * 1e3,
        "samples_per_s": samples / (w0[-1] - w0[0]),
        "commit_ms_p50": percentile(commits, 50) * 1e3,
        "commit_ms_p90": percentile(commits, 90) * 1e3,
        "join_ms_p50": percentile(joins, 50) * 1e3,
        "adjust_stall_ms_p50": percentile(stalls, 50) * 1e3,
        "cpu_ms_per_iter": (
            record.window_cpu / max(1, record.window_iterations) * 1e3
        ),
        "peak_rss_mb": record.peak_rss_mb,
        "setup_s": statistics.median(record.setups),
        "final_loss": final_loss(record),
    }
    by_kind = {}
    for kind in sorted(set(record.workload.pattern)):
        times = [
            a.committed - a.requested for a in record.adjustments
            if a.kind == kind and a.committed is not None
        ]
        by_kind[f"commit_ms_p50.{kind}"] = percentile(times, 50) * 1e3
    cycle_iterations = 0
    if groups:
        low, high = groups[0][0].requested, groups[-1][-1].committed
        cycle_iterations = sum(1 for t in record.steps["w0"] if low <= t <= high)
    info = {
        "iteration_samples": len(gaps),
        "cycle_iterations": cycle_iterations,
        "cycles": len(groups),
        "commits": sum(len(g) for g in groups),
        "joins": len(joins),
        "setups": len(record.setups),
        "window_iterations": record.window_iterations,
        # The stall beyond a normal step: negative when the commit
        # iteration (always on the star plane) is faster than a ring one.
        "stall_beyond_iter_ms_p50": (
            metrics["adjust_stall_ms_p50"] - metrics["iter_ms_p50"]
        ),
        **by_kind,
    }
    return metrics, info


UNITS = {
    "iter_ms_p50": "ms",
    "iter_ms_p90": "ms",
    "samples_per_s": "1/s",
    "commit_ms_p50": "ms",
    "commit_ms_p90": "ms",
    "join_ms_p50": "ms",
    "adjust_stall_ms_p50": "ms",
    "cpu_ms_per_iter": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "final_loss": "nats",
}
