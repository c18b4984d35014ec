"""repro.experiment.scheduler — one scheduler for every execution path.

Campaign cells and probing-round shards used to run on three bespoke
code paths (serial loop, shard pool, cell pool), each with its own
retry, pool-rebuild, inline-fallback and never-nest logic.  This module
replaces all of that: work is expressed as :class:`Task`s carrying
:class:`ResourceClaim`s, executed by a pluggable
:class:`ExecutionBackend`, and supervised by a :class:`Scheduler` that
owns retry/backoff, broken-pool rebuild and last-resort inline
re-execution.  ``ShardedRunner`` and ``dispatch_cells`` are both thin
clients of this module; the byte-identity contract (results are a pure
function of the experiment seed, never of worker count, shard size,
backend choice, or injected execution faults) is proved against it in
``tests/test_differential.py``.

Backend contract
----------------
A backend is any object satisfying the :class:`ExecutionBackend`
protocol.  A future asyncio or multi-host digest-claiming backend is a
plug-in, not a rewrite, provided it honours:

``name``
    A short stable identifier (``"inline"``, ``"fork"``).  Stamped on
    :class:`TaskResult`\\ s and campaign heartbeats, so mixed-backend
    campaigns are debuggable from ``repro status``.
``capacity``
    How many ``cpu_slots`` the backend can execute concurrently.  The
    scheduler rejects any single claim exceeding it before submitting
    anything.
``context``
    An arbitrary picklable object shipped to every executing process
    exactly once (pool initializer, not per-task).  Task functions
    read it back via :func:`task_context` — never through globals of
    their own.
``start() / shutdown(wait)``
    Lifecycle.  ``start`` must be idempotent and must raise
    :class:`SchedulerError` where executing is impossible (e.g. a
    fork pool inside a pool worker without a ``may_fork`` grant —
    the never-nest rule lives *here*, not in client modules).
``submit(fn, *args) -> Future``
    Execution.  Eager backends resolve the future before returning;
    pool backends hand back a pending one.  Raised submission errors
    in the scheduler's recoverable set are converted into failed
    futures so sync and async failures share one recovery path.
``broken() / rebuild()``
    Crash recovery.  ``broken`` reports whether the backend lost its
    workers; ``rebuild`` replaces them.  The scheduler calls these
    only when a task failed with ``BrokenProcessPool``.
``grants_fork()``
    Whether tasks claiming ``may_fork`` may run here.  The grant is
    shipped with each task and consulted by nested ``resolve_backend``
    calls, so a cell granted two inner workers can open a shard pool
    while its ungranted neighbours are throttled to inline probing.
``remote``
    Whether tasks run in another process.  A remote task runs under
    isolated observability lenses (:func:`repro.obs.lens.run_isolated`)
    and returns its value plus one ``obs`` payload keyed by lens name;
    the scheduler folds that payload into this process's lenses in
    task order, before ``on_result``.  A local (inline) task records
    straight into this process's lenses.

Process state
-------------
The old module-level in-shard-pool flag is replaced by explicit depth
counters: ``_POOL_DEPTH`` (>0 in processes forked by a
:class:`ForkPoolBackend`) and ``_INLINE_DEPTH`` (>0 while an
:class:`InlineBackend` task runs on the current stack).  A crash fault
may kill the process (``os._exit``) only when
:func:`crash_kills_process` — in a pool worker *and not* inside an
inline task, so an inline shard running inside a campaign cell worker
raises a recoverable :class:`InjectedFault` instead of killing the
cell and breaking the outer pool.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import ExperimentError
from ..faults import InjectedFault
from ..obs import get_logger
from ..obs.lens import merge_obs, run_isolated

__all__ = [
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_MAX_RETRIES",
    "ExecutionBackend",
    "ForkPoolBackend",
    "InlineBackend",
    "RECOVERABLE_FAULTS",
    "ResourceClaim",
    "RetryPolicy",
    "Scheduler",
    "SchedulerError",
    "Task",
    "TaskResult",
    "crash_kills_process",
    "describe_failure",
    "fork_available",
    "in_worker_process",
    "resolve_backend",
    "task_backend_name",
    "task_context",
]

_log = get_logger("repro.scheduler")


class SchedulerError(ExperimentError):
    """A task or backend violated the scheduling contract."""


#: Default bounded-retry budget per failed task before the scheduler
#: falls back to inline re-execution in the submitting process.
DEFAULT_MAX_RETRIES = 2

#: Base of the exponential backoff between retries (seconds): retry
#: *n* sleeps ``base * 2**(n-1)``.  Small — a crashed worker needs the
#: pool rebuilt, not a long cool-down.
DEFAULT_BACKOFF_BASE = 0.05

#: Failures the scheduler recovers from.  ``FuturesTimeout`` is a
#: distinct class on Python 3.10 and an alias of the builtin
#: ``TimeoutError`` from 3.11 on, so both are listed.
RECOVERABLE_FAULTS = (
    BrokenProcessPool,
    FuturesTimeout,
    TimeoutError,
    InjectedFault,
)


def describe_failure(error: BaseException) -> str:
    """A short stable label for degradation records and logs."""
    if isinstance(error, BrokenProcessPool):
        return "worker-crash"
    if isinstance(error, (FuturesTimeout, TimeoutError)):
        return "timeout"
    if isinstance(error, InjectedFault):
        return "injected-crash"
    return type(error).__name__


# ---------------------------------------------------------------------
# Per-process execution state


_CONTEXT: Any = None
_BACKEND_NAME: Optional[str] = None
_POOL_DEPTH = 0
_INLINE_DEPTH = 0
_FORK_GRANT = False


def task_context() -> Any:
    """The executing backend's ``context`` object (None outside a
    task and outside pool workers)."""
    return _CONTEXT


def task_backend_name() -> Optional[str]:
    """Name of the backend executing the current task, or None when
    called outside any backend."""
    return _BACKEND_NAME


def in_worker_process() -> bool:
    """True in processes forked by a :class:`ForkPoolBackend` (at any
    nesting depth)."""
    return _POOL_DEPTH > 0


def crash_kills_process() -> bool:
    """Whether an injected crash fault may ``os._exit`` here.

    True only in a pool worker executing pool work directly.  An
    inline task — even one running inside some pool's worker, like an
    inline shard inside a campaign cell process — must raise a
    recoverable fault instead, or the crash would kill the enclosing
    worker and break a pool the fault was never aimed at.
    """
    return _POOL_DEPTH > 0 and _INLINE_DEPTH == 0


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _fork_allowed() -> bool:
    """Whether this process may open a fork pool: the parent always
    may; a pool worker only under a ``may_fork`` grant."""
    return fork_available() and (not in_worker_process() or _FORK_GRANT)


def _init_fork_worker(context: Any, name: str) -> None:
    global _CONTEXT, _BACKEND_NAME, _POOL_DEPTH
    _CONTEXT = context
    _BACKEND_NAME = name
    _POOL_DEPTH += 1


def _enter_task(
    may_fork: bool, remote: bool, fn: Callable, args: Tuple
) -> Tuple[Any, Optional[dict]]:
    """Run *fn* with the task's fork grant installed; returns its
    value and ``obs`` payload (None unless *remote*).  Submitted to
    pool workers (and run by the inline backend) so nested
    :func:`resolve_backend` calls see the claim the scheduler
    granted."""
    global _FORK_GRANT
    previous = _FORK_GRANT
    _FORK_GRANT = may_fork
    try:
        if remote:
            return run_isolated(fn, args)
        return fn(*args), None
    finally:
        _FORK_GRANT = previous


# ---------------------------------------------------------------------
# Tasks, claims, results, policy


@dataclass(frozen=True)
class ResourceClaim:
    """What one task asks of its backend.

    ``cpu_slots`` is how many of the backend's worker slots the task
    occupies (validated against ``backend.capacity`` before anything
    is submitted).  ``may_fork`` asks permission to open a nested fork
    pool from inside the task — the never-nest rule as a claim: the
    scheduler rejects the claim on backends that cannot grant it, and
    the grant travels with the task so nested backend resolution can
    honour it.
    """

    cpu_slots: int = 1
    may_fork: bool = False


@dataclass(frozen=True)
class Task:
    """One unit of schedulable work.

    ``fn(*args)`` must be a pure function of its arguments plus the
    backend context — that is what makes retries and inline fallback
    safe.  ``retry_args``, when given, replaces ``args`` on every
    re-execution; clients use it to strip injected execution-fault
    directives so a scripted failure cannot recur, while environment
    directives (part of the simulated world) survive.
    """

    key: Any
    fn: Callable
    args: Tuple = ()
    retry_args: Optional[Tuple] = None
    claim: ResourceClaim = ResourceClaim()


@dataclass
class TaskResult:
    """What the scheduler hands back per task, in task order."""

    key: Any
    value: Any = None
    error: Optional[BaseException] = None
    #: Total executions: 1 fault-free, ``n+1`` when retry *n*
    #: succeeded, ``max_retries + 2`` when the inline fallback ran.
    attempts: int = 1
    backend: str = ""
    #: One :func:`describe_failure` label per failed execution.
    failures: List[str] = field(default_factory=list)
    #: ``"retry"`` / ``"fallback"`` when the task failed and was
    #: recovered; None for a first-try success.
    recovered_by: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class RetryPolicy:
    """How the scheduler treats failing tasks.

    ``recoverable`` failures are retried up to ``max_retries`` times
    with exponential backoff, then — when ``inline_fallback`` — the
    task is re-executed inline in the submitting process, which cannot
    crash or hang.  Anything outside ``recoverable`` is captured on
    the :class:`TaskResult` for the client to raise or record.
    ``timeout`` bounds each wait on a task future.
    """

    max_retries: int = DEFAULT_MAX_RETRIES
    backoff_base: float = DEFAULT_BACKOFF_BASE
    timeout: Optional[float] = None
    recoverable: tuple = RECOVERABLE_FAULTS
    inline_fallback: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise SchedulerError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise SchedulerError("backoff_base must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise SchedulerError("timeout must be positive")


# ---------------------------------------------------------------------
# Backends


class ExecutionBackend:
    """Base class documenting the pluggable-backend protocol (see the
    module docstring for the full contract).  Subclasses override
    ``submit`` at minimum."""

    name: str = "abstract"
    capacity: int = 1
    context: Any = None
    remote: bool = False

    def start(self) -> "ExecutionBackend":
        return self

    def submit(self, fn: Callable, *args: Any) -> Future:
        raise NotImplementedError

    def broken(self) -> bool:
        return False

    def rebuild(self) -> "ExecutionBackend":
        return self

    def shutdown(self, wait: bool = True) -> None:
        pass

    def grants_fork(self) -> bool:
        return False


class InlineBackend(ExecutionBackend):
    """Same-process backend: tasks run eagerly on ``submit`` with the
    backend context installed, through the task wrapper pool workers
    use, recording straight into this process's observability lenses.
    Also the scheduler's last-resort fallback executor — inline
    execution cannot crash or hang."""

    name = "inline"
    capacity = 1

    def __init__(self, context: Any = None) -> None:
        self.context = context

    def submit(self, fn: Callable, *args: Any) -> Future:
        global _CONTEXT, _BACKEND_NAME, _INLINE_DEPTH
        saved = (_CONTEXT, _BACKEND_NAME)
        _CONTEXT = self.context
        _BACKEND_NAME = self.name
        _INLINE_DEPTH += 1
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as error:  # parity with pool futures
            future.set_exception(error)
        finally:
            _INLINE_DEPTH -= 1
            _CONTEXT, _BACKEND_NAME = saved
        return future

    def grants_fork(self) -> bool:
        # An inline task runs right here, so it may fork exactly when
        # this process may.
        return _fork_allowed()


class ForkPoolBackend(ExecutionBackend):
    """``fork``-based process pool.

    Workers receive the context once via the pool initializer and
    mark themselves with a pool depth, so :func:`crash_kills_process`
    and nested backend resolution behave correctly at any nesting.
    Starting a fork pool from inside a pool worker requires the
    current task to hold a ``may_fork`` grant — the never-nest rule,
    enforced here rather than by client-module flags.
    """

    name = "fork"
    remote = True

    def __init__(self, context: Any = None, workers: int = 2) -> None:
        if workers < 1:
            raise SchedulerError("fork backend needs workers >= 1")
        self.context = context
        self.workers = workers
        self.capacity = workers
        self._pool: Optional[ProcessPoolExecutor] = None

    def start(self) -> "ForkPoolBackend":
        if self._pool is not None:
            return self
        if not fork_available():
            raise SchedulerError(
                "fork start method unavailable on this platform"
            )
        if not _fork_allowed():
            raise SchedulerError(
                "refusing to nest a fork pool inside a pool worker "
                "without a may_fork grant"
            )
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_fork_worker,
            initargs=(self.context, self.name),
        )
        return self

    def submit(self, fn: Callable, *args: Any) -> Future:
        if self._pool is None:
            self.start()
        return self._pool.submit(fn, *args)

    def broken(self) -> bool:
        # ``_broken`` is private but the default errs toward
        # rebuilding, which is always safe, merely slower.
        return self._pool is None or bool(
            getattr(self._pool, "_broken", True)
        )

    def rebuild(self) -> "ForkPoolBackend":
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
            _log.warning(
                "process pool broken; rebuilding", workers=self.workers
            )
        return self.start()

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None

    def grants_fork(self) -> bool:
        # Workers receive the grant with each task (_enter_task), so
        # a granted cell can open its own shard pool one level down.
        return fork_available()


def resolve_backend(
    context: Any = None,
    workers: int = 1,
    force: Optional[str] = None,
) -> ExecutionBackend:
    """Pick the backend for *workers* parallel slots.

    The fallback order is fork → inline: a fork pool when more than
    one worker is wanted, ``fork`` exists, and this process may open a
    pool (parent, or a granted worker); the inline backend otherwise.
    *force* (``"fork"`` / ``"inline"``) overrides the choice — forcing
    ``fork`` where it cannot run raises :class:`SchedulerError`
    instead of degrading silently.
    """
    if force not in (None, "inline", "fork"):
        raise SchedulerError("unknown execution backend %r" % (force,))
    if force == "inline":
        return InlineBackend(context)
    if force == "fork":
        if not fork_available():
            raise SchedulerError(
                "fork backend forced but unavailable on this platform"
            )
        if not _fork_allowed():
            raise SchedulerError(
                "fork backend forced inside a pool worker without a "
                "may_fork grant"
            )
        return ForkPoolBackend(context, workers=max(1, workers))
    if workers > 1 and _fork_allowed():
        return ForkPoolBackend(context, workers=workers)
    return InlineBackend(context)


# ---------------------------------------------------------------------
# The scheduler


class Scheduler:
    """Submit tasks to a backend and supervise their completion.

    ``run`` submits every task up front (pool backends queue excess
    work themselves) and resolves results strictly in task order —
    clients merging results in that order therefore reproduce serial
    execution byte for byte.  Failed tasks follow
    :class:`RetryPolicy`: bounded retries with exponential backoff
    (rebuilding a broken pool first), then inline re-execution as a
    last resort.  *on_retry* / *on_fallback* fire before each recovery
    step so clients can keep their own counters and heartbeats.
    """

    def __init__(
        self,
        backend: ExecutionBackend,
        policy: Optional[RetryPolicy] = None,
        on_retry: Optional[Callable[[Task, int, List[str]], None]] = None,
        on_fallback: Optional[Callable[[Task, List[str]], None]] = None,
    ) -> None:
        self.backend = backend
        self.policy = policy if policy is not None else RetryPolicy()
        self.on_retry = on_retry
        self.on_fallback = on_fallback
        self.retries = 0
        self.fallbacks = 0
        self.completed = 0

    # -- claims --------------------------------------------------------

    def validate_claims(self, tasks: Sequence[Task]) -> None:
        """Reject impossible claims before any submission."""
        for task in tasks:
            claim = task.claim
            if claim.cpu_slots < 1:
                raise SchedulerError(
                    "task %r claims %d cpu slots" % (task.key, claim.cpu_slots)
                )
            if claim.cpu_slots > self.backend.capacity:
                raise SchedulerError(
                    "task %r claims %d cpu slots but backend %r has "
                    "capacity %d"
                    % (task.key, claim.cpu_slots, self.backend.name,
                       self.backend.capacity)
                )
            if claim.may_fork and not self.backend.grants_fork():
                raise SchedulerError(
                    "task %r claims may_fork but backend %r cannot "
                    "grant it" % (task.key, self.backend.name)
                )

    # -- execution -----------------------------------------------------

    def run(
        self,
        tasks: Sequence[Task],
        on_result: Optional[Callable[[Task, TaskResult], None]] = None,
    ) -> List[TaskResult]:
        """Execute *tasks*; results come back in task order.  When
        given, *on_result* fires per task as its result is resolved
        (still in task order), so clients can merge incrementally."""
        tasks = list(tasks)
        self.validate_claims(tasks)
        self.backend.start()
        futures = [self._submit(task, first=True) for task in tasks]
        results: List[TaskResult] = []
        for task, future in zip(tasks, futures):
            result = self._resolve(task, future)
            self.completed += 1
            results.append(result)
            if on_result is not None:
                on_result(task, result)
        return results

    def shutdown(self, wait: bool = True) -> None:
        self.backend.shutdown(wait=wait)

    # -- internals -----------------------------------------------------

    def _args(self, task: Task, first: bool) -> Tuple:
        if first or task.retry_args is None:
            return task.args
        return task.retry_args

    def _submit(self, task: Task, first: bool) -> Future:
        """Submit one task, converting a synchronous submission
        failure into a failed future: a crashing worker races the
        submit loop (``os._exit`` can break the pool while later tasks
        are still being submitted, making ``submit`` itself raise
        ``BrokenProcessPool``), and the failed future funnels it
        through the same resolve-time recovery as an async crash."""
        try:
            return self.backend.submit(
                _enter_task, task.claim.may_fork, self.backend.remote,
                task.fn, self._args(task, first),
            )
        except self.policy.recoverable as error:
            future: Future = Future()
            future.set_exception(error)
            return future

    def _await(self, future: Future) -> Any:
        """A task's value, its ``obs`` payload folded in on the way."""
        value, obs = future.result(timeout=self.policy.timeout)
        if obs:
            merge_obs(obs)
        return value

    def _resolve(self, task: Task, future: Future) -> TaskResult:
        policy = self.policy
        try:
            value = self._await(future)
            return TaskResult(
                key=task.key, value=value, backend=self.backend.name
            )
        except policy.recoverable as error:
            return self._recover(task, error)
        except Exception as error:
            return TaskResult(
                key=task.key, error=error, backend=self.backend.name
            )

    def _recover(self, task: Task, error: BaseException) -> TaskResult:
        """Re-execute a failed task until it succeeds (or the policy
        says stop): bounded retries with exponential backoff first —
        with ``retry_args`` replacing ``args`` so injected execution
        faults cannot recur — then inline re-execution in this
        process."""
        policy = self.policy
        failures = [describe_failure(error)]
        _log.warning(
            "task failed; recovering",
            key=task.key,
            backend=self.backend.name,
            failure=failures[0],
        )
        for attempt in range(1, policy.max_retries + 1):
            self.retries += 1
            if self.on_retry is not None:
                self.on_retry(task, attempt, failures)
            delay = policy.backoff_base * (2 ** (attempt - 1))
            if delay > 0:
                time.sleep(delay)
            try:
                if isinstance(error, BrokenProcessPool):
                    self._rebuild_broken_backend()
                value = self._await(self._submit(task, first=False))
                return TaskResult(
                    key=task.key, value=value, attempts=attempt + 1,
                    backend=self.backend.name, failures=failures,
                    recovered_by="retry",
                )
            except policy.recoverable as retry_error:
                error = retry_error
                failures.append(describe_failure(retry_error))
        if not policy.inline_fallback:
            return TaskResult(
                key=task.key, error=error,
                attempts=policy.max_retries + 1,
                backend=self.backend.name, failures=failures,
            )
        # Last resort: run the task in this process, where there is no
        # pool to break and no timeout to trip.
        self.fallbacks += 1
        if self.on_fallback is not None:
            self.on_fallback(task, failures)
        if isinstance(error, BrokenProcessPool):
            self._rebuild_broken_backend()
        fallback = InlineBackend(self.backend.context)
        future = fallback.submit(
            _enter_task, task.claim.may_fork, fallback.remote, task.fn,
            self._args(task, first=False),
        )
        try:
            value = self._await(future)
        except Exception as fallback_error:
            return TaskResult(
                key=task.key, error=fallback_error,
                attempts=policy.max_retries + 2,
                backend=self.backend.name, failures=failures,
            )
        return TaskResult(
            key=task.key, value=value,
            attempts=policy.max_retries + 2,
            backend=self.backend.name, failures=failures,
            recovered_by="fallback",
        )

    def _rebuild_broken_backend(self) -> None:
        """A ``BrokenProcessPool`` future may come from a pool an
        earlier recovery already replaced (one crash breaks every
        pending future), so rebuild only when the backend is actually
        broken now."""
        if self.backend.broken():
            self.backend.rebuild()
