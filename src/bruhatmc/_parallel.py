"""Deterministic block-parallel trial execution.

Trials are partitioned into fixed-size blocks; a block's partial result is a
pure function of (seed, block range), so distributing blocks over any number
of worker processes and merging partials in block order reproduces the
single-worker output bit for bit.  This module makes every decision about
how a job is split and run: processes(workers) caps a worker count at the
CPUs this process may run on, task_size groups whole blocks into tasks for
that many processes, and run_blocks runs the tasks in-process when one
process is all there is, else on the one pool that shared_pool opens.
Pool workers fork with numpy.random already loaded.
"""
from __future__ import annotations

import contextlib
import contextvars
import os
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

_TASK_BLOCKS = 4  # most stream blocks one task carries (bounds a scan's memory)

# the executor of the active shared_pool, if any
_shared: contextvars.ContextVar[ProcessPoolExecutor | None]
_shared = contextvars.ContextVar("bruhatmc_shared_pool", default=None)


def processes(workers: int) -> int:
    """Processes a run at ``workers`` uses: at most the CPUs this process may
    run on (its affinity where the platform reports one), and 1 when their
    count is unknown."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, cpus or 1)


def task_size(block: int, total: int, procs: int) -> int:
    """Trials per run_blocks task: up to _TASK_BLOCKS whole blocks, fewer if
    that would idle one of ``procs`` processes."""
    blocks = -(-total // block)
    return block * min(_TASK_BLOCKS, -(-blocks // max(1, procs)))


def block_ranges(total: int, block_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + block_size, total)) for lo in range(0, total, block_size)]


@contextlib.contextmanager
def shared_pool(workers: int) -> Iterator[None]:
    """Let every run_blocks call inside the block reuse one pool of
    processes(workers) processes, so a command that runs many estimates
    starts its workers once.  The pool is shut down and its workers joined
    on exit.  With one process, or inside another shared_pool, this does
    nothing.
    """
    if processes(workers) <= 1 or _shared.get() is not None:
        yield
        return
    # numpy imports numpy.random on first use; loading it here, before a
    # fork-context pool forks all its processes at the first submit, saves
    # each worker that import.  Both imports wait until a pool is needed,
    # so commands that start none skip them.
    import numpy.random  # noqa: F401
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=processes(workers)) as ex:
        token = _shared.set(ex)
        try:
            yield
        finally:
            _shared.reset(token)


def run_blocks(total: int, block_size: int, fn: Callable, workers: int = 1) -> list:
    """Evaluate fn(lo, hi) over all blocks, in block order.

    ``fn`` must be picklable (a module-level function or functools.partial of
    one) when processes(workers) > 1.  The active shared pool runs the
    blocks, whatever worker count opened it; outside one, shared_pool opens
    a pool for this call alone.
    """
    ranges = block_ranges(total, block_size)
    if processes(workers) <= 1 or len(ranges) <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with shared_pool(workers):
        return list(_shared.get().map(fn, *zip(*ranges)))
