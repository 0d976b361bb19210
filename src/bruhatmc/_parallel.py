"""Deterministic block-parallel trial execution.

Trials are partitioned into fixed-size blocks; a block's partial result is a
pure function of (seed, block range), so distributing blocks over any number
of worker processes and merging partials in block order reproduces the
single-worker output bit for bit.  This module makes every decision about
how a job is split and run: processes(workers) caps a worker count at the
CPUs this process may run on, task_size groups whole blocks into tasks for
that many processes, and run_blocks runs them by one path: the calling
process is worker 0 and runs every procs-th task itself, and the helper
processes of the one pool that shared_pool opens run the others; with one
process, or one task, it runs every task itself.  Helpers fork with
numpy.random already loaded.
"""
from __future__ import annotations

import contextlib
import contextvars
import os
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

_TASK_BLOCKS = 4  # most stream blocks one task carries (bounds a scan's memory)

# the executor of the active shared_pool and its helper count, if any
_shared: contextvars.ContextVar[tuple[ProcessPoolExecutor, int] | None]
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
    processes(workers) - 1 helper processes, which run tasks next to the
    calling process, so a command that runs many estimates starts its
    helpers once.  The pool is shut down and its helpers joined on exit.
    With one process, or inside another shared_pool, this does nothing.
    """
    helpers = processes(workers) - 1
    if helpers < 1 or _shared.get() is not None:
        yield
        return
    # numpy imports numpy.random on first use; loading it here, before a
    # fork-context pool forks its helpers at the first submit, saves each
    # helper that import.  Both imports wait until a pool is needed, so
    # commands that start none skip them.
    import numpy.random  # noqa: F401
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=helpers) as ex:
        token = _shared.set((ex, helpers))
        try:
            yield
        finally:
            _shared.reset(token)


def run_blocks(total: int, block_size: int, fn: Callable, workers: int = 1) -> list:
    """Evaluate fn(lo, hi) over all blocks, in block order.

    The calling process is worker 0: of procs = helpers + 1 processes, it
    runs task i itself when i % procs == 0 and submits the others to the
    helpers of the active shared pool, whatever worker count opened it;
    outside one, shared_pool opens a pool for this call alone.  With one
    process, or one task, no helper runs and every task runs in-process.
    ``fn`` must be picklable (a module-level function or functools.partial
    of one) when it runs on helpers.
    """
    ranges = block_ranges(total, block_size)
    with shared_pool(workers if len(ranges) > 1 else 1):
        ex, helpers = (_shared.get() if processes(workers) > 1 else None) or (None, 0)
        futures = [ex.submit(fn, lo, hi) if i % (helpers + 1) else None for i, (lo, hi) in enumerate(ranges)]
        own = [fn(lo, hi) if f is None else None for f, (lo, hi) in zip(futures, ranges)]
        return [r if f is None else f.result() for f, r in zip(futures, own)]
