"""Deterministic block-parallel trial execution.

Trials are partitioned into fixed-size blocks; a block's partial result is a
pure function of (seed, block range), so distributing blocks over any number
of worker processes and merging partials in block order reproduces the
single-worker output bit for bit.  A pool never starts more processes than
the machine has CPUs, whatever worker count it is asked for, and its workers
fork with numpy.random already loaded.
"""
from __future__ import annotations

import contextlib
import contextvars
import os
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

# (workers, executor) of the active shared_pool, if any
_shared: contextvars.ContextVar[tuple[int, ProcessPoolExecutor] | None]
_shared = contextvars.ContextVar("bruhatmc_shared_pool", default=None)


def _pool(workers: int) -> ProcessPoolExecutor:
    # numpy imports numpy.random on first use; loading it here, before a
    # fork-context pool forks all its processes at the first submit, saves
    # each worker of each pool that import.  Both imports wait until a pool
    # is needed, so commands that start none skip them.
    import numpy.random  # noqa: F401
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1))


def block_ranges(total: int, block_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + block_size, total)) for lo in range(0, total, block_size)]


@contextlib.contextmanager
def shared_pool(workers: int) -> Iterator[None]:
    """Let every run_blocks call at ``workers`` inside the block reuse one
    process pool, so a command that runs many estimates starts its workers
    once.  The pool is shut down and its workers joined on exit.  With
    workers <= 1, or inside another shared_pool, this does nothing.
    """
    if workers <= 1 or _shared.get() is not None:
        yield
        return
    with _pool(workers) as ex:
        token = _shared.set((workers, ex))
        try:
            yield
        finally:
            _shared.reset(token)


def run_blocks(total: int, block_size: int, fn: Callable, workers: int = 1) -> list:
    """Evaluate fn(lo, hi) over all blocks, in block order.

    ``fn`` must be picklable (a module-level function or functools.partial of
    one) when workers > 1.  Inside shared_pool(workers) the shared pool runs
    the blocks; otherwise a pool is started for this call alone.
    """
    ranges = block_ranges(total, block_size)
    if workers <= 1 or len(ranges) <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    shared = _shared.get()
    if shared is not None and shared[0] == workers:
        return list(shared[1].map(fn, *zip(*ranges)))
    with _pool(workers) as ex:
        return list(ex.map(fn, *zip(*ranges)))

