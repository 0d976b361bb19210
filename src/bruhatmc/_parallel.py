"""Deterministic block-parallel trial execution.

Trials are partitioned into fixed-size blocks; a block's partial result is a
pure function of (seed, block range), so distributing blocks over any number
of worker processes and merging partials in block order reproduces the
single-worker output bit for bit.  This module makes every decision about
how a job is split and run: processes(workers) caps a worker count at the
CPUs this process may run on, task_size groups whole blocks into tasks for
that many processes, and run_blocks runs them by one path: the calling
process is worker 0 and runs every procs-th task itself, and helper
processes run the others; with one process, or one task, it runs every task
itself.

Helpers fork once per process, at the first run_blocks call that needs
them, with numpy.random already loaded, and then serve every later call
over a pair of pipes until the interpreter exits: at exit the calling
process closes their pipes, stops and reaps them, and a helper whose caller
died reads end-of-file and exits.  A child forked from the calling process
drops the inherited helpers without writing to them.  Since ``fn`` is
pickled by reference (module and name), a helper runs the function as it
was when the helper forked: a function defined or monkeypatched later is not
what it runs, so code that patches a kernel runs at one worker.
"""
from __future__ import annotations

import atexit
import contextlib
import os
from typing import Callable, NoReturn

_TASK_BLOCKS = 4  # most stream blocks one task carries (bounds a scan's memory)


def processes(workers: int) -> int:
    """Processes a run at ``workers`` uses: at most the CPUs this process may
    run on (its affinity where the platform reports one), and 1 when their
    count is unknown or the platform cannot fork."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, cpus or 1) if hasattr(os, "fork") else 1


def task_size(block: int, total: int, procs: int) -> int:
    """Trials per run_blocks task: up to _TASK_BLOCKS whole blocks, fewer if
    that would idle one of ``procs`` processes."""
    blocks = -(-total // block)
    return block * min(_TASK_BLOCKS, -(-blocks // max(1, procs)))


def block_ranges(total: int, block_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + block_size, total)) for lo in range(0, total, block_size)]


def _run(fn: Callable, share: list[tuple[int, int]]) -> tuple[bool, object]:
    """(True, fn's result for each block of ``share``), or (False, what it raised)."""
    try:
        return True, [fn(lo, hi) for lo, hi in share]
    except Exception as exc:
        return False, exc


def _serve(tasks, replies) -> NoReturn:
    """A helper's life: run each (fn, share) received on ``tasks`` and send
    _run's reply on ``replies``, until the caller's end of ``tasks`` closes."""
    import signal  # here and in stop(), so that commands that fork no helper skip the import

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller decides when its helpers stop
    try:
        while True:
            try:
                reply = _run(*tasks.recv())
            except EOFError:
                break
            except Exception as exc:  # fn did not unpickle here
                reply = (False, exc)
            try:
                replies.send(reply)
            except Exception as exc:  # the result, or the exception, did not pickle
                replies.send((False, RuntimeError(f"a helper could not return its reply: {exc!r}")))
    finally:
        os._exit(0)


class _Helper:
    """A process forked from the caller that runs the shares sent to it."""

    def __init__(self):
        import numpy.random  # noqa: F401  (loaded once here, not on every helper's first block)
        from multiprocessing import Pipe  # pickled messages, each read whole before it unpickles

        tasks_in, self.tasks = Pipe(duplex=False)
        self.replies, replies_out = Pipe(duplex=False)
        self.pid = os.fork()  # if this fails, collecting the four ends closes them
        if self.pid == 0:  # in the helper; _forget has dropped the caller's other helpers
            self.close()
            _serve(tasks_in, replies_out)
        tasks_in.close()
        replies_out.close()

    def send(self, fn: Callable, share: list[tuple[int, int]]) -> None:
        self.tasks.send((fn, share))

    def recv(self) -> tuple[bool, object]:
        return self.replies.recv()

    def close(self) -> None:
        self.tasks.close()
        self.replies.close()

    def stop(self) -> None:
        import signal

        self.close()
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(self.pid, 0)


_helpers: list[_Helper] = []  # this process's live helpers, in process order from 1


def _stop() -> None:
    """Close, kill and reap every helper (at exit, and after a failed exchange)."""
    while _helpers:
        _helpers.pop().stop()


def _forget() -> None:
    """In a forked child: close the inherited helper pipes, writing nothing."""
    while _helpers:
        _helpers.pop().close()


atexit.register(_stop)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def run_blocks(total: int, block_size: int, fn: Callable, workers: int = 1) -> list:
    """Evaluate fn(lo, hi) over all blocks, in block order.

    Of procs = processes(workers) processes (fewer if there are fewer
    tasks), task i runs in process i % procs, and the caller is process 0.
    The caller sends each helper its tasks before it runs its own, and
    reads every helper's reply before it raises the first exception a task
    raised, so the helpers stay usable.  A helper that died, or an
    interruption part way through, stops every helper and raises; the next
    call forks new ones.  With one process, or one task, every task runs
    in-process.  ``fn`` must pickle by reference (a module-level function,
    or functools.partial of one) when it runs on helpers, which run it as
    it was when they forked.
    """
    ranges = block_ranges(total, block_size)
    procs = max(1, min(processes(workers), len(ranges)))
    shares = [ranges[p::procs] for p in range(procs)]
    while len(_helpers) < procs - 1:
        _helpers.append(_Helper())
    helpers = _helpers[: procs - 1]
    try:
        for helper, share in zip(helpers, shares[1:]):
            helper.send(fn, share)
        replies = [_run(fn, shares[0])] + [helper.recv() for helper in helpers]
    except BaseException as exc:
        _stop()
        if isinstance(exc, (EOFError, BrokenPipeError)):
            raise RuntimeError("a run_blocks helper process died; the next call starts new ones") from exc
        raise
    for ok, value in replies:
        if not ok:
            raise value
    return [replies[i % procs][1][i // procs] for i in range(len(ranges))]
