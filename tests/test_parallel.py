import functools
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import bruhatmc
from bruhatmc import _parallel, estimators, zprocess
from bruhatmc._parallel import processes, run_blocks
from bruhatmc.cli import EXIT_OK, main
from bruhatmc.estimators import _PAIR_BLOCK, estimate_box_persistence, estimate_comparability, sheet_persistence
from bruhatmc.zprocess import max_rect_stat

needs_two_cpus = pytest.mark.skipif(processes(2) < 2, reason="needs two CPUs")


def _span(lo, hi):
    return (lo, hi)


def _pid(lo, hi):
    return os.getpid()


@pytest.fixture
def started(monkeypatch):
    """Replace helper creation by in-process helpers that record themselves
    and the shares they ran, so no test forks more helpers than the host has
    CPUs.  This process's real helpers, if any, are set aside meanwhile."""
    started = []

    class RecordingHelper:
        def __init__(self):
            self.shares = []
            started.append(self)

        def send(self, fn, share):
            self.shares.append(share)
            self.reply = _parallel._run(fn, share)

        def recv(self):
            return self.reply

        def close(self):
            pass

        stop = close

    monkeypatch.setattr(_parallel, "_Helper", RecordingHelper)
    monkeypatch.setattr(_parallel, "_helpers", [])
    return started


def set_cpus(monkeypatch, count):
    """Give the machine ``count`` CPUs and let this process run on all of
    them (None: an unknown count, on a platform that reports no affinity)."""
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: count)
    if count is None:
        monkeypatch.delattr(_parallel.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_processes_is_at_most_cpu_count(monkeypatch):
    set_cpus(monkeypatch, 3)
    assert [processes(w) for w in (1, 2, 3, 64, 10**20)] == [1, 2, 3, 3, 3]
    set_cpus(monkeypatch, None)  # unknown: one process
    assert processes(8) == 1


def test_processes_counts_the_cpus_this_process_may_run_on(started, monkeypatch):
    # as under taskset -c 0 on a 2-CPU host: one CPU to run on, no helper
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert processes(2) == 1
    assert run_blocks(4, 2, _span, workers=2) == [(0, 2), (2, 4)]
    assert started == []
    # a platform that reports no affinity counts the machine's CPUs
    monkeypatch.delattr(_parallel.os, "sched_getaffinity", raising=False)
    assert processes(64) == 2


def test_pool_starts_at_most_cpu_count_processes(started, monkeypatch):
    set_cpus(monkeypatch, 3)
    assert run_blocks(10, 3, _span, workers=5000) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert len(started) == 2  # helpers: the calling process is the third process
    assert [h.shares for h in started] == [[[(3, 6)]], [[(6, 9)]]]
    assert run_blocks(4, 2, _span, workers=10**20) == [(0, 2), (2, 4)]
    assert run_blocks(4, 2, _span, workers=2) == [(0, 2), (2, 4)]
    assert len(started) == 2  # later calls reuse them
    # one CPU, or an unknown count, runs in-process and starts no helper
    for cpus in (1, None):
        set_cpus(monkeypatch, cpus)
        assert run_blocks(4, 2, _span, workers=8) == [(0, 2), (2, 4)]
    assert len(started) == 2


# each scan gets 13 of its blocks, so tasks sized for 64 workers would carry
# one block each, and tasks sized for the 2 processes that run them four
SCANS = {
    "comparability": (lambda w: estimate_comparability(8, 13 * _PAIR_BLOCK, 1, workers=w), 4 * _PAIR_BLOCK),
    "box": (lambda w: estimate_box_persistence(64, 8, 8, 1.0, 13 * 4096, 1, workers=w), 4 * 4096),
    "sheet": (lambda w: sheet_persistence(4, 1.0, 13 * 8192, 1, workers=w), 4 * 8192),
    "chainstat": (lambda w: max_rect_stat(64, 8, 8, 13 * 256, 1, workers=w), 4 * 256),
}


@pytest.mark.parametrize("scan, size", SCANS.values(), ids=SCANS.keys())
def test_scans_size_tasks_for_the_processes_that_run_them(scan, size, monkeypatch):
    set_cpus(monkeypatch, 2)
    sizes = []

    def in_process(total, block_size, fn, workers=1):
        sizes.append(block_size)
        return run_blocks(total, block_size, fn)

    monkeypatch.setattr(estimators, "run_blocks", in_process)
    monkeypatch.setattr(zprocess, "run_blocks", in_process)
    scan(64)
    scan(2)
    assert sizes == [size, size]


@pytest.mark.parametrize("scan, size", SCANS.values(), ids=SCANS.keys())
def test_helpers_leave_counts_unchanged(scan, size):
    # every scan runs four tasks (13 blocks) here, so at 2 workers the
    # helper runs two of them
    serial, helped = scan(1), scan(2)
    assert getattr(helped, "successes", helped) == getattr(serial, "successes", serial)


def test_huge_worker_count_runs_on_cpu_count_processes(started, capsys, monkeypatch):
    set_cpus(monkeypatch, 2)
    # --workers 10^20 once overflowed a semaphore before any process started
    argv = ["gauss", "--grid", "8", "--threshold", "1", "--trials", "10", "--seed", "1"]
    assert main(argv) == EXIT_OK
    serial = capsys.readouterr().out
    assert main(argv + ["--workers", str(10**20)]) == EXIT_OK
    assert capsys.readouterr().out == serial
    assert started == []  # 10 trials make one task
    huge = sheet_persistence(8, 1.0, 40_000, 1, workers=10**20)
    assert huge.successes == sheet_persistence(8, 1.0, 40_000, 1).successes
    assert len(started) == 1


WARM_FORK_SCRIPT = """
import sys
from bruhatmc._parallel import run_blocks

def loaded(lo, hi):
    return "numpy.random" in sys.modules

assert "numpy.random" not in sys.modules
print(run_blocks(2, 1, loaded, workers=2))
"""


def _python(script, timeout=120):
    src = str(Path(bruhatmc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_workers_fork_with_numpy_random_loaded():
    # numpy imports numpy.random lazily; a worker that had to import it
    # would pay for that on its first block
    assert _python(WARM_FORK_SCRIPT) == "[True, True]"


EXIT_SCRIPT = """
import atexit, os

def children_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("none")
    else:
        print("some")

atexit.register(children_left)  # before bruhatmc's own exit handler, so it runs after it

from bruhatmc._parallel import run_blocks

def pid(lo, hi):
    return os.getpid()

print(run_blocks(2, 1, pid, workers=2)[1])
"""


@needs_two_cpus
def test_no_helper_outlives_the_interpreter():
    helper, left = _python(EXIT_SCRIPT).split()
    assert left == "none"  # reaped before the interpreter exited
    with pytest.raises(ProcessLookupError):
        os.kill(int(helper), 0)


ORPHAN_SCRIPT = """
import os
from bruhatmc._parallel import run_blocks

def pid(lo, hi):
    return os.getpid()

print(run_blocks(2, 1, pid, workers=2)[1], flush=True)
os._exit(0)  # no exit handlers: the helper is left to notice on its own
"""


@needs_two_cpus
def test_helper_exits_when_its_caller_dies():
    # the helper shares the script's stdout, so the output ends only when
    # the helper has exited too; a helper that stayed would time this out
    assert int(_python(ORPHAN_SCRIPT, timeout=30)) > 0


def test_other_worker_count_reuses_the_active_pool(started, monkeypatch):
    set_cpus(monkeypatch, 4)
    assert run_blocks(10, 3, _span, workers=2) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    first = started[0]
    for workers in (3, 64, 2):
        assert run_blocks(10, 3, _span, workers=workers) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    # helper 1 ran a share of every call, and no helper was forked twice:
    # 3 in all, for the 4 processes of the widest call
    assert len(started) == 3 and started[0] is first
    assert first.shares == [[(3, 6), (9, 10)], [(3, 6)], [(3, 6)], [(3, 6), (9, 10)]]


@needs_two_cpus
def test_calls_and_cli_commands_reuse_the_helper(capsys, tmp_path):
    pids = set()
    for _ in range(3):
        pids.update(run_blocks(16, 1, _pid, workers=2))
    # this process and the one helper, in every call: a helper per call
    # would show at least one fresh pid per call
    assert os.getpid() in pids
    assert len(pids) == 2
    for out in ("a", "b"):
        code = main([
            "pipeline-scaling", "--n-grid", "4,6,8,12", "--trials", "40000",
            "--seed", "3", "--workers", "2", "--out-dir", str(tmp_path / out),
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        pids.update(run_blocks(16, 1, _pid, workers=2))
    assert pids == {os.getpid(), _parallel._helpers[0].pid}


@needs_two_cpus
def test_calling_process_runs_every_other_task():
    me = os.getpid()
    pids = run_blocks(4, 1, _pid, workers=2)
    assert pids[::2] == [me, me]
    assert pids[1] == pids[3] != me


def test_one_task_starts_no_pool(started, monkeypatch):
    set_cpus(monkeypatch, 4)
    assert run_blocks(3, 4, _pid, workers=4) == [os.getpid()]
    assert started == []


def _fail_at(failing, lo, hi):
    if lo == failing:
        raise ValueError(f"bad block {lo}")
    return os.getpid()


# at two processes, task 0 runs in the calling process and task 1 in the helper
@needs_two_cpus
@pytest.mark.parametrize("failing", [0, 1], ids=["caller", "helper"])
def test_exception_in_a_task_reraises_and_leaves_the_helper_usable(failing):
    helper = run_blocks(2, 1, _pid, workers=2)[1]
    with pytest.raises(ValueError, match=f"^bad block {failing}$"):
        run_blocks(4, 1, functools.partial(_fail_at, failing), workers=2)
    # every reply was read, so the next call runs on the same helper
    assert run_blocks(4, 1, _pid, workers=2) == [os.getpid(), helper] * 2


@needs_two_cpus
def test_function_added_after_the_fork_fails_on_the_helper_alone(monkeypatch):
    helper = run_blocks(2, 1, _pid, workers=2)[1]

    def late(lo, hi):
        return lo

    # pickles by reference as a module-level name the helper never saw
    late.__qualname__ = "late"
    monkeypatch.setattr(sys.modules[__name__], "late", late, raising=False)
    with pytest.raises(AttributeError, match="late"):
        run_blocks(2, 1, late, workers=2)
    # the message was read whole, so the pipe is still in step
    assert run_blocks(2, 1, _pid, workers=2) == [os.getpid(), helper]


@needs_two_cpus
def test_killed_helper_fails_one_call_then_is_replaced():
    helper = run_blocks(2, 1, _pid, workers=2)[1]
    os.kill(helper, signal.SIGKILL)
    with pytest.raises(RuntimeError, match="helper process died"):
        run_blocks(2, 1, _pid, workers=2)
    assert _parallel._helpers == []  # closed and reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(helper, os.WNOHANG)
    fresh = run_blocks(2, 1, _pid, workers=2)[1]
    assert fresh not in (helper, os.getpid())
    assert run_blocks(2, 1, _pid, workers=2)[1] == fresh


@needs_two_cpus
def test_forked_child_never_writes_to_its_parents_helpers():
    helper = run_blocks(2, 1, _pid, workers=2)[1]
    read, write = os.pipe()
    child = os.fork()
    if child == 0:
        try:
            os.close(read)
            inherited = len(_parallel._helpers)
            pids = run_blocks(2, 1, _pid, workers=2)
            _parallel._stop()
            os.write(write, json.dumps([inherited, pids]).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as f:
        inherited, pids = json.loads(f.read())
    os.waitpid(child, 0)
    assert inherited == 0
    assert pids[0] == child and pids[1] not in (child, helper, os.getpid())
    assert run_blocks(2, 1, _pid, workers=2)[1] == helper


def test_single_worker_is_a_no_op(started):
    assert run_blocks(4, 2, _pid, workers=1) == [os.getpid()] * 2
    assert started == []
