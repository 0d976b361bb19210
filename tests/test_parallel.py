import multiprocessing
import os
from concurrent.futures import Future
import subprocess
import sys
from pathlib import Path

import pytest

import bruhatmc
from bruhatmc import _parallel, estimators, zprocess
from bruhatmc._parallel import processes, run_blocks, shared_pool
from bruhatmc.cli import EXIT_OK, main
from bruhatmc.estimators import _PAIR_BLOCK, estimate_box_persistence, estimate_comparability, sheet_persistence
from bruhatmc.zprocess import max_rect_stat


def _span(lo, hi):
    return (lo, hi)


def _pid(lo, hi):
    return os.getpid()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool by an in-process one that records the
    max_workers (helpers) it was asked for, so no test forks a large pool."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    # shared_pool imports the executor class when it starts a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return sizes


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


def test_processes_counts_the_cpus_this_process_may_run_on(pool_sizes, monkeypatch):
    # as under taskset -c 0 on a 2-CPU host: one CPU to run on, no pool
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert processes(2) == 1
    with shared_pool(2):
        assert run_blocks(4, 2, _span, workers=2) == [(0, 2), (2, 4)]
    assert pool_sizes == []
    # a platform that reports no affinity counts the machine's CPUs
    monkeypatch.delattr(_parallel.os, "sched_getaffinity", raising=False)
    assert processes(64) == 2


def test_pool_starts_at_most_cpu_count_processes(pool_sizes, monkeypatch):
    set_cpus(monkeypatch, 3)
    assert run_blocks(10, 3, _span, workers=5000) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    with shared_pool(10**20):
        assert run_blocks(4, 2, _span, workers=10**20) == [(0, 2), (2, 4)]
    assert run_blocks(4, 2, _span, workers=2) == [(0, 2), (2, 4)]
    # one CPU, or an unknown count, runs in-process and starts no pool
    for cpus in (1, None):
        set_cpus(monkeypatch, cpus)
        with shared_pool(8):
            assert run_blocks(4, 2, _span, workers=8) == [(0, 2), (2, 4)]
    assert pool_sizes == [2, 2, 1]  # helpers: the calling process is the other one


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


def test_huge_worker_count_runs_on_cpu_count_processes(pool_sizes, capsys, monkeypatch):
    set_cpus(monkeypatch, 2)
    # --workers 10^20 once overflowed a semaphore before any process started
    argv = ["gauss", "--grid", "8", "--threshold", "1", "--trials", "10", "--seed", "1"]
    assert main(argv) == EXIT_OK
    serial = capsys.readouterr().out
    assert main(argv + ["--workers", str(10**20)]) == EXIT_OK
    assert capsys.readouterr().out == serial
    assert pool_sizes == [1]
    huge = sheet_persistence(8, 1.0, 40_000, 1, workers=10**20)
    assert huge.successes == sheet_persistence(8, 1.0, 40_000, 1).successes


WARM_FORK_SCRIPT = """
import sys
from bruhatmc._parallel import run_blocks

def loaded(lo, hi):
    return "numpy.random" in sys.modules

assert "numpy.random" not in sys.modules
print(run_blocks(2, 1, loaded, workers=2))
"""


def test_workers_fork_with_numpy_random_loaded():
    # numpy imports numpy.random lazily; a worker that had to import it
    # would pay for that on its first block
    src = str(Path(bruhatmc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", WARM_FORK_SCRIPT], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[True, True]"


def test_shared_pool_leaves_counts_unchanged():
    serial = (estimate_comparability(12, 30_000, 5), max_rect_stat(256, 32, 32, 600, 5))
    with shared_pool(2):
        pooled = (
            estimate_comparability(12, 30_000, 5, workers=2),
            max_rect_stat(256, 32, 32, 600, 5, workers=2),
        )
    assert pooled[0].successes == serial[0].successes
    assert pooled[1] == serial[1]


def test_other_worker_count_reuses_the_active_pool(pool_sizes, monkeypatch):
    set_cpus(monkeypatch, 4)
    with shared_pool(2):
        for workers in (3, 64, 2):
            assert run_blocks(10, 3, _span, workers=workers) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert pool_sizes == [1]


def test_calls_and_nested_blocks_reuse_the_outer_pool():
    pids = set()
    with shared_pool(2):
        pids.update(run_blocks(16, 1, _pid, workers=2))
        with shared_pool(2):
            pids.update(run_blocks(16, 1, _pid, workers=2))
        pids.update(run_blocks(16, 1, _pid, workers=2))
        pids.update(run_blocks(16, 1, _pid, workers=3))
    # this process and the one helper, in every call: a pool per call would
    # show at least one fresh helper per call
    assert os.getpid() in pids
    assert len(pids) == 2


@pytest.mark.skipif(processes(2) < 2, reason="needs two CPUs")
def test_calling_process_runs_every_other_task():
    me = os.getpid()
    pids = run_blocks(4, 1, _pid, workers=2)
    assert pids[::2] == [me, me]
    assert pids[1] == pids[3] != me


def test_one_task_starts_no_pool(pool_sizes, monkeypatch):
    set_cpus(monkeypatch, 4)
    assert run_blocks(3, 4, _pid, workers=4) == [os.getpid()]
    assert pool_sizes == []


def _fail_in_caller(lo, hi):
    if lo == 0:  # task 0 runs in the calling process
        raise RuntimeError("boom")
    return lo


def test_exception_in_callers_task_joins_the_helpers():
    with pytest.raises(RuntimeError, match="boom"):
        run_blocks(4, 1, _fail_in_caller, workers=2)
    assert _parallel._shared.get() is None
    assert multiprocessing.active_children() == []


def test_exception_clears_shared_state():
    with pytest.raises(RuntimeError, match="boom"):
        with shared_pool(2):
            run_blocks(4, 1, _span, workers=2)
            raise RuntimeError("boom")
    assert _parallel._shared.get() is None
    assert multiprocessing.active_children() == []
    assert run_blocks(4, 1, _span, workers=2) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_single_worker_is_a_no_op():
    with shared_pool(1):
        assert _parallel._shared.get() is None
        assert run_blocks(4, 2, _pid, workers=1) == [os.getpid()] * 2


def test_cli_joins_its_workers(capsys, tmp_path):
    code = main([
        "pipeline-scaling", "--n-grid", "4,6,8,12", "--trials", "9000",
        "--seed", "3", "--workers", "2", "--out-dir", str(tmp_path / "run"),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    assert multiprocessing.active_children() == []
