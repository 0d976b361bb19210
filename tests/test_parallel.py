import multiprocessing
import os

import pytest

from bruhatmc import _parallel
from bruhatmc._parallel import run_blocks, shared_pool
from bruhatmc.cli import EXIT_OK, main
from bruhatmc.estimators import estimate_comparability
from bruhatmc.zprocess import max_rect_stat


def _span(lo, hi):
    return (lo, hi)


def _pid(lo, hi):
    return os.getpid()


def test_shared_pool_leaves_counts_unchanged():
    serial = (estimate_comparability(12, 30_000, 5), max_rect_stat(256, 32, 32, 600, 5))
    with shared_pool(2):
        pooled = (
            estimate_comparability(12, 30_000, 5, workers=2),
            max_rect_stat(256, 32, 32, 600, 5, workers=2),
        )
    assert pooled[0].successes == serial[0].successes
    assert pooled[1] == serial[1]


def test_other_worker_count_gets_its_own_pool():
    with shared_pool(2):
        assert run_blocks(10, 3, _span, workers=3) == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert run_blocks(10, 3, _span, workers=2) == [(0, 3), (3, 6), (6, 9), (9, 10)]


def test_calls_and_nested_blocks_reuse_the_outer_pool():
    pids = set()
    with shared_pool(2):
        pids.update(run_blocks(16, 1, _pid, workers=2))
        with shared_pool(2):
            pids.update(run_blocks(16, 1, _pid, workers=2))
        pids.update(run_blocks(16, 1, _pid, workers=2))
    # a pool per call would show at least one fresh worker per call
    assert os.getpid() not in pids
    assert 1 <= len(pids) <= 2


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
