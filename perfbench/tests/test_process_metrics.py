"""Worker CPU time and memory are counted whether or not the pool has
been shut down when they are read."""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

from perfbench.bench import WorkerPeak, cpu_seconds

BUSY_S = 0.3


def _burn(seconds: float) -> int:
    end = time.process_time() + seconds
    n = 0
    while time.process_time() < end:
        n += 1
    return n


def _pool() -> ProcessPoolExecutor:
    return ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork"))


def _work(pool: ProcessPoolExecutor) -> None:
    list(pool.map(_burn, [BUSY_S, BUSY_S]))


def test_cpu_of_live_workers_counts():
    pool = _pool()
    try:
        c0 = cpu_seconds()
        _work(pool)
        used = cpu_seconds() - c0
    finally:
        pool.shutdown()
    assert used >= 2 * BUSY_S * 0.9


def test_cpu_of_reaped_workers_counts():
    c0 = cpu_seconds()
    with _pool() as pool:
        _work(pool)
    assert cpu_seconds() - c0 >= 2 * BUSY_S * 0.9


def test_worker_peak_reads_pools_before_shutdown_and_live_ones():
    shutdown = ProcessPoolExecutor.shutdown
    with WorkerPeak() as closed:
        with _pool() as pool:
            _work(pool)
    pool = _pool()
    try:
        with WorkerPeak() as live:
            _work(pool)
    finally:
        pool.shutdown()
    assert ProcessPoolExecutor.shutdown is shutdown
    assert closed.kib > 0 and live.kib > 0
