"""Tests for repro.utils.timing, repro.utils.parallel, and the one-shot thread
map (:meth:`repro.compute.ThreadExecutor.map`) that fan-out work runs on."""

import threading
import time

import pytest

from repro.compute import ThreadExecutor
from repro.utils.parallel import ClosableQueue, WorkerPool
from repro.utils.timing import RateMeter, StopWatch, Timer, timed


# -- Timer ---------------------------------------------------------------------
def test_timer_context_manager_measures_elapsed():
    with Timer() as t:
        time.sleep(0.01)
    assert t.elapsed >= 0.005


def test_timer_start_stop():
    t = Timer().start()
    time.sleep(0.005)
    elapsed = t.stop()
    assert elapsed > 0
    assert t.elapsed == elapsed


def test_timer_stop_without_start_raises():
    with pytest.raises(RuntimeError):
        Timer().stop()


# -- StopWatch -------------------------------------------------------------------
def test_stopwatch_accumulates_named_segments():
    sw = StopWatch()
    with sw.measure("label"):
        time.sleep(0.005)
    with sw.measure("label"):
        time.sleep(0.005)
    with sw.measure("train"):
        pass
    assert sw.get("label") >= 0.008
    assert sw.counts["label"] == 2
    assert sw.total() == pytest.approx(sw.get("label") + sw.get("train"))


def test_stopwatch_add_simulated_duration():
    sw = StopWatch()
    sw.add("label", 12.5)
    sw.add("label", 2.5)
    assert sw.get("label") == pytest.approx(15.0)
    assert sw.as_dict() == {"label": pytest.approx(15.0)}


def test_stopwatch_add_negative_raises():
    with pytest.raises(ValueError):
        StopWatch().add("x", -1.0)


def test_stopwatch_reset():
    sw = StopWatch()
    sw.add("a", 1.0)
    sw.reset()
    assert sw.total() == 0.0


# -- timed decorator ----------------------------------------------------------------
def test_timed_returns_result_and_duration():
    @timed
    def add(a, b):
        return a + b

    result, elapsed = add(2, 3)
    assert result == 5
    assert elapsed >= 0.0


# -- RateMeter -----------------------------------------------------------------------
def test_rate_meter_counts_items():
    meter = RateMeter()
    meter.update(10)
    meter.update(5)
    assert meter.total_items == 15
    assert meter.rate > 0


# -- thread map (ThreadExecutor.map) ---------------------------------------------------
def _thread_map(fn, items, max_workers, chunk=False):
    with ThreadExecutor(max_workers=max_workers) as executor:
        return executor.map(fn, items, chunk=chunk)


def test_thread_map_preserves_order():
    out = _thread_map(lambda x: x * x, list(range(20)), max_workers=4)
    assert out == [x * x for x in range(20)]


def test_thread_map_serial_path():
    seen = set()

    def record(x):
        seen.add(threading.get_ident())
        return x + 1

    assert _thread_map(record, [1, 2, 3], max_workers=1) == [2, 3, 4]
    assert len(seen) == 1


def test_thread_map_empty_input():
    assert _thread_map(lambda x: x, [], max_workers=4) == []


def test_thread_map_chunked():
    out = _thread_map(lambda chunk: sum(chunk), list(range(10)), max_workers=2, chunk=True)
    assert sum(out) == sum(range(10))


def test_thread_map_chunked_produces_at_most_max_workers_chunks():
    """Regression: floor-division chunking could yield up to 2*max_workers - 1
    chunks (9 items / 4 workers -> 5 chunks of [2,2,2,2,1]); ceil division
    caps the chunk count at max_workers while preserving order."""
    chunks = _thread_map(lambda c: list(c), list(range(9)), max_workers=4, chunk=True)
    assert len(chunks) == 3  # ceil(9/4)=3 per chunk -> 3 chunks, not 5
    assert [x for c in chunks for x in c] == list(range(9))
    for n_items, workers in [(1, 4), (4, 4), (5, 4), (8, 4), (17, 4), (100, 7), (3, 8)]:
        chunks = _thread_map(lambda c: list(c), list(range(n_items)), max_workers=workers, chunk=True)
        assert len(chunks) <= workers
        assert all(c for c in chunks)  # no empty chunks
        assert [x for c in chunks for x in c] == list(range(n_items))


def test_thread_map_actually_uses_threads():
    seen = set()

    def record(x):
        seen.add(threading.get_ident())
        time.sleep(0.01)
        return x

    _thread_map(record, list(range(8)), max_workers=4)
    assert len(seen) >= 2


# -- WorkerPool / ClosableQueue ------------------------------------------------------------
def test_worker_pool_runs_target_per_worker():
    results = []
    lock = threading.Lock()

    def work(worker_id, items):
        with lock:
            results.append(worker_id)

    pool = WorkerPool(3, work)
    pool.start([1, 2, 3])
    pool.join(timeout=2)
    assert sorted(results) == [0, 1, 2]


def test_worker_pool_double_start_raises():
    pool = WorkerPool(1, lambda worker_id: None)
    pool.start()
    pool.join(timeout=1)
    with pytest.raises(RuntimeError):
        pool.start()


def test_worker_pool_negative_workers():
    with pytest.raises(ValueError):
        WorkerPool(-1, lambda worker_id: None)


def test_closable_queue_iteration_stops_at_sentinel():
    q = ClosableQueue()
    for i in range(5):
        q.put(i)
    q.close()
    assert list(q) == [0, 1, 2, 3, 4]


# -- KeyboardInterrupt propagation (regression) --------------------------------------
def test_worker_pool_join_reraises_worker_keyboard_interrupt():
    def interrupted(worker_id):
        if worker_id == 1:
            raise KeyboardInterrupt

    pool = WorkerPool(3, interrupted)
    pool.start()
    with pytest.raises(KeyboardInterrupt):
        pool.join(timeout=2)
    # The interrupt was consumed by the re-raise; a second join is clean.
    pool.join(timeout=2)
    assert pool.errors == []


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_worker_pool_records_but_does_not_reraise_ordinary_exceptions():
    def crash(worker_id):
        raise ValueError(f"worker {worker_id}")

    pool = WorkerPool(2, crash)
    pool.start()
    pool.join(timeout=2)  # must not raise
    assert len(pool.errors) == 2
    assert all(isinstance(e, ValueError) for e in pool.errors)
