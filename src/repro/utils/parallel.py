"""Daemon worker threads and the queue protocol the serving runtime runs on.

One-shot fan-out (map a function over items) belongs on the compute plane's
:class:`repro.compute.Executor` seam.  :class:`WorkerPool` covers the other
shape: long-lived consumer loops, one per worker thread, pulling from a
:class:`ClosableQueue` until it is closed.  Its threads are daemons, so a
runtime left running never blocks interpreter shutdown (a
``ThreadPoolExecutor``'s non-daemon threads would).
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, List, Optional


class WorkerPool:
    """A long-lived pool of daemon threads, each running ``target(worker_id, ...)``.

    The serving runtime's flusher and worker loops run on it: each worker
    continuously pulls from an input queue until the queue is closed.
    """

    def __init__(self, num_workers: int, target: Callable[..., None]) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        self.num_workers = num_workers
        self._target = target
        self._threads: List[threading.Thread] = []
        self._started = False
        self._errors: List[BaseException] = []
        self._errors_lock = threading.Lock()

    def _run(self, worker_id: int, *args, **kwargs) -> None:
        try:
            self._target(worker_id, *args, **kwargs)
        except BaseException as exc:
            # A bare Thread would silently drop anything its target raises
            # (threads have no caller to propagate to).  Record it; interrupts
            # (KeyboardInterrupt/SystemExit — not Exception subclasses) are
            # re-raised in the thread that joins the pool.
            with self._errors_lock:
                self._errors.append(exc)
            if isinstance(exc, Exception):
                raise  # keep the default excepthook traceback for plain bugs

    def start(self, *args, **kwargs) -> None:
        if self._started:
            raise RuntimeError("WorkerPool already started")
        self._started = True
        for worker_id in range(self.num_workers):
            t = threading.Thread(
                target=self._run, args=(worker_id, *args), kwargs=kwargs, daemon=True
            )
            t.start()
            self._threads.append(t)

    def join(self, timeout: Optional[float] = None) -> None:
        """Join all workers, then re-raise any interrupt a worker swallowed.

        A ``KeyboardInterrupt`` (or ``SystemExit``) raised inside a worker
        thread has no path back to the caller on its own; ``join`` is where
        it surfaces, so Ctrl-C during pooled work actually stops the program.
        """
        for t in self._threads:
            t.join(timeout=timeout)
        self.raise_pending_interrupt()

    def raise_pending_interrupt(self) -> None:
        """Re-raise the first captured non-``Exception`` error, if any."""
        with self._errors_lock:
            for i, exc in enumerate(self._errors):
                if not isinstance(exc, Exception):
                    del self._errors[i]
                    raise exc

    @property
    def errors(self) -> List[BaseException]:
        """Errors captured from worker targets (interrupts until re-raised)."""
        with self._errors_lock:
            return list(self._errors)

    @property
    def alive(self) -> int:
        return sum(1 for t in self._threads if t.is_alive())


class ClosableQueue(queue.Queue):
    """A queue with a sentinel-based close protocol for producer/consumer loops."""

    _SENTINEL = object()

    def close(self, n: int = 1) -> None:
        """Signal ``n`` consumers that no more items will arrive."""
        for _ in range(n):
            self.put(self._SENTINEL)

    def __iter__(self):
        while True:
            item = self.get()
            try:
                if item is self._SENTINEL:
                    return
                yield item
            finally:
                self.task_done()
