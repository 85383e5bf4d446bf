"""The background scheduler pool: threads dispatching queued jobs.

Workers pull job ids from the :class:`~repro.service.queue.JobQueue`
(highest priority first) and hand each to the service's execute
callable.  Mirroring :mod:`repro.farm.worker`, a failing job never takes
its worker down: any exception that escapes execution is recorded by the
service against the job, and the loop continues.

Each worker thread lazily owns one :class:`~repro.core.pipeline.DyDroid`
instance per tenant configuration, which keeps its verdict LRUs across
jobs.  The expensive artifacts are process-wide, not per thread: every
thread's pipeline shares the one trained DroidNative, and every job reads
its market from the one memoized blueprint table.

``drain()`` is the graceful-shutdown path: close the queue to new work,
then join the workers, who exit only once the queue is empty -- queued
jobs are finished, not dropped.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

from repro.service.queue import JobQueue

__all__ = ["SchedulerPool"]

#: queue poll interval; bounds how long drain() waits on an idle worker.
_POLL_S = 0.05


class SchedulerPool:
    """``workers`` daemon threads running the service's execute callable.

    ``workers=0`` is a valid, deliberately-stalled pool (nothing ever
    dequeues) used by tests to fill the queue and exercise admission
    control.
    """

    def __init__(
        self,
        queue: JobQueue,
        execute: Callable[[str, int], None],
        workers: int,
        on_error: Optional[Callable[[str, BaseException], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self._clock = clock
        self._queue = queue
        self._execute = execute
        self._on_error = on_error
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._busy = 0
        self._busy_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        for worker_id in range(self.workers):
            thread = threading.Thread(
                target=self._loop,
                args=(worker_id,),
                name="repro-service-worker-{}".format(worker_id),
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Finish all queued work, then stop; True if every worker exited."""
        self._queue.close()
        return self.join(timeout=timeout)

    def stop(self, timeout: Optional[float] = None) -> bool:
        """Stop after in-flight jobs only; queued jobs are abandoned."""
        self._stop.set()
        self._queue.close()
        return self.join(timeout=timeout)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Join every worker against one shared deadline.

        ``timeout`` bounds the *total* wait, not the per-thread wait: a
        ``drain(timeout=T)`` during SIGTERM must return within ~T even
        with W stuck workers, where a per-thread timeout would block for
        W x T.  Threads already joined consume none of the budget, so the
        remaining allowance flows to whichever thread is still running.
        """
        deadline = None if timeout is None else self._clock() + timeout
        alive = False
        for thread in self._threads:
            if deadline is None:
                thread.join()
            else:
                thread.join(timeout=max(0.0, deadline - self._clock()))
            alive = alive or thread.is_alive()
        return not alive

    # -- introspection ---------------------------------------------------------

    def busy(self) -> int:
        with self._busy_lock:
            return self._busy

    def idle(self) -> bool:
        return self.busy() == 0 and self._queue.depth() == 0

    # -- worker loop -----------------------------------------------------------

    def _loop(self, worker_id: int) -> None:
        while not self._stop.is_set():
            job_id = self._queue.get(timeout=_POLL_S)
            if job_id is None:
                if self._queue.closed and self._queue.depth() == 0:
                    return
                continue
            with self._busy_lock:
                self._busy += 1
            try:
                self._execute(job_id, worker_id)
            except BaseException as exc:  # noqa: BLE001 - worker must survive
                if self._on_error is not None:
                    self._on_error(job_id, exc)
            finally:
                with self._busy_lock:
                    self._busy -= 1
