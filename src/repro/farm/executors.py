"""Executors: process-based for throughput, synchronous for tests.

Both expose the subset of the :mod:`concurrent.futures` executor protocol
the lease loop (:mod:`repro.farm.lease`) uses -- ``submit`` returning a
real ``Future``, ``shutdown``, context manager -- so it waits on either
the same way.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor


class SyncExecutor:
    """Runs each submitted job immediately in the calling process.

    Deterministic, debuggable (breakpoints and coverage work), and free of
    fork overhead -- the right backend for tests and ``--workers 1``.
    """

    def submit(self, fn, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # mirror executor behavior: deliver via future
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, **_kwargs) -> None:
        pass

    def __enter__(self) -> "SyncExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def create_executor(workers: int):
    """In-process below 2 workers, a process pool otherwise."""
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if workers <= 1:
        return SyncExecutor()
    return ProcessPoolExecutor(max_workers=workers)
