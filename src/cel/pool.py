"""The process-wide thread pool that runs independent pieces of data work.

Pretraining maps each item's data pipeline over it. Fine-tuning and
embedding map only the utterances whose features the source has not cached
yet (`CorpusSource.features_of`), and read cached ones on the calling
thread, where a lookup costs less than a submit. Corpus synthesis submits
nothing: an utterance is synthesized on the calling thread, or inside
whichever pool task needs its waveform. NumPy's FFTs and element-wise
functions release the interpreter lock, so the pieces overlap on separate
cores. `map_items` yields results in input order, so callers that combine
them in that order get outputs that do not depend on the pool size.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

R = TypeVar("R")

_on_pool = threading.local()


def _mark_pool_thread() -> None:
    _on_pool.flag = True


class ItemPool(ThreadPoolExecutor):
    """A thread pool whose threads are marked, so maps made on them run inline."""

    def __init__(self, workers: int) -> None:
        super().__init__(
            max_workers=workers, thread_name_prefix="cel-item", initializer=_mark_pool_thread
        )


_pool: ItemPool | None = None
_pool_lock = threading.Lock()


def _pool_size(cpus: int, environ: Mapping[str, str]) -> int:
    """Item threads for `cpus` usable CPUs, leaving room for BLAS's own threads.

    BLAS libraries read their thread count from these variables (OpenBLAS
    OPENBLAS_NUM_THREADS, then OMP_NUM_THREADS; MKL also MKL_NUM_THREADS)
    and use every CPU when none is set. Each item's log-mel runs a BLAS
    product, so item threads times BLAS threads should not exceed the CPUs:
    with BLAS on both cores of a 2-core host, two item threads made desk
    pretraining and fine-tuning slower than one.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1


def item_pool() -> ItemPool:
    """The shared pool, created on first use and sized by `_pool_size`."""
    global _pool
    with _pool_lock:
        if _pool is None:
            if hasattr(os, "sched_getaffinity"):
                cpus = len(os.sched_getaffinity(0))
            else:  # macOS and Windows have no affinity mask
                cpus = os.cpu_count() or 1
            _pool = ItemPool(_pool_size(cpus, os.environ))
        return _pool


def _forget_pool() -> None:
    """In a forked child the pool's threads are gone; the next use makes a new pool."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only; Windows cannot fork
    os.register_at_fork(after_in_child=_forget_pool)


def map_items(fn: Callable[..., R], *items: Iterable) -> Iterator[R]:
    """`map(fn, *items)` on the pool, yielding results in item order.

    An exception raised by fn reaches the caller unchanged when its item's
    result is reached. Called on a pool thread, it runs a plain `map` on
    that thread: a task waiting on tasks queued behind it in the same
    bounded pool could wait forever.
    """
    if getattr(_on_pool, "flag", False):
        return map(fn, *items)
    return item_pool().map(fn, *items)
