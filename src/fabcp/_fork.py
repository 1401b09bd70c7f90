"""Independent work dealt out over the CPUs the process may use."""

from __future__ import annotations

import os
from typing import Callable

__all__ = ["deal"]


def deal(fn: Callable[[list], dict], items: list) -> dict:
    """The ``{item: result | error}`` map ``fn(items)``, from k interleaved shares of ``items``.

    With k = min(CPUs in the process's affinity mask, items), the caller
    runs ``fn(items[::k])`` and k - 1 forked children run the other shares
    and send their maps back over a pipe, so the map does not depend on k
    as long as ``fn`` treats an item alike in every share. An error a child
    returns carries its traceback as one note. Children ignore SIGINT; on
    Ctrl-C the caller raises and stops them. A child that dies without
    sending raises ``RuntimeError``. Every child is joined before this
    returns or raises. k is 1, and no process starts, where the platform
    cannot fork, in a daemonic process (a ``multiprocessing.Pool`` worker
    may not have children), and in a process that runs other threads (a
    fork copies only the calling thread, so a lock another thread holds
    would stay held in the child).
    """
    k = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        import multiprocessing  # here, so that importing fabcp does not load it
        import threading

        if not (multiprocessing.current_process().daemon or threading.active_count() > 1):
            k = max(1, min(len(os.sched_getaffinity(0)), len(items)))

    def child(conn, share: list) -> None:
        import signal
        import traceback

        signal.signal(signal.SIGINT, signal.SIG_IGN)
        results = fn(share)
        errors = {id(result): result for result in results.values() if isinstance(result, Exception)}
        for result in errors.values():
            # A traceback does not pickle; the child's frames travel as a note.
            frames = "".join(traceback.format_exception(type(result), result, result.__traceback__))
            result.add_note(f"In a worker process:\n{frames}")
        conn.send(results)
        conn.close()

    children = []
    try:
        if k > 1:
            fork = multiprocessing.get_context("fork")
            for share in range(1, k):
                recv, send = fork.Pipe(duplex=False)
                process = fork.Process(target=child, args=(send, items[share::k]))
                process.start()
                send.close()
                children.append((process, recv))
        results = fn(items[::k])
        for process, recv in children:
            try:
                results.update(recv.recv())
            except EOFError:
                process.join()
                raise RuntimeError(f"a worker process exited with code {process.exitcode}") from None
        return results
    except BaseException:
        for process, _ in children:
            process.terminate()
        raise
    finally:
        for process, recv in children:
            process.join()
            recv.close()
