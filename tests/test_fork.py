"""``_fork.deal``: shares of independent work over the caller and forked children."""

import multiprocessing
import os
import threading

import pytest

from fabcp import _fork

_ITEMS = list(range(7))

_needs_fork = pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                                 reason="work is dealt out only where the process can fork")


def _squares(share):
    return {x: x * x for x in share}


def _in_caller(caller, shares):
    """``_squares`` that records each share the calling process runs."""
    def fn(share):
        if os.getpid() == caller:
            shares.append(list(share))
        return _squares(share)

    return fn


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_merged_map_equals_one_call(pin_cpus, cpus):
    pin_cpus(cpus)
    shares = []
    got = _fork.deal(_in_caller(os.getpid(), shares), _ITEMS)
    assert multiprocessing.active_children() == []
    assert got == _squares(_ITEMS)
    k = cpus if hasattr(os, "fork") else 1
    assert shares == [_ITEMS[::k]]


def test_no_items(pin_cpus):
    pin_cpus(3)
    assert _fork.deal(_squares, []) == {}
    assert multiprocessing.active_children() == []


@_needs_fork
def test_error_from_a_child_carries_one_note(pin_cpus):
    """One error, the result of several items of a child's share, gets one traceback note."""
    pin_cpus(2)
    caller = os.getpid()

    def fn(share):
        if os.getpid() == caller:
            return _squares(share)
        try:
            raise ValueError("injected into a child")
        except ValueError as error:
            return dict.fromkeys(share, error)

    got = _fork.deal(fn, _ITEMS)
    assert multiprocessing.active_children() == []
    assert [got[x] for x in _ITEMS[::2]] == [x * x for x in _ITEMS[::2]]
    errors = [got[x] for x in _ITEMS[1::2]]
    assert all(error is errors[0] for error in errors)
    notes = [note for note in errors[0].__notes__ if note.startswith("In a worker process:\n")]
    assert len(notes) == 1
    assert ", in fn\n" in notes[0]


@_needs_fork
def test_child_that_dies_is_reported(pin_cpus):
    pin_cpus(2)
    caller = os.getpid()

    def fn(share):
        if os.getpid() != caller:
            os._exit(3)
        return _squares(share)

    with pytest.raises(RuntimeError, match="exited with code 3"):
        _fork.deal(fn, _ITEMS)
    assert multiprocessing.active_children() == []


@_needs_fork
def test_error_raised_in_the_caller_stops_every_child(pin_cpus):
    pin_cpus(3)
    caller = os.getpid()

    def fn(share):
        if os.getpid() == caller:
            raise KeyError("injected into the caller")
        return _squares(share)

    with pytest.raises(KeyError, match="injected into the caller"):
        _fork.deal(fn, _ITEMS)
    assert multiprocessing.active_children() == []


@_needs_fork
def test_process_with_threads_runs_every_share_itself(pin_cpus):
    """A fork copies only the calling thread, so a process running others does not fork."""
    pin_cpus(3)
    shares = []
    stop = threading.Event()
    waiting = threading.Thread(target=stop.wait)
    waiting.start()
    try:
        got = _fork.deal(_in_caller(os.getpid(), shares), _ITEMS)
    finally:
        stop.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    assert multiprocessing.active_children() == []
    assert got == _squares(_ITEMS)
    assert shares == [_ITEMS]


def _pids(share):
    return {x: os.getpid() for x in share}


def _deal_pids(items):
    return os.getpid(), _fork.deal(_pids, items)


@_needs_fork
def test_pool_worker_runs_every_share_itself(pin_cpus):
    """A daemonic process may not have children, so it runs every share itself."""
    pin_cpus(3)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        worker, got = pool.apply(_deal_pids, (_ITEMS,))
    assert multiprocessing.active_children() == []
    assert got == dict.fromkeys(_ITEMS, worker)
