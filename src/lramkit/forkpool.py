"""A pool of forked processes that serve rounds of independent solves.

Two stages split their work this way: the Bloch oracle's wavenumbers
(``dispersion``) and the level-set march's probe batches (``topopt``). A
pool forks its W - 1 children when it is entered, so they inherit the
caller's state copy-on-write: factorizations, constraint maps and the
``serve`` function itself, which need not pickle. The caller is process 0
and serves its own share of every round. ``map`` sends item i to process
i mod W and returns the results in item order; ``call`` serves one item on
a chosen process. Items and results travel as length-prefixed pickles over
one pipe pair per child, and the children serve rounds until the pool
closes, so state that ``serve`` keeps in a child lasts from one round to
the next.

A child whose ``serve`` raises sends the exception back (a
SolverFailureError with its text if it does not pickle), and the caller
raises it. A child that dies without a reply is a SolverFailureError that
names its items. Any exception in a round closes the pool. Closing kills
and reaps every child, on every path.

Threads are no substitute: SuperLU and ARPACK hold the GIL. Callers run
their pool under ``blas.single_threaded``, which the children inherit, so
that W processes do not fight W thread pools for the cores and each item's
bits do not depend on W. Where the platform cannot fork, W is 1 and the
same rounds run in process.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import signal
import struct
import warnings

from .errors import SolverFailureError

_LENGTH = struct.Struct("<Q")


def processes(limit: int) -> int:
    """Processes for a pool of ``limit`` items at most: one per usable CPU,
    at most ``limit``, and one where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus, limit))


def _send(pipe, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    pipe.write(_LENGTH.pack(len(data)))
    pipe.write(data)
    pipe.flush()


def _receive(pipe):
    """The next object on ``pipe``; EOFError if the writer is gone."""
    head = pipe.read(_LENGTH.size)
    if len(head) < _LENGTH.size:
        raise EOFError
    (size,) = _LENGTH.unpack(head)
    data = pipe.read(size)
    if len(data) < size:
        raise EOFError
    return pickle.loads(data)


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round trip, else a SolverFailureError
    with its text."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return SolverFailureError(f"{type(exc).__name__}: {exc}")


def _serve_rounds(serve, requests, replies) -> None:
    """A child's loop: serve each round's items until the pool closes."""
    while True:
        try:
            items = _receive(requests)
        except EOFError:
            return
        try:
            reply = (None, [serve(item) for item in items])
        except Exception as exc:
            reply = (_portable(exc), None)
        _send(replies, reply)


class Pool:
    """``processes`` processes that apply ``serve`` to items, this one being
    process 0. ``describe(items)`` names a child's items in the error raised
    when it dies. Use as a context manager: entering forks the children,
    leaving kills and reaps them."""

    def __init__(self, serve, processes: int, describe=repr):
        self.serve = serve
        self.processes = max(1, int(processes))
        self._describe = describe
        self._children = []   # (pid, request writer, reply reader) of process 1, 2, ...

    def __enter__(self):
        try:
            for _ in range(self.processes - 1):
                self._children.append(self._fork())
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _fork(self):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns that forking a multi-threaded process may
                # deadlock the child. The other threads here are OpenBLAS pool
                # workers, idle between calls: the child takes no lock they
                # could hold, runs one-thread BLAS and leaves through
                # os._exit, skipping every exit handler.
                warnings.filterwarnings("ignore", message=".*multi-threaded.*fork",
                                        category=DeprecationWarning)
                pid = os.fork()
        except BaseException:
            for fd in (req_r, req_w, rep_r, rep_w):
                os.close(fd)
            raise
        if pid == 0:   # child
            status = 1
            try:
                os.close(req_w)
                os.close(rep_r)
                with os.fdopen(req_r, "rb") as requests, os.fdopen(rep_w, "wb") as replies:
                    _serve_rounds(self.serve, requests, replies)
                status = 0
            finally:
                os._exit(status)
        os.close(req_r)
        os.close(rep_w)
        return pid, os.fdopen(req_w, "wb"), os.fdopen(rep_r, "rb")

    def close(self) -> None:
        """Kill and reap every child."""
        children, self._children = self._children, []
        for pid, requests, replies in children:
            for pipe in (requests, replies):
                with contextlib.suppress(OSError):
                    pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def _lost(self, child, items) -> SolverFailureError:
        """The error for a child that died serving ``items``; reaps it."""
        self._children.remove(child)
        pid, requests, replies = child
        for pipe in (requests, replies):
            with contextlib.suppress(OSError):
                pipe.close()
        _, status = os.waitpid(pid, 0)
        return SolverFailureError(f"{self._describe(items)} ended without a result "
                                  f"(wait status {status})")

    def _round(self, work: dict) -> dict:
        """Serve ``work`` = {process: items}; returns {process: results}."""
        if len(self._children) != self.processes - 1:
            raise RuntimeError("the pool is closed")
        try:
            sent = []
            for w, items in work.items():
                if w == 0 or not items:
                    continue
                child = self._children[w - 1]
                try:
                    _send(child[1], items)
                except BrokenPipeError:
                    raise self._lost(child, items) from None
                sent.append(w)
            out = {0: [self.serve(item) for item in work.get(0, ())]}
            for w in sent:
                child = self._children[w - 1]
                try:
                    error, results = _receive(child[2])
                except EOFError:
                    raise self._lost(child, work[w]) from None
                if error is not None:
                    raise error
                out[w] = results
            return out
        except BaseException:
            self.close()
            raise

    def map(self, items) -> list:
        """``serve`` of every item, item i served by process i mod W."""
        items = list(items)
        shares = {w: items[w::self.processes] for w in range(self.processes)}
        out = self._round(shares)
        results = [None] * len(items)
        for w, share in out.items():
            results[w::self.processes] = share
        return results

    def call(self, process: int, item):
        """``serve(item)`` on process ``process``, 0 being this one."""
        return self._round({process: [item]})[process][0]
