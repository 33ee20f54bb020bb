"""Ordered map over independent tasks, run side by side in forked workers.

`ordered_stream(fn, tasks)` yields what `(fn(t) for t in tasks())` yields,
and raises what it raises, where it raises it. With W = min(number of
tasks, usable CPUs, MAX_WORKERS) > 1 the calling process forks W - 1
workers; task i runs in worker i mod W, the caller being worker 0. Each
worker calls `tasks()` itself after the fork (a task iterator that reads a
file opens its own copy, so `tasks()` must yield the same tasks at every
call: a pipe, read once, does not) and runs `fn` on its own stripe only,
so nothing is pickled on the way in. It pickles each outcome (a result, or the
exception that stopped it) back through its pipe; the caller reads them
in task order, and a full pipe holds the worker back until the caller
catches up. Every task runs the same arithmetic wherever it runs, so the
results do not depend on the CPU count. If a pipe or a fork cannot be
made, the caller runs the stripes of the workers it could not start.
`ordered_map(fn, tasks)` is the list of that stream over a list of tasks.

The map runs inline with one task, one usable CPU, no `os.fork`, or inside
a task of another map, so at most MAX_WORKERS processes run tasks at once.
A worker ends with `os._exit`, so it never flushes what the caller had
open. BLAS runs one thread per process (see the package's __init__).
"""

from __future__ import annotations

import os
import pickle
import sys
from itertools import chain


class WorkerError(RuntimeError):
    """A worker process ended without returning its results."""


# Each worker holds its own problem (and, under E-ASM, its own n x n Gram,
# which solver.EASM_BUDGET_BYTES checks one solve at a time), so memory
# grows with the worker count. Two workers is the count whose time and
# summed peak RSS were measured.
MAX_WORKERS = 2

_busy = False  # set while this process runs a task of a map
_FRAME = 8     # bytes of the length that precedes each pickled outcome


def usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def ordered_map(fn, tasks):
    """[fn(t) for t in tasks], computed by up to MAX_WORKERS processes."""
    tasks = list(tasks)
    return list(ordered_stream(fn, lambda: iter(tasks)))


def ordered_stream(fn, tasks):
    """fn(t) for each t of the iterator that `tasks()` returns, in order,
    computed by up to MAX_WORKERS processes; each process calls `tasks()`
    for itself."""
    mine = tasks()
    if _busy or not hasattr(os, "fork"):
        workers = 1
    else:
        workers, mine = _peek(mine, min(usable_cpus(), MAX_WORKERS))
    if workers <= 1:
        for task in mine:
            yield fn(task)
        return
    sys.stdout.flush()  # so a worker's exit cannot repeat buffered output
    sys.stderr.flush()
    children = {}  # stripe -> (pid, read end of its pipe as a file)
    try:
        for stripe in range(1, workers):
            try:
                read_fd, write_fd = os.pipe()
            except OSError:  # out of file descriptors
                break
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                os.close(read_fd)
                _work(fn, tasks, stripe, workers, write_fd)  # does not return
            os.close(write_fd)
            children[stripe] = (pid, os.fdopen(read_fd, "rb"))
        for i, task in enumerate(mine):
            if i % workers not in children:  # the caller's, or an unstarted worker's
                yield _call(fn, task)
                continue
            pid, pipe = children[i % workers]
            payload = _receive(pipe)
            if payload is None:  # the worker exited or died: reap it
                del children[i % workers]
                pipe.close()
                raise WorkerError(_ended(os.waitpid(pid, 0)[1]))
            try:
                ok, value = pickle.loads(payload)
            except Exception as exc:  # a result or exception that does not unpickle
                raise WorkerError("a worker process sent results that could not "
                                  f"be read ({exc})") from None
            if not ok:
                raise value
            yield value
        while children:  # each has sent its stripe and is exiting
            pid, pipe = children.popitem()[1]
            pipe.close()
            os.waitpid(pid, 0)
    finally:
        if children:  # only after an error, or when the stream is closed early
            import signal  # here, so that no command start pays for it
        for pid, pipe in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _receive(pipe):
    """The next pickled outcome a worker sent, or None if its pipe ends
    first."""
    header = pipe.read(_FRAME)
    if len(header) == _FRAME:
        size = int.from_bytes(header, "little")
        payload = pipe.read(size)
        if len(payload) == size:
            return payload
    return None


def _peek(iterator, count):
    """How many items, up to `count`, `iterator` yields before it ends or
    raises, and an iterator over all its items that raises where it raised
    and lets each item go once it is past."""
    head = []
    try:
        while len(head) < count:
            head.append(next(iterator))
    except StopIteration:
        pass
    except Exception as exc:
        iterator = _raising(exc)
    return len(head), chain(iter(head), iterator)


def _raising(exc):
    raise exc
    yield  # a generator, so that the raise waits for the first next()


def _call(fn, task):
    """fn(task), with any map inside it running inline."""
    global _busy
    _busy = True
    try:
        return fn(task)
    finally:
        _busy = False


def _work(fn, tasks, stripe, workers, write_fd):
    """Body of a forked worker: walk tasks(), send (ok, result or exception)
    for each task of its stripe, stop after the first failure, exit."""
    code = 1
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            for ok, value in _outcomes(fn, tasks, stripe, workers):
                payload = pickle.dumps((ok, value))
                pipe.write(len(payload).to_bytes(_FRAME, "little"))
                pipe.write(payload)
                pipe.flush()
        code = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _outcomes(fn, tasks, stripe, workers):
    """(True, fn(task)) for each task of the stripe, then (False, exception)
    if fn or tasks() raises."""
    try:
        for i, task in enumerate(tasks()):
            if i % workers == stripe:
                yield True, _call(fn, task)
    except Exception as exc:  # from fn or from the iterator itself
        yield False, exc


def _ended(status):
    """The WorkerError message for a worker that exited with `status`."""
    if os.WIFSIGNALED(status):
        how = f"was killed by signal {os.WTERMSIG(status)}"
    else:
        how = f"exited with code {os.waitstatus_to_exitcode(status)}"
    return f"a worker process {how} before returning its results"
