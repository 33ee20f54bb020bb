"""Ordered map over independent tasks, run side by side in forked workers.

`ordered_map(fn, tasks)` returns what `[fn(t) for t in tasks]` returns, and
raises what it raises: the exception of the first task, in input order,
that raised. With W = min(len(tasks), usable CPUs, MAX_WORKERS) > 1 the
calling process forks W - 1 workers; task i runs in worker i mod W, the
caller being worker 0. A forked worker inherits the tasks and `fn`, so
nothing is pickled on the way in; it pickles its results (or the exception
that stopped it) back through a pipe. Every task runs the same arithmetic
wherever it runs, so the results do not depend on the CPU count. If a pipe
or a fork cannot be made, the caller runs the stripes of the workers it
could not start.

The map runs inline with one task, one usable CPU, no `os.fork`, or inside
a task of another map, so at most MAX_WORKERS processes run tasks at once.
mrckit starts no threads of its own; a BLAS thread pool re-creates its
threads in the forked child.
"""

from __future__ import annotations

import os
import pickle
import sys


class WorkerError(RuntimeError):
    """A worker process ended without returning its results."""


# Each worker holds its own problem (and, under E-ASM, its own n x n Gram,
# which solver.EASM_BUDGET_BYTES checks one solve at a time) and its
# own BLAS thread pool, so memory and threads grow with the worker count.
# Two workers is the count whose time and summed peak RSS were measured.
MAX_WORKERS = 2

_busy = False  # set while this process runs tasks of a map


def usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def ordered_map(fn, tasks):
    """[fn(t) for t in tasks], computed by up to MAX_WORKERS processes."""
    tasks = list(tasks)
    workers = min(len(tasks), usable_cpus(), MAX_WORKERS)
    if workers <= 1 or _busy or not hasattr(os, "fork"):
        return [fn(task) for task in tasks]
    sys.stdout.flush()  # so a worker's exit cannot repeat buffered output
    sys.stderr.flush()
    children = []  # (pid, read end of its pipe as a file)
    try:
        for start in range(1, workers):
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
                _work(fn, tasks, range(start, len(tasks), workers),
                      write_fd)  # does not return
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        # the caller's stripe, and the stripes of workers that did not start
        started = range(1, 1 + len(children))
        mine = [i for i in range(len(tasks)) if i % workers not in started]
        outcomes = dict(_stripe(fn, tasks, mine))
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            outcomes.update(_unpack(payload, status))
    finally:
        if children:  # only after an error in this process
            import signal  # here, so that no command start pays for it
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    results = []
    for i in range(len(tasks)):
        # the tasks a stripe skipped follow its failed one, raised first
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results


def _stripe(fn, tasks, indices):
    """(index, (ok, result or exception)) of the tasks at `indices`, in
    order, stopping after the first that raises."""
    global _busy
    done = []
    _busy = True
    try:
        for i in indices:
            try:
                done.append((i, (True, fn(tasks[i]))))
            except Exception as exc:
                done.append((i, (False, exc)))
                break
    finally:
        _busy = False
    return done


def _work(fn, tasks, indices, write_fd):
    """Body of a forked worker: run a stripe, send it back, exit."""
    code = 1
    try:
        payload = pickle.dumps(_stripe(fn, tasks, indices))
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(payload)
        code = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _unpack(payload, status):
    """A worker's outcomes, or WorkerError if it sent none."""
    if os.WIFSIGNALED(status):
        how = f"was killed by signal {os.WTERMSIG(status)}"
    else:
        how = f"exited with code {os.waitstatus_to_exitcode(status)}"
    if status == 0 and payload:
        try:
            return pickle.loads(payload)
        except Exception as exc:  # a result or exception that does not unpickle
            how = f"sent results that could not be read ({exc})"
    raise WorkerError(f"a worker process {how} before returning its results")
