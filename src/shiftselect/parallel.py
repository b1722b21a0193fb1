"""One fork helper for work that splits into independent items.

:func:`fork_map` splits the items into contiguous parts, one per worker that
:func:`worker_count` allows, runs the first part in the calling process and
each other part in a forked daemonic worker, and returns the parts' results
in item order. A forked worker inherits the caller's memory, so only its
result crosses a pipe. Two callers use it: the MLP grid's sub-stacks
(:func:`classifiers.train_grid`) and the TMS solves of an experiment's bags
(:func:`evalcli._evaluate`). Both give the same output on any number of
workers.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import numpy as np


def _usable_cpus() -> int:
    """The number of CPUs this process may run on (1 where the platform
    cannot tell)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def worker_count(n_items: int) -> int:
    """How many processes :func:`fork_map` splits `n_items` items over: one
    per usable CPU, at most one per item. It is 1 where this process should
    not fork: without the `fork` start method, in a daemonic process, which
    multiprocessing allows no children, and beside other Python threads,
    one of which may hold a lock that the worker would inherit held."""
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return 1
    return max(1, min(_usable_cpus(), n_items))


def fork_map(fn, n_items: int):
    """Call `fn(part)` on contiguous parts of ``range(n_items)``, one per
    :func:`worker_count` process; `part` is an int array and `fn` returns a
    list. The first part runs in this process, each other one in a forked
    worker that sends back its list, or the exception `fn` raised, by pickle
    through a one-way pipe.

    Returns the lists concatenated in part order and the number of parts.
    Every worker is joined before this returns or raises: a worker's
    exception is raised here, a worker that dies is a RuntimeError naming
    its exit code, and when this process's own part raises, the workers are
    terminated first."""
    parts = np.array_split(np.arange(n_items), worker_count(n_items))
    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for part in parts[1:]:
            receiver, sender = context.Pipe(duplex=False)
            with sender:        # closed here: the worker's exit ends the pipe
                worker = context.Process(target=_worker, daemon=True,
                                         args=(sender, fn, part))
                worker.start()  # flushes sys.stdout and sys.stderr first
            workers.append((worker, receiver))
        out = fn(parts[0])
        for worker, receiver in workers:
            try:
                result = receiver.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"a forked worker exited with code {worker.exitcode} "
                    "before sending its results") from None
            if isinstance(result, BaseException):
                raise result
            out += result
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, receiver in workers:
            worker.join()
            receiver.close()
    return out, len(parts)


def _worker(sender, fn, part):
    """A forked worker's body: sends back `fn(part)`, or the exception it
    raised."""
    try:
        result = fn(part)
    except BaseException as exc:
        result = exc
    sender.send(result)
