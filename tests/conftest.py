import signal
from contextlib import contextmanager

import numpy as np
import pytest

from shiftselect import quantifiers


@pytest.fixture
def strangle(monkeypatch):
    """strangle(module, name, positions, max_iter) wraps the batched solver
    `module.name` (``cap.leap_solve_batch`` or
    ``quantifiers.em_weights_batch``) so that in every batch it solves, the
    problems at `positions` stop after `max_iter` iterations. The wrapper
    solves the batch as given and again under `max_iter`, and splices the
    second solve's rows at `positions` into the first; that is exact, because
    each problem leaves its batch on its own and gets the iterates of a run
    by itself."""
    def apply(module, name, positions, max_iter):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            full = real(*args, **kwargs)
            short = real(*args, **{**kwargs, "max_iter": max_iter})
            for a, b in zip(full, short):
                if isinstance(a, np.ndarray):
                    a[positions] = b[positions]
            return full
        monkeypatch.setattr(module, name, wrapped)
    return apply


@pytest.fixture(scope="session")
def em_trace():
    """em_trace(logF, tol=EM_TOL, max_iter=EM_MAX_ITER): the log-likelihood
    L(a) = sum_x log sum_j a_j exp(logF[x, j]) of every iterate of the
    mixture solver on one (m, n) log-density matrix, the start included.
    The solver keeps no trace; `max_iter` only bounds its loop, so the
    iterate after t steps is the result of a run with max_iter=t. That costs
    one solve per iterate, so only the tests that read the trace call it."""
    def trace(logF, tol=quantifiers.EM_TOL, max_iter=quantifiers.EM_MAX_ITER):
        logF = np.asarray(logF, dtype=float)[None]
        _, iterations, _ = quantifiers.em_weights_batch(logF, tol, max_iter)
        top = logF.max(axis=2, keepdims=True)
        F = np.exp(logF - top)[0]
        values = []
        for t in range(int(iterations[0]) + 1):
            alpha = quantifiers.em_weights_batch(logF, tol, t)[0][0]
            values.append(float(np.log(F @ alpha).sum() + top.sum()))
        return values
    return trace


@pytest.fixture
def deadline():
    """deadline(seconds) is a context manager that raises TimeoutError inside
    its block after `seconds`, so that a wait that never ends fails the
    test."""
    @contextmanager
    def within(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"no result within {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return within
