import numpy as np
import pytest


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
