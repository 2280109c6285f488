import math
import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """The size of each matrix np.linalg.eigvalsh solves: a stack of B
    matrices of size n records n, B times."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(matrix, *args, **kwargs):
        shape = np.shape(matrix)
        sizes.extend([shape[-1]] * math.prod(shape[:-2]))
        return eigvalsh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return sizes


@pytest.fixture
def solve_sizes(monkeypatch):
    """The size of each system np.linalg.solve factors, one LU each."""
    sizes = []
    solve = np.linalg.solve

    def recording(a, b):
        sizes.append(np.shape(a)[-1])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    return sizes


@pytest.fixture
def calls(monkeypatch):
    """A function that wraps the function `name` of `module` for the test,
    and returns the list of the positional arguments of each call to it
    through the module, in order; its length is the call count."""
    def record(module, name):
        seen = []
        fn = getattr(module, name)

        def recording(*args, **kwargs):
            seen.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        return seen

    return record


@pytest.fixture
def traced_peak():
    """A function that calls fn() and returns the peak memory tracemalloc
    traced during the call, in bytes above what was traced when it began.
    numpy's array buffers are traced; LAPACK's working copy of a matrix
    is malloc'd outside tracemalloc and is not counted."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()

    def measure(fn):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base

    yield measure
    if started:
        tracemalloc.stop()
