import math
import tracemalloc

import numpy as np
import pytest

from hilbertlab.eigen import PERRON_MIN_N


def _recorded_sizes(monkeypatch, name: str) -> list[int]:
    """The size of each matrix np.linalg.<name> solves, for the test: a
    stack of B matrices of size n records n, B times."""
    sizes = []
    fn = getattr(np.linalg, name)

    def recording(matrix, *args, **kwargs):
        shape = np.shape(matrix)
        sizes.extend([shape[-1]] * math.prod(shape[:-2]))
        return fn(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return sizes


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """The size of each matrix np.linalg.eigvalsh solves."""
    return _recorded_sizes(monkeypatch, "eigvalsh")


@pytest.fixture
def eigh_sizes(monkeypatch):
    """The size of each matrix np.linalg.eigh solves."""
    return _recorded_sizes(monkeypatch, "eigh")


@pytest.fixture
def cholesky_sizes(monkeypatch):
    """The size of each block np.linalg.cholesky factors. For the test,
    np.linalg.eigh, eigvalsh and cholesky each fail it when they receive
    a matrix of PERRON_MIN_N rows or more: a Perron solve factors its
    matrix in blocks and hands LAPACK no copy of it."""
    sizes = []

    def guarded(name):
        fn = getattr(np.linalg, name)

        def checking(a, *args, **kwargs):
            n = np.shape(a)[-1]
            assert n < PERRON_MIN_N, f"np.linalg.{name} received a {n} x {n} matrix"
            if name == "cholesky":
                sizes.append(n)
            return fn(a, *args, **kwargs)

        return checking

    for name in ("eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, guarded(name))
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
