import math

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
