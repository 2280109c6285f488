import numpy as np
import pytest


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """The sizes of the matrices handed to np.linalg.eigvalsh."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(matrix, *args, **kwargs):
        sizes.append(matrix.shape[0])
        return eigvalsh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return sizes
