"""Shared numeric helpers: reduced-argument trig, ordered map, formatting."""
from __future__ import annotations

import math

import numpy as np


def sinpi_abs(y):
    """|sin(pi*y)| with y reduced mod 1 before the multiplication by pi.

    Folding the residue to [0, 1/2] keeps full relative precision near
    integer arguments, where evaluating sin(pi*y) directly does not.
    """
    arr = np.asarray(y, dtype=float)
    r = np.mod(arr, 1.0)
    folded = np.where(r > 0.5, 1.0 - r, r)
    out = np.sin(np.pi * folded)
    return float(out) if out.ndim == 0 else out


def cotpi(y):
    """cot(pi*y), reduced mod 1; antisymmetric about the half-period."""
    arr = np.asarray(y, dtype=float)
    r = np.mod(arr, 1.0)
    folded = np.where(r > 0.5, 1.0 - r, r)
    sign = np.where(r > 0.5, -1.0, 1.0)
    with np.errstate(divide="ignore"):
        out = sign * np.cos(np.pi * folded) / np.sin(np.pi * folded)
    return float(out) if out.ndim == 0 else out


def parallel_map(fn, items):
    """[fn(item) for item in items], in order on the calling thread.

    The suites' work items are small windows, so a thread pool cost more
    than it saved. The name stays because `bench/tracer.py` installs its
    span wrapper on it, and `bench/selftest.py` expects the
    `util.parallel_map` span to fire.
    """
    return [fn(item) for item in items]


def fmt12(x) -> str:
    """Render a float with 12 significant digits (CSV cell format)."""
    return f"{float(x):.12g}"


def jsonable(obj):
    """Recursively convert to JSON-safe values, floats rounded to 12 digits.

    Non-finite floats become strings so the output stays valid JSON.
    """
    if type(obj) is float:      # the bulk of every report, so checked first
        return float(fmt12(obj)) if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return jsonable(float(obj))
    return obj
