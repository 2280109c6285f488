"""Shared numeric helpers: reduced-argument trig, ordered parallel map, formatting."""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

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


def thread_count() -> int:
    """Worker cap: HCL_THREADS if set and valid, else the CPU count."""
    raw = os.environ.get("HCL_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return os.cpu_count() or 1


def parallel_map(fn, items):
    """map() preserving input order, thread-parallel when the cap allows."""
    items = list(items)
    workers = min(thread_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


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
        x = float(obj)
        if not np.isfinite(x):
            return repr(x)
        return float(fmt12(x))
    return obj
