"""The verdict record shared by the verification sweeps and the CLI."""
from __future__ import annotations


def record(lemma, lhs, rhs, holds, seed=0, tail_bound=0.0) -> dict:
    """One inequality/identity verdict; its key order is the verify CSV's columns."""
    return {"lemma": str(lemma), "seed": int(seed), "lhs": float(lhs), "rhs": float(rhs),
            "holds": bool(holds), "tail_bound": float(tail_bound)}
