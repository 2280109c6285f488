"""Shared helpers: reduced-argument trig, power-of-two units, ordered map,
count arguments, the verdict record and JSON rendering."""
from __future__ import annotations

import math
import operator
from json.encoder import encode_basestring_ascii as _quote

import numpy as np


def _pi_folded(y):
    """pi * (|y| mod 1 folded to [0, 1/2]), and where cot(pi*y) takes the
    negative sign: where the fold reflected, or y has its sign bit set
    (-0.0 included, so cotpi(-0.0) is -inf), but not both. An array, 0-d
    for a scalar y, so that callers can work in place.

    Reducing |y| rather than y keeps a small negative y exact: np.mod(-eps,
    1) would round to 1 - eps and lose the low bits of eps. On a finite
    r = |y|, r - floor(r) is exact, the low bits of r, so it is the double
    np.fmod(r, 1) gives, at a fraction of libm fmod's cost; an infinite r
    gives NaN in both. min(r, 1 - r) is the fold: 1 - r is exact for
    r >= 1/2 (Sterbenz), and is the minimum only there.
    """
    y = np.asarray(y, dtype=float)
    r = np.abs(y, out=np.empty(y.shape))
    r -= np.floor(r)
    negative = (r > 0.5) != np.signbit(y)
    np.minimum(r, 1.0 - r, out=r)
    r *= np.pi
    return r, negative


def _unwrap(out):
    return float(out) if out.ndim == 0 else out


def sinpi_abs(y):
    """|sin(pi*y)| with |y| reduced mod 1 before the multiplication by pi;
    even in y, bit for bit.

    Folding the residue to [0, 1/2] keeps full relative precision near
    integer arguments of either sign, where evaluating sin(pi*y) directly
    does not.
    """
    return _unwrap(np.sin(_pi_folded(y)[0]))


def cotpi(y):
    """cot(pi*y), reduced mod 1; odd in y, bit for bit, and antisymmetric
    about the half-period."""
    return sinpi_abs_cotpi(y)[1]


def sinpi_abs_cotpi(y):
    """(sinpi_abs(y), cotpi(y)) from one reduction of y and one sine."""
    theta, negative = _pi_folded(y)
    sines = np.sin(theta)
    cot = np.cos(theta, out=theta)
    # at a pole the cotangent is inf: a zero sine divides, a subnormal one overflows
    with np.errstate(divide="ignore", over="ignore"):
        cot /= sines
    np.negative(cot, out=cot, where=negative)
    return _unwrap(sines), _unwrap(cot)


def unit_for(magnitude: float) -> float:
    """A power of two for vectors of about this magnitude: 1.0 when it lies
    in [2^-256, 2^256), else the power that takes it into [1/2, 1), held
    within [2^-1020, 2^1020] so that it and its inverse are normal.

    Scaling by a power of two is exact, so the norm of x * unit, divided
    by the unit, is the norm np.linalg.norm gives in range, and the sum of
    squares of up to 2^30 entries of about that magnitude neither
    overflows nor underflows. In the normal range the unit is 1.0 and the
    arithmetic is unchanged."""
    exponent = math.frexp(magnitude)[1]
    if -256 < exponent <= 256:
        return 1.0
    return math.ldexp(1.0, -min(max(exponent, -1020), 1020))


def parallel_map(fn, items):
    """[fn(item) for item in items], in order on the calling thread.

    The suites' work items are small windows, so a thread pool cost more
    than it saved. The name stays because `bench/tracer.py` installs its
    span wrapper on it, and `bench/selftest.py` expects the
    `util.parallel_map` span to fire.
    """
    return [fn(item) for item in items]


def count(name: str, value, low: int) -> int:
    """The count argument `name` as an int of at least `low`. A value that
    is not an integer raises ValueError naming the argument, as does one
    below `low`; numpy integers pass (operator.index), floats do not."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


# ---- JSON reports -------------------------------------------------------
#
# The report contract: floats rounded to 12 significant digits and written
# as the shortest repr of the rounded value, non-finite floats as the
# strings "inf", "-inf" and "nan", numpy scalars as the Python scalar they
# convert to, arrays and tuples as lists, non-ASCII escaped, and the layout
# of json.dumps. The renderer below writes that text directly: with an
# indent, json.dumps would run its pure-Python encoder.

def _scalar(value) -> str | None:
    """JSON text of a scalar, or None for a container.

    A float is rounded to 12 significant digits. Its %.12g text without an
    exponent already is the shortest repr of the rounded float, short of
    the ".0" an integral value takes; exponent texts go through repr of
    the rounded float.
    """
    kind = type(value)
    if kind is float:
        text = "%.12g" % value
        if "e" in text:
            return repr(float(text))
        if "." in text:
            return text
        if "n" in text:      # inf, -inf and nan
            return '"' + text + '"'
        return text + ".0"
    if kind is int:
        return repr(value)
    if kind is str:
        return _quote(value)
    if kind is bool or kind is np.bool_:
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    if isinstance(value, (float, np.floating)):
        return _scalar(float(value))
    if isinstance(value, str):
        return _quote(value)
    return None


def _render(obj, nl: str, step: str, colon: str) -> str:
    """JSON text of obj; nl is the newline and indentation before its
    closing bracket, step one level of indentation."""
    text = _scalar(obj)
    if text is not None:
        return text
    inner = nl + step
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join(
            _quote(str(key)) + colon + _render(value, inner, step, colon)
            for key, value in obj.items()) + nl + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        texts = _items(obj, inner, step, colon)
        if not texts:
            return "[]"
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


class Rows:
    """A table of named columns of scalars, all of one length. In a list the
    renderer writes it as one flat object per row, the text that a run of
    dicts with these keys would give, without building the dicts."""

    def __init__(self, columns: dict[str, list]):
        self.columns = columns


def _cells(column: list) -> list[str]:
    """The JSON texts of a column of scalars. An all-float column is
    formatted in one %.12g pass; only the cells that text does not already
    give (exponents, integral and non-finite values) go through _scalar."""
    if all(type(value) is float for value in column):
        return [text if "." in text and "e" not in text else _scalar(value)
                for text, value in zip(map("%.12g".__mod__, column), column)]
    cells = list(map(_scalar, column))
    if None in cells:
        raise TypeError("Rows columns hold scalars only")
    return cells


def _items(items, nl: str, step: str, colon: str) -> list[str]:
    """The JSON texts of items at indentation nl; a Rows item gives one
    text per row, through one row template with a %s slot per value."""
    texts = []
    for item in items:
        if type(item) is not Rows:
            texts.append(_render(item, nl, step, colon))
            continue
        inner = nl + step
        template = "{" + inner + ("," + inner).join(
            _quote(str(key)).replace("%", "%%") + colon + "%s" for key in item.columns) + nl + "}"
        texts.extend(map(template.__mod__, zip(*map(_cells, item.columns.values()))))
    return texts


def to_json(obj) -> str:
    """obj as one JSON document under the report contract, laid out as
    json.dumps(..., indent=2) lays it out."""
    return _render(obj, "\n", "  ", ": ")


def to_json_lines(items) -> str:
    """Each item as one compact JSON document (separators "," and ":") under
    the report contract, one per line."""
    return "\n".join(_items(items, "", "", ":"))


# lhs sense rhs, loosened by slack; each is written so that NaN fails
_SENSES = {"<": lambda x, y, s: x < y + s, "<=": lambda x, y, s: x <= y + s,
           ">": lambda x, y, s: x > y - s, ">=": lambda x, y, s: x >= y - s,
           "==": lambda x, y, s: abs(x - y) <= s, "info": lambda x, y, s: True}


def record(lemma, lhs, rhs, sense, slack=0.0, *, requires=True, seed=0, tail_bound=0.0) -> dict:
    """One inequality/identity verdict, shared by the verification sweeps
    and the CLI; its key order is the verify CSV's columns.

    `holds` is decided here only: `lhs sense rhs`, loosened by `slack`,
    and `requires`, a clause the printed sides cannot express. `sense` is
    "<", "<=", ">", ">=", "==" (|lhs - rhs| <= slack) or "info", which
    checks nothing; any other value, a bool included, raises ValueError.
    """
    verdict = _SENSES.get(sense)
    if verdict is None:
        raise ValueError(f"sense must be one of {', '.join(_SENSES)}, got {sense!r}")
    lhs, rhs = float(lhs), float(rhs)
    holds = bool(requires) and verdict(lhs, rhs, float(slack))
    return {"lemma": str(lemma), "seed": int(seed), "lhs": lhs, "rhs": rhs, "holds": holds,
            "tail_bound": float(tail_bound)}
