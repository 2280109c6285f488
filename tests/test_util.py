import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertlab import gaps, lowerbound, quadforms, search
from hilbertlab._util import (
    Rows, count, cotpi, record, sinpi_abs, sinpi_abs_cotpi, to_json, to_json_lines,
)


def jsonable(obj):
    """The report encoding as first released, the reference for to_json:
    floats rounded to 12 digits, non-finite floats as strings."""
    if type(obj) is float:
        return float(f"{obj:.12g}") if math.isfinite(obj) else repr(obj)
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


def document(obj) -> str:
    return json.dumps(jsonable(obj), indent=2)


def compact(obj) -> str:
    return json.dumps(jsonable(obj), separators=(",", ":"))


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -3.0, 1e11, 1e12, 1e16, 1e17, 123456789012.5, 0.0001,
                  1e-5, 5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan]
FLOATS = (st.floats()
          | st.sampled_from(SPECIAL_FLOATS)
          | st.integers(-10 ** 17, 10 ** 17).map(float)
          | st.floats(1e11, 1e17)
          | st.floats(-1e17, -1e11)
          | st.floats(0.0, 2.2250738585072014e-308))
SPECIAL_TEXT = ['"', "\n", "\\", "é", "ünïcode ☃", "%", "%s", "%%", "100%d", "\t\x00", "\U0001f600"]
TEXT = st.text(max_size=8) | st.sampled_from(SPECIAL_TEXT)
NUMPY_SCALARS = (st.floats().map(np.float64)
                 | st.floats(width=32).map(np.float32)
                 | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
                 | st.booleans().map(np.bool_))
SCALARS = (FLOATS | st.integers(-2 ** 70, 2 ** 70) | st.booleans() | st.none() | TEXT
           | NUMPY_SCALARS)
ARRAYS = (st.lists(FLOATS, max_size=6).map(lambda v: np.array(v, dtype=float))
          | st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(
              lambda v: np.array(v).reshape(-1, 1))
          | st.lists(st.booleans(), max_size=4).map(lambda v: np.array(v, dtype=bool)))


@st.composite
def rows(draw, values=SCALARS):
    """Flat dicts sharing their keys, the shape of a report's results."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    row = st.fixed_dictionaries({key: values for key in keys})
    return draw(st.lists(row | st.dictionaries(TEXT, values, max_size=3), max_size=6))


REPORTS = st.recursive(
    SCALARS | ARRAYS,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(TEXT, children, max_size=5)
                      | rows(children)
                      | rows()),
    max_leaves=25,
)


class TestReportRenderer:
    """to_json and to_json_lines write the text json.dumps wrote of the
    jsonable encoding."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(REPORTS)
    def test_document_matches_json_dumps(self, obj):
        assert to_json(obj) == document(obj)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(REPORTS)
    def test_compact_matches_json_dumps(self, obj):
        assert to_json_lines([obj]) == compact(obj)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(REPORTS, min_size=1, max_size=6) | rows())
    def test_lines_match_json_dumps(self, items):
        assert to_json_lines(items) == "\n".join(map(compact, items))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(TEXT, min_size=1, max_size=4, unique=True).flatmap(
        lambda keys: st.tuples(st.just(keys), st.lists(
            st.lists(FLOATS, min_size=len(keys), max_size=len(keys))
            | st.lists(SCALARS, min_size=len(keys), max_size=len(keys)), max_size=6))))
    def test_rows_render_as_their_dicts(self, table):
        # a Rows item, between other items, gives the text of its row dicts
        keys, rows = table
        dicts = [dict(zip(keys, row)) for row in rows]
        columns = {key: [row[i] for row in rows] for i, key in enumerate(keys)}
        items, expanded = [{"k": 1}, Rows(columns), dicts[:1]], [{"k": 1}, *dicts, dicts[:1]]
        assert to_json(items) == document(expanded)
        assert to_json_lines(items) == "\n".join(map(compact, expanded))
        assert to_json([Rows(columns)]) == document(dicts)

    def test_rows_reject_containers(self):
        with pytest.raises(TypeError):
            to_json([Rows({"a": [1.0, [2.0]]})])

    def test_cells(self):
        # the float cases one by one, and empty containers
        for value in [*SPECIAL_FLOATS, np.float32(0.1), np.float64(1e-7), np.int64(-4),
                      np.bool_(False), (), [], {}, np.zeros(0), {"%s": {}}]:
            assert to_json(value) == document(value)
            assert to_json_lines([value]) == compact(value)


class TestReducedTrig:
    """sinpi_abs is even and cotpi odd, bit for bit, and both keep full
    relative precision near integers of either sign."""

    POINTS = [1e-10, 3e-9, 8e-5, 0.1, 0.25, 0.5, 0.7, 1.0 - 1e-9, 1.3, 2.0 + 1e-7, 17.25]

    def test_parity(self):
        y = np.array(self.POINTS)
        assert np.array_equal(sinpi_abs(-y), sinpi_abs(y))
        assert np.array_equal(cotpi(-y), -cotpi(y))
        for v in self.POINTS:
            assert sinpi_abs(-v) == sinpi_abs(v)
            assert cotpi(-v) == -cotpi(v)

    @pytest.mark.parametrize("y", [1e-10, -1e-10, 8e-5, -8e-5, 1.0 - 1e-9, -(1.0 - 1e-9)])
    def test_relative_precision_against_mpmath(self, y):
        with mpmath.workdps(40):
            sine = mpmath.sin(mpmath.pi * mpmath.mpf(y))
            want_sin, want_cot = float(abs(sine)), float(mpmath.cos(mpmath.pi * mpmath.mpf(y)) / sine)
        sines, cots = sinpi_abs_cotpi(y)
        for got, want in ((sinpi_abs(y), want_sin), (sines, want_sin),
                          (cotpi(y), want_cot), (cots, want_cot)):
            assert abs(got - want) <= 4e-16 * abs(want)


# a call per count argument that once let a non-integer through, or failed
# on it with an untyped error: (argument, call with that argument set to x)
COUNT_CALLS = (
    ("n", lambda x: quadforms.uniform_lower_bound(x)),
    ("n", lambda x: quadforms.cluster_lower_bound(0.5, x)),
    ("n", lambda x: gaps.generate_uniform(x, 1.0)),
    ("n", lambda x: gaps.generate_cluster(x)),
    ("n", lambda x: gaps.generate_random(x, 0.2, 0)),
    ("n", lambda x: search.generate_trig_periodized(x)),
    ("K", lambda x: lowerbound.kappas(x, 0.01)),
    ("L", lambda x: lowerbound.l_sum(0.5, x)),
    ("L", lambda x: lowerbound.cot_limit_check(2, 0.1, x)),
    ("L", lambda x: lowerbound.construction_config(2, 0.1, x, 1.0)),
    ("k_min", lambda x: lowerbound.scan(x, 12, 3)),
    ("k_max", lambda x: lowerbound.scan(1, x, 3)),
    ("a_steps", lambda x: lowerbound.scan(1, 2, x)),
    ("k_periods", lambda x: lowerbound.periodize(lowerbound.trig_config([0.0], [1.0]), x)),
    ("k_periods", lambda x: lowerbound.periodized_equivalence_check(
        lowerbound.trig_config([0.0, 0.5], [1.0, 1.0]), x)),
    ("n", lambda x: search.search_constant(0.5, x, restarts=1, rounds=1)),
    ("restarts", lambda x: search.search_constant(0.5, 3, restarts=x, rounds=1)),
    ("rounds", lambda x: search.search_constant(0.5, 3, restarts=1, rounds=x)),
    ("rounds", lambda x: search.hill_climb(0.5, gaps.generate_uniform(4, 1.0), x)),
)


class TestCountArguments:
    @pytest.mark.parametrize("name, call", COUNT_CALLS)
    @pytest.mark.parametrize("value", (12.5, 12.0, "12", None))
    def test_a_count_that_is_no_integer_names_its_argument(self, name, call, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call(value)

    @pytest.mark.parametrize("name, call", COUNT_CALLS)
    def test_numpy_integers_pass(self, name, call):
        assert call(np.int64(12)) is not None

    def test_count(self):
        assert count("n", np.int32(3), 1) == 3 and type(count("n", np.int32(3), 1)) is int
        with pytest.raises(ValueError, match="^n must be >= 4, got 3$"):
            count("n", 3, 4)
        with pytest.raises(ValueError, match=r"^n must be an integer, got 2\.5$"):
            count("n", 2.5, 1)


SENSES = ("<", "<=", ">", ">=", "==")
UP, DOWN = np.nextafter(1.5, 2.0), np.nextafter(0.5, 0.0)


def holds(lhs, rhs, sense, slack=0.0, **kwargs):
    return record("lemma", lhs, rhs, sense, slack, **kwargs)["holds"]


class TestRecord:
    def test_keys_values_and_their_order(self):
        rec = record(3, np.float64(0.25), 1, "<=", 1e-9, requires=np.bool_(True), seed=np.int64(7),
                     tail_bound=2)
        assert list(rec) == ["lemma", "seed", "lhs", "rhs", "holds", "tail_bound"]
        assert rec == {"lemma": "3", "seed": 7, "lhs": 0.25, "rhs": 1.0, "holds": True,
                       "tail_bound": 2.0}
        assert [type(v) for v in rec.values()] == [str, int, float, float, bool, float]

    @pytest.mark.parametrize("sense, expected", (
        ("<", False), ("<=", True), (">", False), (">=", True), ("==", True), ("info", True)))
    def test_each_sense_at_equality(self, sense, expected):
        assert holds(1.0, 1.0, sense) is expected

    @pytest.mark.parametrize("sense, inside, edge, outside", (
        ("<", 1.25, 1.5, UP),
        ("<=", 1.5, 1.5, UP),
        (">", 0.75, 0.5, DOWN),
        (">=", 0.5, 0.5, DOWN),
        ("==", 0.5, 1.5, UP),
        ("==", 1.5, 0.5, 0.5 - 2.0 ** -53),
    ))
    def test_each_sense_at_the_slack_edge(self, sense, inside, edge, outside):
        # rhs 1 and slack 1/2: every bound is exact in binary, and so is
        # each |lhs - rhs| of "==" (1 - DOWN would round to 1/2)
        assert holds(inside, 1.0, sense, 0.5)
        assert holds(edge, 1.0, sense, 0.5) is (sense not in ("<", ">"))
        assert not holds(outside, 1.0, sense, 0.5)
        assert holds(outside, 1.0, "info", 0.5)

    @pytest.mark.parametrize("sense", SENSES)
    @pytest.mark.parametrize("where", range(3))
    def test_nan_fails_every_sense_but_info(self, sense, where):
        args = [1.0, 1.0, 1.0]
        args[where] = math.nan
        assert not holds(*args[:2], sense, args[2])
        assert holds(*args[:2], "info", args[2])

    @pytest.mark.parametrize("sense", (*SENSES, "info"))
    def test_requires_fails_every_sense(self, sense):
        assert holds(1.0, 1.0, sense, 1.0)
        assert not holds(1.0, 1.0, sense, 1.0, requires=False)
        assert not holds(1.0, 1.0, sense, 1.0, requires=np.bool_(False))

    @pytest.mark.parametrize("sense", ("=<", "!=", "", "INFO", None, True, False, 1, 0))
    def test_any_other_sense_raises(self, sense):
        with pytest.raises(ValueError, match="^sense must be one of <, <=, >, >=, ==, info, got "):
            record("lemma", 1.0, 2.0, sense)
