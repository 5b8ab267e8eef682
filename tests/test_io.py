"""The template writers against the routes they replace: dump_json against
json.dump(obj, indent=2) plus a newline, write_csv against one _cell call
per value; and read_matrix_text's rejection of non-finite entries."""

import io as _io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import io


def dumped(obj) -> str:
    out = _io.StringIO()
    io.dump_json(out, obj)
    return out.getvalue()


def want_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def assert_same(got: str, want: str) -> None:
    # names the first differing line: pytest's own diff of two outputs of
    # thousands of lines takes minutes
    if got != want:
        g, w = got.split("\n"), want.split("\n")
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"line {i}: {g[i:i + 1]} != {w[i:i + 1]} ({len(g)} vs {len(w)} lines)")


# repr switches to exponent notation at 1e16 and below 1e-4
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-5, 1e-4,
               0.0001234, 1e16, 9999999999999998.0, 1e15, -1e16, 1.7976931348623157e308,
               0.1, 1 / 3]
EDGE_STRS = ['"', "\\", 'say "hi"', "tab\there", "line\nbreak", "é", "θ = π/2",
             " ", "\U0001f600", ""]

finite_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(EDGE_FLOATS))
ints = st.one_of(st.integers(-5, 5), st.integers(), st.integers(-10**30, 10**30))
texts = st.one_of(st.text(max_size=8), st.sampled_from(EDGE_STRS))
COLUMNS = {"int": ints, "float": finite_floats, "number": st.one_of(ints, finite_floats),
           "str": texts}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=5))
    n = draw(st.integers(1, 12))
    rows = [[draw(COLUMNS[k]) for k in kinds] for _ in range(n)]
    return [tuple(r) for r in rows] if draw(st.booleans()) else rows


@given(tables(), st.dictionaries(texts, st.one_of(ints, finite_floats, texts), max_size=3))
@settings(max_examples=150, deadline=None)
def test_dump_json_tables_match_json(rows, scalars):
    assert io._json_table(rows) is not None
    obj = {**scalars, "rows": rows, "after": 1.5}
    assert_same(dumped(obj), want_json(obj))


@pytest.mark.parametrize("value", [
    [[1.0, math.nan]], [[math.inf, 2]], [[-math.inf], [0.5]],
    [[True, 1]], [[1, False]], [[None, 1.0]], [[1.0, 2.0], [3.0]], [[1, 2], []],
    [], [[]], [[], []], [[np.float64(0.1), 1.0]], [[[1, 2], [3, 4]]],
    [[{"a": 1}]], [[1, "a"], ["b", 2]], [1.0, 2.0], [[1.0], 2.0], "rows",
    np.array([[1.0, np.nan]]), np.array([[np.inf]]), np.zeros((0, 3)),
    np.zeros((2, 0)), np.array([[True, False]]),
])
def test_dump_json_fallback_values_match_json(value):
    assert io._json_table(value) is None
    obj = {"value": value, "nested": {"a": [1, {"b": None}], "c": []}, "nan": math.nan}
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in obj.items()}
    assert_same(dumped(obj), want_json(plain))


def test_dump_json_long_double_array_is_not_a_table():
    # its tolist keeps np.longdouble scalars, which json rejects as it rejects the array
    a = np.ones((2, 2), dtype=np.longdouble)
    assert io._json_table(a) is None
    with pytest.raises(TypeError):
        dumped({"a": a})


@pytest.mark.parametrize("obj", [{}, [1, [2.5, 3]], 1.5, None, "s",
                                 {1: [[1.0, 2.0]], "a": 2}, {"a": 1, None: 2}])
def test_dump_json_other_top_levels_match_json(obj):
    assert_same(dumped(obj), want_json(obj))


@pytest.mark.parametrize("n", [4095, 4096, 4097])
@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.float32])
def test_dump_json_arrays_across_chunk_edges(n, dtype):
    rng = np.random.default_rng(n)
    if dtype is np.int64:
        a = rng.integers(-2**62, 2**62, (n, 3))
    elif dtype is np.float32:
        a = rng.normal(size=(n, 3)).astype(np.float32)
    else:
        a = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-320, 300, (n, 3))
    assert io._json_table(a) is not None
    obj = {"N": n, "amplitudes": a, "rows": a.tolist()}
    assert_same(dumped(obj), want_json({"N": n, "amplitudes": a.tolist(), "rows": a.tolist()}))


def test_dump_json_str_table_across_chunk_edges():
    rows = [["R" if i % 3 else 'q"é', "L", i, 0.1 * i] for i in range(4097)]
    obj = {"rows": rows}
    assert_same(dumped(obj), want_json(obj))


CONSTANT_COLUMNS = {
    "zero": (lambda i: 0.0, "0.0"),
    "minus_zero": (lambda i: -0.0, "-0.0"),
    "float": (lambda i: -2.5e-300, "-2.5e-300"),
    "int": (lambda i: -7, "-7"),
    "str": (lambda i: '50% "done"', json.dumps('50%% "done"')),
}


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
@pytest.mark.parametrize("kind", sorted(CONSTANT_COLUMNS))
def test_dump_json_constant_column_is_a_literal(n, kind):
    value, literal = CONSTANT_COLUMNS[kind]
    rows = [[i, value(i), 0.5 * i] for i in range(n)]
    slots, _ = io._json_table(rows)
    assert slots == ["%r" if n > 1 else "0", literal, "%r" if n > 1 else "0.0"]
    assert_same(dumped({"rows": rows}), want_json({"rows": rows}))
    if kind != "str":
        a = np.array(rows, dtype=np.int64 if kind == "int" else np.float64)
        assert io._json_table(a)[0][1] == literal
        assert_same(dumped({"a": a}), want_json({"a": a.tolist()}))


@pytest.mark.parametrize("n", [2, 4095, 4096, 4097])
def test_dump_json_mixed_zero_signs_are_not_a_literal(n):
    # 0.0 == -0.0, but json prints them differently
    for last in (-0.0, 0.0):
        rows = [[0.0 if i < n - 1 else last, 1.0] for i in range(n)]
        rows[0][0] = -last
        a = np.array(rows)
        assert io._json_table(rows)[0][0] == "%r"
        assert io._json_table(a)[0] == ["%r", "1.0"]
        assert_same(dumped({"rows": rows, "a": a}), want_json({"rows": rows, "a": rows}))
    # ints and floats of one value print differently too
    rows = [[1], [1.0]] * (n // 2)
    assert io._json_table(rows)[0] == ["%r"]
    assert_same(dumped({"rows": rows}), want_json({"rows": rows}))


# ---------------------------------------------------------------------------
# CSV


def parent_write_csv(stream, header, rows):
    # the route write_csv replaces: one _cell call per value
    def cell(v):
        if isinstance(v, (float, np.floating)):
            return "%.17g" % float(v)
        return str(v)

    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(cell(v) for v in row) + "\n")


def both_csv(header, rows):
    got, want = _io.StringIO(), _io.StringIO()
    io.write_csv(got, header, list(rows))
    parent_write_csv(want, header, list(rows))
    return got.getvalue(), want.getvalue()


csv_cells = st.one_of(
    st.floats(), st.sampled_from(EDGE_FLOATS), ints, texts, st.booleans(), st.none(),
    st.floats(allow_nan=False).map(np.float64), st.integers(-9, 9).map(np.int64),
    st.floats(width=32).map(np.float32), st.tuples(st.integers(), st.floats()),
)


@given(st.lists(st.lists(csv_cells, max_size=5), max_size=12))
@settings(max_examples=150, deadline=None)
def test_write_csv_matches_cell_route(rows):
    got, want = both_csv(["a", "b"], rows)
    assert_same(got, want)


@given(st.lists(st.sampled_from([[1, 0.5, "R"], [2, 1e16, "L"], [3, 5e-324, "D"]]),
                min_size=1, max_size=8), st.integers(0, 7))
@settings(max_examples=100, deadline=None)
def test_write_csv_mixed_columns_match_cell_route(rows, at):
    # one column holding a float in some rows and an int or str in others
    rows = [list(r) for r in rows]
    rows[at % len(rows)][1] = at
    rows[-1][2] = 0.25
    got, want = both_csv(["i", "x", "s"], rows)
    assert_same(got, want)


@pytest.mark.parametrize("n", [4095, 4096, 4097])
def test_write_csv_across_chunk_edges(n):
    rows = [(i, "R", 0.1 * i, np.float64(i) / 7, -0.0) for i in range(n)]
    rows[n // 2] = (1, 2)
    got, want = both_csv(["a", "b", "c", "d", "e"], rows)
    assert_same(got, want)


def test_write_csv_takes_generator_rows():
    def rows():
        for i in range(5):
            yield (v for v in (i, 0.5 * i, "x"))

    got, want = _io.StringIO(), _io.StringIO()
    io.write_csv(got, ["a", "b", "c"], rows())
    parent_write_csv(want, ["a", "b", "c"], [(i, 0.5 * i, "x") for i in range(5)])
    assert_same(got.getvalue(), want.getvalue())


@pytest.mark.parametrize("text,where", [
    ("1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 -inf", "row 4, column 4"),
    (json.dumps({"entries_re": np.eye(4).tolist(),
                 "entries_im": [[0, 0, 0, 0], [0, 0, math.nan, 0], [0] * 4, [0] * 4]}),
     "row 2, column 3"),
])
def test_read_matrix_text_rejects_non_finite(text, where):
    # the CLI tests cover NaN and +inf in real entries; these add -inf and
    # a non-finite imaginary part
    with pytest.raises(ValueError, match=f"^matrix entry in {where} is not finite$"):
        io.read_matrix_text(text)
