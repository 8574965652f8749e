import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udes import cli
from udes.cli import (
    BUILTIN_NAMES,
    FileFormatError,
    emit_json,
    format_number,
    load_unitary_set,
    main,
    parse_unitary_set,
    save_unitary_set,
    set_payload,
)
from udes.designs import named_design
from udes.errors import UdesError
from udes.qubit import pauli
from udes.su2 import PAULI_BASIS, su2_batch
from udes.twirl import HaarSampler, UnitarySet, haar_sample


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# ---- serialization ------------------------------------------------------------


def test_format_number_is_shortest_lossless():
    for x in (0.5, 1 / 3, 2.0, 1e-10, math.pi, -1.2091995761561452):
        assert float(format_number(x)) == x
    assert format_number(2.0) == "2"
    assert format_number(True) == "true"
    assert format_number(7) == "7"


def test_emit_json_round_trips_through_stdlib():
    doc = {"a": [1.0, 0.3333333333333333], "b": {"c": None, "d": "x"}, "e": [[1, 2], [3, 4]]}
    assert json.loads(emit_json(doc)) == doc


def test_negative_zero_is_normalized():
    assert format_number(-0.0) == "0"


def _inline_reference(value) -> str:
    if isinstance(value, dict):
        body = ", ".join(f"{json.dumps(k)}: {_inline_reference(v)}" for k, v in value.items())
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_inline_reference(v) for v in value) + "]"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    return format_number(value)


def emit_json_reference(value, indent: int = 0) -> str:
    """The two-pass layout emit_json replaced: every level inlines its whole
    subtree, then recurses.  Kept as the oracle for the single pass."""
    flat = _inline_reference(value)
    if len(flat) <= 100 - 2 * indent or not isinstance(value, (dict, list, tuple)):
        return flat
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(value, dict):
        lines = [f"{inner}{json.dumps(k)}: {emit_json_reference(v, indent + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    lines = [f"{inner}{emit_json_reference(v, indent + 1)}" for v in value]
    return "[\n" + ",\n".join(lines) + "\n" + pad + "]"


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.just(-0.0)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | st.text(max_size=30)
)


@st.composite
def _documents(draw):
    """A document of up to 60 scalars nested by a drawn plan.  Each step of
    the plan moves the next 0 to 10 scalars onto a stack, then wraps its top
    0 to 10 entries (8 in a dict) into a list, a tuple or a dict; the
    document is the last entry built, or a scalar when the plan is empty.
    Containers of up to 10 items of up to 30 characters have one-line forms
    from 2 to several hundred columns, so nodes fall on both sides of the
    width limit.  One flat draw of scalars is far cheaper than st.recursive."""
    scalars = draw(st.lists(_SCALARS, max_size=60))
    plan = draw(
        st.lists(
            st.tuples(st.integers(0, 10), st.sampled_from((list, tuple, dict)), st.integers(0, 10)),
            max_size=20,
        )
    )
    stack = []
    for push, kind, k in plan:
        stack += scalars[:push]
        del scalars[:push]
        k = min(k, len(stack), 8 if kind is dict else 10)
        items = stack[len(stack) - k :]
        del stack[len(stack) - k :]
        if kind is dict:
            items = zip(draw(st.lists(st.text(max_size=12), min_size=k, max_size=k)), items)
        stack.append(kind(items))
    if stack:
        return stack[-1]
    return scalars[0] if scalars else None


_DOCUMENTS = _documents()


@settings(max_examples=300, deadline=None)
@given(value=_DOCUMENTS, indent=st.integers(min_value=0, max_value=3))
def test_emit_json_matches_the_two_pass_layout(value, indent):
    assert emit_json(value, indent) == emit_json_reference(value, indent)


@pytest.mark.parametrize("indent", [0, 1, 2, 3])
@pytest.mark.parametrize("spare", [-1, 0, 1])
def test_emit_json_width_limit_is_100_minus_twice_the_indent(indent, spare):
    # a list whose one-line form is `spare` columns inside the limit, alone
    # and one level down, where the limit is 2 columns narrower
    width = 100 - 2 * indent - spare
    doc = ["x" * (width - 4)]
    assert len(json.dumps(doc)) == width
    assert (emit_json(doc, indent) == json.dumps(doc)) is (spare >= 0)
    assert emit_json(doc, indent) == emit_json_reference(doc, indent)
    nested = {"k": doc, "n": [1.5, -0.0, np.float64(2.0)]}
    assert emit_json(nested, indent) == emit_json_reference(nested, indent)


@pytest.mark.parametrize("key", [3, None, 1.5, True])
def test_emit_json_refuses_a_key_that_is_not_a_string(key):
    # {3: 1} would be no JSON at all; no report has such a key
    for doc in ({key: 1}, {"a": [{key: [1]}]}):
        with pytest.raises(TypeError):
            emit_json(doc)


@pytest.mark.parametrize("s", ["a\nb", "\r", "x\u2028y", "\n\r\u2028" * 8])
@pytest.mark.parametrize("indent", [0, 2])
def test_emit_json_keeps_escaped_line_breaks_on_one_line(s, indent):
    # JSON escapes them, so a node that holds them in a key or a value stays
    # on one line exactly when its escaped form fits
    for doc in ({s: s}, [s, 1.5], {"k": [s], s: {"n": None}}):
        text = emit_json(doc, indent)
        assert text == emit_json_reference(doc, indent)
        assert json.loads(text) == doc
        assert ("\n" in text) is (len(_inline_reference(doc)) > 100 - 2 * indent)


@st.composite
def _rows_near_the_width(draw):
    """(rows, indent): a list at `indent` of rows of numbers whose one-line
    forms lie within 3 columns of the width limit one level down, 100 -
    2 (indent + 1): some floats, filled up to the drawn width with ints."""
    indent = draw(st.integers(min_value=0, max_value=3))
    limit = 100 - 2 * (indent + 1)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        target = limit + draw(st.integers(min_value=-3, max_value=3))
        row = draw(st.lists(st.floats(allow_nan=False) | st.just(-0.0), max_size=4))
        # each further int takes ", " and at least one digit
        while row and (rest := target - len(_inline_reference(row))) != 0 and rest < 3:
            row.pop()
        while (rest := target - len(_inline_reference(row))) > 0:
            room = rest - (2 if row else 0)
            digits = room if room <= 15 else (15 if room - 15 >= 3 else 12)
            row.append(draw(st.integers(min_value=10 ** (digits - 1), max_value=10**digits - 1)))
        assert len(_inline_reference(row)) == target
        rows.append(row)
    return rows, indent


@settings(max_examples=200, deadline=None)
@given(_rows_near_the_width())
def test_emit_json_lays_out_rows_of_numbers_at_the_width_limit(case):
    rows, indent = case
    assert emit_json(rows, indent) == emit_json_reference(rows, indent)


def _numeric_leaves(value) -> int:
    if isinstance(value, dict):
        return sum(_numeric_leaves(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_numeric_leaves(v) for v in value)
    return int(value is not None and not isinstance(value, str))


def _wide_number_rows(value, indent: int = 0) -> int:
    """The rows of numbers in a report too wide for one line where they sit."""
    if isinstance(value, dict):
        return sum(_wide_number_rows(v, indent + 1) for v in value.values())
    if not isinstance(value, (list, tuple)):
        return 0
    if value and all(type(x) in (int, float) for x in value):
        return int(len(_inline_reference(value)) > 100 - 2 * indent)
    return sum(_wide_number_rows(v, indent + 1) for v in value)


@pytest.mark.parametrize(
    "argv",
    [
        ["table"],
        ["geometry", "--builtin", "D"],
        ["construct", "--from", "pauli"],
        # generic input, with quaternion rows too wide for one line
        ["geometry", "--file", "{conjugated}"],
    ],
)
def test_emit_json_formats_each_number_once(monkeypatch, tmp_path, argv):
    if "{conjugated}" in argv:
        # D conjugated by a Haar unitary and rephased, like the benchmark's set
        # files; at this seed the element conjugated from 1 has the quaternion
        # [0.99999999999999978, -1.4671839369134548e-18, ...], 96 columns wide
        path = tmp_path / "conjugated.json"
        V = haar_sample(HaarSampler(20))
        save_unitary_set(UnitarySet([1j**k * V @ U @ V.conj().T for k, U in enumerate(named_design("D").set)]), path)
        argv = [a.format(conjugated=path) for a in argv]
    args = cli.build_parser().parse_args(argv)
    report, _ = cli.build_report(args)
    if "--file" in argv:
        assert _wide_number_rows(report) > 0
    calls = []
    real = cli.format_number

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(cli, "format_number", counted)
    text = emit_json(report)
    assert "\n" in text  # deep enough that the two-pass layout formats numbers repeatedly
    assert len(calls) == _numeric_leaves(report)


def _number_types(value) -> set:
    if isinstance(value, dict):
        return set().union(*map(_number_types, value.values()))
    if isinstance(value, (list, tuple)):
        return set().union(*map(_number_types, value))
    return set() if value is None or isinstance(value, (str, bool)) else {type(value)}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--builtin", "D"],
        ["construct", "--from", "pauli"],
        ["frame-potential", "--builtin", "D"],
        ["group", "--builtin", "D"],
        ["geometry", "--builtin", "D"],
        ["table"],
        ["mc", "--t", "1", "--samples", "1000"],
        ["mc", "--t", "2", "--samples", "1000"],
    ],
)
def test_reports_hold_plain_numbers(argv):
    # emit_json lays out a row of numbers in one join only when each is an
    # int or a float; a numpy scalar sends the row down the recursive path
    args = cli.build_parser().parse_args(argv)
    report, _ = cli.build_report(args)
    assert _number_types(report) <= cli._NUMBER_TYPES


def test_save_load_round_trip_is_bit_identical(tmp_path):
    S = UnitarySet([pauli(m) for m in range(4)], labels=list("1XYZ"))
    p = tmp_path / "s.json"
    save_unitary_set(S, str(p))
    loaded, digest = load_unitary_set(str(p))
    assert len(digest) == 64
    again = tmp_path / "t.json"
    save_unitary_set(loaded, str(again))
    assert p.read_text() == again.read_text()
    assert loaded.labels == ("1", "X", "Y", "Z")


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ([1, 2], "top-level"),
        ({"unitaries": []}, "required"),
        ({"dim": "2", "unitaries": [[[1, 0]]]}, "dim"),
        ({"dim": 2, "unitaries": "nope"}, "nonempty list"),
        ({"dim": 2, "unitaries": [[[[1, 0], [0, 0]]]]}, "unitaries[0]: expected 2 rows"),
        ({"dim": 2, "unitaries": [[[[1, 0]], [[0, 0]]]]}, "unitaries[0][0]: expected 2 entries"),
        (
            {"dim": 2, "unitaries": [[[[1, 0], [0]], [[0, 0], [1, 0]]]]},
            "unitaries[0][0][1]",
        ),
        (
            {"dim": 2, "unitaries": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "labels": ["a", "b"]},
            "labels",
        ),
    ],
)
def test_parse_diagnostics_name_the_offending_field(doc, fragment):
    from udes.cli import FileFormatError

    with pytest.raises(FileFormatError) as err:
        parse_unitary_set(doc)
    assert fragment in str(err.value)


def _reference_parse(raw) -> np.ndarray:
    """The (n, 2, 2) stack of `unitaries` entry by entry, as every file was
    parsed before the one-array path; kept as the oracle for it."""
    mats = []
    for k, mat in enumerate(raw):
        if not isinstance(mat, list) or len(mat) != 2:
            raise FileFormatError(f"unitaries[{k}]: expected 2 rows")
        out = np.empty((2, 2), dtype=complex)
        for i, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != 2:
                raise FileFormatError(f"unitaries[{k}][{i}]: expected 2 entries")
            for j, value in enumerate(row):
                where = f"unitaries[{k}][{i}][{j}]"
                if (
                    not isinstance(value, (list, tuple))
                    or len(value) != 2
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
                ):
                    raise FileFormatError(f"{where}: expected a [re, im] pair, got {value!r}")
                if not all(abs(v) <= sys.float_info.max for v in value):
                    raise FileFormatError(f"{where}: expected finite real and imaginary parts")
                out[i, j] = complex(float(value[0]), float(value[1]))
        mats.append(out)
    return np.stack(mats)


def _good_unitaries(n: int, seed: int) -> list:
    h = HaarSampler(seed)
    return [cli.matrix_payload(haar_sample(h)) for _ in range(n)]


#: one bad number, entry, row or matrix in place of a good one
_DEFECTS = {
    "bool": lambda m, i, j, p: _set_number(m, i, j, p, True),
    "numeric string": lambda m, i, j, p: _set_number(m, i, j, p, "1.5"),
    "null": lambda m, i, j, p: _set_number(m, i, j, p, None),
    "nan": lambda m, i, j, p: _set_number(m, i, j, p, math.nan),
    "1e999": lambda m, i, j, p: _set_number(m, i, j, p, float("1e999")),
    "10**400": lambda m, i, j, p: _set_number(m, i, j, p, 10**400),
    "nested number": lambda m, i, j, p: _set_number(m, i, j, p, [0.5]),
    "3-item entry": lambda m, i, j, p: _set_entry(m, i, j, [0.5, 0.5, 0.5]),
    "1-item entry": lambda m, i, j, p: _set_entry(m, i, j, [0.5]),
    "dict entry": lambda m, i, j, p: _set_entry(m, i, j, {"re": 1, "im": 0}),
    "nested entry": lambda m, i, j, p: _set_entry(m, i, j, [m[i][j]]),
    "ragged row": lambda m, i, j, p: m[i].append([0, 0]) if p else m[i].pop(),
    "nested matrix": lambda m, i, j, p: m.__setitem__(slice(None), [list(m)]),
}


def _set_number(m, i, j, p, value):
    m[i][j][p] = value


def _set_entry(m, i, j, value):
    m[i][j] = value


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_DEFECTS)),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=7),
)
def test_bulk_parse_names_the_entry_the_per_entry_path_names(defect, n, seed, where):
    raw = _good_unitaries(n, seed)
    k = seed % n
    _DEFECTS[defect](raw[k], where >> 2, (where >> 1) & 1, where & 1)
    with pytest.raises(FileFormatError) as want:
        _reference_parse(raw)
    with pytest.raises(FileFormatError) as got:
        parse_unitary_set({"dim": 2, "unitaries": raw})
    assert str(got.value) == str(want.value)
    assert str(want.value).startswith(f"unitaries[{k}]")


_FLOAT_MAX = sys.float_info.max

#: the float maximum itself takes the per-entry path; see the test after next
_GOOD_NUMBERS = (
    st.floats(min_value=-_FLOAT_MAX, max_value=_FLOAT_MAX, exclude_min=True, exclude_max=True)
    | st.just(-0.0)
    | st.sampled_from([5e-324, -2.2250738585072014e-308, 1e-310, _FLOAT_MAX * (1 - 2**-52)])
    | st.integers(min_value=-(10**300), max_value=10**300)
    | st.integers(min_value=-3, max_value=3)
)


def _pairs(inner):
    return st.lists(inner, min_size=2, max_size=2)


@settings(max_examples=100, deadline=None)
@given(st.lists(_pairs(_pairs(_pairs(_GOOD_NUMBERS))), min_size=1, max_size=8))
def test_bulk_parse_matches_the_per_entry_stack_bit_for_bit(raw):
    got = cli._stack_of(raw)
    assert got is not None  # a well-formed list takes the one-array path
    assert got.tobytes() == _reference_parse(raw).tobytes()


@pytest.mark.parametrize(
    "value", [_FLOAT_MAX, int(_FLOAT_MAX) + 1, int(_FLOAT_MAX) + 2**970 - 1], ids=["max", "max+1", "rounds-to-max"]
)
def test_numbers_at_the_float_maximum_take_the_per_entry_path(value):
    # an int beyond the float maximum that rounds to it is refused, the maximum itself is not
    raw = [[[[value, 0], [0, 0]], [[0, 0], [1, 0]]]]
    assert float(value) == _FLOAT_MAX and cli._stack_of(raw) is None
    if type(value) is float:
        assert cli._matrix(raw[0], "unitaries[0]").tobytes() == _reference_parse(raw)[0].tobytes()
        return
    with pytest.raises(FileFormatError) as want:
        _reference_parse(raw)
    with pytest.raises(FileFormatError) as got:
        parse_unitary_set({"dim": 2, "unitaries": raw})
    assert str(got.value) == str(want.value) == "unitaries[0][0][0]: expected finite real and imaginary parts"


def test_bulk_parse_keeps_ints_negative_zero_and_labels_of_a_unitary_file():
    raw = [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[0, 0], [1, 0]], [[1, -0.0], [0, 0]]]]
    S = parse_unitary_set({"dim": 2, "unitaries": raw, "labels": ["1", "X"]})
    assert S.stack.tobytes() == _reference_parse(raw).tobytes()
    assert S.labels == ("1", "X")


BAD_NUMBER = '{"dim": 2, "unitaries": [[[%s, [0, 0]], [[0, 0], [1, 0]]]]}'


@pytest.mark.parametrize(
    "text,fragment",
    [
        (BAD_NUMBER % "[NaN, 0]", "unitaries[0][0][0]: expected finite"),
        (BAD_NUMBER % "[0, Infinity]", "unitaries[0][0][0]: expected finite"),
        (BAD_NUMBER % "[1e999, 0]", "unitaries[0][0][0]: expected finite"),
        (BAD_NUMBER % f"[{10**400}, 0]", "unitaries[0][0][0]: expected finite"),
        (BAD_NUMBER % f"[{'9' * 5000}, 0]", "integer string conversion"),
        ("[" * 100000, "recursion"),
    ],
    ids=["nan", "infinity", "1e999", "10**400", "5000-digits", "deep"],
)
def test_set_files_with_bad_numbers_exit_2_in_one_line(tmp_path, capsys, text, fragment):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code, out, err = run(capsys, "verify", "--file", str(p))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and fragment in err


def test_a_huge_finite_entry_is_not_unitary_in_one_line(tmp_path, capsys):
    p = tmp_path / "huge.json"
    p.write_text(BAD_NUMBER % "[1e308, 0]")
    code, out, err = run(capsys, "verify", "--file", str(p))
    assert code == 4 and out == ""
    assert err.splitlines() == ["error: element 0: matrix is not unitary: ||U^H U - 1|| = nan > 1.0e-10"]


def test_unknown_fields_warn_or_fail(tmp_path, capsys):
    p = tmp_path / "u.json"
    p.write_text('{"dim": 2, "unitaries": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "comment": "hi"}')
    code, _, err = run(capsys, "frame-potential", "--file", str(p), "--t", "1")
    assert code == 0
    assert "comment" in err
    code, _, err = run(capsys, "frame-potential", "--file", str(p), "--t", "1", "--strict")
    assert code == 2
    assert "comment" in err


# ---- verify -------------------------------------------------------------------


def test_verify_design_builtin(capsys):
    code, doc = run_json(capsys, "verify", "--builtin", "D", "--t", "2")
    assert code == 0
    assert doc["result"]["is_design"] is True
    assert doc["result"]["frame_gap"] <= 1e-12
    assert doc["tolerance"] == 1e-10


def test_verify_rejects_pauli_at_order_two(capsys):
    code, doc = run_json(capsys, "verify", "--builtin", "pauli", "--t", "2")
    assert code == 1
    assert doc["result"]["is_design"] is False
    assert doc["result"]["frame_gap"] == pytest.approx(2.0)


def test_verify_unsupported_order(capsys):
    code, out, err = run(capsys, "verify", "--builtin", "D", "--t", "6")
    assert (code, out) == (3, "")
    assert err == "error: twirl order must be <= 5, got 6: its superoperator would have 4^12 entries\n"


def test_verify_finds_d_no_3_design(capsys):
    code, doc = run_json(capsys, "verify", "--builtin", "D", "--t", "3")
    assert code == 1
    assert doc["result"]["is_design"] is False
    assert doc["result"]["frame_gap"] == 1 and doc["result"]["haar_value"] == 5


def text_fields(text: str) -> dict:
    return dict(l.split(": ", 1) for l in text.splitlines() if ": " in l)


def test_verify_text_and_json_print_the_same_numbers(capsys):
    code, text, _ = run(capsys, "verify", "--builtin", "pauli", "--t", "2")
    _, doc = run_json(capsys, "verify", "--builtin", "pauli", "--t", "2")
    assert float(text_fields(text)["frame gap"]) == doc["result"]["frame_gap"]
    args = ("mc", "--t", "1", "--samples", "3000", "--seed", "5")
    _, text, _ = run(capsys, *args)
    _, doc = run_json(capsys, *args)
    fields, result = text_fields(text), doc["result"]
    assert float(fields["max deviation"]) == result["max_deviation"]
    assert float(fields["max deviation / SE"]) == result["max_ratio"]
    sampler = result["sampler"]
    assert sampler == {"seed": 5, "counter_start": 0, "counter_end": 3000}
    for key, value in sampler.items():
        assert int(fields["sampler " + key.replace("_", " ")]) == value


#: the keys of each command's report, in order: the header, then the body
ENVELOPES = {
    "verify": ["command", "source", "t", "method", "tolerance", "result"],
    "construct": ["command", "source", "tolerance", "classification", "design", "verification"],
    "frame-potential": ["command", "source", "t", "tolerance", "result"],
    "group": ["command", "source", "tolerance", "result"],
    "geometry": ["command", "source", "tolerance", "result"],
    "mc": ["command", "t", "result"],
    "table": ["command", "result"],
}

ENVELOPE_CASES = [
    ["verify", "--builtin", "D"],
    ["verify", "--file", "{pauli}", "--t", "1", "--method", "frame", "--tol", "1e-9"],
    ["construct", "--builtin", "pauli"],
    ["construct", "--file", "{pauli}", "--tol", "1e-9"],
    ["construct", "--from", "file", "{pauli}"],
    ["frame-potential", "--builtin", "B"],
    ["frame-potential", "--file", "{pauli}", "--t", "1", "--tol", "1e-9"],
    ["group", "--builtin", "D1"],
    ["group", "--file", "{pauli}"],
    ["geometry", "--builtin", "B0"],
    ["geometry", "--file", "{pauli}", "--tol", "1e-9"],
    ["mc", "--t", "1", "--samples", "1000"],
    ["table"],
]


@pytest.mark.parametrize("argv", ENVELOPE_CASES, ids=" ".join)
def test_every_report_opens_with_one_header_in_text_and_json(tmp_path, capsys, argv):
    path = tmp_path / "pauli.json"
    save_unitary_set(UnitarySet([pauli(m) for m in range(4)], labels=list("1XYZ")), str(path))
    argv = [a.format(pauli=path) for a in argv]
    _, text, err = run(capsys, *argv)
    _, doc = run_json(capsys, *argv)
    assert err == ""
    assert list(doc) == ENVELOPES[argv[0]]
    expected = []  # the header as (label, value) pairs, from the JSON report
    for key in doc:
        if key == "source":
            source = doc["source"]
            if source["kind"] == "builtin":
                assert list(source) == ["kind", "name"] and source["name"] == argv[2]
                expected.append(("source", f"builtin {source['name']}"))
            else:
                assert list(source) == ["kind", "path", "sha256"] and source["path"] == str(path)
                assert source["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
                expected += [("source", f"file {path}"), ("sha256", source["sha256"])]
        elif key in ("command", "t", "method", "tolerance"):
            expected.append((key, doc[key]))
    header = [tuple(l.split(": ", 1)) for l in text.splitlines()[: len(expected)]]
    assert [label for label, _ in header] == [label for label, _ in expected]
    for (_, shown), (_, value) in zip(header, expected):
        assert type(value)(shown) == value
    tol = float(argv[argv.index("--tol") + 1]) if "--tol" in argv else cli.EQ_TOL
    assert doc.get("tolerance", tol) == tol


@pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-8])
def test_verify_near_design_file_gives_a_verdict(tmp_path, capsys, eps):
    from udes.designs import named_design

    elems = list(named_design("D").set)
    elems[5] = (np.cos(eps) * np.eye(2) - 1j * np.sin(eps) * pauli(1)) @ elems[5]
    src = tmp_path / "near.json"
    save_unitary_set(UnitarySet(elems), str(src))
    code, _, err = run(capsys, "verify", "--file", str(src), "--t", "2")
    assert code == 1
    assert err == ""


def test_internal_consistency_failure_has_its_own_exit_code(monkeypatch, capsys):
    from udes import designs
    from udes.errors import InternalConsistencyError

    def broken(*args, **kwargs):
        raise InternalConsistencyError("checks disagree")

    monkeypatch.setattr(designs, "verify_design", broken)
    code, out, err = run(capsys, "verify", "--builtin", "D")
    assert code == 6
    assert out == ""
    assert err.splitlines() == ["error: checks disagree"]


def test_an_interrupt_exits_130_in_one_line(monkeypatch, capsys):
    # Ctrl-C in a long mc run: no traceback, one error line, the shell's 128 + SIGINT
    from udes import twirl

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(twirl, "mc_oracle_check", interrupted)
    code, out, err = run(capsys, "mc", "--samples", "1000")
    assert code == 130
    assert out == ""
    assert err.splitlines() == ["error: interrupted"]


def test_verify_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, "verify", "--t", "2")
    assert code == 2
    code, _, err = run(capsys, "verify", "--builtin", "D", "--file", "x.json")
    assert code == 2


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--file", "/nonexistent/x.json")
    assert code == 2


def test_unreadable_input_exits_2_with_one_error_line(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--file", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["verify", "frame-potential", "group", "geometry", "table", "mc"])
def test_unwritable_out_exits_2_before_stdout(tmp_path, capsys, cmd):
    argv = [cmd] if cmd in ("table", "mc") else [cmd, "--builtin", "D"]
    argv += ["--samples", "100"] if cmd == "mc" else []
    for out in (tmp_path / "missing" / "x", tmp_path):
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_construct_unwritable_out_exits_2(tmp_path, capsys):
    code, stdout, err = run(capsys, "construct", "--from", "pauli", "--out", str(tmp_path / "no" / "x"))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["verify", "construct", "frame-potential", "group", "geometry"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "0", "x"])
def test_tol_must_be_finite_and_positive(capsys, cmd, tol):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--builtin", "D", f"--tol={tol}"])
    assert exc.value.code == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if "error:" in l]
    assert len(errors) == 1 and errors[0].startswith(f"udes {cmd}: error: argument --tol")


# ---- construct ----------------------------------------------------------------


def test_construct_from_pauli_writes_loadable_design(tmp_path, capsys):
    out = tmp_path / "design.json"
    code, doc = run_json(capsys, "construct", "--from", "pauli", "--out", str(out))
    assert code == 0
    assert doc["verification"]["is_design"] is True
    assert len(doc["design"]["unitaries"]) == 12
    code2, doc2 = run_json(capsys, "verify", "--file", str(out), "--t", "2")
    assert code2 == 0 and doc2["result"]["is_design"] is True


def test_construct_from_file_spelling(tmp_path, capsys):
    src = tmp_path / "frame.json"
    h = HaarSampler(1234)
    V, Vp = haar_sample(h), haar_sample(h)
    elems = [1j * V @ pauli(m) @ Vp for m in (3, 1, 0, 2)]
    save_unitary_set(UnitarySet(elems), str(src))
    code, doc = run_json(capsys, "construct", "--from", "file", str(src))
    assert code == 0
    assert doc["verification"]["is_design"] is True
    assert doc["source"]["kind"] == "file"
    assert len(doc["source"]["sha256"]) == 64
    # position zero plays the identity slot, so the permutation starts there
    assert doc["classification"]["permutation"][0] == 0


def test_construct_rejects_non_frame(tmp_path, capsys):
    src = tmp_path / "bad.json"
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    save_unitary_set(UnitarySet([pauli(0), pauli(1), pauli(2), H]), str(src))
    code, _, err = run(capsys, "construct", "--from", "file", str(src))
    assert code == 4
    assert err.startswith("error:")


def test_construct_classifies_at_the_tolerance_it_reports(tmp_path, capsys):
    # Z exp(-i 1e-10 X) overlaps Y by 2 sin(1e-10)
    tilted = pauli(3) @ (math.cos(1e-10) * np.eye(2) - 1j * math.sin(1e-10) * pauli(1))
    src = tmp_path / "tilted.json"
    save_unitary_set(UnitarySet([pauli(0), pauli(1), pauli(2), tilted]), str(src))
    code, out, err = run(capsys, "construct", "--from", "file", str(src), "--tol", "1e-12")
    assert code == 4 and out == ""
    assert err.startswith("error: elements 2 and 3 have HS inner product")
    code, doc = run_json(capsys, "construct", "--from", "file", str(src), "--tol", "1e-9")
    assert code == 0 and doc["tolerance"] == 1e-9


@pytest.mark.parametrize(
    "elems, tol, condition",
    [
        # exp(-0.05 i X) X overlaps 1 by 2 sin(0.05) < 0.1, and is not traceless
        # relative to it
        (
            [pauli(0), (math.cos(0.05) * np.eye(2) - 1j * math.sin(0.05) * pauli(1)) @ pauli(1), pauli(2), pauli(3)],
            "0.1",
            "a relative element is not traceless",
        ),
        # X and iX overlap by 2 < 3 and share one axis
        ([pauli(0), pauli(1), 1j * pauli(1), pauli(3)], "3", "the relative axes are not orthonormal"),
    ],
)
def test_construct_refuses_a_non_frame_a_loose_tol_lets_past_the_scan(tmp_path, capsys, elems, tol, condition):
    src = tmp_path / "loose.json"
    save_unitary_set(UnitarySet(elems), str(src))
    code, out, err = run(capsys, "construct", "--from", "file", str(src), "--tol", tol)
    assert code == 4 and out == ""
    assert err.splitlines() == [
        f"error: no two elements overlap by more than {tol}, "
        f"but they are not a phased Pauli frame: {condition}"
    ]
    # at the default tol the overlap scan refuses the set first
    code, out, err = run(capsys, "construct", "--from", "file", str(src))
    assert code == 4 and out == ""
    assert err.startswith("error: elements ") and "have HS inner product" in err


@pytest.mark.parametrize(
    "tol, code", [("1e-10", 4), ("5e-10", 4), ("9e-10", 4), ("1e-9", 0), ("2e-9", 0), ("5e-9", 0), ("1e-8", 0)]
)
def test_construct_completes_a_near_frame_that_passes_the_scan(capsys, tol, code):
    # its largest overlap is 9.2e-10 and its frame reconstruction misses by
    # 1.02e-9: a scan at tol below the overlap refuses it, one above passes
    # it to checks that leave room for that slack
    src = str(DATA / "near_frame.json")
    got, out, err = run(capsys, "construct", "--from", "file", src, "--tol", tol)
    assert got == code
    if code == 4:
        assert out == "" and err.startswith("error: elements ") and "have HS inner product" in err
    else:
        assert err == "" and "is design: true" in out


def test_construct_requires_path_with_from_file(capsys):
    code, _, err = run(capsys, "construct", "--from", "file")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--from", "pauli", "--builtin", "D"],
        ["--builtin", "pauli", "frame.json"],
        ["--from", "file", "--file", "a.json", "b.json"],
    ],
)
def test_construct_refuses_conflicting_inputs(capsys, argv):
    code, out, err = run(capsys, "construct", *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: choose exactly one input: --builtin NAME or --file PATH"]


def test_construct_from_file_flag_and_bare_path(tmp_path, capsys):
    src = tmp_path / "frame.json"
    save_unitary_set(UnitarySet([pauli(m) for m in range(4)]), str(src))
    reports = [run_json(capsys, "construct", *argv, str(src)) for argv in (["--from", "file", "--file"], [])]
    assert [code for code, _ in reports] == [0, 0]
    assert reports[0][1] == reports[1][1] and reports[0][1]["source"]["kind"] == "file"


# ---- analysis commands ----------------------------------------------------------


def test_frame_potential_command(capsys):
    code, doc = run_json(capsys, "frame-potential", "--builtin", "B0", "--t", "2")
    assert code == 0
    assert doc["result"]["value"] == pytest.approx(4.0)
    assert doc["result"]["haar_value"] == 2.0
    assert doc["result"]["is_design"] is False


def test_frame_potential_command_past_the_twirl_orders(capsys):
    # the frame potential has a Haar reference, C_t, at every order
    for t, value, haar_value in (("3", 6, 5), ("7", 1366, 429)):
        code, doc = run_json(capsys, "frame-potential", "--builtin", "D", "--t", t)
        assert code == 0
        assert (doc["result"]["value"], doc["result"]["haar_value"]) == (value, haar_value)
        assert doc["result"]["is_design"] is False


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "t, message",
    [
        pytest.param("600", "the order-600 frame potential of 12 elements may overflow", id="600"),
        pytest.param("0", "frame potential order must be an int >= 1, got 0", id="0"),
        pytest.param("-5", "frame potential order must be an int >= 1, got -5", id="-5"),
        pytest.param(str(10**400), f"the order-{10**400} frame potential of 12 elements may overflow", id="400-digits"),
    ],
)
def test_frame_potential_refuses_an_order_without_reference_in_one_line(capsys, t, message):
    # an order too large for a float is refused before it becomes one
    code, out, err = run(capsys, "frame-potential", "--builtin", "D", "--t", t)
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


LIMIT_1 = "error: twirl order must be <= 1, got 2: its superoperator would have 4^4 entries\n"


@pytest.mark.parametrize(
    "cmd, code, err",
    [("verify", 3, LIMIT_1), ("mc", 3, LIMIT_1), ("frame-potential", 0, "")],
    ids=["verify", "mc", "frame-potential"],
)
def test_one_order_limit_serves_verify_and_mc(monkeypatch, capsys, cmd, code, err):
    # sets and the Haar oracle share moments.MAX_ORDER; the frame potential
    # needs no twirl, so its orders do not follow it
    from udes import moments

    monkeypatch.setattr(moments, "MAX_ORDER", 1)
    source = ["--samples", "100"] if cmd == "mc" else ["--builtin", "D"]
    got, out, got_err = run(capsys, cmd, *source, "--t", "2")
    assert (got, got_err) == (code, err) and (out == "") == bool(code)


@pytest.mark.parametrize("argv", [["verify", "--builtin", "D"], ["construct", "--from", "pauli"]])
def test_verification_reads_the_frame_potential_verify_design_computed(monkeypatch, capsys, argv):
    from udes import twirl

    monkeypatch.setattr(twirl, "frame_potential", lambda *a: pytest.fail("frame potential recomputed"))
    code, doc = run_json(capsys, *argv)
    result = doc.get("result") or doc["verification"]
    assert code == 0
    assert result["frame_potential"] == pytest.approx(2.0) and result["haar_value"] == 2.0


def test_group_command_on_completion(capsys):
    code, doc = run_json(capsys, "group", "--builtin", "D")
    assert code == 0
    res = doc["result"]
    assert res["closure_size"] == 24
    assert res["is_group"] is True
    assert res["order_histogram"] == {"1": 1, "2": 1, "3": 8, "4": 6, "6": 8}
    assert res["center_size"] == 2
    assert len(res["cosets"]) == 3
    assert res["semidirect"] is True
    assert res["element_labels"][0] == "+1"


def test_group_command_detects_non_group(tmp_path, capsys):
    from udes.designs import named_design

    D = named_design("D").set
    src = tmp_path / "wings.json"
    save_unitary_set(UnitarySet(list(D.elems[4:])), str(src))
    code, doc = run_json(capsys, "group", "--file", str(src))
    assert code == 1
    assert doc["result"]["is_group"] is False


def test_group_command_proportional_exit(tmp_path, capsys):
    src = tmp_path / "prop.json"
    save_unitary_set(UnitarySet([pauli(1), 1j * pauli(1)]), str(src))
    code, _, err = run(capsys, "group", "--file", str(src))
    assert code == 5


@pytest.mark.parametrize("cmd", ["group", "geometry"])
def test_proportionality_is_judged_at_the_distance_scale(tmp_path, capsys, cmd):
    # X and X exp(-i 1e-6 Z) lie 1.4e-6 apart, far above the default tol of 1e-10
    eps = 1e-6
    near = pauli(1) @ (math.cos(eps) * np.eye(2) - 1j * math.sin(eps) * pauli(3))
    src = tmp_path / "near.json"
    save_unitary_set(UnitarySet([pauli(0), pauli(1), near]), str(src))
    code, out, err = run(capsys, cmd, "--file", str(src))
    assert code == (1 if cmd == "group" else 0)
    assert err == "" and "closure size: 6" in out
    src = tmp_path / "prop.json"
    save_unitary_set(UnitarySet([pauli(1), 1j * pauli(1)]), str(src))
    code, out, err = run(capsys, cmd, "--file", str(src))
    assert code == 5
    assert err == "error: elements 0 and 1 are proportional and share normalizations\n"


def test_geometry_command(capsys):
    code, doc = run_json(capsys, "geometry", "--builtin", "B")
    assert code == 0
    assert doc["result"]["polytope"] == "16-cell"
    assert len(doc["result"]["quaternions"]) == 8
    code, doc = run_json(capsys, "geometry", "--builtin", "D1")
    assert doc["result"]["polytope"] == "24-cell"


DATA = pathlib.Path(__file__).parent / "data"

GOLDEN = (
    [(cmd, name, fmt) for cmd in ("group", "geometry") for name in BUILTIN_NAMES for fmt in ("json", "text")]
    + [("table", None, "json"), ("table", None, "text")]
    + [("construct", name, fmt) for name in ("pauli", "B", "B0") for fmt in ("json", "text")]
    # the 2-design D and its normalizations, which verify passes (exit 0)
    + [("verify", name, fmt) for name in ("D", "D0", "D1", "D2") for fmt in ("json", "text")]
    + [("frame-potential", "D", "json"), ("frame-potential", "D", "text")]
)


@pytest.mark.parametrize("cmd,name,fmt", GOLDEN)
def test_structure_reports_match_their_golden_files(capsys, cmd, name, fmt):
    # the files hold the reports of the matrix-based groups layer, of the
    # loop-based classification and of the twirl check down to its last
    # bit; the paper's tables must not move by one byte
    argv = [cmd] + (["--builtin", name] if name else []) + ["--format", fmt]
    code, out, err = run(capsys, *argv)
    stem = (f"{cmd}_{name}" if name else cmd).replace("-", "_")
    assert code == 0 and err == ""
    assert out.encode("utf-8") == (DATA / f"{stem}.{'json' if fmt == 'json' else 'txt'}").read_bytes()


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt")])
def test_construct_of_a_near_frame_matches_its_golden_file(capsys, monkeypatch, fmt, ext):
    # the built-ins' entries are 0, +-1/2 and +-1, on which the last bits of
    # classify, extend and verify rarely move; this off-lattice frame's
    # phases, conjugator, twelve elements and twirl deviation pin them.  Run
    # from the repository root, as CI runs it, so source.path is the same
    monkeypatch.chdir(DATA.parent.parent)
    argv = ["construct", "--from", "file", "tests/data/near_frame.json", "--tol", "1e-9", "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.encode("utf-8") == (DATA / f"construct_near_frame.{ext}").read_bytes()


def test_verify_of_d_at_order_5_matches_its_golden_file(capsys):
    # D is a 2-design and not a 5-design (exit 1); the report pins the order-5
    # twirl deviation and frame potential, which no report of GOLDEN reaches
    code, out, err = run(capsys, "verify", "--builtin", "D", "--t", "5", "--format", "json")
    assert code == 1 and err == ""
    assert out.encode("utf-8") == (DATA / "verify_D_t5.json").read_bytes()


def test_construct_out_of_a_near_frame_matches_its_golden_file(capsys, monkeypatch, tmp_path):
    # the set file --out writes, every entry to its last bit, and the labels;
    # loading and saving it again gives the same bytes
    monkeypatch.chdir(DATA.parent.parent)
    out = tmp_path / "near_out.json"
    argv = ["construct", "--from", "file", "tests/data/near_frame.json", "--tol", "1e-9", "--out", str(out)]
    code, _, err = run(capsys, *argv)
    golden = DATA / "construct_near_frame_out.json"
    assert code == 0 and err == ""
    assert out.read_bytes() == golden.read_bytes()
    S, _ = load_unitary_set(str(golden))
    assert len(S) == 12 and S.labels[4] == "GU0"
    save_unitary_set(S, str(out))
    assert out.read_bytes() == golden.read_bytes()


@pytest.fixture
def near_design(tmp_path):
    """D with element 3 rotated by exp(-i 1e-8 X): a group and a 24-cell
    within 1e-6, neither within 1e-10."""
    from udes.designs import named_design

    elems = list(named_design("D").set.elems)
    eps = 1e-8
    elems[3] = elems[3] @ (math.cos(eps) * np.eye(2) - 1j * math.sin(eps) * pauli(1))
    path = tmp_path / "near.json"
    save_unitary_set(UnitarySet(elems), str(path))
    return str(path)


@pytest.mark.parametrize("tol,code_want,polytope", [("1e-6", 0, "24-cell"), ("1e-10", 1, "other")])
def test_group_and_geometry_apply_the_tolerance_they_report(capsys, near_design, tol, code_want, polytope):
    code, doc = run_json(capsys, "group", "--file", near_design, "--tol", tol)
    assert code == code_want
    assert doc["tolerance"] == float(tol)
    assert doc["result"]["is_group"] is (code_want == 0)
    code, doc = run_json(capsys, "geometry", "--file", near_design, "--tol", tol)
    assert code == 0
    assert doc["tolerance"] == float(tol)
    assert doc["result"]["polytope"] == polytope


def test_mc_command_is_deterministic(capsys):
    args = ("mc", "--t", "1", "--samples", "20000", "--seed", "3")
    code1, doc1 = run_json(capsys, *args)
    code2, doc2 = run_json(capsys, *args)
    assert code1 == code2 == 0
    assert doc1 == doc2
    assert doc1["result"]["ok"] is True
    assert doc1["result"]["max_ratio"] < 5


@pytest.mark.parametrize(
    "flag,value",
    [("--samples", "0"), ("--samples", "1"), ("--seed", "-1"), ("--seed", str(2**64)), ("--seed", "x")],
)
def test_mc_rejects_out_of_range_arguments(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--t", "1", flag, value])
    assert exc.value.code == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if "error:" in l]
    assert len(errors) == 1
    assert errors[0].startswith("udes mc: error: argument " + flag)


def test_mc_accepts_the_extreme_valid_arguments(capsys):
    code, doc = run_json(capsys, "mc", "--t", "1", "--samples", "2", "--seed", str(2**64 - 1))
    assert code == 0
    assert doc["result"]["sampler"] == {"seed": 2**64 - 1, "counter_start": 0, "counter_end": 2}


def test_table_command_values(capsys):
    code, doc = run_json(capsys, "table")
    assert code == 0
    rows = doc["result"]["rows"]
    assert len(rows) == 24
    by_label = {r["label"]: r for r in rows}
    c = 2 * math.pi / (3 * math.sqrt(3))
    assert by_label["+W"]["quaternion"] == [0.5, 0.5, 0.5, 0.5]
    assert by_label["+W"]["rotation"] == [c, c, c]
    assert by_label["-K"]["quaternion"] == [0.0, 0.0, 0.0, -1.0]
    assert by_label["+W*"]["rotation"] == [-c, -c, -c]


def test_table_text_mode_renders_symbolic_entries(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert "1/2" in out
    assert "pi" in out
    assert "-iX" in out


def _read_pauli_text(text):
    """The matrix a table unitary such as -iX or (1 - iX - iY - iZ)/2 spells."""
    halved = text.startswith("(")
    terms = (text[1:-3] if halved else text).replace(" + ", " ").replace(" - ", " -").split()
    M = np.zeros((2, 2), dtype=complex)
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("-")
        M = M + sign * (1j if body.startswith("i") else 1) * PAULI_BASIS["1XYZ".index(body.lstrip("i"))]
    return M / 2 if halved else M


def test_table_text_reads_back_as_the_unitary_of_each_quaternion(capsys):
    # the golden file pins the bytes; this pins what they say: each row's
    # unitary column, read as (sum_k c_k sigma_k)/2, is su2_batch of its
    # quaternion column, read as the fractions it prints
    code, out, _ = run(capsys, "table")
    rows = out.splitlines()[3:-1]
    assert code == 0 and len(rows) == 24
    for line in rows:
        head, quaternion, _ = line.rsplit("(", 2)
        label, unitary = head.split(None, 1)
        q = [float(Fraction(v)) for v in quaternion.strip().rstrip(")").split()]
        assert np.array_equal(_read_pauli_text(unitary.strip()), su2_batch(q)), label


def test_report_out_file_matches_stdout(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "verify", "--builtin", "D", "--t", "1", "--format", "json", "--out", str(out)
    )
    assert code == 0
    assert out.read_text() == stdout


@pytest.mark.parametrize("dim", [1, 3])
def test_files_of_other_dimensions_are_rejected(tmp_path, capsys, dim):
    from udes.cli import FileFormatError

    doc = {"dim": dim, "unitaries": [[[[float(i == j), 0.0] for j in range(dim)] for i in range(dim)]]}
    with pytest.raises(FileFormatError, match=f"expected 2, got {dim}"):
        parse_unitary_set(doc)
    src = tmp_path / "other.json"
    src.write_text(json.dumps(doc))
    for cmd in ("frame-potential", "verify", "group"):
        code, out, err = run(capsys, cmd, "--file", str(src))
        assert code == 2 and out == ""
        assert err == f"error: dim: udes works on one qubit, expected 2, got {dim}\n"


@pytest.mark.parametrize(
    "argv", [["mc", "--tol", "1"], ["mc", "--strict"], ["table", "--tol", "1e-9"], ["table", "--strict"]]
)
def test_mc_and_table_take_no_options_they_would_ignore(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err


def test_mc_report_echoes_no_tolerance(capsys):
    code, text, _ = run(capsys, "mc", "--t", "1", "--samples", "100")
    _, doc = run_json(capsys, "mc", "--t", "1", "--samples", "100")
    assert "tolerance" not in doc and "tolerance" not in text


def test_errors_are_udes_errors():
    # the CLI's file-format error participates in the package hierarchy
    from udes.cli import FileFormatError

    assert issubclass(FileFormatError, UdesError)


# ---- one parser per process --------------------------------------------------


@pytest.fixture
def fresh_parser():
    """Clear the parser main() caches, so the test sees a first call."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_its_parser_once(monkeypatch, capsys, fresh_parser):
    built = []
    real = cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (["table"], ["verify", "--builtin", "D"], ["group", "--builtin", "D", "--format", "json"]):
        run(capsys, *argv)
    assert len(built) == 1
    assert cli.build_parser() is not cli.build_parser()  # the public builder still gives fresh parsers


@pytest.mark.parametrize(
    "refused",
    [
        [],
        ["nope"],
        ["verify", "--builtin", "X"],
        ["verify", "--builtin", "D", "--t", "two"],
        ["verify", "--builtin", "D", "--tol", "nan"],
        ["group", "--builtin", "D", "--format", "yaml"],
        ["mc", "--samples", "1"],
        ["table", "--strict"],
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_refused_argv_does_not_poison_later_calls(capsys, fresh_parser, refused, fmt):
    valid = ["verify", "--builtin", "D", "--format", fmt]
    first = run(capsys, *valid)
    with pytest.raises(SystemExit) as exc:
        main(refused)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert run(capsys, *valid) == first


@pytest.mark.parametrize(
    "argv",
    [
        ["table"],
        ["verify", "--builtin", "pauli"],
        ["construct", "--from", "pauli"],
        ["geometry", "--builtin", "D0"],
        ["mc", "--t", "1", "--samples", "100", "--seed", "5"],
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_the_same_argv_twice_prints_the_same_bytes(capsys, argv, fmt):
    first = run(capsys, *argv, "--format", fmt)
    assert first[1] and first[2] == ""
    assert run(capsys, *argv, "--format", fmt) == first


def test_import_builds_no_parser_and_loads_no_hashlib():
    # a fresh interpreter: `import udes.cli` is what every command pays
    # first, and commands that read no file never need OpenSSL
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    code = "import sys, udes.cli; print('hashlib' in sys.modules, udes.cli._parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "0"]
