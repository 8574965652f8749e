import json
import math
import pathlib

import numpy as np
import pytest

from udes.cli import (
    BUILTIN_NAMES,
    emit_json,
    format_number,
    load_unitary_set,
    main,
    parse_unitary_set,
    save_unitary_set,
    set_payload,
)
from udes.errors import UdesError
from udes.qubit import pauli
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
    code, _, err = run(capsys, "verify", "--builtin", "D", "--t", "5")
    assert code == 3
    assert "t" in err


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", ["600", "0", "-5"])
def test_frame_potential_refuses_an_order_without_reference_in_one_line(capsys, t):
    code, out, err = run(capsys, "frame-potential", "--builtin", "D", "--t", t)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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
)


@pytest.mark.parametrize("cmd,name,fmt", GOLDEN)
def test_structure_reports_match_their_golden_files(capsys, cmd, name, fmt):
    # the files hold the reports of the matrix-based groups layer and of the
    # loop-based classification; the paper's tables must not move by one byte
    argv = [cmd] + (["--builtin", name] if name else []) + ["--format", fmt]
    code, out, err = run(capsys, *argv)
    stem = f"{cmd}_{name}" if name else cmd
    assert code == 0 and err == ""
    assert out.encode("utf-8") == (DATA / f"{stem}.{'json' if fmt == 'json' else 'txt'}").read_bytes()


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
