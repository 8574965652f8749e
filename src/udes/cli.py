"""Command-line interface: verify designs, complete orthogonal unitary
bases, evaluate frame potentials, inspect group and polytope structure,
cross-check the averaging oracles by Monte Carlo, and print the closure
table.

Exit codes: 0 success (and verdict true), 1 verdict false, 2 input/parse
problem, 3 unsupported averaging order, 4 precondition failure in the
math (non-unitary input, classification failure, ...), 5 proportional
elements where a closure needs distinct antipodal pairs, 6 internal
consistency failure (two mathematically equivalent checks disagreed: a bug
in this package, not in the input), 130 interrupted (Ctrl-C).

All numbers are serialized with 17 significant digits (%.17g), enough to
round-trip IEEE doubles exactly, and JSON and text renderings of a report
carry identical values.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import designs, groups, twirl
from .errors import (
    InternalConsistencyError,
    ProportionalElements,
    UdesError,
    UnknownName,
    UnsupportedOrder,
)
from .linalg import EQ_TOL

BUILTIN_NAMES = ("pauli", *designs.NAMED_DESIGNS)


class FileFormatError(UdesError):
    """A unitary-set file does not follow the expected JSON layout."""


# --------------------------------------------------------------------------
# number formatting and JSON emission


def format_number(x) -> str:
    # adding +0.0 rewrites -0.0 as 0.0, keeping emitted files re-loadable
    # bit for bit ("-0" would parse back as the integer 0)
    if type(x) is float:
        return f"{x + 0.0:.17g}"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x) + 0.0:.17g}"


def emit_json(value, indent: int = 0) -> str:
    """Serialize with %.17g floats.  A collection stays on one line when that
    line fits in 100 - 2*indent columns, and is otherwise laid out one item
    per line, each item nested at indent + 1 by the same rule.  Each node is
    rendered once, bottom-up.  Keys must be strings."""
    return _layout(value, indent)


#: the types a list of numbers is made of, in reports and in set files
_NUMBER_TYPES = frozenset((float, int))


def _layout(value, indent: int) -> str:
    """`value` rendered at `indent`.  JSON string encoding escapes every
    newline, so a rendering spans several lines exactly when it holds one.

    A list of numbers, or of rows of numbers, formats each number once and
    joins each row once; a row too wide for one line at indent + 1 is laid
    out one number per line from the strings already formatted."""
    if isinstance(value, dict):
        fields = [f"{encode_basestring_ascii(k)}: {_layout(v, indent + 1)}" for k, v in value.items()]
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        kinds = {*map(type, value)}
        if kinds <= _NUMBER_TYPES:
            fields = list(map(format_number, value))
        elif kinds == {list} and {*map(type, chain.from_iterable(value))} <= _NUMBER_TYPES:
            limit = 100 - 2 * (indent + 1)
            fields = []
            for v in value:
                numbers = list(map(format_number, v))
                row = "[" + ", ".join(numbers) + "]"
                fields.append(row if len(row) <= limit else _block("[", numbers, "]", indent + 1))
        else:
            fields = [_layout(v, indent + 1) for v in value]
        opening, closing = "[", "]"
    elif value is None:
        return "null"
    elif isinstance(value, str):
        return encode_basestring_ascii(value)
    else:
        return format_number(value)
    line = opening + ", ".join(fields) + closing
    if len(line) <= 100 - 2 * indent and "\n" not in line:
        return line
    return _block(opening, fields, closing, indent)


def _block(opening: str, fields: list[str], closing: str, indent: int) -> str:
    """A collection at `indent` laid out one field per line."""
    pad = "  " * indent
    lines = ",\n".join(f"{pad}  {field}" for field in fields)
    return f"{opening}\n{lines}\n{pad}{closing}"


# --------------------------------------------------------------------------
# the unitary-set file format


def matrix_payload(M: np.ndarray) -> list:
    A = np.ascontiguousarray(M, dtype=complex)
    return A.view(float).reshape(*A.shape, 2).tolist()


def set_payload(S: twirl.UnitarySet) -> dict:
    doc: dict = {"dim": S.dim, "unitaries": matrix_payload(S.stack)}
    if S.labels is not None:
        doc["labels"] = list(S.labels)
    return doc


def save_unitary_set(S: twirl.UnitarySet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_json(set_payload(S)) + "\n")


def _entry(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise FileFormatError(f"{where}: expected a [re, im] pair, got {value!r}")
    if not all(abs(v) <= sys.float_info.max for v in value):  # nan, inf or an int too big
        raise FileFormatError(f"{where}: expected finite real and imaginary parts")
    return complex(float(value[0]), float(value[1]))


def _matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != 2:
        raise FileFormatError(f"{where}: expected 2 rows")
    out = np.empty((2, 2), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != 2:
            raise FileFormatError(f"{where}[{i}]: expected 2 entries")
        for j, entry in enumerate(row):
            out[i, j] = _entry(entry, f"{where}[{i}][{j}]")
    return out


def _stack_of(raw: list) -> np.ndarray | None:
    """The (n, 2, 2) complex stack of a well-formed `unitaries` list in one
    array, or None if any entry needs the per-entry checks to decide it.

    Level by level, every matrix and row must be a list and every entry a
    list or tuple, each of 2 items, and every number an int or a float:
    np.array alone would take bools, numeric strings and None.  One
    comparison then refuses NaN, inf and, with the float maximum itself,
    any int that rounds to it from beyond; an int past the float range
    does not convert at all."""
    level = raw
    for kinds in ({list}, {list}, {list, tuple}):
        if not ({*map(type, level)} <= kinds and {*map(len, level)} == {2}):
            return None
        level = list(chain.from_iterable(level))
    if not {*map(type, level)} <= _NUMBER_TYPES:
        return None
    try:
        values = np.array(level, dtype=float)
    except OverflowError:
        return None
    if not (np.abs(values) < sys.float_info.max).all():
        return None
    return values.view(complex).reshape(-1, 2, 2)


def parse_unitary_set(doc, strict: bool = False) -> twirl.UnitarySet:
    if not isinstance(doc, dict):
        raise FileFormatError("top-level value must be an object")
    for key in doc:
        if key not in ("dim", "unitaries", "labels"):
            if strict:
                raise FileFormatError(f"unknown field {key!r}")
            print(f"warning: ignoring unknown field {key!r}", file=sys.stderr)
    if "dim" not in doc or "unitaries" not in doc:
        raise FileFormatError("fields 'dim' and 'unitaries' are required")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim != 2:
        raise FileFormatError(f"dim: udes works on one qubit, expected 2, got {dim!r}")
    raw = doc["unitaries"]
    if not isinstance(raw, list) or not raw:
        raise FileFormatError("unitaries: expected a nonempty list of matrices")
    mats = _stack_of(raw)
    if mats is None:  # the first bad entry names itself
        mats = [_matrix(mat, f"unitaries[{k}]") for k, mat in enumerate(raw)]
    labels = doc.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != len(mats)
            or not all(isinstance(l, str) for l in labels)
        ):
            raise FileFormatError("labels: expected one string per unitary")
    return twirl.UnitarySet(mats, labels=labels)


def load_unitary_set(path: str, strict: bool = False) -> tuple[twirl.UnitarySet, str]:
    import hashlib  # loads OpenSSL; only commands that read a file need it

    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too many digits, too deep
        raise FileFormatError(f"{path}: {exc}") from None
    return parse_unitary_set(doc, strict=strict), digest


# --------------------------------------------------------------------------
# argument handling


def _add_source_args(sub) -> None:
    """A unitary set to read, how strictly to parse it, and the tolerance its checks apply."""
    sub.add_argument("--builtin", choices=BUILTIN_NAMES, help="use a named builtin set")
    sub.add_argument("--file", help="load a unitary-set JSON file")
    positive = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite positive number")
    sub.add_argument("--tol", type=positive, default=EQ_TOL, help="numerical tolerance")
    sub.add_argument("--strict", action="store_true", help="reject unknown file fields")


def _checked(kind, ok, expected: str):
    """An argparse type for `kind` values that satisfy `ok`, so others exit 2."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udes", description="unitary design construction and verification for qubits"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, source: bool = True):
        p = subs.add_parser(name, help=help)
        if source:
            _add_source_args(p)
        p.add_argument("--out", help="write the primary output to this path")
        p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
        return p

    p = command("verify", "check the design property of a unitary set")
    p.add_argument("--t", type=int, default=2, help="averaging order, 1 to 5")
    p.add_argument("--method", choices=("twirl", "frame", "both"), default="both")
    p = command("construct", "complete an orthogonal unitary basis to a 2-design")
    p.add_argument("--from", dest="source_kind", choices=("pauli", "file"))
    p.add_argument("path", nargs="?", help="unitary-set file (with --from file)")
    p = command("frame-potential", "evaluate the order-t frame potential")
    p.add_argument("--t", type=int, default=2, help="order, >= 1; refused where the sum could overflow")
    command("group", "multiplicative structure of the determinant-1 closure")
    command("geometry", "polytope and rotation picture of the closure")
    p = command("mc", "Monte Carlo cross-check of the closed-form averaging", source=False)
    p.add_argument("--t", type=int, default=2, help="averaging order, 1 to 5")
    samples = _checked(int, lambda v: v >= 2, "an integer >= 2")
    seed = _checked(int, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)")
    p.add_argument("--samples", type=samples, default=100000)
    p.add_argument("--seed", type=seed, default=0)
    command("table", "print all 24 closure elements in every picture", source=False)
    return parser


def _resolve_source(args) -> tuple[twirl.UnitarySet, dict]:
    """The one input among --builtin, --from pauli, --file and construct's PATH."""
    kind = getattr(args, "source_kind", None)
    names = [n for n in (args.builtin, "pauli" if kind == "pauli" else None) if n is not None]
    paths = [p for p in (args.file, getattr(args, "path", None)) if p is not None]
    if kind == "file" and not paths:
        raise FileFormatError("--from file requires a path")
    if len(names) + len(paths) != 1:
        raise FileFormatError("choose exactly one input: --builtin NAME or --file PATH")
    if names:
        return designs.named_design(names[0]).set, {"kind": "builtin", "name": names[0]}
    S, digest = load_unitary_set(paths[0], strict=args.strict)
    return S, {"kind": "file", "path": paths[0], "sha256": digest}


#: the report header in order: each key and the parsed argument it echoes,
#: for whichever of them a command takes; "source" is the input that
#: _resolve_source reads, for the commands that take one
_HEADER = (("command", "command"), ("source", None), ("t", "t"), ("method", "method"), ("tolerance", "tol"))


def build_report(args) -> tuple[dict, int]:
    """The report of a parsed command line, and its exit code: the header,
    then the body that the command computes from the input set (None for a
    command without one)."""
    report, S = {}, None
    for key, arg in _HEADER:
        if key == "source":
            if hasattr(args, "builtin"):
                S, report[key] = _resolve_source(args)
        elif hasattr(args, arg):
            report[key] = getattr(args, arg)
    body, code = _COMMANDS[args.command](S, args)
    return report | body, code


# --------------------------------------------------------------------------
# commands: each returns its report body and exit code


def _base_labels(S: twirl.UnitarySet) -> list[str]:
    """The set's labels, or U0, U1, ... for a set without them."""
    return list(S.labels) if S.labels is not None else [f"U{k}" for k in range(len(S))]


def _verification_payload(S, t, tol, method) -> dict:
    rep = designs.verify_design(S, t, tol=tol, method=method)
    out = {
        "t": t,
        "is_design": rep.is_design,
        "frame_gap": rep.frame_gap,
        "max_twirl_deviation": rep.max_twirl_deviation,
        "methods_agree": rep.method_agreement,
    }
    if method in ("frame", "both"):
        out["frame_potential"] = rep.frame_potential
        out["haar_value"] = rep.haar_value
    return out


def cmd_verify(S, args) -> tuple[dict, int]:
    result = _verification_payload(S, args.t, args.tol, args.method)
    return {"result": result}, 0 if result["is_design"] else 1


def cmd_construct(S, args) -> tuple[dict, int]:
    frame = designs.classify_min_1design(S, tol=args.tol)
    design = designs.extend_to_2design(S, frame)
    base = _base_labels(S)
    labeled = design.relabeled(base + [f"G{l}" for l in base] + [f"G*{l}" for l in base])
    result = _verification_payload(labeled, 2, args.tol, "both")
    body = {
        "classification": {
            "permutation": list(frame.permutation),
            "phases": [[z.real, z.imag] for z in frame.phases],
            "conjugator": matrix_payload(frame.V),
        },
        "design": set_payload(labeled),
        "verification": result,
    }
    if args.out:
        save_unitary_set(labeled, args.out)
    return body, 0 if result["is_design"] else 1


def cmd_frame_potential(S, args) -> tuple[dict, int]:
    fp = twirl.frame_potential(S, args.t)
    result = {
        "value": fp.value,
        "haar_value": fp.haar_value,
        "gap": fp.gap,
        "is_design": fp.is_design(args.tol),
    }
    return {"result": result}, 0


def cmd_group(S, args) -> tuple[dict, int]:
    C = groups.su2_closure(S, args.tol)
    prof = groups.group_profile(C, args.tol)
    histogram = {str(k): prof.order_histogram[k] for k in sorted(prof.order_histogram)}
    result = {
        "closure_size": len(C),
        "element_labels": [f"{sign}{l}" for l in _base_labels(S) for sign in "+-"],
        "is_group": prof.is_group,
        "order_histogram": histogram,
        "center_size": prof.center_size,
        "cosets": [list(c) for c in prof.cosets] if prof.cosets is not None else None,
        "semidirect": prof.semidirect_check,
    }
    return {"result": result}, 0 if prof.is_group else 1


def cmd_geometry(S, args) -> tuple[dict, int]:
    C = groups.su2_closure(S, args.tol)
    pid = groups.polytope_identify(C.points(), args.tol)
    rotations = [
        {"axis": list(aa.axis), "angle": aa.angle, "vector": [aa.angle * x for x in aa.axis]}
        for aa in groups.so3_image_table(C)
    ]
    result = {
        "closure_size": len(C),
        "polytope": pid.kind,
        "chord_spectrum": [[d, m] for d, m in pid.distance_spectrum],
        "quaternions": C.points().tolist(),
        "rotations": rotations,
    }
    return {"result": result}, 0


def cmd_mc(S, args) -> tuple[dict, int]:
    sampler = twirl.HaarSampler(args.seed)
    counter_start = sampler.counter
    check = twirl.mc_oracle_check(sampler, args.t, args.samples)
    result = {
        "t": args.t,
        "samples": check.n,
        "seed": args.seed,
        "sampler": {"seed": sampler.seed, "counter_start": counter_start, "counter_end": sampler.counter},
        "nsigma": check.nsigma,
        "max_deviation": check.max_deviation,
        "max_ratio": check.max_ratio,
        "deviations": check.deviations.tolist(),
        "std_errors": check.std_errors.tolist(),
        "ok": check.ok,
    }
    return {"result": result}, 0 if check.ok else 1


def cmd_table(S, args) -> tuple[dict, int]:
    rows = [
        {
            "label": row.label,
            "pauli": [[c.real, c.imag] for c in row.pauli],
            "quaternion": list(row.quaternion),
            "rotation": list(row.rotation),
        }
        for row in groups.axis_cycle_closure_table()
    ]
    return {"result": {"rows": rows}}, 0


_COMMANDS = {
    "verify": cmd_verify,
    "construct": cmd_construct,
    "frame-potential": cmd_frame_potential,
    "group": cmd_group,
    "geometry": cmd_geometry,
    "mc": cmd_mc,
    "table": cmd_table,
}


# --------------------------------------------------------------------------
# text rendering


def _kv(label: str, value) -> str:
    if isinstance(value, (bool, np.bool_, int, float, np.integer)):
        return f"{label}: {format_number(value)}"
    return f"{label}: {value}"


def _render_source(source: dict) -> list[str]:
    if source["kind"] == "builtin":
        return [f"source: builtin {source['name']}"]
    return [f"source: file {source['path']}", f"sha256: {source['sha256']}"]


def _fields(result: dict, keys) -> list[str]:
    """A line for each of `keys` that `result` holds, labelled with its words."""
    return [_kv(k.replace("_", " "), result[k]) for k in keys if k in result]


#: the verification lines in order; frame_potential and haar_value are
#: present for the frame criterion
_VERIFICATION_LINES = (
    "is_design", "frame_potential", "haar_value", "frame_gap", "max_twirl_deviation", "methods_agree"
)


_EXACT_STRINGS = {0.0: "0", 0.5: "1/2", -0.5: "-1/2", 1.0: "1", -1.0: "-1"}


def _sym(v: float) -> str:
    if v in _EXACT_STRINGS:
        return _EXACT_STRINGS[v]
    if v == math.pi:
        return "pi"
    if v == groups.ROTATION_C:
        return "c"
    if v == -groups.ROTATION_C:
        return "-c"
    return format_number(v)


def _pauli_string(coeff) -> str:
    """(sum_k c_k sigma_k)/2 as text, for the closure table's two coefficient
    shapes: one term of modulus 2, written as the unitary itself, or terms
    of modulus 1 each, written over 2.  The coefficients (2s, -2ix, -2iy,
    -2iz) are real on 1 and imaginary on X, Y and Z."""
    out = " ".join(
        ("- " if (c.real or c.imag) < 0 else "+ ") + text for c, text in zip(coeff, ("1", "iX", "iY", "iZ")) if c
    )
    out = out[2:] if out[0] == "+" else "-" + out[2:]  # the first sign joins its term, a + goes
    return f"({out})/2" if " " in out else out


def render_text(report: dict) -> str:
    lines = []
    for key, _ in _HEADER:
        if key in report:
            lines += _render_source(report[key]) if key == "source" else [_kv(key, report[key])]
    cmd, result = report["command"], report.get("result", {})
    if cmd == "verify":
        lines += _fields(result, _VERIFICATION_LINES)
    elif cmd == "construct":
        cls = report["classification"]
        lines.append(f"permutation: {tuple(cls['permutation'])}")
        phases = ", ".join(
            format_number(re) + ("+" if im >= 0 else "-") + format_number(abs(im)) + "i"
            for re, im in cls["phases"]
        )
        lines.append(f"phases: {phases}")
        lines.append("design size: " + format_number(len(report["design"]["unitaries"])))
        lines.append("labels: " + " ".join(report["design"].get("labels", [])))
        lines += _fields(report["verification"], _VERIFICATION_LINES)
    elif cmd == "frame-potential":
        lines += _fields(result, result)
    elif cmd == "group":
        lines += [
            _kv("closure size", result["closure_size"]),
            _kv("is group", result["is_group"]),
            "order histogram: "
            + " ".join(f"{k}:{v}" for k, v in result["order_histogram"].items()),
            _kv("center size", result["center_size"]),
        ]
        labels = result["element_labels"]
        if result["cosets"] is not None:
            for k, coset in enumerate(result["cosets"]):
                lines.append(f"coset {k}: " + " ".join(labels[i] for i in coset))
        lines.append(_kv("semidirect", result["semidirect"]))
    elif cmd == "geometry":
        lines += [
            _kv("closure size", result["closure_size"]),
            f"polytope: {result['polytope']}",
            "chord spectrum: "
            + ", ".join(f"{format_number(d)} x{m}" for d, m in result["chord_spectrum"]),
        ]
        for rot in result["rotations"]:
            axis = ", ".join(format_number(a) for a in rot["axis"])
            lines.append(f"rotation: axis ({axis}) angle {format_number(rot['angle'])}")
    elif cmd == "mc":
        lines += [
            _kv("samples", result["samples"]),
            _kv("seed", result["seed"]),
            *(_kv("sampler " + k.replace("_", " "), v) for k, v in result["sampler"].items()),
            _kv("max deviation", result["max_deviation"]),
            _kv("max deviation / SE", result["max_ratio"]),
            _kv("nsigma", result["nsigma"]),
            _kv("ok", result["ok"]),
        ]
    elif cmd == "table":
        head = f"{'label':6s} {'unitary':22s} {'quaternion':26s} rotation vector"
        lines += [head, "-" * len(head)]
        for row in result["rows"]:
            coeff = [complex(re, im) for re, im in row["pauli"]]
            q = " ".join(f"{_sym(v):>5s}" for v in row["quaternion"])
            r = " ".join(f"{_sym(v):>3s}" for v in row["rotation"])
            lines.append(f"{row['label']:6s} {_pauli_string(coeff):22s} ({q})   ({r})")
        lines.append("with c = 2*pi/(3*sqrt(3)) = " + format_number(groups.ROTATION_C))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# entry point


#: exit code per error kind; the first matching entry applies
_EXIT_CODES = (
    (OSError, 2),
    (FileFormatError, 2),
    (UnknownName, 2),
    (UnsupportedOrder, 3),
    (ProportionalElements, 5),
    (InternalConsistencyError, 6),
    (UdesError, 4),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: built on its first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report, code = build_report(args)
        rendered = emit_json(report) + "\n" if args.fmt == "json" else render_text(report)
        # the file first, so that a path that cannot be written leaves stdout empty
        if args.out and args.command != "construct":
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
    except (OSError, UdesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    except KeyboardInterrupt:  # mc's helper threads are joined by now
        print("error: interrupted", file=sys.stderr)
        return 130
    sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
