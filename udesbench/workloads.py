"""The three benchmark workloads: their seeded inputs, their ops and the
check applied to every op's output.

A workload is a fixed cycle of op slots.  The caller runs whole cycles, so
every run sees the same mix of op kinds whatever the seed; the seed only
changes the inputs.  All inputs are generated here with numpy from the seed
before any op is timed; the library sees nothing but the finished inputs.
Ops look functions up through their module at call time (`designs.verify_design`,
not a name bound at import), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

_I2 = np.eye(2, dtype=complex)
_PAULIS = (
    _I2,
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
#: order-6 special unitary cycling the axes x -> y -> z -> x
_W = np.array([[0.5 - 0.5j, -0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]])
#: the 12-element 2-design: the Paulis and their translates by W and W^H
_D12 = np.stack([*_PAULIS, *(_W @ P for P in _PAULIS), *(_W.conj().T @ P for P in _PAULIS)])

_SWAP = np.eye(4)[[0, 2, 1, 3]]
_P_SINGLET = (np.eye(4) - _SWAP) / 2
_P_TRIPLET = (np.eye(4) + _SWAP) / 2


# --------------------------------------------------------------------------
# generators: pure functions of a numpy Generator


def haar_unitaries(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-random elements of U(2) as an (n, 2, 2) array."""
    z = (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def phases(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(n))


def min_1design(rng: np.random.Generator) -> np.ndarray:
    """e^{i phi_mu} V X_{sigma(mu)} V' with random phases, V, V' and sigma."""
    V, Vp = haar_unitaries(rng, 2)
    P = np.stack(_PAULIS)[rng.permutation(4)]
    return phases(rng, 4)[:, None, None] * (V @ P @ Vp)


def completed_design(rng: np.random.Generator, copies: int = 1) -> np.ndarray:
    """A rephased two-sided translate of the 12-element 2-design, joined with
    `copies - 1` further left translates of itself (still a 2-design)."""
    V, Vp = haar_unitaries(rng, 2)
    base = phases(rng, 12)[:, None, None] * (V @ _D12 @ Vp)
    gs = [_I2, *haar_unitaries(rng, copies - 1)]
    return np.concatenate([g @ base for g in gs])


def conjugated_design(rng: np.random.Generator, size: int) -> np.ndarray:
    """V S V^H with rephased elements, S the Paulis (size 4) or the 2-design
    (size 12); its closure is a conjugate of Q8 or of the binary tetrahedral
    group, so `group` sees a group."""
    V = haar_unitaries(rng, 1)[0]
    S = np.stack(_PAULIS) if size == 4 else _D12
    return phases(rng, size)[:, None, None] * (V @ S @ V.conj().T)


def rotate_x(eps: float) -> np.ndarray:
    """exp(-i eps X)."""
    return np.cos(eps) * _I2 - 1j * np.sin(eps) * _PAULIS[1]


def moment_defects(elems: np.ndarray) -> tuple[float, float]:
    """(max twirl deviation, frame gap) of a set at t = 2, computed here
    independently of the library: the deviation is the largest column norm
    of Phi_S - Phi_Haar with Phi_S = mean conj(U x U) (x) (U x U), the gap is
    the order-2 frame potential minus its Haar value 2."""
    M = np.einsum("nab,ncd->nacbd", elems, elems).reshape(-1, 4, 4)
    phi = np.einsum("nab,ncd->acbd", M.conj(), M).reshape(16, 16) / len(M)
    vs, vt = _P_SINGLET.reshape(-1, order="F"), _P_TRIPLET.reshape(-1, order="F")
    haar = np.outer(vs, vs) + np.outer(vt, vt) / 3.0
    dev = float(np.linalg.norm(phi - haar, axis=0).max())
    gram = np.einsum("aij,bij->ab", elems.conj(), elems)
    gap = float(np.mean(np.abs(gram) ** 4)) - 2.0
    return dev, gap


# --------------------------------------------------------------------------
# ops


@dataclass
class Op:
    """One call by the caller: `run` is timed, `check` is not.

    `check(result)` returns None when the output is right, else a message.
    `defect(result)`, where given, tells whether the result shows the known
    library defect (twirl and frame verdicts that disagree), and
    `predicted_defect` whether the benchmark's own numpy predicted it.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    samples: int = 0
    defect: Callable[[object], bool] | None = None
    predicted_defect: bool = False


class Workload:
    name = ""
    why = ""
    cycle: tuple = ()
    #: slots run once, untimed, before measuring
    warmup: tuple = ()
    #: whole cycles in each pass of the traced run
    trace_cycles = 1

    def op(self, cycle: int, slot: int) -> Op:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks that span the whole run; returns the problems found."""
        return []


class McOracle(Workload):
    """Monte Carlo oracle checks, about three t=2 calls per t=1 call."""

    name = "mc_oracle"
    why = "the only heavy path: Haar sampler, su2_batch, tensor power and moment accumulation"
    # (t, samples); three kinds, each repeated within the cycle, so that each
    # kind's best time is taken over many calls; the four (2, 65536) slots
    # hold the median
    cycle = ((2, 65536), (2, 100000), (1, 150000), (2, 65536), (2, 65536), (2, 100000), (1, 150000), (2, 65536))
    warmup = (0, 1, 2)
    trace_cycles = 3

    def __init__(self, udes, seed: int, workdir: str):
        self.twirl = udes.twirl
        self.seed = seed
        self.first: tuple | None = None

    def sampler_seed(self, cycle: int, slot: int) -> int:
        return int(np.random.SeedSequence([self.seed, cycle, slot]).generate_state(1, np.uint64)[0])

    def op(self, cycle: int, slot: int) -> Op:
        t, n = self.cycle[slot]
        h_seed = self.sampler_seed(cycle, slot)
        twirl = self.twirl

        def run():
            return twirl.mc_oracle_check(twirl.HaarSampler(h_seed), t, n)

        def check(rep):
            if self.first is None:
                self.first = (h_seed, t, n, rep)
            if (rep.t, rep.n, rep.seed) != (t, n, h_seed):
                return f"report echoes t={rep.t} n={rep.n} seed={rep.seed}"
            if not rep.ok:
                return f"5-sigma gate failed, max ratio {rep.max_ratio}"
            return None

        return Op(f"t{t}_n{n}", run, check, samples=n)

    def finish(self) -> list[str]:
        if self.first is None:
            return []
        h_seed, t, n, rep = self.first
        again = self.twirl.mc_oracle_check(self.twirl.HaarSampler(h_seed), t, n)
        same = (
            again.deviations.tobytes() == rep.deviations.tobytes()
            and again.std_errors.tobytes() == rep.std_errors.tobytes()
        )
        return [] if same else [f"replay of sampler seed {h_seed} is not bit-identical"]


@dataclass
class _DesignInput:
    kind: str
    elems: np.ndarray
    eps: float = 0.0
    in_window: bool = False


class DesignStream(Workload):
    """Generated sets through construction, verification and frame potential."""

    name = "design_stream"
    why = "designs, twirl, su2 and linalg layers of verification, with no Monte Carlo"
    # (kind, size); sorted by cost the "complete" block holds the median and
    # the 48-element block the 90th percentile
    cycle = (
        ("complete", 4), ("haar", 4), ("near", 12), ("design", 24), ("complete", 4),
        ("near", 48), ("haar", 12), ("complete", 4), ("near", 24), ("design", 48),
        ("pauli", 4), ("complete", 4), ("near", 48), ("haar", 24), ("design", 24),
        ("near", 12), ("haar", 4), ("complete", 4), ("near", 48), ("haar", 12),
    )
    warmup = tuple(range(len(cycle)))
    trace_cycles = 18
    #: distinct generated cycles; a multiple of 9 so that every near-design
    #: slot meets every decade of epsilon equally often
    pool_cycles = 18
    tol = 1e-10

    def __init__(self, udes, seed: int, workdir: str):
        self.designs = udes.designs
        self.twirl = udes.twirl
        rng = np.random.default_rng([seed, 1])
        near_slots = [s for s, (kind, _) in enumerate(self.cycle) if kind == "near"]
        self.pool = []
        for c in range(self.pool_cycles):
            row = []
            for s, (kind, size) in enumerate(self.cycle):
                if kind in ("complete", "pauli"):
                    # a translated, rephased Pauli set: completed by "complete",
                    # verified as it is (a 1-design, not a 2-design) by "pauli"
                    row.append(_DesignInput(kind, min_1design(rng)))
                elif kind == "design":
                    row.append(_DesignInput(kind, completed_design(rng, size // 12)))
                elif kind == "near":
                    # stratified log-uniform epsilon in [1e-12, 1e-3)
                    decade = (c + near_slots.index(s)) % 9
                    eps = 10.0 ** (-12 + decade + rng.random())
                    elems = completed_design(rng, size // 12)
                    k = rng.integers(size)
                    elems[k] = rotate_x(eps) @ elems[k]
                    dev, gap = moment_defects(elems)
                    in_window = (dev <= self.tol) != (gap <= self.tol)
                    row.append(_DesignInput(kind, elems, eps, in_window))
                else:
                    row.append(_DesignInput(kind, haar_unitaries(rng, size)))
            self.pool.append(row)

    def op(self, cycle: int, slot: int) -> Op:
        item = self.pool[cycle % self.pool_cycles][slot]
        designs, twirl = self.designs, self.twirl
        raw = list(item.elems)
        label = f"{item.kind}{len(raw)}"
        if item.kind == "complete":

            def run():
                S4 = twirl.UnitarySet(raw)
                designs.classify_min_1design(S4)
                S = designs.extend_to_2design(S4)
                return len(S), designs.verify_design(S, 1), designs.verify_design(S, 2), twirl.frame_potential(S, 2)

            return Op(label, run, self._check_design)
        if item.kind == "design":

            def run():
                S = twirl.UnitarySet(raw)
                return len(S), designs.verify_design(S, 1), designs.verify_design(S, 2), twirl.frame_potential(S, 2)

            return Op(label, run, self._check_design)

        if item.kind == "near":
            # method="both" raises InternalConsistencyError where the twirl and
            # frame verdicts disagree (the known defect); "twirl" does the same
            # work, returns the verdict "both" would take and records the
            # disagreement in `method_agreement`, which is counted instead of failing
            def run():
                return designs.verify_design(twirl.UnitarySet(raw), 2, method="twirl")

            def defect(rep) -> bool:
                return not rep.method_agreement

            return Op(label, run, self._near_check(item.eps), defect=defect, predicted_defect=item.in_window)

        def run():
            return designs.verify_design(twirl.UnitarySet(raw), 2)

        return Op(label, run, self._check_non_design)

    @staticmethod
    def _check_design(result) -> str | None:
        n, v1, v2, fp = result
        if n not in (12, 24, 48):
            return f"completed set has {n} elements"
        if not (v1.is_design and v2.is_design):
            return f"completed set verified {v1.is_design} at t=1, {v2.is_design} at t=2"
        if abs(fp.value - 2.0) > 1e-9:
            return f"frame potential {fp.value!r}, expected 2"
        return None

    @staticmethod
    def _check_non_design(rep) -> str | None:
        return "non-design verified as a 2-design" if rep.is_design else None

    @staticmethod
    def _near_check(eps: float):
        def check(rep) -> str | None:
            if eps >= 1e-4 and rep.is_design:
                return f"near-design with eps={eps:.3e} verified True"
            if eps <= 1e-11 and not rep.is_design:
                return f"near-design with eps={eps:.3e} verified False"
            return None

        return check


_CLI_EXPECT = {
    # (command, file): (exit code, closure size, is_group, polytope)
    ("group", "f12"): (0, 24, True, None),
    ("group", "f24"): (1, 48, False, None),
    ("geometry", "f4"): (0, 8, None, "16-cell"),
    ("geometry", "f12"): (0, 24, None, "24-cell"),
    ("geometry", "f24"): (0, 48, None, "other"),
    ("frame-potential", "f12"): (0, None, None, None),
    ("frame-potential", "f24"): (0, None, None, None),
    ("construct", "f4"): (0, None, None, None),
    ("table", None): (0, None, None, None),
}


class CliStructure(Workload):
    """`udes.cli.main` in-process on set files written during set-up."""

    name = "cli_structure"
    why = "groups, file parse/save/render in cli and su2 conversions; 48-element closures set the tail"
    # (command, file, format); sorted by cost the table/group12/geometry24
    # block holds the median and the group-on-24 block the 90th percentile
    cycle = (
        ("frame-potential", "f12", "text"), ("group", "f24", "json"), ("geometry", "f4", "text"),
        ("construct", "f4", "json"), ("table", None, "text"), ("geometry", "f12", "json"),
        ("group", "f12", "text"), ("group", "f24", "text"), ("geometry", "f24", "json"),
        ("construct", "f4", "text"), ("frame-potential", "f24", "json"), ("geometry", "f4", "json"),
        ("table", None, "json"), ("group", "f24", "json"), ("geometry", "f12", "text"),
        ("construct", "f4", "json"), ("group", "f12", "json"), ("geometry", "f24", "text"),
        ("group", "f24", "text"), ("construct", "f4", "text"),
    )
    warmup = tuple(range(len(cycle)))
    trace_cycles = 12
    pool_cycles = 6

    def __init__(self, udes, seed: int, workdir: str):
        self.cli = udes.cli
        self.workdir = workdir
        rng = np.random.default_rng([seed, 2])
        self.files = []
        for c in range(self.pool_cycles):
            f12 = conjugated_design(rng, 12)
            sets = {
                "f4": min_1design(rng),
                "f12": f12,
                "f24": np.concatenate([f12, haar_unitaries(rng, 1)[0] @ f12]),
            }
            paths = {}
            for key, elems in sets.items():
                paths[key] = os.path.join(workdir, f"set{c}_{key}.json")
                write_set(paths[key], elems)
            self.files.append(paths)

    def op(self, cycle: int, slot: int) -> Op:
        cmd, key, fmt = self.cycle[slot]
        paths = self.files[cycle % self.pool_cycles]
        argv = [cmd]
        out = None
        if cmd == "construct":
            out = os.path.join(self.workdir, f"construct{slot}.json")
            argv += ["--from", "file", paths[key], "--out", out]
        elif cmd != "table":
            argv += ["--file", paths[key]]
        if cmd == "frame-potential":
            argv += ["--t", "2"]
        argv += ["--format", fmt]
        cli = self.cli

        def run():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        return Op(f"{cmd}_{key or 'none'}_{fmt}", run, self._checker(cmd, key, fmt, out))

    def _checker(self, cmd: str, key, fmt: str, out):
        code_want, size, is_group, polytope = _CLI_EXPECT[(cmd, key)]

        def check(result) -> str | None:
            code, text = result
            if code != code_want:
                return f"{cmd} exited {code}, expected {code_want}"
            if fmt == "json":
                problem = _check_json(cmd, json.loads(text), size, is_group, polytope)
            else:
                problem = _check_text(cmd, text, size, polytope)
            if problem is None and out is not None:
                S, _ = self.cli.load_unitary_set(out)
                if len(S) != 12:
                    problem = f"construct wrote {len(S)} elements, expected 12"
            return problem

        return check


def _check_json(cmd, doc, size, is_group, polytope) -> str | None:
    result = doc.get("result", {})
    if doc.get("command") != cmd:
        return f"report names command {doc.get('command')!r}"
    if size is not None and result.get("closure_size") != size:
        return f"closure_size {result.get('closure_size')}, expected {size}"
    if is_group is not None and result.get("is_group") is not is_group:
        return f"is_group {result.get('is_group')}, expected {is_group}"
    if polytope is not None and result.get("polytope") != polytope:
        return f"polytope {result.get('polytope')!r}, expected {polytope!r}"
    if cmd == "frame-potential" and abs(result["value"] - 2.0) > 1e-9:
        return f"frame potential {result['value']!r}, expected 2"
    if cmd == "table" and len(result["rows"]) != 24:
        return f"table has {len(result['rows'])} rows"
    if cmd == "construct" and not doc["verification"]["is_design"]:
        return "constructed set does not verify"
    return None


def _check_text(cmd, text, size, polytope) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0] != f"command: {cmd}":
        return f"text report starts {lines[:1]!r}"
    if size is not None and f"closure size: {size}" not in lines:
        return f"text report lacks 'closure size: {size}'"
    if polytope is not None and f"polytope: {polytope}" not in lines:
        return f"text report lacks 'polytope: {polytope}'"
    if cmd in ("construct", "frame-potential") and "is design: true" not in lines:
        return "text report lacks 'is design: true'"
    return None


def write_set(path: str, elems: np.ndarray) -> None:
    """The library's set-file layout, with floats written by repr so that
    they round-trip exactly."""
    doc = {"dim": 2, "unitaries": [[[[z.real, z.imag] for z in row] for row in U] for U in elems]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


WORKLOADS = {w.name: w for w in (McOracle, DesignStream, CliStructure)}
