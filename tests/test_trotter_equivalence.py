"""Compiled evolutions against ``golden/trotterize-grid.json``.

The golden file was written by ``trotterize`` as it stood before a
``TrotterCompiler`` analysed each Hamiltonian once and emitted only the
angle-carrying gates per time, from the grid in ``grid_cases``: the spin
builders and a Jordan-Wigner Hubbard model, a three-qubit Pauli term, fixed_n
and fixed_eps schedules, orders 1 and 2, the four gate sets, and t = 0 and
+-0.7.  Negative couplings put the S3 pairs on their two-CPhase form at t > 0,
and on the single-CPhase form at t = 0.

Each record holds the step count, the phase and the global phase (as exact
float hex) and the sha256 of ``dumps_circuit`` of the prefix and of the step,
so a match is bit for bit.  A case the compiler refuses records its error.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from spinsim import trotter
from spinsim.compiler import Circuit, GateSet, dumps_circuit, run_circuit
from spinsim.errors import InputError
from spinsim.gates import GateOp, gate_matrix
from spinsim.pauli import (
    PauliHamiltonian,
    PauliString,
    heisenberg_chain,
    hubbard_2site,
    jordan_wigner,
    tim_chain,
    xyz_chain,
)
from spinsim.statevector import StateVector
from spinsim.trotter import TrotterPlan, trotterize

GOLDEN = Path(__file__).resolve().parent / "golden" / "trotterize-grid.json"


def _tilted_heisenberg3() -> PauliHamiltonian:
    # x and z fields that commute, summed, with the bonds: the Euler-angle prefix
    h = heisenberg_chain(3, [1.0, -0.7], 1.4)
    fields = [PauliString(0.9, "I" * (q - 1) + "X" + "I" * (3 - q)) for q in (1, 2, 3)]
    return PauliHamiltonian(3, list(h.terms) + fields)


HAMILTONIANS = {
    # z fields hoisted in front of the loop; a negative bond
    "heis3": lambda: heisenberg_chain(3, [1.0, -0.7], 1.5),
    "heis3-tilted": _tilted_heisenberg3,
    # fields that do not commute with the negative bonds
    "tim3": lambda: tim_chain(3, [0.7, -0.4, 0.5], -0.8),
    "xyz3": lambda: xyz_chain(3, 1.0, -0.5, 0.3),
    # an identity term and a bond between qubits 1 and 4
    "hubbard2-jw": lambda: jordan_wigner(hubbard_2site(1.0, 2.0)),
    # a three-qubit term: S1 only
    "multi3": lambda: PauliHamiltonian(
        3, [PauliString(0.6, "XZY"), PauliString(-0.4, "ZZI"), PauliString(0.3, "IXI")]
    ),
}

PLANS = {
    f"{name}-order{order}": plan(order)
    for order in (1, 2)
    for name, plan in (
        ("fixed_n3", lambda o: TrotterPlan.fixed_n(3, order=o)),
        ("eps0.1", lambda o: TrotterPlan.fixed_eps(0.1, "quadratic", order=o)),
    )
}

TIMES = (0.0, 0.7, -0.7)


def grid_cases():
    """(case id, Hamiltonian name, plan, gate set, t) over the grid."""
    for h_name in HAMILTONIANS:
        for plan_name, plan in PLANS.items():
            for gate_set in GateSet:
                for t in TIMES:
                    yield f"{h_name}/{plan_name}/{gate_set.value}/t{t:+}", h_name, plan, gate_set, t


def _sha(circuit) -> str:
    return hashlib.sha256(dumps_circuit(circuit).encode()).hexdigest()


def record(compile_at, t: float) -> str:
    """One line per compiled evolution: every value it carries, bit for bit."""
    try:
        r = compile_at(t)
    except InputError as exc:
        return f"InputError: {exc}"
    return (f"n={r.n_steps_used} phase={r.phase.hex()} global_phase={r.global_phase.hex()} "
            f"mirrored={r.mirrored} prefix={_sha(r.prefix)} step={_sha(r.step)}")


def grid_records(compile_for) -> dict[str, str]:
    """The grid's records; ``compile_for(h, plan, gate_set)`` returns a function of t."""
    built = {name: build() for name, build in HAMILTONIANS.items()}
    return {
        case: record(compile_for(built[h_name], plan, gate_set), t)
        for case, h_name, plan, gate_set, t in grid_cases()
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_trotterize_matches_golden(golden):
    records = grid_records(lambda h, plan, gate_set: lambda t: trotterize(h, t, plan, gate_set))
    assert records == golden


def test_one_compiler_per_hamiltonian_matches_golden(golden):
    # one object compiles every time of a (H, plan, gate set), in grid order
    def compile_for(h, plan, gate_set):
        try:
            return trotter.TrotterCompiler(h, plan, gate_set)
        except InputError as exc:
            error = exc

            def refuse(t):
                raise error

            return refuse

    assert grid_records(compile_for) == golden


def test_grid_covers_the_s3_sign_switch(golden):
    # a negative coupling on S3: one CPhase per pair at t = 0, two at t > 0
    for case, h_name, plan, gate_set, t in grid_cases():
        if h_name == "tim3" and gate_set is GateSet.S3 and plan.order == 1 and t >= 0:
            step = trotterize(HAMILTONIANS[h_name](), t, plan, gate_set).step
            assert step.two_qubit_count("CPhase") == (2 if t == 0 else 4)
    assert sum(r.startswith("InputError") for r in golden.values()) == 3 * len(PLANS) * len(TIMES)


COMPILED_CASES = [case for case in grid_cases()
                  if not json.loads(GOLDEN.read_text())[case[0]].startswith("InputError")]


@pytest.mark.parametrize("case, h_name, plan, gate_set, t", COMPILED_CASES,
                         ids=[case[0] for case in COMPILED_CASES])
def test_filled_step_runs_as_its_gates(case, h_name, plan, gate_set, t):
    # the compiler's filled blocks against the step's gates fused anew; a
    # mirrored step runs the forward blocks' adjoints in reverse order
    h = HAMILTONIANS[h_name]()
    r = trotterize(h, t, plan, gate_set)
    n = h.n_qubits
    gates = Circuit(n, r.step.ops).blocks
    if r.mirrored:
        forward = Circuit(n, trotterize(h, -t, plan, gate_set).step.ops).blocks
        want = [targets for targets, _ in reversed(forward)]
    else:
        want = [targets for targets, _ in gates]
    assert [targets for targets, _ in r.step.blocks] == want
    assert len(r.step.blocks) == len(gates)
    rng = np.random.default_rng(18)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    filled = run_circuit(StateVector(n, amps.copy()), r.step)
    by_gates = run_circuit(StateVector(n, amps.copy()), Circuit(n, r.step.ops))
    assert np.max(np.abs(filled.amplitudes - by_gates.amplitudes)) <= 1e-12
    assert r.folds is dataclasses.replace(r, step=Circuit(n, r.step.ops)).folds


def _recurs(ops, kind: str) -> bool:
    """Whether one ``kind`` gate stands at two places of ``ops`` (a recurring slot)."""
    same = [op for op in ops if op.kind == kind]
    return len({id(op) for op in same}) < len(same)


def test_grid_covers_every_slot_form():
    # S3's negative angles take the form with one CPhase slot at two places,
    # mirrored at t < 0, and the one-CPhase form at t = 0 (d = -0.0); S2's
    # Uxy(d/2) slot recurs; S4 spells its pairs and rotations as MS_T4, T1, T3
    s3, forms = {}, set()
    for case, h_name, plan, gate_set, t in COMPILED_CASES:
        ops = trotterize(HAMILTONIANS[h_name](), t, plan, gate_set).step.ops
        if gate_set is GateSet.S3:
            s3[h_name, plan, t] = (_recurs(ops, "CPhase"), sum(op.kind == "CPhase" for op in ops))
        if gate_set is GateSet.S2:
            forms.add(("S2 recurring Uxy", _recurs(ops, "Uxy")))
        if gate_set is GateSet.S4:
            forms.update(("S4", op.kind) for op in ops)
    two_cphase = [(h_name, plan) for (h_name, plan, t), (recurs, _) in s3.items() if recurs]
    assert {h_name for h_name, _ in two_cphase} == {"heis3", "heis3-tilted", "tim3", "xyz3"}
    for h_name, plan in two_cphase:
        at = {t: s3[h_name, plan, t] for t in TIMES}
        assert at[0.7][0] and not at[0.0][0]
        assert at[0.0][1] < at[0.7][1] == at[-0.7][1]
    assert {("S2 recurring Uxy", True), ("S4", "MS_T4"), ("S4", "MS_T1"), ("S4", "MS_T3")} <= forms


GRID_TIMES = (0.0, 0.35, 0.7, -0.7)


def _blocks_bytes(circuit) -> list:
    return [(targets, u.shape, u.tobytes()) for targets, u in circuit.blocks]


def _scalar_blocks(templates, circuit) -> list | None:
    """The blocks of the template ``circuit`` was filled from, at one matrix per slot.

    Each slot's matrix is the 2-D one a rebuilt :class:`GateOp` of the
    circuit's gate gives (the scalar ``gate_matrix`` path), and the template
    multiplies them in 2-D, not as stacks.  None for a circuit no template
    filled: a plain one, whose blocks take that path already.
    """
    ops = circuit.ops
    for template in templates:
        if len(template._members) != len(ops):
            continue
        slots = {}
        for member, k, op in zip(template._members, template._keys, ops):
            if k is None and member is not op or k is not None and template._slots[k][0][0] != op.kind:
                break
            if k is not None:
                slots.setdefault(k, gate_matrix(GateOp(op.kind, op.params, op.targets)))
        else:
            blocks = template.blocks([slots[k] for k in range(len(slots))])
            return [(targets, u.shape, u.tobytes()) for targets, u in blocks]
    return None


# the (H, plan, gate set) of every compiled case of the golden grid
COMPILERS = sorted({case[0].rsplit("/", 1)[0]: case[1:4] for case in COMPILED_CASES}.items())


@pytest.mark.parametrize("h_name, plan, gate_set", [c for _, c in COMPILERS],
                         ids=[name for name, _ in COMPILERS])
def test_grid_matches_one_call_per_time(h_name, plan, gate_set):
    # one stacked fill per form over the grid, against a fresh compiler called
    # once per time: every value a point carries, its blocks bit for bit; and
    # a filled point's blocks against its template's 2-D product of the
    # scalar gate matrices, so the stacked path is pinned on every platform
    h = HAMILTONIANS[h_name]()
    compile_grid = trotter.TrotterCompiler(h, plan, gate_set)
    grid = compile_grid.grid(GRID_TIMES)
    templates = [t for t in (*compile_grid._templates.values(), compile_grid._prefix)
                 if t is not None]
    single = trotter.TrotterCompiler(h, plan, gate_set)
    filled = 0
    for t, got in zip(GRID_TIMES, grid):
        want = single(t)
        assert (got.n_steps_used, got.phase.hex(), got.global_phase.hex(), got.mirrored) == (
            want.n_steps_used, want.phase.hex(), want.global_phase.hex(), want.mirrored)
        for part in ("prefix", "step"):
            g, w = getattr(got, part), getattr(want, part)
            assert _blocks_bytes(g) == _blocks_bytes(w), (t, part)
            assert g.ops == w.ops and dumps_circuit(g) == dumps_circuit(w), (t, part)
            assert g.n_gates == len(g.ops)
            scalar = None if got.mirrored else _scalar_blocks(templates, g)
            if scalar is not None:
                assert _blocks_bytes(g) == scalar, (t, part)
                filled += 1
    assert filled >= 3  # the step at each forward time


@pytest.mark.parametrize("plan_name", list(PLANS))
def test_s3_grid_holds_both_forms(plan_name):
    # negative couplings on S3: t = 0 takes the one-CPhase form of each
    # negative pair and t > 0 the two-CPhase form, filled in one grid
    compile_at = trotter.TrotterCompiler(HAMILTONIANS["tim3"](), PLANS[plan_name], GateSet.S3)
    grid = compile_at.grid(GRID_TIMES)
    pairs = [r.step.two_qubit_count("CPhase") for r in grid]
    assert pairs[0] < pairs[1] == pairs[2] == pairs[3]
    assert len(compile_at._templates) == 2
