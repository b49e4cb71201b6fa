import ast
from pathlib import Path

import numpy as np
import pytest

import spinsim
from spinsim.compiler import (
    Circuit,
    GateSet,
    circuit_unitary,
    decompose_pauli,
    dumps_circuit,
    embed_unitary,
    heisenberg2_circuit,
    inverse_circuit,
    loads_circuit,
    phase_distance,
    run_circuit,
)
from spinsim import compiler, gates, statevector, trotter
from spinsim.errors import InputError, ResourceError
from spinsim.gates import GATE_SIGNATURES, GateOp, PAULI, gate_matrix, hadamard, hermitian_expm, pauli_pair_exponential
from spinsim.observables import _half
from spinsim.pauli import heisenberg_chain
from spinsim.statevector import StateVector, apply_gate, basis_state, product_state
from spinsim.trotter import TrotterPlan, evolve, trotterize
from oracles import apply_dense_unitary, controlled_circuit, equal_up_to_global_phase

RNG = np.random.default_rng(2024)


def heis2_target(d):
    gen = sum(np.kron(PAULI[a], PAULI[a]) for a in "XYZ")
    return hermitian_expm(d * gen)


class TestEmbedUnitary:
    def test_adjacent_targets_match_kron(self):
        u = gate_matrix(GateOp("CPhase", (0.7,), (1, 2)))
        full = embed_unitary(u, (1, 2), 3)
        assert np.allclose(full, np.kron(u, np.eye(2)))

    def test_trailing_targets_match_kron(self):
        u = gate_matrix(GateOp("Uxy", (0.4,), (2, 3)))
        full = embed_unitary(u, (2, 3), 3)
        assert np.allclose(full, np.kron(np.eye(2), u))

    def test_reversed_target_order(self):
        # CNOT with control on qubit 2, target on qubit 1
        full = embed_unitary(gate_matrix(GateOp("CNOT", (), (2, 1))), (2, 1), 2)
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
        assert np.allclose(full, expected)

    def test_non_adjacent(self):
        z1z3 = embed_unitary(np.diag([1, -1, -1, 1]).astype(complex), (1, 3), 3)
        expected = np.kron(np.kron(PAULI["Z"], np.eye(2)), PAULI["Z"])
        assert np.allclose(z1z3, expected)


class TestCircuitUnitary:
    def test_empty_identity(self):
        assert np.allclose(circuit_unitary(Circuit(2, ())), np.eye(4))

    def test_single_hadamard(self):
        c = Circuit(1, (GateOp("H", (), (1,)),))
        assert np.allclose(circuit_unitary(c), hadamard())

    def test_cnot_involution(self):
        c = Circuit(2, (GateOp("CNOT", (), (1, 2)), GateOp("CNOT", (), (1, 2))))
        assert np.allclose(circuit_unitary(c), np.eye(4))

    def test_temporal_order(self):
        # X then H on one qubit: matrix is H @ X
        c = Circuit(1, (GateOp("X", (), (1,)), GateOp("H", (), (1,))))
        assert np.allclose(circuit_unitary(c), hadamard() @ PAULI["X"])

    def test_global_phase(self):
        c = Circuit(1, (), global_phase=0.5)
        assert np.allclose(circuit_unitary(c), np.exp(0.5j) * np.eye(2))

    def test_register_limit(self):
        with pytest.raises(ResourceError):
            circuit_unitary(Circuit(13, ()))

    def test_unitary_for_random_circuits(self):
        for _ in range(5):
            ops = []
            for _ in range(12):
                d = float(RNG.uniform(-3, 3))
                ops.append(GateOp("Rz", (d,), (int(RNG.integers(1, 4)),)))
                q1, q2 = RNG.choice(3, size=2, replace=False) + 1
                ops.append(GateOp("CNOT", (), (int(q1), int(q2))))
            u = circuit_unitary(Circuit(3, tuple(ops)))
            assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-10


class TestEqualUpToGlobalPhase:
    def test_pure_phase(self):
        assert equal_up_to_global_phase(np.eye(4), np.exp(1j * np.pi / 7) * np.eye(4))

    def test_different_gates(self):
        x1 = np.kron(PAULI["X"], np.eye(2))
        assert not equal_up_to_global_phase(np.eye(4), x1)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            equal_up_to_global_phase(np.eye(2), np.eye(4))

    def test_phase_distance(self):
        assert phase_distance(np.eye(4), np.exp(0.3j) * np.eye(4)) == pytest.approx(0.0, abs=1e-15)
        assert phase_distance(np.eye(2), PAULI["Z"]) == 1.0  # trace zero
        with pytest.raises(InputError):
            phase_distance(np.eye(2), np.eye(4))


class TestDecomposePauliPair:
    def test_s1_zz_structure(self):
        c = decompose_pauli(("z", "z"), 0.3, (1, 2), GateSet.S1)
        kinds = [op.kind for op in c.ops]
        assert kinds == ["CNOT", "Rz", "CNOT"]
        assert c.ops[1].params == (0.6,)
        assert c.ops[1].targets == (2,)

    @pytest.mark.parametrize("gs", list(GateSet))
    @pytest.mark.parametrize("alpha", "xyz")
    @pytest.mark.parametrize("beta", "xyz")
    def test_soundness_all_sets(self, gs, alpha, beta):
        for d in RNG.uniform(-np.pi, np.pi, 5):
            c = decompose_pauli((alpha, beta), float(d), (1, 2), gs)
            target = pauli_pair_exponential(alpha, beta, float(d))
            assert equal_up_to_global_phase(circuit_unitary(c), target, 1e-10)

    def test_delta_zero_identity(self):
        for gs in GateSet:
            c = decompose_pauli(("z", "z"), 0.0, (1, 2), gs)
            assert equal_up_to_global_phase(circuit_unitary(c), np.eye(4), 1e-10)

    def test_nonadjacent_and_reversed_qubits(self):
        for qubits in ((1, 3), (3, 1), (2, 1)):
            n = max(qubits)
            c = decompose_pauli(("x", "y"), 0.7, qubits, GateSet.S1)
            i, j = qubits
            gen = np.zeros((2**n, 2**n), dtype=complex)
            letters = ["I"] * n
            letters[i - 1], letters[j - 1] = "X", "Y"
            m = np.eye(1, dtype=complex)
            for ch in letters:
                m = np.kron(m, PAULI[ch])
            target = hermitian_expm(0.7 * m)
            assert equal_up_to_global_phase(circuit_unitary(c), target, 1e-10)

    def test_s2_gate_budget(self):
        c = decompose_pauli(("x", "x"), 0.9, (1, 2), GateSet.S2)
        assert c.two_qubit_count("Uxy") == 2
        assert c.two_qubit_count() == 2

    def test_s3_one_cphase_exact_with_phase(self):
        # elementwise equality once the accumulated global phase is included
        d = 0.42
        c = decompose_pauli(("z", "z"), d, (1, 2), GateSet.S3)
        assert c.two_qubit_count("CPhase") == 1
        assert np.max(np.abs(circuit_unitary(c) - pauli_pair_exponential("z", "z", d))) <= 1e-12

    def test_s3_negative_delta_uses_two_cphase_with_positive_angles(self):
        d = -0.42
        c = decompose_pauli(("z", "z"), d, (1, 2), GateSet.S3)
        cps = [op for op in c.ops if op.kind == "CPhase"]
        assert len(cps) == 2
        assert all(op.params[0] > 0 for op in cps)
        assert np.max(np.abs(circuit_unitary(c) - pauli_pair_exponential("z", "z", d))) <= 1e-12

    def test_s4_single_collective(self):
        c = decompose_pauli(("y", "z"), 0.31, (1, 2), GateSet.S4)
        assert c.two_qubit_count("MS_T4") == 1
        assert all(op.kind.startswith("MS_") for op in c.ops)

    def test_same_qubit_rejected(self):
        with pytest.raises(InputError):
            decompose_pauli(("x", "x"), 0.1, (2, 2), GateSet.S1)

    def test_bad_axis(self):
        with pytest.raises(InputError):
            decompose_pauli(("a", "x"), 0.1, (1, 2), GateSet.S1)


class TestDecomposeMultiPauli:
    def test_s1_pair_core_is_the_two_qubit_ladder(self):
        c = decompose_pauli(("z", "z"), 0.3, (3, 1), GateSet.S1)
        assert [(op.kind, op.params, op.targets) for op in c.ops] == [
            ("CNOT", (), (3, 1)), ("Rz", (0.6,), (1,)), ("CNOT", (), (3, 1)),
        ]

    def test_zzz_structure(self):
        c = decompose_pauli(("z", "z", "z"), 0.2, (1, 2, 3))
        assert c.two_qubit_count("CNOT") == 4
        rz = [op for op in c.ops if op.kind == "Rz"]
        assert len(rz) == 1 and rz[0].params == (0.4,)

    @pytest.mark.parametrize("axes", [("z", "z", "z"), ("x", "y", "z"), ("y", "y", "x")])
    def test_oracle_equality(self, axes):
        for d in RNG.uniform(-np.pi, np.pi, 5):
            c = decompose_pauli(axes, float(d), (1, 2, 3))
            gen = np.eye(1, dtype=complex)
            for a in axes:
                gen = np.kron(gen, PAULI[a.upper()])
            assert equal_up_to_global_phase(
                circuit_unitary(c), hermitian_expm(float(d) * gen), 1e-10
            )

    def test_four_qubits(self):
        c = decompose_pauli(("x", "z", "z", "y"), 0.37, (1, 2, 3, 4))
        gen = np.eye(1, dtype=complex)
        for a in "XZZY":
            gen = np.kron(gen, PAULI[a])
        assert equal_up_to_global_phase(circuit_unitary(c), hermitian_expm(0.37 * gen), 1e-10)
        assert c.two_qubit_count("CNOT") == 6

    def test_delta_zero(self):
        c = decompose_pauli(("x", "y", "z"), 0.0, (1, 2, 3))
        assert equal_up_to_global_phase(circuit_unitary(c), np.eye(8), 1e-10)

    def test_non_s1_rejected(self):
        with pytest.raises(InputError):
            decompose_pauli(("z", "z", "z"), 0.1, (1, 2, 3), GateSet.S4)


class TestDecomposePauli:
    @pytest.mark.parametrize("gs", list(GateSet))
    @pytest.mark.parametrize("axis", "xyz")
    def test_one_qubit_is_the_sets_rotation(self, gs, axis):
        # exp(-i d sigma) is R_axis(2 d), spelled as the set spells it
        for d in (0.37, -1.2):
            c = decompose_pauli((axis,), d, (2,), gs)
            assert c.ops == (compiler._rot(axis, 2 * d, 2, gs),)
            assert (c.n_qubits, c.global_phase) == (2, 0.0)
            want = embed_unitary(hermitian_expm(d * PAULI[axis.upper()]), (2,), 2)
            assert np.max(np.abs(circuit_unitary(c) - want)) <= 1e-12

    @pytest.mark.parametrize("axes, qubits", [((), ()), (("z",), (1, 2)), (("z", "z"), (1,))])
    def test_axes_must_match_qubits(self, axes, qubits):
        with pytest.raises(InputError, match="axes for"):
            decompose_pauli(axes, 0.1, qubits)

    def test_duplicate_qubits(self):
        with pytest.raises(InputError, match="duplicate qubits"):
            decompose_pauli(("z", "x", "z"), 0.1, (1, 3, 1))


class TestHeisenberg2Variants:
    @pytest.mark.parametrize("variant", ["6cnot", "3cnot", "3uxy", "s4"])
    def test_oracle_equality(self, variant):
        # elementwise, so the circuit's global_phase must be right too
        for d in RNG.uniform(-np.pi, np.pi, 8):
            target = heis2_target(float(d))
            for pair in ((1, 2), (2, 1)):
                u = circuit_unitary(heisenberg2_circuit(float(d), pair, variant))
                assert np.max(np.abs(u - target)) <= 1e-12
            u = circuit_unitary(heisenberg2_circuit(float(d), (3, 1), variant))
            assert np.max(np.abs(u - embed_unitary(target, (3, 1), 3))) <= 1e-12

    @pytest.mark.parametrize("pair", [(1, 2), (2, 1), (3, 1)])
    def test_3cnot_shape(self, pair):
        i, j = pair
        ops = heisenberg2_circuit(0.37, pair, "3cnot").ops
        cnots = [op.targets for op in ops if op.kind == "CNOT"]
        assert cnots == [(j, i), (i, j), (j, i)]
        assert {op.kind for op in ops if op.kind != "CNOT"} <= {"Rz", "Ry"}

    def test_gate_counts(self):
        assert heisenberg2_circuit(0.5, (1, 2), "6cnot").two_qubit_count("CNOT") == 6
        assert heisenberg2_circuit(0.5, (1, 2), "3cnot").two_qubit_count("CNOT") == 3
        assert heisenberg2_circuit(0.5, (1, 2), "3uxy").two_qubit_count("Uxy") == 3
        assert heisenberg2_circuit(0.5, (1, 2), "s4").two_qubit_count("MS_T4") == 3

    def test_variants_agree_pairwise(self):
        d = 0.77
        us = [
            circuit_unitary(heisenberg2_circuit(d, (1, 2), v))
            for v in ("6cnot", "3cnot", "3uxy", "s4")
        ]
        for u in us[1:]:
            assert equal_up_to_global_phase(us[0], u, 1e-10)

    def test_delta_zero(self):
        for v in ("6cnot", "3cnot", "3uxy", "s4"):
            c = heisenberg2_circuit(0.0, (1, 2), v)
            assert equal_up_to_global_phase(circuit_unitary(c), np.eye(4), 1e-10)

    def test_weyl_chamber_corners(self):
        # delta values where the bond is, up to phase, the identity (pi/2, pi),
        # SWAP (pi/4, 3pi/4) or a square root of SWAP (+-pi/8)
        for d in (np.pi / 8, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi, -np.pi / 8):
            c = heisenberg2_circuit(float(d), (1, 2), "3cnot")
            assert c.two_qubit_count("CNOT") == 3
            assert equal_up_to_global_phase(circuit_unitary(c), heis2_target(float(d)), 1e-10)

    def test_reversed_qubit_pair(self):
        c = heisenberg2_circuit(0.3, (2, 1), "3cnot")
        assert equal_up_to_global_phase(circuit_unitary(c), heis2_target(0.3), 1e-10)

    def test_unknown_variant(self):
        with pytest.raises(InputError):
            heisenberg2_circuit(0.5, (1, 2), "2cnot")


class TestInverseCircuit:
    @pytest.mark.parametrize("kind", sorted(GATE_SIGNATURES))
    def test_every_kind_inverts(self, kind):
        n_params, n_targets = GATE_SIGNATURES[kind]
        op = GateOp(kind, tuple(RNG.uniform(-2, 2, n_params)), tuple(range(1, (n_targets or 3) + 1)))
        c = Circuit(3, (op,))
        product = circuit_unitary(inverse_circuit(c)) @ circuit_unitary(c)
        assert np.max(np.abs(product - np.eye(8))) <= 1e-10

    def test_inverse_is_adjoint(self):
        for _ in range(5):
            ops = []
            for _ in range(10):
                choice = RNG.integers(0, 4)
                if choice == 0:
                    ops.append(GateOp("U3", tuple(RNG.uniform(-3, 3, 3)), (1,)))
                elif choice == 1:
                    ops.append(GateOp("CNOT", (), (1, 2)))
                elif choice == 2:
                    ops.append(GateOp("Uxy", (float(RNG.uniform(-2, 2)),), (1, 2)))
                else:
                    ops.append(GateOp("H", (), (2,)))
            c = Circuit(2, tuple(ops), global_phase=float(RNG.uniform(-1, 1)))
            u = circuit_unitary(c)
            uinv = circuit_unitary(inverse_circuit(c))
            assert np.max(np.abs(uinv - u.conj().T)) <= 1e-10

    @pytest.mark.parametrize("n", [3, 9])
    def test_inverse_runs_the_adjoint_blocks(self, n):
        # the inverse runs c's blocks' adjoints in reverse order, not its own ops fused
        c = _random_fusion_circuit(n, 60)
        inverse = inverse_circuit(c)
        assert [t for t, _ in inverse.blocks] == [t for t, _ in reversed(c.blocks)]
        amps = _random_amplitudes(n)
        back = run_circuit(run_circuit(StateVector(n, amps.copy()), c), inverse)
        assert np.max(np.abs(back.amplitudes - amps)) <= 1e-12
        by_ops = Circuit(n, inverse.ops, inverse.global_phase)
        want = run_circuit(StateVector(n, amps.copy()), by_ops).amplitudes
        got = run_circuit(StateVector(n, amps.copy()), inverse).amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12


class TestControlledCircuit:
    @pytest.mark.parametrize(
        "op",
        [
            GateOp("X", (), (1,)),
            GateOp("H", (), (1,)),
            GateOp("Phase", (0.73,), (1,)),
            GateOp("Rx", (1.3,), (2,)),
            GateOp("Ry", (-0.4,), (1,)),
            GateOp("Rz", (2.1,), (2,)),
            GateOp("U3", (0.5, 1.5, -0.7), (1,)),
            GateOp("CNOT", (), (1, 2)),
            GateOp("CNOT", (), (2, 1)),
            GateOp("CPhase", (0.9,), (1, 2)),
            GateOp("ZZ", (0.6,), (1, 2)),
            GateOp("XX", (-0.6,), (1, 2)),
            GateOp("YY", (0.25,), (1, 2)),
            GateOp("Uxy", (0.8,), (1, 2)),
        ],
    )
    def test_single_gate_against_dense_control(self, op):
        base = Circuit(2, (op,))
        ctrl = controlled_circuit(base, 3)
        u_sys = circuit_unitary(base)
        # control qubit 3 is the least significant bit
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        expected = np.kron(np.eye(4), p0) + np.kron(u_sys, p1)
        assert np.max(np.abs(circuit_unitary(ctrl) - expected)) <= 1e-10

    def test_global_phase_becomes_controlled_phase(self):
        base = Circuit(2, (), global_phase=0.81)
        ctrl = controlled_circuit(base, 3)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        expected = np.kron(np.eye(4), p0) + np.exp(0.81j) * np.kron(np.eye(4), p1)
        assert np.max(np.abs(circuit_unitary(ctrl) - expected)) <= 1e-10

    def test_whole_circuit(self):
        base = Circuit(
            2,
            (
                GateOp("H", (), (1,)),
                GateOp("CNOT", (), (1, 2)),
                GateOp("Rz", (0.37,), (2,)),
                GateOp("Uxy", (0.21,), (1, 2)),
            ),
            global_phase=0.11,
        )
        ctrl = controlled_circuit(base, 3)
        u_sys = circuit_unitary(base)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        expected = np.kron(np.eye(4), p0) + np.kron(u_sys, p1)
        assert np.max(np.abs(circuit_unitary(ctrl) - expected)) <= 1e-10

    def test_ms_rejected(self):
        with pytest.raises(InputError):
            controlled_circuit(Circuit(2, (GateOp("MS_T4", (0.1, 0.0), (1, 2)),)), 3)

    def test_control_collision(self):
        with pytest.raises(InputError):
            controlled_circuit(Circuit(2, (GateOp("X", (), (2,)),)), 2)


def test_second_spellings_live_only_in_the_test_oracles():
    # the controlled expansion and the dense references are the tests' oracles,
    # and circuits are not concatenated with `+`
    names = ("controlled_circuit", "_controlled_op", "_ctrl_rz", "_ctrl_ry", "_ctrl_rx",
             "_toffoli", "_ctrl_pair_core", "equal_up_to_global_phase", "apply_dense_unitary",
             "is_unitary", "pauli_expectation", "commutator_error_bound")
    for module in (spinsim, compiler, statevector, trotter, gates):
        assert [n for n in names if hasattr(module, n)] == [], module.__name__
    with pytest.raises(TypeError):
        Circuit(1, ()) + Circuit(1, ())
    tree = ast.parse(Path(statevector.__file__).read_text(encoding="utf-8"))
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "pauli" not in imported


class TestSerialization:
    def test_roundtrip(self):
        c = heisenberg2_circuit(0.4, (1, 2), "3cnot")
        text = dumps_circuit(c)
        c2 = loads_circuit(text)
        assert c2.n_qubits == c.n_qubits
        assert c2.ops == c.ops
        assert c2.global_phase == pytest.approx(c.global_phase)
        assert np.max(np.abs(circuit_unitary(c2) - circuit_unitary(c))) <= 1e-12

    def test_format_shape(self):
        c = Circuit(2, (GateOp("Rz", (0.5,), (2,)), GateOp("CNOT", (), (1, 2))), 0.25)
        text = dumps_circuit(c)
        lines = text.strip().splitlines()
        assert lines[0] == "qubits 2"
        assert lines[1] == "Rz(0.5) 2"
        assert lines[2] == "CNOT() 1 2"
        assert lines[3] == "phase 0.25"

    def test_parse_error(self):
        with pytest.raises(InputError):
            loads_circuit("qubits 2\nnot a gate line\n")


@pytest.mark.parametrize("route", ["Circuit", "loads_circuit", "apply_gate", "apply_dense_unitary"])
def test_out_of_range_target_refused(route):
    # every way a gate reaches a register goes through the one range check
    gate = GateOp("CNOT", (), (1, 3))
    reach = {
        "Circuit": lambda: Circuit(2, (gate,)),
        "loads_circuit": lambda: loads_circuit("qubits 2\nCNOT() 1 3\n"),
        "apply_gate": lambda: apply_gate(basis_state(2, "00"), gate),
        "apply_dense_unitary": lambda: apply_dense_unitary(
            basis_state(2, "00"), gate.matrix, gate.targets
        ),
    }[route]
    with pytest.raises(InputError, match="qubit 3 out of range for 2-qubit register"):
        reach()


class TestRunCircuit:
    def test_matches_unitary(self):
        c = heisenberg2_circuit(0.9, (1, 2), "6cnot")
        state = run_circuit(basis_state(2, "01"), c)
        expected = circuit_unitary(c) @ np.array([0, 1, 0, 0], dtype=complex)
        assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


def _random_fusion_circuit(n: int, n_ops: int) -> Circuit:
    """1q gates, adjacent and non-adjacent pairs in either target order, MS
    gates on 2 to min(4, n) qubits and a nonzero global phase."""
    kinds = {
        "H": (0, 1), "X": (0, 1), "Rx": (1, 1), "Ry": (1, 1), "Rz": (1, 1), "Phase": (1, 1),
        "U3": (3, 1), "MS_T1": (1, 1), "CNOT": (0, 2), "CPhase": (1, 2), "ZZ": (1, 2),
        "XX": (1, 2), "YY": (1, 2), "Uxy": (1, 2), "MS_T3": (2, 3), "MS_T4": (2, 4),
    }
    ops = []
    for _ in range(n_ops):
        kind = str(RNG.choice(list(kinds)))
        n_params, k = kinds[kind]
        if kind in ("MS_T3", "MS_T4"):
            k = int(RNG.integers(2, min(k, n) + 1))  # collective, on 2 to k qubits
        if k == 2 and RNG.random() < 0.5:
            q = int(RNG.integers(1, n))
            targets = (q, q + 1)
        else:
            targets = tuple(int(q) + 1 for q in RNG.choice(n, size=k, replace=False))
        if RNG.random() < 0.5:
            targets = targets[::-1]
        ops.append(GateOp(kind, tuple(RNG.uniform(-np.pi, np.pi, n_params)), targets))
    return Circuit(n, ops, 0.83)


def _random_amplitudes(n: int) -> np.ndarray:
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def _gate_by_gate(state: StateVector, c: Circuit) -> StateVector:
    for op in c.ops:
        apply_gate(state, op)
    state.amplitudes *= np.exp(1j * c.global_phase)
    return state


def _op(kind: str, *targets: int) -> GateOp:
    """``kind`` on ``targets`` with random parameters."""
    return GateOp(kind, tuple(RNG.uniform(-np.pi, np.pi, GATE_SIGNATURES[kind][0])), targets)


# (ops as (kind, *targets), the fused blocks' targets) for the neighbour merge
MERGE_CASES = {
    # (2, 3) closes (1, 2) and then (3, 4): the low block is listed first
    "low-first": ([("XX", 1, 2), ("Ry", 3), ("XX", 3, 4), ("CNOT", 2, 3)],
                  [(1, 2, 3, 4), (2, 3)]),
    # (4, 5) closes (3, 4) before (6, 2) closes (1, 2): the high block first
    "high-first": ([("XX", 1, 2), ("XX", 3, 4), ("CNOT", 4, 5), ("CNOT", 6, 2)],
                   [(1, 2, 3, 4), (2, 6), (4, 5)]),
    # 1q blocks below and above a pair
    "single-qubits": ([("Ry", 4), ("XX", 2, 3), ("Ry", 1)], [(1, 2, 3, 4)]),
    "single-above": ([("Rx", 3), ("XX", 1, 2)], [(1, 2, 3)]),
    # overlapping, gapped and non-adjacent neighbours stay apart
    "overlap": ([("XX", 1, 2), ("XX", 2, 3), ("XX", 5, 6)], [(1, 2), (2, 3), (5, 6)]),
    "interleaved": ([("CNOT", 3, 1), ("Ry", 2)], [(1, 3), (2,)]),
    "not-a-run": ([("CNOT", 3, 1), ("Ry", 4)], [(1, 3), (4,)]),
    # no block wider than 4 qubits
    "cap": ([("XX", 1, 2), ("XX", 3, 4), ("XX", 5, 6), ("CNOT", 2, 3), ("CNOT", 4, 5)],
            [(1, 2, 3, 4), (5, 6), (2, 3, 4, 5)]),
    # MS_T4 on adjacent qubits: a 3-qubit one joins the 1q block after it
    "ms3": ([("Ry", 8), ("MS_T4", 5, 6, 7)], [(5, 6, 7, 8)]),
    "ms4": ([("MS_T4", 1, 2, 3, 4), ("Ry", 5)], [(1, 2, 3, 4), (5,)]),
    "ms3-descending": ([("MS_T4", 7, 6, 5), ("Ry", 8)], [(7, 6, 5), (8,)]),
}


class TestFusedRun:
    """Every register runs a circuit as fused blocks of at most 4 qubits;
    ``apply_gate``, one gate at a time, is the reference."""

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 12, 13])
    def test_matches_gate_by_gate(self, n):
        c = _random_fusion_circuit(n, 150)
        assert len(c.blocks) < len(c.ops)
        amps = _random_amplitudes(n)
        got = run_circuit(StateVector(n, amps.copy()), c)
        want = _gate_by_gate(StateVector(n, amps.copy()), c)
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-12

    # 3 qubits: a 2-qubit circuit on the ancilla half, as in a spectrum run
    @pytest.mark.parametrize("n", [3, 13])
    def test_strided_half(self, n):
        c = _random_fusion_circuit(n - 1, 150)
        amps = _random_amplitudes(n)
        state = StateVector(n, amps.copy())
        run_circuit(_half(state, 1), c)
        want = _gate_by_gate(StateVector(n - 1, amps[1::2].copy()), c)
        assert np.max(np.abs(state.amplitudes[1::2] - want.amplitudes)) <= 1e-12
        assert np.array_equal(state.amplitudes[0::2], amps[0::2])

    def test_gate_sets_agree_at_12_qubits(self):
        h = heisenberg_chain(12, list(RNG.uniform(0.5, 1.5, 11)), 0.5)
        states = []
        for gate_set in GateSet:
            c = trotterize(h, 1.0, TrotterPlan.fixed_n(1), gate_set).circuit
            # one 4-qubit block per two neighbouring bonds of a layer, and a
            # lone (10, 11): (1-4), (5-8), (9-12), (2-5), (6-9), (10, 11)
            assert len(c.blocks) == 6
            states.append(run_circuit(product_state(12, "010011010110"), c).amplitudes)
        for other in states[1:]:
            assert abs(np.vdot(states[0], other)) >= 1.0 - 1e-10

    @pytest.mark.parametrize("n", [4, 12])
    def test_compiler_plans_its_step_once(self, monkeypatch, n):
        planned = []
        plan_blocks = compiler.plan_blocks

        def counting_plan(targets):
            planned.append(targets)
            return plan_blocks(targets)

        monkeypatch.setattr(compiler, "plan_blocks", counting_plan)
        h = heisenberg_chain(n, 1.0, 0.5)
        compile_at = trotter.TrotterCompiler(h, TrotterPlan.fixed_n(2), GateSet.S1)
        state = product_state(n, "0" * (n // 2) + "1" * (n - n // 2))
        results = [compile_at(t) for t in (0.6, 0.9, -0.6)]
        for result in results:
            evolve(state, result)
            evolve(state, result)
        # the step and the prefix of hoisted field rotations are each planned
        # once, as the compiler's templates; every result, the mirrored one
        # too (the adjoints of the forward blocks), runs filled blocks
        assert len(planned) == 1 + 1
        assert all(r.n_steps_used == 2 and not r.folds for r in results)

    # at the head of the register and at its tail, where the kernel takes
    # GEMMs; 16 qubits and up span more than one of the kernel's chunks
    @pytest.mark.parametrize("register", ["12", "13", "half-13", "16", "half-17"])
    @pytest.mark.parametrize("case", list(MERGE_CASES))
    def test_neighbour_merge(self, case, register):
        specs, want = MERGE_CASES[case]
        half = register.startswith("half")
        width = int(register.split("-")[-1])
        n = width - 1 if half else width
        for offset in (0, n - 8):
            c = Circuit(n, [_op(kind, *(q + offset for q in qs)) for kind, *qs in specs])
            assert [t for t, _ in c.blocks] == [tuple(q + offset for q in t) for t in want]
            amps = _random_amplitudes(width)
            state = StateVector(width, amps.copy())
            run_circuit(_half(state, 1) if half else state, c)
            want_state = _gate_by_gate(StateVector(n, (amps[1::2] if half else amps).copy()), c)
            got = state.amplitudes[1::2] if half else state.amplitudes
            assert np.max(np.abs(got - want_state.amplitudes)) <= 1e-12
            if half:
                assert np.array_equal(state.amplitudes[0::2], amps[0::2])

    def test_twenty_qubit_step_runs_in_ten_blocks(self):
        h = heisenberg_chain(20, list(RNG.uniform(0.5, 1.5, 19)), 0.5)
        for gate_set in GateSet:
            result = trotterize(h, 1.0, TrotterPlan.fixed_n(1), gate_set)
            # each layer of bonds as 4-qubit blocks of two neighbouring bonds:
            # (1-4) ... (17-20), then (2-5) ... (14-17) and a lone (18, 19)
            assert len(result.step.blocks) == len(result.circuit.blocks) == 10
