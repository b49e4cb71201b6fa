import numpy as np
import pytest

from spinsim.compiler import embed_unitary
from spinsim.errors import InputError, ResourceError
from spinsim.gates import GateOp, gate_matrix
from spinsim.statevector import (
    StateVector,
    apply_gate,
    basis_state,
    check_register,
    inner_product,
    probability,
    product_state,
)
from spinsim.pauli import PauliString
from oracles import pauli_expectation

RNG = np.random.default_rng(42)


def random_state(n):
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def random_gate(n):
    kind = RNG.choice(["H", "X", "Rx", "Ry", "Rz", "Phase", "U3", "CNOT", "CPhase", "ZZ", "Uxy"])
    n_params, n_targets = {
        "H": (0, 1), "X": (0, 1), "Rx": (1, 1), "Ry": (1, 1), "Rz": (1, 1),
        "Phase": (1, 1), "U3": (3, 1), "CNOT": (0, 2), "CPhase": (1, 2),
        "ZZ": (1, 2), "Uxy": (1, 2),
    }[kind]
    params = tuple(RNG.uniform(-np.pi, np.pi, n_params))
    targets = tuple(int(q) + 1 for q in RNG.choice(n, size=n_targets, replace=False))
    return GateOp(kind, params, targets)


def test_register_bounds():
    check_register(1)
    check_register(26)
    with pytest.raises(InputError, match="must be >= 1"):
        StateVector(0)
    with pytest.raises(ResourceError, match="27 qubits"):
        check_register(27)
    with pytest.raises(ResourceError):
        StateVector(10**12)


class TestBasisState:
    def test_single_qubit_ground(self):
        assert np.allclose(basis_state(1, "0").amplitudes, [1, 0])

    def test_bit_ordering_100(self):
        s = basis_state(3, "100")
        expected = np.zeros(8)
        expected[4] = 1
        assert np.allclose(s.amplitudes, expected)

    def test_bit_ordering_11(self):
        assert basis_state(2, "11").amplitudes[3] == 1

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            basis_state(2, "010")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_roundtrip_all_bitstrings(self, n):
        for k in range(2**n):
            bits = format(k, f"0{n}b")
            assert probability(basis_state(n, bits), bits) == 1.0


class TestApplyGate:
    def test_x_flips(self):
        s = apply_gate(basis_state(1, "0"), GateOp("X", (), (1,)))
        assert np.allclose(s.amplitudes, [0, 1])

    def test_hadamard(self):
        s = apply_gate(basis_state(1, "0"), GateOp("H", (), (1,)))
        assert np.allclose(s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_cnot(self):
        s = apply_gate(basis_state(2, "10"), GateOp("CNOT", (), (1, 2)))
        assert probability(s, "11") == pytest.approx(1.0)

    def test_out_of_range(self):
        with pytest.raises(InputError):
            apply_gate(basis_state(2, "00"), GateOp("X", (), (3,)))

    def test_duplicate_targets(self):
        with pytest.raises(InputError):
            GateOp("CNOT", (), (1, 1))

    def test_norm_preserved_random_circuits(self):
        for n in (2, 4, 6):
            s = random_state(n)
            for _ in range(60):
                apply_gate(s, random_gate(n))
            assert abs(s.norm() - 1.0) <= 1e-12

    def test_linearity(self):
        n = 4
        a, b = random_state(n), random_state(n)
        alpha, beta = 0.3 - 0.4j, 0.8 + 0.1j
        for _ in range(10):
            g = random_gate(n)
            combo = StateVector(n, alpha * a.amplitudes + beta * b.amplitudes)
            apply_gate(combo, g)
            ga = apply_gate(a.copy(), g)
            gb = apply_gate(b.copy(), g)
            assert np.allclose(
                combo.amplitudes, alpha * ga.amplitudes + beta * gb.amplitudes, atol=1e-12
            )

    @pytest.mark.parametrize("n", range(2, 7))
    def test_strided_kernel_matches_dense_embedding(self, n):
        for _ in range(25):
            g = random_gate(n)
            s = random_state(n)
            dense = embed_unitary(gate_matrix(g), g.targets, n) @ s.amplitudes
            apply_gate(s, g)
            assert np.max(np.abs(s.amplitudes - dense)) <= 1e-12

    @pytest.mark.parametrize(
        "kind", ["H", "X", "Rx", "Ry", "Rz", "Phase", "U3", "CNOT", "CPhase", "ZZ", "Uxy"]
    )
    def test_large_register_kernels_match_tensor_contraction(self, kind):
        # 16 qubits switch on the GEMM kernel for dense gates on the last
        # qubits (in more than one chunk) and the Uxy slice kernel; targets
        # cover both those and the plain strided views
        n = 16
        n_params, n_targets = {"H": 0, "X": 0, "U3": 3, "CNOT": 0}.get(kind, 1), 1
        if kind in ("CNOT", "CPhase", "ZZ", "Uxy"):
            n_targets = 2
        placements = (
            [(1,), (10,), (11,), (12,), (15,), (16,)]
            if n_targets == 1
            else [(1, 16), (16, 1), (3, 14), (14, 3), (13, 16), (16, 13),
                  (15, 16), (16, 15), (1, 2), (2, 1), (5, 6)]
        )
        for targets in placements:
            g = GateOp(kind, tuple(RNG.uniform(-np.pi, np.pi, n_params)), targets)
            s = random_state(n)
            k, axes = len(targets), [t - 1 for t in targets]
            out = np.tensordot(
                gate_matrix(g).reshape((2,) * 2 * k),
                s.amplitudes.reshape((2,) * n),
                axes=(list(range(k, 2 * k)), axes),
            )
            expected = np.moveaxis(out, list(range(k)), axes).reshape(-1)
            apply_gate(s, g)
            assert np.max(np.abs(s.amplitudes - expected)) <= 1e-12, targets

    @pytest.mark.parametrize("n", [3, 12])
    def test_strided_amplitudes_updated_in_place(self, n):
        # a state over a strided array (every other entry, reversed) is
        # updated through that array by every kernel
        base = random_state(n).amplitudes
        backing = np.zeros(2 ** (n + 1), dtype=complex)
        backing[::-2] = base
        s = StateVector(n, backing[::-2])
        ref = StateVector(n, base.copy())
        for g in [GateOp("X", (), (1,)), GateOp("X", (), (n,)), GateOp("H", (), (n,)),
                  GateOp("Rz", (0.4,), (n,)), GateOp("CNOT", (), (n, 1)),
                  GateOp("CNOT", (), (1, 2)), GateOp("CPhase", (0.5,), (1, n)),
                  GateOp("ZZ", (0.6,), (n - 1, n)), GateOp("Uxy", (0.7,), (n, n - 1)),
                  GateOp("MS_T4", (0.3, 0.2), (1, 2, n))]:
            apply_gate(s, g)
            apply_gate(ref, g)
        assert np.max(np.abs(backing[::-2] - ref.amplitudes)) <= 1e-12

    def test_collective_gate_on_three_qubits(self):
        g = GateOp("MS_T4", (0.3, 0.7), (1, 2, 3))
        s = random_state(4)
        dense = embed_unitary(gate_matrix(g), g.targets, 4) @ s.amplitudes
        apply_gate(s, g)
        assert np.max(np.abs(s.amplitudes - dense)) <= 1e-12


class TestInnerProduct:
    def test_normalization(self):
        s = basis_state(1, "0")
        assert inner_product(s, s) == pytest.approx(1.0)

    def test_orthogonality(self):
        assert inner_product(basis_state(1, "0"), basis_state(1, "1")) == 0

    def test_hadamard_overlap(self):
        plus = apply_gate(basis_state(1, "0"), GateOp("H", (), (1,)))
        assert inner_product(basis_state(1, "0"), plus) == pytest.approx(1 / np.sqrt(2))

    def test_conjugate_linear_in_first(self):
        a, b = random_state(3), random_state(3)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            inner_product(basis_state(1, "0"), basis_state(2, "00"))


class TestPauliExpectation:
    def test_sigma_z_eigenstate(self):
        assert pauli_expectation(basis_state(1, "0"), PauliString(1.0, "Z")) == pytest.approx(1.0)

    def test_sigma_x_symmetry(self):
        assert pauli_expectation(basis_state(1, "0"), PauliString(1.0, "X")) == pytest.approx(0.0)

    def test_bell_parity(self):
        bell = basis_state(2, "00")
        apply_gate(bell, GateOp("H", (), (1,)))
        apply_gate(bell, GateOp("CNOT", (), (1, 2)))
        assert pauli_expectation(bell, PauliString(1.0, "ZZ")) == pytest.approx(1.0)

    def test_complex_coefficient_rejected(self):
        with pytest.raises(InputError):
            pauli_expectation(basis_state(1, "0"), PauliString(1j, "Z"))


class TestProbability:
    def test_basis(self):
        assert probability(basis_state(3, "100"), "100") == 1.0

    def test_hadamard_half(self):
        plus = apply_gate(basis_state(1, "0"), GateOp("H", (), (1,)))
        assert probability(plus, "0") == pytest.approx(0.5)

    def test_orthogonal(self):
        assert probability(basis_state(3, "100"), "001") == 0.0

    # a wrong length, and strings int(bits, 2) would read: "-1" as index -1,
    # "1_0" as 2; "2a" is no number at all
    @pytest.mark.parametrize(
        "state, bits", [("00", "000"), ("11", "-1"), ("010", "1_0"), ("00", "2a")]
    )
    def test_malformed_bitstring(self, state, bits):
        with pytest.raises(InputError, match="bitstring"):
            probability(basis_state(len(state), state), bits)


class TestProductState:
    def test_plus_state(self):
        s = product_state(2, "0+")
        assert np.allclose(s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])

    def test_minus_state(self):
        s = product_state(1, "-")
        assert np.allclose(s.amplitudes, [1 / np.sqrt(2), -1 / np.sqrt(2)])

    def test_bad_char(self):
        with pytest.raises(InputError):
            product_state(1, "2")
