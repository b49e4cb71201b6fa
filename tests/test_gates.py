from functools import reduce

import numpy as np
import pytest

from spinsim.errors import InputError
from spinsim.gates import (
    GateOp,
    PAULI,
    cphase,
    gate_matrix,
    hadamard,
    hermitian_expm,
    kron_factors,
    ms_generator,
    pauli_pair_exponential,
    phase_gate,
    rotation,
    u3,
    uxy,
    zyz_angles,
)
from oracles import equal_up_to_global_phase, is_unitary

RNG = np.random.default_rng(7)


class TestU3:
    def test_identity(self):
        assert np.allclose(u3(0, 0, 0), np.eye(2))

    def test_rx_special_case(self):
        assert equal_up_to_global_phase(u3(np.pi, -np.pi / 2, np.pi / 2), rotation("x", np.pi))

    def test_hadamard_special_case(self):
        assert equal_up_to_global_phase(u3(np.pi / 2, 0, np.pi), hadamard())

    def test_phase_hadamard_identity_elementwise(self):
        # U(t,p,l) = e^{-i t/2} Phi(pi/2 + p) H Phi(t) H Phi(-pi/2 + l)
        for _ in range(100):
            t, p, l = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
            rhs = (
                np.exp(-1j * t / 2)
                * phase_gate(np.pi / 2 + p)
                @ hadamard()
                @ phase_gate(t)
                @ hadamard()
                @ phase_gate(-np.pi / 2 + l)
            )
            assert np.max(np.abs(u3(t, p, l) - rhs)) <= 1e-12

    def test_axis_rotation_synthesis_zxz(self):
        # any U(t,p,l) from axis rotations with an Rx core: the z angles carry
        # +-pi/2 shifts (at p = l = 0 the bare Rz(p) Rx(t) Rz(l) form would
        # collapse to Rx(t), which is not U(t,0,0) = Ry(t))
        for _ in range(100):
            t, p, l = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
            rhs = (
                rotation("z", p + np.pi / 2)
                @ rotation("x", t)
                @ rotation("z", l - np.pi / 2)
            )
            assert equal_up_to_global_phase(u3(t, p, l), rhs, 1e-12)
            assert np.max(np.abs(np.exp(1j * (p + l) / 2) * rhs - u3(t, p, l))) <= 1e-12

    def test_axis_rotation_synthesis_zyz(self):
        for _ in range(100):
            t, p, l = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
            rhs = rotation("z", p) @ rotation("y", t) @ rotation("z", l)
            assert np.max(np.abs(np.exp(1j * (p + l) / 2) * rhs - u3(t, p, l))) <= 1e-12


class TestNamedSingleQubit:
    def test_rz_phase_relation(self):
        lam = 0.873
        assert np.allclose(rotation("z", lam), np.exp(-1j * lam / 2) * phase_gate(lam))

    def test_rz_zero(self):
        assert np.allclose(rotation("z", 0), np.eye(2))

    def test_rx_two_pi_is_minus_identity(self):
        assert np.allclose(rotation("x", 2 * np.pi), -np.eye(2))

    def test_frame_changes(self):
        ry = rotation("y", np.pi / 2)
        rx = rotation("x", np.pi / 2)
        assert np.max(np.abs(ry @ PAULI["Z"] @ ry.conj().T - PAULI["X"])) <= 1e-12
        assert np.max(np.abs(rx @ PAULI["Z"] @ rx.conj().T + PAULI["Y"])) <= 1e-12

    def test_bad_axis(self):
        with pytest.raises(InputError):
            rotation("w", 1.0)


class TestPairExponentials:
    def test_zz_zero_identity(self):
        assert np.allclose(pauli_pair_exponential("z", "z", 0), np.eye(4))

    def test_zz_diagonal(self):
        d = np.pi / 4
        expected = np.diag(np.exp(1j * np.array([-d, d, d, -d])))
        assert np.allclose(pauli_pair_exponential("z", "z", d), expected)

    def test_xx_from_hadamard_conjugation(self):
        d = 0.613
        hh = np.kron(hadamard(), hadamard())
        assert np.allclose(
            pauli_pair_exponential("x", "x", d),
            hh @ pauli_pair_exponential("z", "z", d) @ hh,
        )

    def test_generators_commute(self):
        for a in "XYZ":
            for b in "XYZ":
                ma, mb = np.kron(PAULI[a], PAULI[a]), np.kron(PAULI[b], PAULI[b])
                assert np.max(np.abs(ma @ mb - mb @ ma)) <= 1e-12

    def test_bad_axis(self):
        with pytest.raises(InputError):
            pauli_pair_exponential("q", "z", 0.1)


class TestUxy:
    def test_zero_identity(self):
        assert np.allclose(uxy(0), np.eye(4))

    def test_quarter_swap(self):
        # |01> -> -i |10> at delta = pi/4, from the 4x4 exponential oracle
        out = uxy(np.pi / 4) @ np.array([0, 1, 0, 0], dtype=complex)
        assert np.allclose(out, [0, 0, -1j, 0])

    def test_00_invariant(self):
        for d in RNG.uniform(-3, 3, 5):
            out = uxy(d) @ np.array([1, 0, 0, 0], dtype=complex)
            assert np.allclose(out, [1, 0, 0, 0])


class TestCPhase:
    def test_zero(self):
        assert np.allclose(cphase(0), np.eye(4))

    def test_pi_is_cz(self):
        assert np.allclose(cphase(np.pi), np.diag([1, 1, 1, -1]))

    def test_inverse(self):
        d = 1.234
        assert np.allclose(cphase(d) @ cphase(-d), np.eye(4))


class TestMSGates:
    def test_t4_two_qubits_equals_xx(self):
        d = 0.481
        m = gate_matrix(GateOp("MS_T4", (d, 0.0), (1, 2)))
        assert np.allclose(m, pauli_pair_exponential("x", "x", d))

    def test_t2_single_equals_t1(self):
        th = 0.77
        m2 = gate_matrix(GateOp("MS_T2", (th,), (1,)))
        m1 = gate_matrix(GateOp("MS_T1", (th,), (1,)))
        assert np.allclose(m1, m2)
        assert np.allclose(m1, hermitian_expm(th * PAULI["Z"]))

    def test_t3_phi_half_pi_selects_y(self):
        th = np.pi / 4
        m = gate_matrix(GateOp("MS_T3", (th, np.pi / 2), (1, 2)))
        gen = np.kron(PAULI["Y"], np.eye(2)) + np.kron(np.eye(2), PAULI["Y"])
        assert np.allclose(m, hermitian_expm(th * gen))

    def test_t4_needs_two_targets(self):
        with pytest.raises(InputError):
            GateOp("MS_T4", (0.1, 0.0), (1,))
        with pytest.raises(InputError):
            ms_generator("MS_T4", 0.1, 0.0, 1)


def _random_complex(dim: int) -> np.ndarray:
    return RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))


class TestKronFactors:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2), (4, 4), (4, 2, 4), (2, 4, 2), (2,), (4,)])
    def test_equals_kron_fold(self, dims):
        factors = [_random_complex(d) for d in dims]
        want = reduce(np.kron, factors, np.eye(1, dtype=complex))
        got = kron_factors(factors)
        assert got.dtype == complex and np.array_equal(got, want)
        # a single factor comes back as a copy, not the caller's array
        assert not np.shares_memory(got, factors[0])

    def test_empty_list_is_eye_1(self):
        got = kron_factors([])
        assert got.dtype == complex and np.array_equal(got, np.eye(1))


class TestUnitarity:
    @pytest.mark.parametrize(
        "op",
        [
            GateOp("U3", (1.1, -0.4, 2.7), (1,)),
            GateOp("H", (), (1,)),
            GateOp("Phase", (0.3,), (1,)),
            GateOp("Rx", (5.0,), (1,)),
            GateOp("Ry", (-2.2,), (1,)),
            GateOp("Rz", (0.01,), (1,)),
            GateOp("X", (), (1,)),
            GateOp("CNOT", (), (1, 2)),
            GateOp("CPhase", (2.4,), (1, 2)),
            GateOp("ZZ", (0.8,), (1, 2)),
            GateOp("XX", (-0.8,), (1, 2)),
            GateOp("YY", (1.8,), (1, 2)),
            GateOp("Uxy", (0.33,), (1, 2)),
            GateOp("MS_T1", (0.5,), (1,)),
            GateOp("MS_T2", (0.5,), (1, 2, 3)),
            GateOp("MS_T3", (0.5, 1.0), (1, 2)),
            GateOp("MS_T4", (0.5, 1.0), (1, 2, 3)),
        ],
    )
    def test_all_kinds_unitary(self, op):
        assert is_unitary(gate_matrix(op), 1e-10)


class TestGateOpValidation:
    def test_wrong_param_count(self):
        with pytest.raises(InputError):
            GateOp("Rz", (), (1,))

    def test_wrong_target_count(self):
        with pytest.raises(InputError):
            GateOp("CNOT", (), (1,))

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            GateOp("SWAP", (), (1, 2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_param(self, bad):
        with pytest.raises(InputError, match="finite"):
            GateOp("MS_T3", (0.5, bad), (1,))


class TestZYZ:
    def test_roundtrip_random(self):
        for _ in range(50):
            m = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
            q, _ = np.linalg.qr(m)
            phase, a, b, c = zyz_angles(q)
            recon = np.exp(1j * phase) * rotation("z", a) @ rotation("y", b) @ rotation("z", c)
            assert np.max(np.abs(recon - q)) <= 1e-12

    def test_diagonal_edge(self):
        phase, a, b, c = zyz_angles(np.diag([1, 1j]))
        recon = np.exp(1j * phase) * rotation("z", a) @ rotation("y", b) @ rotation("z", c)
        assert np.max(np.abs(recon - np.diag([1, 1j]))) <= 1e-12
