"""Gate definitions: named gate operations and their dense unitary matrices.

Matrices are stored with the exact phase of their defining formula; use
:func:`spinsim.compiler.phase_distance` for phase-insensitive
comparisons.  Angles are unrestricted reals (no normalization into [0, 2pi)).
All functions here are pure and safe for concurrent use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import InputError

SQRT2 = math.sqrt(2.0)

#: largest register given a dense 2^N x 2^N matrix (Hamiltonian, circuit
#: unitary or folded Trotter step)
DENSE_QUBIT_LIMIT = 12

#: most gate applications a run may plan, each compiled point priced by the route
#: it runs (a folded step costs less than its gates), and also the most grid points
#: and the most unrolled gates (steps times step gates) of one compiled evolution
GATE_BUDGET = 10**8

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

AXES = ("x", "y", "z")

# kind -> (number of params, number of targets; None = variable (>=1))
GATE_SIGNATURES = {
    "U3": (3, 1),
    "H": (0, 1),
    "Phase": (1, 1),
    "Rx": (1, 1),
    "Ry": (1, 1),
    "Rz": (1, 1),
    "X": (0, 1),
    "CNOT": (0, 2),
    "CPhase": (1, 2),
    "ZZ": (1, 2),
    "XX": (1, 2),
    "YY": (1, 2),
    "Uxy": (1, 2),
    "MS_T1": (1, 1),
    "MS_T2": (1, None),
    "MS_T3": (2, None),
    "MS_T4": (2, None),
}


@dataclass(frozen=True)
class GateOp:
    """A named parameterized gate bound to an ordered list of 1-based qubits."""

    kind: str
    params: tuple[float, ...] = ()
    targets: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_SIGNATURES:
            raise InputError(f"unknown gate kind {self.kind!r}")
        n_params, n_targets = GATE_SIGNATURES[self.kind]
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
        if len(self.params) != n_params:
            raise InputError(
                f"{self.kind} takes {n_params} parameter(s), got {len(self.params)}"
            )
        check_finite(self.kind, self.params)
        if n_targets is None:
            if len(self.targets) < 1:
                raise InputError(f"{self.kind} needs at least one target")
        elif len(self.targets) != n_targets:
            raise InputError(
                f"{self.kind} takes {n_targets} target(s), got {len(self.targets)}"
            )
        if self.kind == "MS_T4" and len(self.targets) < 2:
            raise InputError("MS_T4 needs at least two targets")
        if len(set(self.targets)) != len(self.targets):
            raise InputError(f"duplicate targets in {self.kind}: {self.targets}")
        if any(q < 1 for q in self.targets):
            raise InputError(f"qubit indices are 1-based, got {self.targets}")

    @classmethod
    def _at_angle(cls, kind: str, params: tuple[float, ...], targets: tuple[int, ...],
                  matrix: np.ndarray | None = None) -> "GateOp":
        """An op whose kind and targets were checked where its spelling was built.

        Only ``params`` (floats), which carry a time or an angle, are checked
        here: finite, as :class:`GateOp` requires.  ``matrix``, where given, is
        its :func:`kind_matrix`, already computed; otherwise the matrix waits
        for first use.
        """
        check_finite(kind, params)
        op = object.__new__(cls)
        op.__dict__.update(kind=kind, params=params, targets=targets)
        if matrix is not None:
            op.__dict__["matrix"] = matrix
        return op

    @cached_property
    def matrix(self) -> np.ndarray:
        """:func:`gate_matrix` of the op, built on first use and kept with it."""
        return gate_matrix(self)


def check_finite(kind: str, params: tuple[float, ...]):
    """Refuse a gate whose parameters are not all finite."""
    if not all(map(math.isfinite, params)):
        raise InputError(f"{kind} parameters must be finite, got {params}")


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """Most general single-qubit gate U(theta, phi, lambda)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (lam + phi)) * c],
        ]
    )


def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2


def phase_gate(delta: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * delta)]])


def check_axes(*axes: str):
    for a in axes:
        if a not in AXES:
            raise InputError(f"axis must be one of {AXES}, got {a!r}")


def rotation(axis: str, theta: float | np.ndarray) -> np.ndarray:
    """R_axis(theta) = exp(-i theta sigma_axis / 2); a stack of them for an array of thetas."""
    check_axes(axis)
    sigma = PAULI[axis.upper()]
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.multiply.outer(c, PAULI["I"]) - np.multiply.outer(1j * s, sigma)


def cnot() -> np.ndarray:
    """CNOT with the first qubit as control."""
    return np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )


def cphase(delta: float | np.ndarray) -> np.ndarray:
    """Controlled phase: diag(1, 1, 1, e^{i delta}); a stack of them for an array of deltas."""
    out = np.zeros(np.shape(delta) + (4, 4), dtype=complex)
    out[..., [0, 1, 2], [0, 1, 2]] = 1
    out[..., 3, 3] = np.exp(1j * delta)
    return out


def kron_factors(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of per-qubit factors, qubit 1 first; ``eye(1)`` for none.

    Each step is one broadcast outer product, the same products ``np.kron``
    forms without its per-call overhead.  Factors may be stacks of matrices,
    which broadcast over their leading axes.
    """
    factors = iter(factors)
    out = np.array(next(factors, [[1.0]]), dtype=complex)
    for f in factors:
        (r1, c1), (r2, c2) = out.shape[-2:], f.shape[-2:]
        out = out[..., :, None, :, None] * f[..., None, :, None, :]
        out = out.reshape(out.shape[:-4] + (r1 * r2, c1 * c2))
    return out


def string_matrix(letters: str) -> np.ndarray:
    """Dense matrix of a Pauli string such as ``"XIZ"``."""
    return kron_factors(PAULI[ch] for ch in letters)


def hermitian_expm(generator: np.ndarray) -> np.ndarray:
    """exp(-i G) for Hermitian G, via eigendecomposition; G may be a stack of them."""
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(-1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def pauli_pair_exponential(alpha: str, beta: str, delta: float) -> np.ndarray:
    """exp(-i delta sigma_alpha (x) sigma_beta) as a 4x4 unitary."""
    check_axes(alpha, beta)
    return hermitian_expm(delta * string_matrix((alpha + beta).upper()))


def uxy(delta: float | np.ndarray) -> np.ndarray:
    """exp(-i delta (XX + YY)); acts nontrivially only on span{|01>, |10>}."""
    return hermitian_expm(np.multiply.outer(delta, string_matrix("XX") + string_matrix("YY")))


def ms_generator(kind: str, theta: float | np.ndarray, phi: float, n: int) -> np.ndarray:
    """Hermitian generator G of the collective gate exp(-i G) on n addressed qubits.

    An array of thetas gives a stack of generators, all at the one ``phi``.
    """
    if kind == "MS_T4":
        if n < 2:
            raise InputError("MS_T4 needs at least two addressed qubits")
        groups = itertools.combinations(range(n), 2)  # sigma_phi on every pair
    elif kind in ("MS_T1", "MS_T2", "MS_T3"):
        groups = itertools.combinations(range(n), 1)  # one operator on each qubit
    else:
        raise InputError(f"not a collective gate kind: {kind}")
    if kind in ("MS_T1", "MS_T2"):
        single = PAULI["Z"]
    else:  # sigma_phi
        single = math.cos(phi) * PAULI["X"] + math.sin(phi) * PAULI["Y"]
    gen = np.zeros((2**n, 2**n), dtype=complex)
    for group in groups:
        gen += kron_factors(single if k in group else PAULI["I"] for k in range(n))
    return np.multiply.outer(theta, gen)


def gate_matrix(op: GateOp) -> np.ndarray:
    """Dense unitary of ``op`` on its own targets, ordered as ``op.targets``."""
    return kind_matrix(op.kind, op.params, len(op.targets))


def kind_matrix(k: str, p: tuple[float, ...], n_targets: int) -> np.ndarray:
    """Dense unitary of a ``k`` gate with parameters ``p`` on ``n_targets`` qubits.

    For the kinds a Trotter step leaves open (Rx, Ry, Rz, CPhase, Uxy and the
    MS gates), an array for the first parameter gives a stack of unitaries, one
    per entry, each bit-equal to its own call's; an MS gate's phi stays one float.
    """
    if k == "U3":
        return u3(*p)
    if k == "H":
        return hadamard()
    if k == "Phase":
        return phase_gate(p[0])
    if k in ("Rx", "Ry", "Rz"):
        return rotation(k[1].lower(), p[0])
    if k == "X":
        return PAULI["X"].copy()
    if k == "CNOT":
        return cnot()
    if k == "CPhase":
        return cphase(p[0])
    if k in ("ZZ", "XX", "YY"):
        a = k[0].lower()
        return pauli_pair_exponential(a, a, p[0])
    if k == "Uxy":
        return uxy(p[0])
    if k.startswith("MS_"):
        theta = p[0]
        phi = p[1] if len(p) > 1 else 0.0
        return hermitian_expm(ms_generator(k, theta, phi, n_targets))
    raise InputError(f"unknown gate kind {k!r}")


def zyz_angles(m: np.ndarray) -> tuple[float, float, float, float]:
    """Euler angles of a 2x2 unitary: m = e^{i phase} Rz(a) Ry(b) Rz(c)."""
    det = np.linalg.det(m)
    u = m / np.sqrt(det)
    phase = 0.5 * np.angle(det)
    b = 2.0 * math.atan2(abs(u[1, 0]), abs(u[0, 0]))
    if abs(u[0, 0]) < 1e-12:
        # anti-diagonal: only a - c is determined
        a = 2.0 * np.angle(u[1, 0])
        c = 0.0
    elif abs(u[1, 0]) < 1e-12:
        a = 2.0 * np.angle(u[1, 1])
        c = 0.0
    else:
        half_sum = np.angle(u[1, 1])
        half_diff = np.angle(u[1, 0])
        a = half_sum + half_diff
        c = half_sum - half_diff
    return phase, a, b, c
