"""Exact complex statevector of an N-qubit register with in-place gate application.

Conventions:

* Qubits are 1-based; qubit 1 is the most significant bit of the amplitude
  index, so ``|b_1 b_2 ... b_N>`` sits at index ``sum(b_i * 2**(N-i))``.
* ``|0> = |up>`` with ``sigma_z |0> = +|0>``.

Gates apply in place over strided views of the amplitudes.  The kernels
take one matrix on a run of at most ``_MAX_RUN`` adjacent qubits in
cache-sized chunks, or on any targets through a transpose; ``compiler`` plans
a circuit's blocks to these run widths.  A stack of states in one chunk runs
as one batched product (:func:`_apply_matrix`).  :func:`apply_gate` applies a single
gate, with strided fast paths for diagonal and permutation gates.
A StateVector is a single-writer value: at most one mutating operation at a
time.  Distinct instances are independent and safe on different threads.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, ResourceError
from .gates import GateOp, hadamard

_DENSE_LIMIT = 26  # 2**26 complex amplitudes == 1 GiB


def check_register(n_qubits: int, path: str = "n_qubits"):
    """Refuse a register of fewer than one or more than ``_DENSE_LIMIT`` qubits."""
    if n_qubits < 1:
        raise InputError(f"{path}: must be >= 1, got {n_qubits}")
    if n_qubits > _DENSE_LIMIT:
        raise ResourceError(
            f"{path}: a statevector of {n_qubits} qubits is over the {_DENSE_LIMIT}-qubit limit"
        )


class StateVector:
    """Normalized array of 2**n_qubits complex amplitudes."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray | None = None):
        check_register(n_qubits)
        self.n_qubits = int(n_qubits)
        if amplitudes is None:
            amplitudes = np.zeros(2**n_qubits, dtype=complex)
            amplitudes[0] = 1.0
        else:
            amplitudes = np.asarray(amplitudes, dtype=complex)
            if amplitudes.shape != (2**n_qubits,):
                raise InputError(
                    f"amplitude array must have length {2**n_qubits}, "
                    f"got {amplitudes.shape}"
                )
        self.amplitudes = amplitudes

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self):
        return f"StateVector(n_qubits={self.n_qubits})"


def basis_state(n_qubits: int, bits: str) -> StateVector:
    """Computational basis state |b_1 b_2 ... b_N> (qubit 1 leftmost)."""
    index = _basis_index(n_qubits, bits)
    state = StateVector(n_qubits)
    state.amplitudes[0] = 0.0
    state.amplitudes[index] = 1.0
    return state


def _basis_index(n_qubits: int, bits: str) -> int:
    """The amplitude index of |bits>; any other length or character than 0/1 is an InputError."""
    if len(bits) != n_qubits:
        raise InputError(f"bitstring {bits!r} does not match {n_qubits} qubits")
    if any(b not in "01" for b in bits):
        raise InputError(f"bitstring may contain only 0/1, got {bits!r}")
    return int(bits, 2)


def product_state(n_qubits: int, spec: str) -> StateVector:
    """Product state from per-qubit characters 0, 1, + or -."""
    if len(spec) != n_qubits:
        raise InputError(f"state spec {spec!r} does not match {n_qubits} qubits")
    if any(ch not in "01+-" for ch in spec):
        raise InputError(f"state spec may contain only 0/1/+/-, got {spec!r}")
    bits = "".join("0" if ch in "0+" else "1" for ch in spec)
    state = basis_state(n_qubits, bits)
    h = hadamard()
    for i, ch in enumerate(spec, start=1):
        if ch in "+-":
            _apply_run(state.amplitudes, n_qubits, i, h)
    return state


def check_targets(n_qubits: int, targets: tuple[int, ...]):
    """Refuse targets outside qubits 1..``n_qubits``, or a qubit named twice."""
    for q in targets:
        if not 1 <= q <= n_qubits:
            raise InputError(f"qubit {q} out of range for {n_qubits}-qubit register")
    if len(set(targets)) != len(targets):
        raise InputError(f"duplicate targets {targets}")


# Fused blocks act on at most _MAX_RUN qubits: per pass at N=20, wider blocks
# cost more than the passes they save (timings in CHANGES.md).
_MAX_RUN = 4

# A block pass runs _CHUNK amplitudes at a time through a scratch array of that
# size, so the product stays in cache and no state-sized temporary is made.
# On registers of at least _LARGE_REGISTER qubits, a block on the last qubits,
# where the batched matmul loops over many tiny products, runs as GEMMs with
# u (x) I_right when that matrix is at most _GEMM_WIDTH wide; a wider one
# spends more on the identity's zeros than it saves (per-position timings at
# N=20, dims 4 and 16, in CHANGES.md).
_CHUNK = 2**15
_LARGE_REGISTER = 12
_GEMM_WIDTH = 64


def _is_run(targets: tuple[int, ...]) -> bool:
    """Whether ``targets`` are ascending adjacent qubits q, q+1, ..."""
    return targets == tuple(range(targets[0], targets[0] + len(targets)))


def _apply_run(amps: np.ndarray, n: int, q: int, u: np.ndarray):
    """``u`` on the k <= ``_MAX_RUN`` adjacent qubits q..q+k-1, qubit q its high bit."""
    if amps.ndim == 2:  # a stack in one chunk: one batched product, as for one state below
        view = amps.reshape(len(amps), 2 ** (q - 1), u.shape[-1], -1)
        np.copyto(view, np.matmul(u if u.ndim == 2 else u[:, None], view))
        return
    dim = len(u)
    left = 2 ** (q - 1)
    right = amps.size // (left * dim)
    if n >= _LARGE_REGISTER and dim * right <= _GEMM_WIDTH:
        # (rows, dim R) x (dim R, dim R) GEMMs with u (x) I_R
        view = amps.reshape(left, dim * right)
        big_t = np.kron(u, np.eye(right)).T
        step = _CHUNK // (dim * right)
        out = np.empty((min(step, left), dim * right), dtype=complex)
        for start in range(0, left, step):
            block = view[start : start + step]
            np.matmul(block, big_t, out=out)
            np.copyto(block, out)
        return
    # u times the (dim, right) slabs of the strided (left, dim, right) view,
    # batched over whole rows, or over column slices of a row longer than _CHUNK
    view = amps.reshape(left, dim, right)
    if amps.size <= _CHUNK:  # one chunk: no scratch array
        np.copyto(view, np.matmul(u, view))
        return
    rows = max(1, _CHUNK // (dim * right))
    cols = min(right, _CHUNK // dim)
    out = np.empty((min(rows, left), dim, cols), dtype=complex)
    for r in range(0, left, rows):
        for c in range(0, right, cols):
            block = view[r : r + rows, :, c : c + cols]
            np.matmul(u, block, out=out)
            np.copyto(block, out)


def _apply_dense(amps: np.ndarray, n: int, targets: tuple[int, ...], u: np.ndarray):
    k = len(targets)
    tensor = amps.reshape((2,) * n)
    axes = [t - 1 for t in targets]
    rest = [i for i in range(n) if i not in axes]
    moved = tensor.transpose(axes + rest).reshape(2**k, -1)
    out = u @ moved
    inv = np.argsort(axes + rest)
    np.copyto(tensor, out.reshape((2,) * n).transpose(inv))


def _apply_matrix(amps: np.ndarray, n: int, targets: tuple[int, ...], u: np.ndarray):
    """``u`` on ``targets`` of one state's ``amps``, or of each row of a (g, 2^n) stack
    with ``u`` one matrix or g: as one batched product where the stack fits one chunk
    below ``_LARGE_REGISTER`` qubits, else row by row."""
    if len(targets) <= _MAX_RUN and _is_run(targets):
        if amps.ndim == 1 or n < _LARGE_REGISTER and amps.size <= _CHUNK:
            _apply_run(amps, n, targets[0], u)
            return
    elif amps.ndim == 1:
        _apply_dense(amps, n, targets, u)
        return
    for row, m in zip(amps, u if u.ndim == 3 else [u] * len(amps)):
        _apply_matrix(row, n, targets, m)


def _apply_diag_1q(amps, n, q, d0, d1):
    view = amps.reshape(2 ** (q - 1), 2, 2 ** (n - q))
    if d0 != 1.0:
        view[:, 0, :] *= d0
    if d1 != 1.0:
        view[:, 1, :] *= d1


def _apply_x_gate(amps, n, q):
    view = amps.reshape(2 ** (q - 1), 2, 2 ** (n - q))
    tmp = view[:, 0, :].copy()
    view[:, 0, :] = view[:, 1, :]
    view[:, 1, :] = tmp


def _view_2q(amps, n, q1, q2):
    return amps.reshape(2 ** (q1 - 1), 2, 2 ** (q2 - q1 - 1), 2, 2 ** (n - q2))


def _apply_uxy(amps, n, q1, q2, u):
    # Uxy is symmetric in its qubits and the identity on |00>, |11>: rotate
    # the |01>, |10> quarter slices only
    lo, hi = (q1, q2) if q1 < q2 else (q2, q1)
    view = _view_2q(amps, n, lo, hi)
    diag, off = u[1, 1], u[1, 2]
    s01, s10 = view[:, 0, :, 1, :], view[:, 1, :, 0, :]
    mixed = s01 * off
    s01 *= diag
    s01 += s10 * off
    s10 *= diag
    s10 += mixed


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply ``gate`` in place; returns the same (mutated) StateVector.

    Diagonal and permutation gates take strided fast paths touching only the
    amplitude pairs/quadruples they act on; other gates go through the batched
    small-matrix kernels.
    """
    n = state.n_qubits
    amps = state.amplitudes
    check_targets(n, gate.targets)
    kind = gate.kind
    if kind == "Rz":
        half = 0.5j * gate.params[0]
        _apply_diag_1q(amps, n, gate.targets[0], np.exp(-half), np.exp(half))
        return state
    if kind == "Phase":
        _apply_diag_1q(amps, n, gate.targets[0], 1.0, np.exp(1j * gate.params[0]))
        return state
    if kind == "X":
        _apply_x_gate(amps, n, gate.targets[0])
        return state
    if kind == "Uxy":
        _apply_uxy(amps, n, *gate.targets, gate.matrix)
        return state
    if kind in ("CNOT", "CPhase", "ZZ"):
        q1, q2 = gate.targets
        lo, hi = (q1, q2) if q1 < q2 else (q2, q1)
        view = _view_2q(amps, n, lo, hi)
        if kind == "CNOT":
            # control axis depends on the target order
            if q1 < q2:
                tmp = view[:, 1, :, 0, :].copy()
                view[:, 1, :, 0, :] = view[:, 1, :, 1, :]
                view[:, 1, :, 1, :] = tmp
            else:
                tmp = view[:, 0, :, 1, :].copy()
                view[:, 0, :, 1, :] = view[:, 1, :, 1, :]
                view[:, 1, :, 1, :] = tmp
        elif kind == "CPhase":
            view[:, 1, :, 1, :] *= np.exp(1j * gate.params[0])
        else:  # ZZ, symmetric in its qubits
            ph = np.exp(1j * gate.params[0])
            view[:, 0, :, 0, :] *= ph.conjugate()
            view[:, 0, :, 1, :] *= ph
            view[:, 1, :, 0, :] *= ph
            view[:, 1, :, 1, :] *= ph.conjugate()
        return state
    _apply_matrix(amps, n, gate.targets, gate.matrix)
    return state


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in ``a``."""
    if a.n_qubits != b.n_qubits:
        raise InputError(
            f"register size mismatch: {a.n_qubits} vs {b.n_qubits} qubits"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def probability(state: StateVector, bits: str) -> float:
    """|<bits|state>|^2; ``bits`` as :func:`basis_state` takes it."""
    return float(abs(state.amplitudes[_basis_index(state.n_qubits, bits)]) ** 2)
