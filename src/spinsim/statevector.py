"""Exact complex statevector of an N-qubit register with in-place gate application.

Conventions:

* Qubits are 1-based; qubit 1 is the most significant bit of the amplitude
  index, so ``|b_1 b_2 ... b_N>`` sits at index ``sum(b_i * 2**(N-i))``.
* ``|0> = |up>`` with ``sigma_z |0> = +|0>``.

Gates and fused blocks apply in place over strided views of the amplitudes.
``compiler.run_circuit`` fuses a circuit into blocks of at most 4 qubits
(:func:`fuse`, in the style of qsim's gate fusion) and applies one matrix of
at most 16x16 per block, on every register, so a run of gates costs one pass
over the state.  Fusion is two parts: :func:`plan_blocks` lays the blocks out
from the gates' targets alone, and :func:`embed_left` multiplies a gate into a
block's matrix, so a circuit whose angles change keeps its plan.
:func:`apply_gate` applies a single gate, with strided fast paths for diagonal
and permutation gates.
A StateVector is a single-writer value: at most one mutating operation at a
time.  Distinct instances are independent and safe on different threads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InputError, ResourceError
from .gates import PAULI, GateOp, hadamard, is_unitary, kron_factors
from .pauli import PauliString

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
    if len(bits) != n_qubits:
        raise InputError(f"bitstring {bits!r} does not match {n_qubits} qubits")
    if any(b not in "01" for b in bits):
        raise InputError(f"bitstring may contain only 0/1, got {bits!r}")
    state = StateVector(n_qubits)
    state.amplitudes[0] = 0.0
    state.amplitudes[int(bits, 2)] = 1.0
    return state


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


def _check_targets(n_qubits: int, targets: tuple[int, ...]):
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
    if len(targets) <= _MAX_RUN and _is_run(targets):
        _apply_run(amps, n, targets[0], u)
    else:
        _apply_dense(amps, n, targets, u)


Block = tuple[tuple[int, ...], np.ndarray]  # target qubits, 2^k x 2^k matrix

#: one of the parts a block is joined from (:func:`plan_blocks`): its target
#: qubits, and its ops in time order, each as its index in the op list and the
#: positions of its targets among the part's
BlockPart = tuple[tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]]


def plan_blocks(op_targets: Sequence[tuple[int, ...]]) -> tuple[tuple[BlockPart, ...], ...]:
    """How ops with these targets (time order) fuse into blocks of at most 4 qubits.

    The plan depends on the targets alone, so ops that differ only in their
    angles share it.  Walking the ops in order, each qubit has at most one
    open block.  A 1q op joins its qubit's open block.  A 2q op on the pair of
    an open 2q block joins that block; any other 2q op opens a block on its
    pair (targets ascending) that absorbs the open 1q blocks of its two qubits
    and closes any other block holding one of them.  An op on more than 2
    qubits closes the blocks it touches and is a block of its own.  Blocks are
    listed as they close, so applying them in order equals applying the ops in
    order.  Last, a block whose targets are a run of adjacent qubits that
    continues, above or below, the run of the block listed just before it
    joins that block, up to ``_MAX_RUN`` qubits: the two share no qubit, so
    they commute, and the joined block is the kron product of its parts, in
    qubit order.  A step listed layer by layer, bonds (1,2), (3,4), ... then
    (2,3), (4,5), ..., so runs in half as many blocks.
    """
    blocks = []
    open_blocks: dict[int, list] = {}  # qubit -> [targets, op indices], shared by a pair

    def close(q: int):
        block = open_blocks.get(q)
        if block is not None:
            for t in block[0]:
                del open_blocks[t]
            blocks.append(block)

    for i, targets in enumerate(op_targets):
        if len(targets) == 1:
            block = open_blocks.get(targets[0])
            if block is None:
                open_blocks[targets[0]] = [targets, [i]]
            else:
                block[1].append(i)
        elif len(targets) == 2:
            pair = tuple(sorted(targets))
            block = open_blocks.get(pair[0])
            if block is not None and block[0] == pair:
                block[1].append(i)
                continue
            members = []
            for q in pair:
                block = open_blocks.get(q)
                if block is not None and len(block[0]) == 1:
                    del open_blocks[q]
                    members += block[1]
                else:
                    close(q)
            open_blocks[pair[0]] = open_blocks[pair[1]] = [pair, sorted(members) + [i]]
        else:
            for q in targets:
                close(q)
            blocks.append([targets, [i]])
    for q in sorted(open_blocks):
        close(q)
    joined: list[tuple[tuple[int, ...], list]] = []  # (targets, parts)
    for block in blocks:
        if joined:
            last, parts = joined[-1]
            below = block[0][0] < last[0]
            lo, hi = (block[0], last) if below else (last, block[0])
            if (lo[-1] + 1 == hi[0] and len(lo) + len(hi) <= _MAX_RUN
                    and _is_run(lo) and _is_run(hi)):
                joined[-1] = (lo + hi, [block] + parts if below else parts + [block])
                continue
        joined.append((block[0], [block]))
    return tuple(
        tuple((targets, tuple((i, tuple(map(targets.index, op_targets[i]))) for i in members))
              for targets, members in parts)
        for _, parts in joined
    )


def join_parts(products: Sequence[np.ndarray]) -> np.ndarray:
    """A block's matrix from its parts' (:func:`plan_blocks`): their kron product."""
    return products[0] if len(products) == 1 else kron_factors(products)


_I4 = np.eye(4, dtype=complex)
_SWAP = [0, 2, 1, 3]  # the basis of two qubits with the qubits exchanged


def embed_left(m: np.ndarray | None, k: int, positions: tuple[int, ...], u: np.ndarray) -> np.ndarray:
    """E m, for E the matrix of ``u`` on ``positions`` (0 the high bit) of a part of k qubits.

    ``m`` None stands for the identity; neither ``m`` nor ``u`` is changed.
    An op of a part (:func:`plan_blocks`) acts on the whole part, a 2q op
    perhaps on its qubits swapped, or is a 1q op on one qubit of a 2q part.
    """
    if len(positions) == k:
        if positions == (1, 0):
            u = u[np.ix_(_SWAP, _SWAP)]
        return u if m is None else u.dot(m)
    if m is None:
        m = _I4
    if positions == (0,):  # (u x I) m: u on the high bit of the row index
        return u.dot(m.reshape(2, 8)).reshape(4, 4)
    return np.matmul(u, m.reshape(2, 2, 4)).reshape(4, 4)  # (I x u) m


def fuse(ops: Sequence[GateOp]) -> tuple[Block, ...]:
    """``ops`` (time order) merged into ``(targets, matrix)`` blocks, as :func:`plan_blocks` lays them out.

    Each part's matrix is the product of its ops' matrices, and a block's the
    kron product of its parts'.
    """
    blocks = []
    for parts in plan_blocks([op.targets for op in ops]):
        products = []
        for targets, members in parts:
            m = None
            for i, positions in members:
                m = embed_left(m, len(targets), positions, ops[i].matrix)
            products.append(m)
        blocks.append((sum((targets for targets, _ in parts), ()), join_parts(products)))
    return tuple(blocks)


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
    _check_targets(n, gate.targets)
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


def apply_dense_unitary(
    state: StateVector, u: np.ndarray, targets: tuple[int, ...]
) -> StateVector:
    """Apply an explicit 2^k x 2^k unitary to the given target qubits, in place."""
    _check_targets(state.n_qubits, targets)
    if u.shape != (2 ** len(targets), 2 ** len(targets)):
        raise InputError(f"matrix shape {u.shape} does not match {len(targets)} targets")
    if not is_unitary(u):
        raise InputError("matrix is not unitary within 1e-10")
    _apply_matrix(state.amplitudes, state.n_qubits, targets, u)
    return state


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in ``a``."""
    if a.n_qubits != b.n_qubits:
        raise InputError(
            f"register size mismatch: {a.n_qubits} vs {b.n_qubits} qubits"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def probability(state: StateVector, bits: str) -> float:
    """|<bits|state>|^2."""
    if len(bits) != state.n_qubits:
        raise InputError(f"bitstring {bits!r} does not match register size")
    return float(abs(state.amplitudes[int(bits, 2)]) ** 2)


def pauli_expectation(state: StateVector, p: PauliString) -> float:
    """<state| P |state> for a Hermitian Pauli string (real coefficient)."""
    coef = complex(p.coef)
    if abs(coef.imag) > 1e-12:
        raise InputError(f"Pauli expectation needs a real coefficient, got {p.coef}")
    if len(p.letters) != state.n_qubits:
        raise InputError(
            f"Pauli string length {len(p.letters)} does not match register size"
        )
    phi = state.copy()
    for q, letter in enumerate(p.letters, start=1):
        if letter != "I":
            _apply_run(phi.amplitudes, state.n_qubits, q, PAULI[letter])
    value = coef.real * inner_product(state, phi)
    if abs(value.imag) > 1e-10:
        raise InputError(f"expectation came out non-real: {value}")
    return float(value.real)
