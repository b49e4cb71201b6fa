"""Lowering of Pauli-exponential evolution terms into circuits over a chosen
universal gate set, plus dense-unitary verification utilities.

Gate sets:

* S1: single-qubit rotations + CNOT
* S2: single-qubit rotations + the XX+YY exchange gate Uxy(delta)
* S3: single-qubit rotations + controlled phase CPhase(delta)
* S4: trapped-ion family T1..T4 (individual z rotations, collective rotations,
  Moelmer-Soerensen entangler)

A single-qubit rotation R_axis(theta) has one spelling per gate set, in
``_rot_spelling``: the Rx/Ry/Rz gates in S1-S3, and T1(theta/2) or
T3(theta/2, phi) in S4.  Frame changes, Euler-angle synthesis and the Trotter compiler's field
rotations all emit it through there.

Circuit order convention: list order = temporal order = right-to-left matrix
order.  Global phases produced by decompositions are accumulated in
``Circuit.global_phase`` rather than discarded, so elementwise verification is
possible where an identity is exact.  Circuits are immutable values after
construction; all functions here are pure.

``run_circuit`` is the one circuit executor.  On every register it runs the
circuit's ``blocks``, its gates fused into blocks of at most 4 qubits (in the
style of qsim's gate fusion), which each circuit builds once and keeps.
:func:`plan_blocks` lays the blocks out from the gates' targets alone, and
:func:`embed_left` multiplies a gate into a block's matrix.  A
:class:`CircuitTemplate` is a circuit whose angle gates are left open: its
blocks are laid out and its constant gates multiplied once, and a fill
multiplies in only the angle gates' matrices, for a whole stack of angle rows
at once: each slot's matrices and each block are stacks with one matrix per
row.  Its product loop is the only one: a plain circuit's blocks are those of
a template with no open angles.  A fill is one object, its stacked blocks
(``_Fill``), which a Trotter grid evolves as they are; a row is made a
circuit only on demand (:meth:`_Fill.circuit`), which builds its gates only
where they are read (a dump, a count, an unrolled evolution).
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InputError, ResourceError
from .gates import (
    DENSE_QUBIT_LIMIT,
    GateOp,
    check_axes,
    check_finite,
    gate_matrix,
    kind_matrix,
    kron_factors,
    zyz_angles,
)
from .statevector import _MAX_RUN, StateVector, _apply_matrix, _is_run, check_targets


class GateSet(enum.Enum):
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4 = "S4"


TWO_QUBIT_KINDS = ("CNOT", "CPhase", "ZZ", "XX", "YY", "Uxy", "MS_T4")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence on a declared register; leftmost op acts first."""

    n_qubits: int
    ops: tuple[GateOp, ...]
    global_phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            check_targets(self.n_qubits, op.targets)

    def two_qubit_count(self, kind: str | None = None) -> int:
        if kind is not None:
            return sum(1 for op in self.ops if op.kind == kind)
        return sum(1 for op in self.ops if op.kind in TWO_QUBIT_KINDS)

    @cached_property
    def n_gates(self) -> int:
        """``len(ops)``, which a circuit filled from a template knows without building them."""
        return len(self.ops)

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        """The ops fused into blocks of at most 4 qubits.

        They are the blocks of a :class:`CircuitTemplate` with no angle slots,
        so every circuit is laid out by :func:`plan_blocks` and multiplied by
        the one product loop, :meth:`CircuitTemplate.blocks`.  Built on first
        use and kept with the circuit, so a circuit that runs again is fused
        once.  A circuit made from a fill's row takes that row of its stacked
        blocks instead.
        """
        return CircuitTemplate(self.n_qubits, self.ops).blocks(())

    def __add__(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise InputError("cannot concatenate circuits on different registers")
        return Circuit(
            self.n_qubits,
            self.ops + other.ops,
            self.global_phase + other.global_phase,
        )


class _LazyCircuit(Circuit):
    """A circuit whose fused blocks and ops are made on first access.

    ``blocks()`` and ``build()`` return them; the ops are on the targets the
    blocks were made from, which the maker of the blocks checked against the
    register.
    """

    def __init__(self, n_qubits: int, n_gates: int, blocks: Callable[[], tuple[Block, ...]],
                 build: Callable[[], Sequence[GateOp]], global_phase: float = 0.0):
        self.__dict__.update(n_qubits=n_qubits, n_gates=n_gates, global_phase=global_phase,
                             _blocks=blocks, _build=build)

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        return self._blocks()

    @cached_property
    def ops(self) -> tuple[GateOp, ...]:
        return tuple(self._build())


def run_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Execute a circuit on the statevector backend, in place.

    Runs the circuit's fused ``blocks`` of at most 4 qubits in order, one
    memory pass per block instead of per gate, on every register.  Their
    targets were checked against the circuit's register when it was built;
    that register is checked against the state's here.
    """
    if circuit.n_qubits > state.n_qubits:
        raise InputError(
            f"circuit needs {circuit.n_qubits} qubits, register has {state.n_qubits}"
        )
    for targets, u in circuit.blocks:
        _apply_matrix(state.amplitudes, state.n_qubits, targets, u)
    if circuit.global_phase != 0.0:
        state.amplitudes *= np.exp(1j * circuit.global_phase)
    return state


def embed_unitary(u: np.ndarray, targets: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Dense 2^N x 2^N embedding of a 2^k x 2^k gate on the given qubits.

    Built by index permutation of kron(u, I); independent of the strided
    statevector kernel so the two can verify each other.
    """
    k = len(targets)
    if u.shape != (2**k, 2**k):
        raise InputError(f"matrix shape {u.shape} does not match {k} targets")
    full = np.kron(u, np.eye(2 ** (n_qubits - k), dtype=complex))
    qubit_order = list(targets) + [q for q in range(1, n_qubits + 1) if q not in targets]
    m = np.arange(2**n_qubits)
    nat = np.zeros_like(m)
    for slot, q in enumerate(qubit_order):
        bit = (m >> (n_qubits - 1 - slot)) & 1
        nat |= bit << (n_qubits - q)
    inv = np.argsort(nat)
    return full[np.ix_(inv, inv)]


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense product of embedded gate matrices times e^{i global_phase}."""
    if c.n_qubits > DENSE_QUBIT_LIMIT:
        raise ResourceError(
            f"dense circuit unitary limited to {DENSE_QUBIT_LIMIT} qubits, "
            f"got {c.n_qubits}"
        )
    u = np.eye(2**c.n_qubits, dtype=complex)
    for op in c.ops:
        u = embed_unitary(gate_matrix(op), op.targets, c.n_qubits) @ u
    return np.exp(1j * c.global_phase) * u


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - |trace(U^dag V)| / dim: 0 iff U = e^{i phi} V; symmetric in its arguments."""
    if u.shape != v.shape:
        raise InputError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(1.0 - abs(np.trace(u.conj().T @ v)) / u.shape[0])


def equal_up_to_global_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff phase_distance(u, v) <= tol."""
    return phase_distance(u, v) <= tol


# --- single-qubit rotations and frame changes ---------------------------------

def _rot_spelling(axis: str, gate_set: GateSet) -> tuple[str, Callable[[float], tuple[float, ...]]]:
    """Gate kind and parameters(theta) of R_axis(theta) = exp(-i theta sigma_axis / 2).

    S4 spells it with the trapped-ion gates: Rz(theta) = T1(theta/2),
    Rx(theta) = T3(theta/2, 0) and Ry(theta) = T3(theta/2, pi/2).
    """
    if gate_set is GateSet.S4:
        if axis == "z":
            return "MS_T1", lambda theta: (theta / 2,)
        phi = 0.0 if axis == "x" else np.pi / 2
        return "MS_T3", lambda theta: (theta / 2, phi)
    return "R" + axis, lambda theta: (theta,)


def _rot(axis: str, theta: float, q: int, gate_set: GateSet = GateSet.S1) -> GateOp:
    """R_axis(theta) on qubit q in the set's gates (:func:`_rot_spelling`)."""
    kind, params = _rot_spelling(axis, gate_set)
    return GateOp(kind, params(theta), (q,))


# sigma_alpha = V sigma_z V^dag with V = _Z_FRAME[alpha] for the CNOT and
# CPhase sets (S1, S3); the X-based sets (S2, S4) use sigma_x and _X_FRAME.
_Z_FRAME = {"x": ("y", np.pi / 2), "y": ("x", -np.pi / 2), "z": None}
_X_FRAME = {"x": None, "y": ("z", np.pi / 2), "z": ("y", -np.pi / 2)}


def _frame_ops(alpha: str, q: int, adjoint: bool, gate_set: GateSet) -> list[GateOp]:
    frame = _X_FRAME if gate_set in (GateSet.S2, GateSet.S4) else _Z_FRAME
    spec = frame[alpha]
    if spec is None:
        return []
    axis, theta = spec
    return [_rot(axis, -theta if adjoint else theta, q, gate_set)]


# --- Pauli exponentials -----------------------------------------------------------

#: a gate whose parameters depend on the angle d: (kind, params(d), targets)
AngleSlot = tuple[str, Callable[[float], tuple[float, ...]], tuple[int, ...]]


class PauliLowering(NamedTuple):
    """exp(-i d P) in a gate set's gates, for every angle d.

    ``slots`` are in time order.  The gates that do not depend on d (frame
    changes, CNOT ladders, pi flips) are built :class:`GateOp` values, shared
    by every d; the rest are :data:`AngleSlot` entries.  ``phase(d)`` is the
    circuit's global phase, and None stands for 0.

    ``negative`` is the form a negative angle takes instead, or None where
    every angle takes this one; only an S3 pair has one.  :meth:`at` is that
    sign rule and :meth:`circuit` follows it; :meth:`ops` builds one form's
    gates as they stand.
    """

    slots: tuple[GateOp | AngleSlot, ...]
    phase: Callable[[float], float] | None = None
    negative: "PauliLowering | None" = None

    def at(self, d: float) -> "PauliLowering":
        """The form angle ``d`` takes: ``negative`` for d < 0 (not -0.0) where set."""
        return self.negative if d < 0.0 and self.negative is not None else self

    def ops(self, d: float) -> list[GateOp]:
        """This form's gates at angle ``d``.

        A slot that recurs (S2's two ``Uxy(d/2)``, the two-CPhase S3 form's
        CPhase) is built once and emitted at each of its places.
        """
        built = {}
        for s in self.slots:
            if type(s) is not GateOp and id(s) not in built:
                built[id(s)] = GateOp._at_angle(s[0], s[1](d), s[2])
        return [built.get(id(s), s) for s in self.slots]

    def circuit(self, d: float, n_qubits: int) -> Circuit:
        """exp(-i d P) on ``n_qubits`` qubits, in the form :meth:`at` picks for d."""
        form = self.at(d)
        return Circuit(n_qubits, form.ops(d), form.phase(d) if form.phase else 0.0)


def _rot_slot(axis: str, q: int, gate_set: GateSet) -> AngleSlot:
    """R_axis(2 d) on qubit q: exp(-i d sigma_axis)."""
    kind, params = _rot_spelling(axis, gate_set)
    return kind, lambda d: params(2 * d), (q,)


def pauli_lowering(
    axes: Sequence[str], qubits: tuple[int, ...], gate_set: GateSet
) -> PauliLowering:
    """exp(-i d sigma_axes[0] (x) sigma_axes[1] ...) on ``qubits``, for any angle d.

    This is the one place that decides how such an exponential is spelled.
    One qubit is a rotation.  Two qubits rotate the pair into the set's zz
    (S1, S3) or xx (S2, S4) frame around the set's entangler.  S3 has two
    forms: one CPhase, and for a negative angle (``negative``) two, which need
    only positive hardware phases.  Three or more qubits, in S1 only, fold the
    parity onto the last qubit with a CNOT ladder, apply Rz(2 d) there and
    undo the ladder.  The axes and qubits are the caller's to check.
    """
    if len(qubits) == 1:
        return PauliLowering((_rot_slot(axes[0], qubits[0], gate_set),))
    before = [op for a, q in zip(axes, qubits) for op in _frame_ops(a, q, True, gate_set)]
    after = [op for a, q in zip(axes, qubits) for op in _frame_ops(a, q, False, gate_set)]
    phase = negative = None
    if gate_set is GateSet.S1:
        ladder = [GateOp("CNOT", (), pair) for pair in zip(qubits, qubits[1:])]
        core = ladder + [_rot_slot("z", qubits[-1], gate_set)] + ladder[::-1]
    elif len(qubits) > 2:
        raise InputError(
            "multi-qubit Pauli exponentials are compiled in the CNOT set (S1); "
            f"got {gate_set}"
        )
    elif gate_set is GateSet.S3:
        i, j = qubits
        phase = lambda d: 0.0 + d  # a phase of 0.0, not -0.0, at d = -0.0
        # ZZ(d) = e^{i d} CPhase(-2d) (X x X) CPhase(-2d) (X x X)
        flips = [_rot("x", np.pi, i), _rot("x", np.pi, j)]
        cphase = ("CPhase", lambda d: (-2 * d,), qubits)
        negative = PauliLowering(tuple(before + flips + [cphase] + flips + [cphase] + after), phase)
        # ZZ(d) = e^{i d} (Rz(2d) x Rz(2d)) CPhase(-4d)
        core = [("CPhase", lambda d: (-4 * d,), qubits),
                _rot_slot("z", i, gate_set), _rot_slot("z", j, gate_set)]
    elif gate_set is GateSet.S2:
        # XX(d) = e^{i pi} Uxy(d/2) (I x Rx(pi)) Uxy(d/2) (I x Rx(pi))
        flip = _rot("x", np.pi, qubits[1])
        uxy = ("Uxy", lambda d: (d / 2,), qubits)
        core = [flip, uxy, flip, uxy]
        phase = lambda d: np.pi
    elif gate_set is GateSet.S4:
        core = [("MS_T4", lambda d: (d, 0.0), qubits)]
    else:
        raise InputError(f"unsupported gate set {gate_set}")
    return PauliLowering(tuple(before + core + after), phase, negative)


# --- fused blocks ---------------------------------------------------------------

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


_I4 = np.eye(4, dtype=complex)
_SWAP = [0, 2, 1, 3]  # the basis of two qubits with the qubits exchanged


def embed_left(m: np.ndarray | None, k: int, positions: tuple[int, ...], u: np.ndarray) -> np.ndarray:
    """E m, for E the matrix of ``u`` on ``positions`` (0 the high bit) of a part of k qubits.

    ``m`` None stands for the identity; neither ``m`` nor ``u`` is changed.
    An op of a part (:func:`plan_blocks`) acts on the whole part, a 2q op
    perhaps on its qubits swapped, or is a 1q op on one qubit of a 2q part.
    Either matrix may be a stack, and the product broadcasts over the leading
    axes: a stack of g matrices gives g products, each bit-equal to its own.
    """
    if len(positions) == k:
        if positions == (1, 0):
            u = u.take(_SWAP, -2).take(_SWAP, -1)
        return u if m is None else _dot(u, m)
    if m is None:
        m = _I4
    if positions == (0,):  # (u x I) m: u on the high bit of the row index
        out = _dot(u, m.reshape(m.shape[:-2] + (2, 8)))
        return out.reshape(out.shape[:-2] + (4, 4))
    # (I x u) m: u on each half of the rows
    out = np.matmul(u if u.ndim == 2 else u[..., None, :, :], m.reshape(m.shape[:-2] + (2, 2, 4)))
    return out.reshape(out.shape[:-3] + (4, 4))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product a b of two matrices, or of stacks of them over their leading axes."""
    return a.dot(b) if a.ndim == b.ndim == 2 else np.matmul(a, b)


class CircuitTemplate:
    """A circuit whose angle gates are left open, fused once and filled in per row of angles.

    ``members`` are its gates in time order: a built :class:`GateOp`, which
    every fill shares, or ``(slot, k)``, the :data:`AngleSlot` at column k of
    the fill's angle rows.  The same slot under the same k is one gate at each
    of its places, as in :meth:`PauliLowering.ops`.  The template lays out its
    blocks once (:func:`plan_blocks`) and keeps each as its runs of constant
    gates, each run multiplied into one matrix, with the slots between them.
    Its members' targets are the caller's to check: a :class:`Circuit` checked
    its ops when it was built, and a Trotter step's lie on its Hamiltonian's
    sites.  A template with no slots is a plain circuit's fusion
    (:attr:`Circuit.blocks`), so :meth:`blocks` is the one loop that
    multiplies gates into blocks.
    """

    def __init__(self, n_qubits: int, members: Sequence[GateOp | tuple[AngleSlot, int]]):
        self.n_qubits = n_qubits
        self._members = tuple(members)
        self.n_gates = len(self._members)
        index: dict[tuple[AngleSlot, int], int] = {}
        # per member: its slot's index, None if built
        self._keys = [None if type(m) is GateOp else index.setdefault(m, len(index))
                      for m in self._members]
        self._slots = list(index)
        targets = [m.targets if k is None else m[0][2] for m, k in zip(self._members, self._keys)]
        # per block: its targets and, per part, its width, the constant run
        # before its first slot, and each slot (index, positions) with the
        # constant run after it
        self._blocks = []
        for parts in plan_blocks(targets):
            laid_out = []
            for part_targets, plan in parts:
                k = len(part_targets)
                runs: list[np.ndarray | None] = [None]
                slots = []
                for i, positions in plan:
                    if self._keys[i] is None:
                        runs[-1] = embed_left(runs[-1], k, positions, self._members[i].matrix)
                    else:
                        slots.append((self._keys[i], positions))
                        runs.append(None)
                laid_out.append((k, runs[0], tuple(zip(slots, runs[1:]))))
            block_targets = sum((part_targets for part_targets, _ in parts), ())
            self._blocks.append((block_targets, tuple(laid_out)))

    def blocks(self, matrices: Sequence[np.ndarray]) -> tuple[Block, ...]:
        """The blocks with ``matrices[s]`` in slot s, each the kron product of its parts'.

        A slot's matrices may be a stack of g, one per fill row; then every
        block that holds a slot is a stack of g as well, and a block without
        one is its single constant matrix.
        """
        blocks = []
        for targets, parts in self._blocks:
            products = []
            for k, m, slots in parts:
                for (s, positions), after in slots:
                    m = embed_left(m, k, positions, matrices[s])
                    if after is not None:
                        m = _dot(after, m)
                products.append(m)
            blocks.append((targets, products[0] if len(products) == 1 else kron_factors(products)))
        return tuple(blocks)

    def fill(self, rows: np.ndarray) -> _Fill:
        """The template at each row of ``rows`` (g x columns), with the row's angles in the slots.

        The slots of one kind and width, whose other parameters are the same
        constants, get their matrices from one stacked call for all rows
        (:func:`gates.kind_matrix`, each bit-equal to what :func:`gate_matrix`
        gives its gate), which are multiplied into stacked blocks, one matrix
        per row.  A non-finite parameter is an ``InputError``, as
        :class:`GateOp` refuses it, named for the first row that has one.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            params = [at(rows[:, k]) for (_, at, _), k in self._slots]
        kinds: dict[tuple, list[int]] = {}
        for s, (((kind, _, targets), _), p) in enumerate(zip(self._slots, params)):
            kinds.setdefault((kind, len(targets)) + p[1:], []).append(s)
        # per kind: its slots' first parameters, one row per slot
        firsts = [np.array([params[s][0] for s in slots]) for slots in kinds.values()]
        finite = np.ones(len(rows), dtype=bool)
        for key, first in zip(kinds, firsts):
            finite &= np.isfinite(first).all(axis=0) & np.isfinite(key[2:]).all()
        if not finite.all():
            row = int(np.argmin(finite))
            for ((kind, _, _), _), p in zip(self._slots, params):
                check_finite(kind, _at_row(p, row))
        matrices = [None] * len(params)
        for ((kind, width, *constants), slots), first in zip(kinds.items(), firsts):
            for s, m in zip(slots, kind_matrix(kind, (first, *constants), width)):
                matrices[s] = m
        return _Fill(self, params, matrices, self.blocks(matrices))


class _Fill(NamedTuple):
    """A template filled at a stack of angle rows: each slot's parameters and matrices, and the blocks."""

    template: CircuitTemplate
    params: list[tuple]  # per slot, its parameters: a column per row, or a constant
    matrices: list[np.ndarray]  # per slot, a stack of one matrix per row
    blocks: tuple[Block, ...]  # a stack of one matrix per row, or a constant block

    def circuit(self, row: int) -> Circuit:
        """Row ``row`` as a circuit: its row of the blocks, and its gates built on first access."""
        blocks = lambda: tuple((t, u if u.ndim == 2 else u[row]) for t, u in self.blocks)
        return _LazyCircuit(self.template.n_qubits, self.template.n_gates, blocks,
                            partial(self.ops_at, row))

    def ops_at(self, row: int) -> list[GateOp]:
        """The gates of row ``row``, each keeping the matrix the fill computed."""
        t = self.template
        built = [GateOp._at_angle(kind, _at_row(p, row), targets, u[row])
                 for ((kind, _, targets), _), p, u in zip(t._slots, self.params, self.matrices)]
        return [m if k is None else built[k] for m, k in zip(t._members, t._keys)]


def _at_row(params: tuple, row: int) -> tuple[float, ...]:
    """One fill row's parameters, from a slot's columns (arrays) and constants (floats)."""
    return tuple(float(p[row]) if np.ndim(p) else p for p in params)


def decompose_pauli(
    axes: Sequence[str], delta: float, qubits: tuple[int, ...], gate_set: GateSet = GateSet.S1
) -> Circuit:
    """Circuit for exp(-i delta sigma_axes[0] (x) sigma_axes[1] ...) on ``qubits``.

    The gates are :func:`pauli_lowering`'s, in the form its sign rule picks
    for ``delta`` (:meth:`PauliLowering.at`), on a register of ``max(qubits)``
    qubits.  The axes are checked, and the qubits must be distinct.
    """
    if not axes or len(axes) != len(qubits):
        raise InputError(f"{len(axes)} axes for {len(qubits)} qubits")
    check_axes(*axes)
    if len(set(qubits)) != len(qubits):
        raise InputError(f"duplicate qubits {qubits}")
    return pauli_lowering(axes, tuple(qubits), gate_set).circuit(delta, max(qubits))


def _su2_ops(m: np.ndarray, q: int, gate_set: GateSet) -> tuple[list[GateOp], float]:
    """Gate list (time order) and phase with m = e^{i phase} [emitted rotations]."""
    phase, a, b, c = zyz_angles(m)
    ops = []
    for axis, theta in (("z", c), ("y", b), ("z", a)):
        if abs(theta) > 1e-14:
            ops.append(_rot(axis, theta, q, gate_set))
    return ops, phase


def heisenberg2_circuit(
    delta: float, qubits: tuple[int, int], variant: str = "6cnot"
) -> Circuit:
    """Two-qubit Heisenberg bond evolution exp(-i delta (XX + YY + ZZ)).

    Variants: ``6cnot`` (three juxtaposed pair blocks), ``3cnot`` (the closed
    form of Vatan & Williams, PRA 69, 032315 (2004): exactly three CNOTs with
    Rz and Ry rotations between them, exact including the global phase),
    ``3uxy`` (three exchange gates via the pairwise-commuting splitting of
    2 H = H_xxyy + H_xxzz + H_zzyy), and ``s4`` (the Moelmer-Soerensen
    sequence A B C A C^dag).
    """
    i, j = qubits
    if i == j:
        raise InputError("need two distinct qubits")
    n = max(i, j)
    if variant == "6cnot":
        c = Circuit(n, ())
        for axis in ("x", "y", "z"):
            c = c + decompose_pauli((axis, axis), delta, qubits, GateSet.S1)
        return c
    if variant == "3cnot":
        a = 2 * delta + np.pi / 2
        ops = [
            _rot("z", np.pi / 2, j),
            GateOp("CNOT", (), (j, i)),
            _rot("z", a, i),
            _rot("y", a, j),
            GateOp("CNOT", (), (i, j)),
            _rot("y", -a, j),
            GateOp("CNOT", (), (j, i)),
            _rot("z", -np.pi / 2, i),
        ]
        return Circuit(n, ops, np.pi / 4)
    if variant == "3uxy":
        half = delta / 2
        ops = [GateOp("Uxy", (half,), (i, j))]
        for axis in ("x", "y"):
            ops += [_rot(axis, -np.pi / 2, i), _rot(axis, -np.pi / 2, j)]
            ops.append(GateOp("Uxy", (half,), (i, j)))
            ops += [_rot(axis, np.pi / 2, i), _rot(axis, np.pi / 2, j)]
        return Circuit(n, ops)
    if variant == "s4":
        ops = [
            GateOp("MS_T3", (-np.pi / 4, np.pi / 2), (i, j)),  # C^dag
            GateOp("MS_T4", (delta, 0.0), (i, j)),             # A
            GateOp("MS_T3", (np.pi / 4, np.pi / 2), (i, j)),   # C
            GateOp("MS_T4", (delta, np.pi / 2), (i, j)),       # B
            GateOp("MS_T4", (delta, 0.0), (i, j)),             # A
        ]
        return Circuit(n, ops)
    raise InputError(f"unknown variant {variant!r}; use 6cnot, 3cnot, 3uxy or s4")


def _inverse_op(op: GateOp) -> GateOp:
    """A kind without parameters (H, X, CNOT) is its own inverse; U3(theta, phi,
    lam) inverts to U3(-theta, -lam, -phi) and every other kind negates its first."""
    if not op.params:
        return op
    if op.kind == "U3":
        theta, phi, lam = op.params
        return GateOp("U3", (-theta, -lam, -phi), op.targets)
    return GateOp(op.kind, (-op.params[0],) + op.params[1:], op.targets)


def inverse_circuit(c: Circuit) -> Circuit:
    """Exact inverse: reversed op order, negated angles and global phase.

    It runs the adjoints of ``c``'s blocks in reverse order, and builds its
    ops on first access.
    """
    return _LazyCircuit(
        c.n_qubits,
        c.n_gates,
        lambda: tuple((targets, u.conj().T) for targets, u in reversed(c.blocks)),
        lambda: [_inverse_op(op) for op in reversed(c.ops)],
        -c.global_phase,
    )


# --- controlled expansion -----------------------------------------------------

def _ctrl_rz(theta: float, c: int, t: int) -> list[GateOp]:
    return [
        _rot("z", theta / 2, t),
        GateOp("CNOT", (), (c, t)),
        _rot("z", -theta / 2, t),
        GateOp("CNOT", (), (c, t)),
    ]


def _ctrl_ry(theta: float, c: int, t: int) -> list[GateOp]:
    return [_rot("x", np.pi / 2, t), *_ctrl_rz(theta, c, t), _rot("x", -np.pi / 2, t)]


def _ctrl_rx(theta: float, c: int, t: int) -> list[GateOp]:
    return [GateOp("H", (), (t,)), *_ctrl_rz(theta, c, t), GateOp("H", (), (t,))]


def _toffoli(c1: int, c2: int, t: int) -> list[GateOp]:
    tg = lambda q: GateOp("Phase", (np.pi / 4,), (q,))
    tdg = lambda q: GateOp("Phase", (-np.pi / 4,), (q,))
    return [
        GateOp("H", (), (t,)),
        GateOp("CNOT", (), (c2, t)),
        tdg(t),
        GateOp("CNOT", (), (c1, t)),
        tg(t),
        GateOp("CNOT", (), (c2, t)),
        tdg(t),
        GateOp("CNOT", (), (c1, t)),
        tg(c2),
        tg(t),
        GateOp("H", (), (t,)),
        GateOp("CNOT", (), (c1, c2)),
        tg(c1),
        tdg(c2),
        GateOp("CNOT", (), (c1, c2)),
    ]


def _ctrl_pair_core(
    alpha: str, beta: str, delta: float, c: int, i: int, j: int
) -> list[GateOp]:
    # controlled exp(-i d sigma sigma): frames and CNOT conjugation cancel when
    # the control is off, so only the central Rz of the S1 form needs the control
    ops: list[GateOp] = []
    for op in decompose_pauli((alpha, beta), delta, (i, j), GateSet.S1).ops:
        ops += _ctrl_rz(op.params[0], c, j) if op.kind == "Rz" else [op]
    return ops


def _controlled_op(op: GateOp, c: int) -> list[GateOp]:
    k, p, tg = op.kind, op.params, op.targets
    if c in tg:
        raise InputError(f"control qubit {c} collides with targets of {k}")
    if k == "X":
        return [GateOp("CNOT", (), (c, tg[0]))]
    if k == "Phase":
        return [GateOp("CPhase", (p[0],), (c, tg[0]))]
    if k == "Rz":
        return _ctrl_rz(p[0], c, tg[0])
    if k == "Rx":
        return _ctrl_rx(p[0], c, tg[0])
    if k == "Ry":
        return _ctrl_ry(p[0], c, tg[0])
    if k == "H":
        # H = e^{i pi/2} Ry(pi/2) Rz(pi)
        return [
            GateOp("Phase", (np.pi / 2,), (c,)),
            *_ctrl_rz(np.pi, c, tg[0]),
            *_ctrl_ry(np.pi / 2, c, tg[0]),
        ]
    if k == "U3":
        theta, phi, lam = p
        # u3 = e^{i (phi + lam)/2} Rz(phi) Ry(theta) Rz(lam)
        return [
            GateOp("Phase", ((phi + lam) / 2,), (c,)),
            *_ctrl_rz(lam, c, tg[0]),
            *_ctrl_ry(theta, c, tg[0]),
            *_ctrl_rz(phi, c, tg[0]),
        ]
    if k == "CNOT":
        return _toffoli(c, tg[0], tg[1])
    if k == "CPhase":
        d = p[0]
        return [
            GateOp("CPhase", (d / 2,), (tg[0], tg[1])),
            GateOp("CNOT", (), (c, tg[0])),
            GateOp("CPhase", (-d / 2,), (tg[0], tg[1])),
            GateOp("CNOT", (), (c, tg[0])),
            GateOp("CPhase", (d / 2,), (c, tg[1])),
        ]
    if k in ("ZZ", "XX", "YY"):
        a = k[0].lower()
        return _ctrl_pair_core(a, a, p[0], c, tg[0], tg[1])
    if k == "Uxy":
        return _ctrl_pair_core("x", "x", p[0], c, *tg) + _ctrl_pair_core(
            "y", "y", p[0], c, *tg
        )
    raise InputError(f"controlled expansion not supported for gate kind {k}")


def controlled_circuit(circuit: Circuit, control: int) -> Circuit:
    """The hardware circuit of ``circuit`` controlled on qubit ``control``.

    Each gate becomes controlled S1 gates and the global phase a phase gate on
    the control; MS gates have no such spelling (``InputError``).  This is the
    circuit a device runs for an ancilla protocol.  It is not simulated: the
    observables apply the plain operation to the amplitudes with the control at 1.
    """
    n = max(circuit.n_qubits, control)
    ops: list[GateOp] = []
    if circuit.global_phase != 0.0:
        ops.append(GateOp("Phase", (circuit.global_phase,), (control,)))
    for op in circuit.ops:
        ops += _controlled_op(op, control)
    return Circuit(n, ops)


# --- serialization: one op per line, `NAME(params) targets...` + phase footer --

_OP_RE = re.compile(r"^(\w+)\(([^)]*)\)((?:\s+\d+)+)$")


def dumps_circuit(c: Circuit) -> str:
    lines = [f"qubits {c.n_qubits}"]
    for op in c.ops:
        params = ",".join(f"{p:.17g}" for p in op.params)
        targets = " ".join(str(q) for q in op.targets)
        lines.append(f"{op.kind}({params}) {targets}")
    lines.append(f"phase {c.global_phase:.17g}")
    return "\n".join(lines) + "\n"


def _parse_word(parse, word: str, ln: int, raw: str):
    try:
        return parse(word)
    except ValueError as exc:
        raise InputError(f"line {ln}: cannot parse {raw!r}") from exc


def loads_circuit(text: str) -> Circuit:
    n_qubits = None
    phase = 0.0
    ops: list[GateOp] = []
    headers: set[str] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] in ("qubits", "phase"):
            if len(words) != 2:
                raise InputError(f"line {ln}: expected `{words[0]} <number>`, got {raw!r}")
            if words[0] in headers:
                raise InputError(f"line {ln}: `{words[0]}` given more than once")
            headers.add(words[0])
            if words[0] == "qubits":
                n_qubits = _parse_word(int, words[1], ln, raw)
                if n_qubits < 1:
                    raise InputError(f"line {ln}: qubits must be >= 1, got {n_qubits}")
            else:
                phase = _parse_word(float, words[1], ln, raw)
                if not math.isfinite(phase):
                    raise InputError(f"line {ln}: phase must be finite, got {words[1]!r}")
            continue
        m = _OP_RE.match(line)
        if not m:
            raise InputError(f"line {ln}: cannot parse {raw!r}")
        kind, params_s, targets_s = m.groups()
        params = tuple(_parse_word(float, x, ln, raw) for x in params_s.split(",") if x.strip())
        targets = tuple(int(x) for x in targets_s.split())
        ops.append(GateOp(kind, params, targets))
    if n_qubits is None:
        n_qubits = max((max(op.targets) for op in ops), default=1)
    return Circuit(n_qubits, ops, phase)
