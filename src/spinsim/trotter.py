"""Suzuki-Trotter synthesis of time-evolution circuits and digital-error analysis.

First- and second-order splittings with two step schedules: a fixed step count,
or a fixed digital-error budget with the step count growing linearly or
quadratically in the accumulated phase.  When every Hamiltonian term commutes
the splitting is exact and a single step is emitted.  Single-qubit field terms
whose sum commutes with the interaction part are hoisted in front of the
Trotter loop and applied once with the full angle.

A :class:`TrotterCompiler` is built once per Hamiltonian, plan and gate set.
It does the analysis that does not depend on the time: the commutation checks
and the hoisting decision, the coupling scale, the disjoint layers, and each
term's gates with its angle left open.  The step is laid out as a
:class:`~spinsim.compiler.CircuitTemplate` once per pattern of term forms
(S3's negative angles take a second form, so t = 0 and t > 0 can differ):
its fused blocks, with the frame changes and CNOTs multiplied in and the
angle gates left as slots.  A single-axis hoisted field prefix is a template
of rotation slots too.  The compiler compiles a whole grid of times at once
into one :class:`GridEvolution` (:meth:`TrotterCompiler.grid`): it works out
each point's step count, groups the points by form, and fills each group's
template once from the stack of their angle rows.  The grid keeps each fill
with its points, and per point its step count, phases, route and price as
arrays; a point is an :class:`EvolutionResult` only where asked for
(``grid[k]``).  A long grid is compiled a stack of points at a time
(:meth:`TrotterCompiler.iter_grid`); ``trotterize`` compiles one time.

A compiled evolution is one Trotter step and its repeat count, not the
unrolled gate list: it applies the hoisted prefix, then the step n times, then
the global phase once.  :func:`evolve_stack` evolves a grid on a (g, r, 2^N)
stack of states, r rows a point.  Where it is cheaper than the gates, the
step is folded into one dense matrix U, and U^n, formed by repeated squaring
in about log2(n) products, is applied once in place of n passes of its gates.
One cost model, :func:`_route_cost`, makes that choice and prices each point
by the route it takes, in gate applications; the run budget reads that price.

Backward evolution (t < 0) is the exact mirror of the forward circuit, so a
forward run followed by a backward run with the same plan is an exact identity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .compiler import (
    Block,
    Circuit,
    CircuitTemplate,
    GateSet,
    PauliLowering,
    inverse_circuit,
    pauli_lowering,
    _su2_ops,
)
from .errors import InputError, ResourceError
from .gates import DENSE_QUBIT_LIMIT, GATE_BUDGET, GateOp, hermitian_expm, PAULI
from .pauli import (
    PauliHamiltonian,
    PauliString,
    commutes,
    dense_matrix,
    disjoint_layers,
    mul_masks,
)
from .statevector import _CHUNK, StateVector, _apply_matrix

# The cost of one fused block pass over 2^m amplitudes, in units of the flops
# of a dense matrix product (8^N per squaring): _BLOCK_PASS_FLOPS up to 2^10
# amplitudes, where the call overhead dominates, and _AMPLITUDE_FLOPS per
# amplitude above.  Measured: gates-vs-folded timings of evolve, Heisenberg
# chains of 3-10 qubits with 1-4096 steps (table in CHANGES.md).
_BLOCK_PASS_FLOPS = 2**17
_AMPLITUDE_FLOPS = 2**7


def _pass_flops(n_qubits: int) -> int:
    """What one block pass over ``n_qubits`` qubits costs, in flops of a dense product."""
    return max(_BLOCK_PASS_FLOPS, _AMPLITUDE_FLOPS * 2**n_qubits)


@dataclass(frozen=True)
class TrotterPlan:
    """Splitting order (1 or 2) plus a step schedule.

    Exactly one of ``n_steps`` (fixed-n) or ``eps`` (fixed digital error with
    ``growth`` in {linear, quadratic}) must be set.
    """

    order: int = 1
    n_steps: int | None = None
    eps: float | None = None
    growth: str = "quadratic"

    def __post_init__(self):
        if self.order not in (1, 2):
            raise InputError(f"order must be 1 or 2, got {self.order}")
        if (self.n_steps is None) == (self.eps is None):
            raise InputError("set exactly one of n_steps or eps")
        if self.n_steps is not None and self.n_steps < 1:
            raise InputError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.eps is not None and not 0.0 < self.eps < 1.0:
            raise InputError(f"eps must lie in (0, 1), got {self.eps}")
        if self.growth not in ("linear", "quadratic"):
            raise InputError(f"growth must be linear or quadratic, got {self.growth}")

    @classmethod
    def fixed_n(cls, n: int, order: int = 1) -> "TrotterPlan":
        return cls(order=order, n_steps=n)

    @classmethod
    def fixed_eps(cls, eps: float, growth: str = "quadratic", order: int = 1) -> "TrotterPlan":
        return cls(order=order, eps=eps, growth=growth)


@dataclass(frozen=True)
class EvolutionResult:
    """exp(-i H t) compiled as a hoisted prefix, one Trotter step and a repeat count.

    The evolution runs ``prefix`` once, then ``step`` ``n_steps_used`` times,
    then multiplies by e^{i global_phase}.  ``prefix`` holds the hoisted field
    rotations and is empty when nothing is hoisted.  Neither circuit carries a
    phase of its own: ``global_phase`` is the whole evolution's, summed term by
    term in gate order, so it is bit-equal to the unrolled circuit's.

    A ``mirrored`` result is the exact inverse of a forward one (t < 0): the
    inverted step repeats first and the inverted prefix runs last.

    A compiled ``step`` comes with its blocks, filled in from the compiler's
    template, and ``evolve`` and :attr:`folds` read only those; its gates are
    built on first access.  ``circuit`` unrolls all of this into the one flat
    circuit it stands for.
    """

    prefix: Circuit
    step: Circuit
    n_steps_used: int
    phase: float  # dimensionless delta = (coupling scale) * |t|
    global_phase: float = 0.0
    mirrored: bool = False

    @property
    def circuit(self) -> Circuit:
        steps = self.step.ops * self.n_steps_used
        ops = steps + self.prefix.ops if self.mirrored else self.prefix.ops + steps
        return Circuit(self.step.n_qubits, ops, self.global_phase)

    @property
    def folds(self) -> bool:
        """Whether the repeated step is cheaper as a power of its dense matrix than as gates."""
        return bool(_route_cost(self.step.n_qubits, len(self.step.blocks), self.n_steps_used) < 1)


def _route_cost(n: int, blocks, reps) -> np.ndarray:
    """What ``reps`` repeats of a step of ``blocks`` blocks on ``n`` qubits cost by the route
    :func:`evolve_stack` takes, as a share r of their cost as gates (per point of arrays).

    Folded, the evolution costs a pass of each of the step's blocks over the
    2^N identity columns, which form one 2N-qubit vector, to build the matrix,
    about two more such passes to set up the columns and apply the power to
    the state, and about log2(n) dense products of 8^N flops, to square it up
    to the n-th power.  As gates, it costs n passes of its blocks over the
    state.  Each pass is priced by :func:`_pass_flops`.  The step folds, and r
    is the folded cost over the gates', exactly where that is below 1, n > 1 and
    N is within ``DENSE_QUBIT_LIMIT``; elsewhere r = 1.  The table the
    constants rest on is in CHANGES.md.
    """
    reps, blocks = np.asarray(reps, dtype=float), np.asarray(blocks, dtype=float)
    gates = reps * blocks * _pass_flops(n)
    folded = (blocks + 2) * _pass_flops(2 * n) + np.log2(reps) * 8.0**n
    folds = (folded < gates) & (reps > 1) & (n <= DENSE_QUBIT_LIMIT)
    return np.divide(folded, gates, out=np.ones_like(folded), where=folds)


class GridEvolution:
    """exp(-i H t) compiled at each point of a grid of times, as one object.

    ``prefix`` and ``step`` are forms ``(source, points)``: a template fill whose
    stacked blocks have a row per point of the int array ``points``, in order,
    or a plain circuit that each of ``points`` runs.  Per point, the arrays
    ``n_steps``, ``delta`` (the coupling scale times |t|), ``global_phase``,
    ``mirrored`` (t < 0: the inverse of the point at -t, whose forward blocks
    its forms hold), and ``folds`` and ``price`` (:func:`_route_cost`'s share r:
    r < 1 folds, and the price is the prefix's gates plus n_steps times r times
    the step's).  :func:`evolve_stack` reads only these; ``grid[k]`` is point k
    as an :class:`EvolutionResult`.
    """

    def __init__(self, n_qubits: int, prefix: list, step: list, n_steps: np.ndarray,
                 delta: np.ndarray, global_phase: np.ndarray, mirrored: np.ndarray):
        self.n_qubits, self.prefix, self.step, self.n_steps = n_qubits, prefix, step, n_steps
        self.delta, self.global_phase, self.mirrored = delta, global_phase, mirrored
        prefix_gates, step_gates, blocks = np.zeros((3, len(self)), dtype=int)
        for source, points in prefix:
            prefix_gates[points] = source.n_gates
        for source, points in step:
            step_gates[points], blocks[points] = source.n_gates, len(source.blocks)
        cost = _route_cost(n_qubits, blocks, n_steps)
        self.folds, self.price = cost < 1, prefix_gates + n_steps * step_gates * cost

    @classmethod
    def of(cls, results: Sequence[EvolutionResult]) -> "GridEvolution":
        """Compiled results as a grid whose point k runs ``results[k]``'s circuits as
        constant blocks; a mirrored result's are inverted back to the forward ones."""
        forms = [(inverse_circuit(r.prefix), inverse_circuit(r.step)) if r.mirrored
                 else (r.prefix, r.step) for r in results]
        prefix, step = ([(c, np.array([k])) for k, c in enumerate(cs)] for cs in zip(*forms))
        columns = zip(*((r.n_steps_used, r.phase, r.global_phase, r.mirrored) for r in results))
        return cls(results[0].step.n_qubits, prefix, step, *map(np.array, columns))

    def __len__(self) -> int:
        return len(self.n_steps)

    def __getitem__(self, k: int) -> EvolutionResult:
        """Point k as an :class:`EvolutionResult`, its circuits made from its forms' rows."""
        k = range(len(self))[k]
        prefix, step = (next((source if isinstance(source, Circuit)
                              else source.circuit(int(np.flatnonzero(points == k)[0]))
                              for source, points in forms if k in points),
                             Circuit(self.n_qubits, ())) for forms in (self.prefix, self.step))
        if self.mirrored[k]:
            prefix, step = inverse_circuit(prefix), inverse_circuit(step)
        return EvolutionResult(prefix, step, int(self.n_steps[k]), float(self.delta[k]),
                               float(self.global_phase[k]), bool(self.mirrored[k]))


def evolve(state: StateVector, result: EvolutionResult) -> StateVector:
    """Apply a compiled evolution to ``state``, on its own register, in place; returns
    the state.  The one-point, one-row case of :func:`evolve_stack`."""
    evolve_stack(state.amplitudes[None, None], GridEvolution.of([result]))
    return state


def iter_stacks(points: Iterable, n_qubits: int) -> Iterator[list]:
    """``points`` (times, say) in lists of the points one stack of states on ``n_qubits``
    holds: ``_CHUNK`` amplitudes, at least one point and at most ``GRID_CHUNK``."""
    points = iter(points)
    while stack := list(islice(points, max(1, min(GRID_CHUNK, _CHUNK >> n_qubits)))):
        yield stack


def evolve_stack(states: np.ndarray, grid: GridEvolution) -> np.ndarray:
    """Apply point k of ``grid`` to each row of ``states[k]``, a (g, r, 2^N) stack of r
    rows a point, in place; returns it.

    Each row gets the bits that evolving it alone gives.  Each form runs each
    block on its points' rows as one batched product, the mirrored points' as
    adjoints in reverse order; a step repeated as gates runs its points by step
    count, so that step k runs on a leading slice.  Folded points build their
    step matrices on identity columns, ``_CHUNK`` amplitudes of them at a time,
    and raise them together (:func:`_matrix_powers`) for all their rows.
    """
    g, r, dim = states.shape
    n = grid.n_qubits
    if dim != 2**n:
        raise InputError(f"evolution acts on {n} qubits, state has {dim.bit_length() - 1}")
    flat = states.reshape(g * r, dim)  # a view where the stack's layout allows
    if not flat.size:
        return states
    once = np.ones(len(grid), dtype=int)
    for forms, pick, counts in ((grid.prefix, ~grid.mirrored, once),
                                (grid.step, ~grid.folds, grid.n_steps)):
        for blocks, points, reps in _parts(grid, forms, pick, counts, r):
            _run_rows(flat, n, r, blocks, points, reps)
    size = max(1, _CHUNK >> 2 * n)
    for blocks, points, reps in _parts(grid, grid.step, grid.folds, grid.n_steps, 1):
        for k in range(0, len(points), size):
            part = slice(k, k + size)
            mats = _step_matrices(n, [(t, u if u.ndim == 2 else u[part]) for t, u in blocks],
                                  len(points[part]))
            powers = _matrix_powers(mats, reps[part].tolist())
            index = _rows(points[part], r)
            flat[index] = np.matmul(powers if r == 1 else np.repeat(powers, r, axis=0),
                                    flat[index][..., None])[..., 0]
    for blocks, points, reps in _parts(grid, grid.prefix, grid.mirrored, once, r):
        _run_rows(flat, n, r, blocks, points, reps)
    phased = np.flatnonzero(grid.global_phase != 0.0)
    if len(phased):
        flat[_rows(phased, r)] *= np.repeat(np.exp(1j * grid.global_phase[phased]), r)[:, None]
    if not np.may_share_memory(flat, states):
        states[...] = flat.reshape(states.shape)
    return states


def _parts(grid: GridEvolution, forms: list, pick: np.ndarray, counts: np.ndarray, r: int):
    """``(blocks, points, reps)`` for each form's forward, then mirrored, points where ``pick``
    holds, most repeats first: their rows of its blocks, r a point, for mirrored points
    as adjoints in reverse order."""
    for source, points in forms:
        for inverted in (False, True):
            sel = np.flatnonzero(pick[points] & (grid.mirrored[points] == inverted))
            if len(sel) and source.blocks:
                sel = sel[np.argsort(-counts[points[sel]], kind="stable")]
                rows = np.repeat(sel, r)
                blocks = [(t, u if u.ndim == 2 else u[rows]) for t, u in source.blocks]
                if inverted:
                    blocks = [(t, u.conj().swapaxes(-1, -2)) for t, u in reversed(blocks)]
                yield blocks, points[sel], counts[points[sel]]


def _rows(points: np.ndarray, r: int) -> slice | np.ndarray:
    """The rows of ``points`` in a flat stack of r rows a point: a slice (a view) where
    they run up one by one."""
    rows = (points[:, None] * r + np.arange(r)).ravel()
    return slice(rows[0], rows[-1] + 1) if len(rows) == 1 or np.all(np.diff(rows) == 1) else rows


def _run_rows(flat: np.ndarray, n: int, r: int, blocks: list[Block], points: np.ndarray,
              reps: np.ndarray):
    """``blocks``, one matrix per row, run reps[k] times on the r rows of points[k] of a flat
    stack; reps run down, so that the rows still repeating are a leading slice."""
    index = _rows(points, r)
    sub = flat[index]
    reps, done = np.repeat(reps, r).tolist(), 0
    for live in range(len(reps), 0, -1):
        if reps[live - 1] > done:
            part = sub[:live]
            live_blocks = [(t, u if u.ndim == 2 else u[:live]) for t, u in blocks]
            for _ in range(reps[live - 1] - done):
                for targets, u in live_blocks:
                    _apply_matrix(part, n, targets, u)
            done = reps[live - 1]
    if not isinstance(index, slice):
        flat[index] = sub


def _step_matrices(n: int, blocks: Sequence[Block], g: int) -> np.ndarray:
    """The dense 2^N x 2^N matrices of g steps whose blocks are ``blocks``, each a stack of g
    or one constant matrix: run on the 2^N identity columns, one 2N-qubit state a step."""
    columns = np.zeros((g, 4**n), dtype=complex)
    columns[:, ::2**n + 1] = 1.0  # each row the flattened 2^N x 2^N identity
    for targets, u in blocks:
        _apply_matrix(columns, 2 * n, targets, u)
    return columns.reshape(-1, 2**n, 2**n)


def _matrix_powers(a: np.ndarray, ns: list[int]) -> np.ndarray:
    """``a[k]`` to the power ``ns[k]`` for a (g, d, d) stack, as np.linalg.matrix_power
    multiplies it, bit for bit: n = 3 as (a a) a, any other n by its binary digits, lowest
    first, squaring a at each and multiplying it into the result from the right at each set
    one; each product here is one for all rows."""
    if len(set(ns)) == 1:
        return np.linalg.matrix_power(a, ns[0])
    ns, out = np.array(ns), np.empty_like(a)
    three = ns == 3
    out[three] = a[three] @ a[three] @ a[three]
    z, ns = a[~three], ns[~three]
    result, have = np.empty_like(z), np.zeros(len(ns), dtype=bool)
    while ns.any():
        bit = (ns & 1).astype(bool)
        result[bit & ~have] = z[bit & ~have]
        result[bit & have] = result[bit & have] @ z[bit & have]
        have |= bit
        ns >>= 1
        z[ns > 0] = z[ns > 0] @ z[ns > 0]
    out[~three] = result
    return out


def steps_for_phase(delta: float, eps: float, growth: str = "quadratic") -> int:
    """Step count keeping the digital-error ratio fixed.

    quadratic: n = max(1, ceil(delta^2 / 2 eps)); linear: n = max(1,
    ceil(delta / 2 eps)).
    """
    if not 0 <= delta < math.inf:
        raise InputError(f"phase must be finite and nonnegative, got {delta}")
    if not 0.0 < eps < 1.0:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    if growth not in ("linear", "quadratic"):
        raise InputError(f"growth must be linear or quadratic, got {growth}")
    try:
        n = math.ceil((delta**2 if growth == "quadratic" else delta) / (2 * eps))
    except OverflowError:
        n = math.inf
    if n > sys.maxsize:
        raise InputError(f"phase {delta} needs more Trotter steps than an index holds")
    return max(1, n)


def _sum_commutator_is_zero(fields: list[PauliString], rest: list[PauliString]) -> bool:
    """[sum(fields), sum(rest)] == 0 symbolically: [f, r] is 2fr or 0 as f, r anticommute or not."""
    acc: dict[tuple[int, int], complex] = {}
    for f in fields:
        for r in rest:
            if not commutes(f, r):
                phase, masks = mul_masks(f.masks, r.masks)
                acc[masks] = acc.get(masks, 0.0) + f.coef * r.coef * (2 * phase)
    return all(abs(v) < 1e-12 for v in acc.values())


# the most points a stack of states holds (:func:`iter_stacks`), and so a grid of
# :meth:`TrotterCompiler.iter_grid`: a 1024-theta spectrum is one fill, its blocks near a megabyte
GRID_CHUNK = 1024


class TrotterCompiler:
    """exp(-i H t) under one plan and gate set, compiled for a grid of times (:meth:`grid`)
    or for one t by calling it.

    What does not depend on t is done once, when it is built: the identity
    terms are set apart, the commutation checks decide whether the field terms
    are hoisted and whether the splitting is exact, and the remaining terms are
    scaled and cut into disjoint layers, each term lowered to its gates with
    the angle left open.  The step's template (its fused blocks, with the
    frame changes and CNOTs multiplied in) is built on the first grid that
    needs its pattern of term forms, at most two in practice.  A grid fills
    each form's template once for all its points: it builds only the gates
    whose angles depend on t, as stacks of matrices, and their
    :class:`GateOp` values only where a step's ops are read.  The hoisted
    field prefix is grouped by qubit once.  With one field axis per qubit it
    is a template of rotation slots, filled once per grid; with several axes
    on a qubit it is spelled per point, as exp(-i t G) in Euler angles.
    """

    def __init__(self, h: PauliHamiltonian, plan: TrotterPlan, gate_set: GateSet = GateSet.S1):
        if len(h.terms) == 0:
            raise InputError("cannot trotterize an empty Hamiltonian")
        self.n_qubits = h.n_qubits
        self.plan = plan
        self.gate_set = gate_set
        self._identity = [term.coef.real for term in h.terms if not term.support]
        working = [term for term in h.terms if term.support]
        all_commute = all(
            commutes(a, b) for k, a in enumerate(working) for b in working[k + 1:]
        )
        hoisted: list[PauliString] = []
        rest = working
        if not all_commute:
            fields = [term for term in working if len(term.support) == 1]
            others = [term for term in working if len(term.support) > 1]
            if fields and others and _sum_commutator_is_zero(fields, others):
                hoisted, rest = fields, others
                all_commute = all(
                    commutes(a, b) for k, a in enumerate(rest) for b in rest[k + 1:]
                )
        self._all_commute = all_commute
        by_qubit: dict[int, dict[str, float]] = {}
        for f in hoisted:
            q = next(iter(f.support))
            axes = by_qubit.setdefault(q, {})
            axis = f.letters[q - 1].lower()
            axes[axis] = axes.get(axis, 0.0) + f.coef.real
        # per qubit: its rotation's lowering and field, or None and its fields' generator
        self._fields: list[tuple[int, PauliLowering | None, float | np.ndarray]] = []
        for q, axes in sorted(by_qubit.items()):
            if len(axes) == 1:
                ((axis, field),) = axes.items()
                self._fields.append((q, pauli_lowering((axis,), (q,), gate_set), field))
            else:
                gen = sum(c * PAULI[a.upper()] for a, c in axes.items())
                self._fields.append((q, None, gen))
        # the prefix as a template of rotation slots where each qubit has one
        # field axis, the slot of field k at column k of its fill
        self._prefix = self._field_values = None
        if self._fields and all(lowering is not None for _, lowering, _ in self._fields):
            self._prefix = CircuitTemplate(self.n_qubits, [
                (lowering.slots[0], k) for k, (_, lowering, _) in enumerate(self._fields)
            ])
            self._field_values = np.array([field for _, _, field in self._fields])
        self._scale = max((abs(term.coef.real) for term in rest), default=0.0)
        layers = disjoint_layers(rest)
        forward = [term for layer in layers for term in layer]
        backward = [term for layer in reversed(layers) for term in reversed(layer)]
        lowered = {term: (term.coef.real, self._lower(term)) for term in forward}
        orders = [forward] if plan.order == 1 or all_commute else [forward, backward]
        self._sweeps = len(orders)
        # the step's terms in order, and those whose lowering has a second form
        self._terms = [lowered[term] for seq in orders for term in seq]
        self._signed = [k for k, (_, lowering) in enumerate(self._terms)
                        if lowering.negative is not None]
        self._coefs = np.array([coef for coef, _ in self._terms])
        self._phased = any(form.phase for _, lowering in self._terms
                           for form in (lowering, lowering.negative) if form is not None)
        # the step's template for each pattern of forms, keyed by which of
        # _signed take their negative form
        self._templates: dict[tuple[bool, ...], CircuitTemplate] = {}

    def _lower(self, term: PauliString) -> PauliLowering:
        sites = tuple(sorted(term.support))
        return pauli_lowering([term.letters[q - 1].lower() for q in sites], sites, self.gate_set)

    def _template(self, angles: list[float]) -> CircuitTemplate:
        """The step's gates in the forms these angles take, with each angle left open."""
        members: list = []
        for k, ((_, lowering), d) in enumerate(zip(self._terms, angles)):
            members += [s if type(s) is GateOp else (s, k) for s in lowering.at(d).slots]
        return CircuitTemplate(self.n_qubits, members)

    def __call__(self, t: float) -> EvolutionResult:
        """exp(-i H t) compiled: the one-point :meth:`grid`'s point."""
        return self.grid((t,))[0]

    def iter_grid(self, times: Sequence[float]) -> Iterator[GridEvolution]:
        """:meth:`grid` over ``times``, one stack of points at a time (:func:`iter_stacks`),
        so that a long grid holds one stack's fills at a time."""
        for stack in iter_stacks(times, self.n_qubits):
            yield self.grid(stack)

    def grid(self, times: Sequence[float]) -> GridEvolution:
        """exp(-i H t) compiled at each of ``times``, as one :class:`GridEvolution`.

        Each point's step count and phase are worked out as for that time
        alone.  The points are then grouped by their pattern of term forms (at
        most two: t = 0 and t > 0), and each group's template is filled once,
        from the stack of its points' angle rows: a point's step runs its row
        of the stacked blocks.  A single-axis hoisted prefix is filled the
        same way, in one fill for every point.  A point at t < 0 is the mirror
        of the one at -t.

        A non-finite time or angle is an ``InputError``, and a point whose
        steps unroll to over ``GATE_BUDGET`` gates a ``ResourceError``.  The
        checks run in the order a single call makes them (the time, the step
        count, the prefix's angles, the step's angles, the budget), each over
        every point before the next; the first point that fails one raises.
        """
        times = np.array([float(t) for t in times])
        bad = ~np.isfinite(times)
        if bad.any():
            raise InputError(f"time must be finite, got {times[bad][0]}")
        mirrored = times < 0
        forward = np.where(mirrored, -times, times)
        phases = np.zeros(len(times))
        with np.errstate(over="ignore"):  # a non-finite delta is refused by the step count
            deltas = self._scale * forward if self._terms else np.zeros(len(times))
            for coef in self._identity:
                phases += -coef * forward
        prefix, step, ns = [], [], np.ones(len(times), dtype=int)
        if self._terms and len(times):
            prefix, step, ns = self._compile(forward, deltas, phases)
        return GridEvolution(self.n_qubits, prefix, step, ns, deltas,
                             np.where(mirrored, -phases, phases), mirrored)

    def _compile(self, forward: np.ndarray, deltas: np.ndarray, phases: np.ndarray) -> tuple:
        """The prefix's and the step's forms at the times ``forward`` (none negative), whose
        deltas are ``deltas``, and each point's step count; adds the term phases to ``phases``."""
        plan = self.plan
        if self._all_commute or plan.n_steps is not None:
            ns = [1 if self._all_commute else plan.n_steps] * len(forward)
        else:
            ns = [steps_for_phase(delta, plan.eps, plan.growth) for delta in deltas.tolist()]
        prefix = self._prefixes(forward, phases)

        dts = [t / (self._sweeps * n) for t, n in zip(forward.tolist(), ns)]
        with np.errstate(over="ignore"):  # a non-finite angle is refused by the fill
            rows = np.multiply.outer(dts, self._coefs)
        groups: dict[tuple[bool, ...], list[int]] = {}
        for i, negative in enumerate((rows[:, self._signed] < 0.0).tolist()):
            groups.setdefault(tuple(negative), []).append(i)
        step, gates = [], np.zeros(len(forward), dtype=int)
        for forms, points in groups.items():
            template = self._templates.get(forms)
            if template is None:
                template = self._templates[forms] = self._template(rows[points[0]].tolist())
            step.append((template.fill(rows[points]), np.array(points)))
            gates[points] = template.n_gates

        for n, g in zip(ns, gates.tolist()):
            if n * g > GATE_BUDGET:
                raise ResourceError(f"{n} Trotter steps of {g} gates are {n * g} gate "
                                    f"applications, over the budget of {GATE_BUDGET}")
        for i, n in enumerate(ns if self._phased else ()):
            forms = [(lowering.at(d), d) for d, (_, lowering) in zip(rows[i].tolist(), self._terms)]
            term_phases = [ph for form, d in forms if form.phase and (ph := form.phase(d))]
            if term_phases:
                phases[i] = _add_repeated(phases[i], term_phases, n)
        return prefix, step, np.array(ns)

    def _prefixes(self, forward: np.ndarray, phases: np.ndarray) -> list:
        """The hoisted field prefix's forms at the times ``forward``; an Euler-angle prefix
        adds its phase to ``phases``.

        With one field axis on every hoisted qubit, the prefix is one fill of
        its template of rotation slots at angles field * t.  Otherwise each
        point spells it qubit by qubit, as a plain circuit of its own: one
        axis by its ``pauli_lowering``, several as exp(-i t G) in Euler angles.
        """
        if not self._fields:
            return []
        if self._prefix is not None:
            with np.errstate(over="ignore"):  # a non-finite angle is refused by the fill
                rows = np.multiply.outer(forward, self._field_values)
            return [(self._prefix.fill(rows), np.arange(len(forward)))]
        prefixes = []
        for i, t in enumerate(forward.tolist()):
            prefix: list[GateOp] = []
            field_phase = 0.0
            for q, lowering, field in self._fields:
                if lowering is not None:
                    prefix += lowering.ops(field * t)
                else:
                    sub, ph = _su2_ops(hermitian_expm(t * field), q, self.gate_set)
                    prefix += sub
                    field_phase += ph
            phases[i] += field_phase
            prefixes.append((Circuit(self.n_qubits, prefix), np.array([i])))
        return prefixes


def _add_repeated(start: float, terms: list[float], n: int) -> float:
    """``start`` plus ``terms`` n times over, one addition at a time, in order, as the
    unrolled circuit adds its phase; ``np.add.accumulate`` adds in that order."""
    reps = max(1, _CHUNK // len(terms))
    row = np.concatenate(([0.0], np.tile(terms, min(n, reps))))
    for done in range(0, n, reps):
        row[0] = start
        start = float(np.add.accumulate(row[:1 + min(reps, n - done) * len(terms)])[-1])
    return start


def trotterize(
    h: PauliHamiltonian,
    t: float,
    plan: TrotterPlan,
    gate_set: GateSet = GateSet.S1,
) -> EvolutionResult:
    """Compile exp(-i H t) per the plan's splitting and schedule.

    The step is compiled once; the result repeats it ``n_steps_used`` times.
    This is one call of a :class:`TrotterCompiler`; a caller compiling H at
    many times should build one and compile the times as one grid.
    """
    return TrotterCompiler(h, plan, gate_set)(t)


def _exact_phases(w: np.ndarray, times: np.ndarray) -> np.ndarray:
    """e^{-i w t} for the eigenvalues ``w``, the times' axis first; a non-finite one is refused."""
    with np.errstate(all="ignore"):  # a non-finite phase is rejected below
        phases = np.exp(-1j * np.multiply.outer(times, w))
    finite = np.isfinite(phases).reshape(len(times), -1).all(axis=1)
    if not finite.all():
        t = times[~finite][0]
        raise InputError(f"exact evolution needs a finite time and phase, got t = {t}")
    return phases


def conserved_blocks(h: PauliHamiltonian) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """H's blocks, each diagonalized once: ``(idx, w, v)`` for the K blocks of each size d.

    A block is a connected component of the graph on basis states whose edges
    are H's nonzero entries: a conserved total S_z (Heisenberg and XY chains
    in a z field) splits H into many, TIM is one.  Each state takes its
    neighbours' least label, mask by mask, then its label's label, until none
    changes: a component is labelled by its least state.  H[idx_k, idx_k] =
    v_k diag(w_k) v_k^dag.  A real block is diagonalized as real, and its
    eigenvectors cast to complex once, for BLAS products with complex states.
    The dense H is let go before the first ``eigh``.
    """
    m = dense_matrix(h)
    # H's off-diagonal entries lie where a term's x mask flips a state j, at
    # (j ^ x, j): a state has at most one neighbour per mask, the same both ways
    j = np.arange(len(m))
    flips = [(j[m[j ^ x, j] != 0], x) for x in {term.masks[0] for term in h.terms} - {0}]
    label, old = j, None
    while not np.array_equal(label, old):
        old, label = label, label.copy()
        for s, x in flips:
            label[s] = np.minimum(label[s], label[s ^ x])
        label = label[label]
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    sizes = np.diff(starts, append=len(m))
    # a set, as np.unique would import numpy.ma (resident memory)
    ids = [order[starts[sizes == d, None] + np.arange(d)] for d in sorted(set(sizes.tolist()))]
    subs = [m[idx[:, :, None], idx[:, None, :]] for idx in ids]
    del m
    eighs = (np.linalg.eigh(sub if sub.imag.any() else sub.real) for sub in subs)
    return [(idx, w, v.astype(complex, copy=False)) for idx, (w, v) in zip(ids, eighs)]


def exact_stacks(
    h: PauliHamiltonian, rows: np.ndarray, times: Sequence[float]
) -> Iterator[np.ndarray]:
    """exp(-i H t) applied to ``rows``, states on H's register, at each of ``times``.

    H is diagonalized by blocks (:func:`conserved_blocks`) at the call, and
    each row's coefficients in each block's eigenbasis, c = x V^*, are taken
    then.  The iterator yields the evolved rows as (g, r, 2^N) stacks, each of
    the points one stack of states holds (:func:`iter_stacks`): the rows of
    each block size at those points are one product (e^{-iwt} c) V^T.  A
    non-finite t or phase is refused when its stack is reached.
    """
    rows = np.asarray(rows)
    if rows.shape[-1] != 2**h.n_qubits:
        raise InputError(f"state has {rows.shape[-1].bit_length() - 1} qubits, "
                         f"H acts on {h.n_qubits}")
    blocks = [(idx, w, v.swapaxes(-1, -2), np.matmul(rows[:, idx].swapaxes(0, 1), v.conj()))
              for idx, w, v in conserved_blocks(h)]

    def stacks():
        for ts in map(np.array, iter_stacks(np.asarray(times, dtype=float), h.n_qubits)):
            out = np.empty((len(ts), *rows.shape), dtype=complex)
            for idx, w, vt, c in blocks:  # (K, g, r, d) as K products of (g r, d)
                phased = _exact_phases(w, ts).swapaxes(0, 1)[:, :, None] * c[:, None]
                evolved = np.matmul(phased.reshape(len(idx), -1, idx.shape[1]), vt)
                out[:, :, idx] = evolved.reshape(phased.shape).transpose(1, 2, 0, 3)
            yield out

    return stacks()
