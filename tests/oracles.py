"""Reference evolutions the tests check spinsim against.

``exact_propagator`` diagonalizes the dense 2^N x 2^N Hamiltonian whole, with
no use of its blocks, so it is an oracle independent of the block route of
:func:`spinsim.trotter.exact_stacks`.  ``digital_fidelity`` reads a compiled
evolution of one state against it.  ``exact_evolvers`` gives the block route
in the form the correlation tests apply: one function per time, evolving one
state in place.  ``spectrum_from_series`` is the spectrum fit before it
stopped at its fixed point: four full merge rounds, each start sample's
response from its own exponentials.

The rest are second spellings of concepts spinsim implements once, kept here
as references for its checks:

* ``controlled_circuit`` (with ``_controlled_op`` and its ``_ctrl_*``,
  ``_toffoli`` and ``_ctrl_pair_core`` helpers) is the gate-level circuit a
  device runs for an ancilla protocol: each gate controlled on the ancilla,
  spelled in S1 gates.  spinsim runs the protocols as the plain operation on
  the ancilla-one half of the register; the ancilla-route tests check that
  against this circuit, and the ``circuits.json`` digests of
  ``controlled/heis3-tilted/S1|S2`` pin its ops.
* ``pauli_expectation`` is <psi| P |psi> by applying P's letters to a copy of
  the state; the ancilla readout tests read sigma_x and sigma_y of the ancilla
  with it.
* ``commutator_error_bound`` is the first-order Trotter remainder bound from
  the dense commutator, up to 8 qubits: the N <= 8 check for a symbolic bound.
* ``apply_dense_unitary`` (with ``is_unitary``) applies an explicit unitary to
  any targets through the kernels' matrix route, refusing a non-unitary
  matrix: the route the target-range checks take besides gates and circuits.
* ``equal_up_to_global_phase`` is phase-insensitive equality of dense
  unitaries, :func:`spinsim.compiler.phase_distance` within a tolerance.
* ``folds`` is the fold rule one point at a time, in Python floats with
  ``math.log2``, as it stood before the rule also priced the route it picks.
"""

import math
from typing import Sequence

import numpy as np

from spinsim import trotter
from spinsim.compiler import Circuit, GateSet, _rot, decompose_pauli, phase_distance
from spinsim.errors import InputError, ResourceError
from spinsim.gates import PAULI, GateOp
from spinsim.pauli import PauliHamiltonian, PauliString, dense_matrix
from spinsim.statevector import (
    StateVector,
    _apply_matrix,
    _apply_run,
    check_targets,
    inner_product,
)
from spinsim.trotter import TrotterPlan, evolve, trotterize


def folds(n: int, blocks: int, reps: int) -> bool:
    """Whether ``reps`` repeats of a step of ``blocks`` blocks on ``n`` qubits fold."""
    if n > trotter.DENSE_QUBIT_LIMIT or reps == 1:
        return False
    folded = (blocks + 2) * trotter._pass_flops(2 * n) + math.log2(reps) * 8**n
    return folded < reps * blocks * trotter._pass_flops(n)


def exact_propagator(h: PauliHamiltonian, t: float) -> np.ndarray:
    """exp(-i H t) by Hermitian eigendecomposition of the dense Hamiltonian."""
    w, v = np.linalg.eigh(dense_matrix(h))
    with np.errstate(all="ignore"):  # a non-finite phase is rejected below
        phases = np.exp(-1j * w * t)
    if not np.isfinite(phases).all():
        raise InputError(f"exact evolution needs a finite time and phase, got t = {t}")
    return (v * phases) @ v.conj().T


def digital_fidelity(
    psi0: StateVector,
    h: PauliHamiltonian,
    t: float,
    plan: TrotterPlan,
    gate_set: GateSet = GateSet.S1,
) -> float:
    """|<psi_exact(t) | psi_trotter(t)>| on the statevector backend."""
    if psi0.n_qubits != h.n_qubits:
        raise InputError("state and Hamiltonian register sizes differ")
    exact = exact_propagator(h, t) @ psi0.amplitudes
    digital = evolve(psi0.copy(), trotterize(h, t, plan, gate_set))
    return float(abs(np.vdot(exact, digital.amplitudes)))


def exact_evolvers(h: PauliHamiltonian, times) -> list:
    """exp(-i H t) at each of ``times``, as functions evolving a state in place: each is
    :func:`~spinsim.trotter.exact_stacks` at its t, with the state as its one row."""

    def evolver(t):
        def apply(state: StateVector) -> StateVector:
            (stack,) = trotter.exact_stacks(h, state.amplitudes[None], [t])
            state.amplitudes[:] = stack[0, 0]
            return state
        return apply

    return [evolver(t) for t in times]


# the spectrum fit, copied from spinsim.observables as it was before it stopped
# at its fixed point and ranked its start samples by recurrence
_PEAK_SAMPLES = 13
_NEWTON_STEPS = 32
_LINE_THRESHOLD = 0.01  # the weakest line reported, relative to the strongest


def _refine_peak(series: np.ndarray, dtheta: float, q0: float, half_width: float) -> float:
    """The q within ``half_width`` of ``q0`` that maximizes |S(q)|^2.

    S(q) = sum_k x_k e^{i q theta_k} is the series' matched-filter response.
    Newton's method finds the root of d|S|^2/dq = 2 Re(conj(S) S'), with S'
    and S'' in closed form as in single-tone estimation (Rife & Boorstyn,
    IEEE Trans. Inf. Theory 20, 591 (1974)), starting from the best of a few
    samples across the window.  It stops when a step no longer shrinks, or
    would leave the window or the concave part of the peak.  The thetas are
    centred on the grid, which leaves |S| alone and keeps S' small.
    """
    thetas = (np.arange(len(series)) - (len(series) - 1) / 2) * dtheta
    samples = q0 + np.linspace(-half_width, half_width, _PEAK_SAMPLES)
    q = float(max(samples, key=lambda q: abs(np.exp(1j * q * thetas) @ series)))
    last_step = np.inf
    for _ in range(_NEWTON_STEPS):
        terms = series * np.exp(1j * q * thetas)
        s0 = terms.sum()
        s1 = 1j * (terms @ thetas)
        s2 = -(terms @ thetas**2)
        # half of d|S|^2/dq and of d^2|S|^2/dq^2
        slope = (s0.conjugate() * s1).real
        curvature = abs(s1) ** 2 + (s0.conjugate() * s2).real
        if not curvature < 0:
            break
        step = -slope / curvature
        if not (abs(step) < last_step and abs(q + step - q0) <= half_width):
            break
        q, last_step = q + step, abs(step)
    return q


def spectrum_from_series(
    series: Sequence[complex], dtheta: float
) -> list[tuple[float, float]]:
    """Eigenvalue/weight estimates from an expectation series.

    FFT peaks above ``_LINE_THRESHOLD`` of the strongest bin are merged into
    clusters of adjacent bins and reported at their modulus-weighted
    centroids.  Weights come from a joint least-squares fit of complex
    exponentials at the detected lines, with each line's location refined
    against the residual of the others; for a noiseless series of isolated
    lines this recovers the exact weights.  Results are sorted by eigenvalue.
    """
    series = np.asarray(series, dtype=complex)
    m = len(series)
    if m < 2 or m & (m - 1):
        raise InputError(f"series length must be a power of two, got {m}")
    if not 0 < dtheta < np.inf:
        raise InputError(f"dtheta must be positive and finite, got {dtheta}")
    if not np.isfinite(series).all():
        raise InputError("series entries must be finite")
    qvals = -2 * np.pi * np.fft.fftfreq(m, d=dtheta)
    bin_width = 2 * np.pi / (m * dtheta)
    thetas = np.arange(m) * dtheta
    base = float(np.max(np.abs(np.fft.fft(series))) / m)
    if base == 0.0:
        return []

    # iterative extraction: take the strongest spectral line, refine its
    # location with the matched filter, subtract, and repeat; robust when
    # leakage tails of distinct lines overlap
    residual = series.copy()
    locations: list[float] = []
    for _ in range(64):
        mags = np.abs(np.fft.fft(residual)) / m
        k = int(np.argmax(mags))
        if mags[k] < _LINE_THRESHOLD * base:
            break
        q_hat = _refine_peak(residual, dtheta, float(qvals[k]), 1.5 * bin_width)
        amp = np.sum(residual * np.exp(1j * q_hat * thetas)) / m
        residual = residual - amp * np.exp(-1j * q_hat * thetas)
        locations.append(q_hat)

    if not locations:
        return []

    def model(qlist):
        return np.exp(-1j * np.outer(thetas, qlist))

    def fit(qlist):
        return np.linalg.lstsq(model(qlist), series, rcond=None)[0]

    # alternate: merge sub-resolution duplicates at their modulus-weighted
    # centroid, drop lines below the relative threshold, and re-converge the
    # survivors by residual-refinement + joint least squares
    q_hat = sorted(locations)
    amps = fit(q_hat)
    for _ in range(4):
        pairs = sorted(zip(q_hat, amps), key=lambda p: p[0])
        merged: list[tuple[float, complex]] = []
        for q, a in pairs:
            if merged and q - merged[-1][0] <= bin_width:
                q0, a0 = merged[-1]
                wsum = abs(a0) + abs(a)
                q_new = (abs(a0) * q0 + abs(a) * q) / wsum if wsum > 0 else q0
                merged[-1] = (q_new, a0 + a)
            else:
                merged.append((q, a))
        wmax = max(abs(a) for _, a in merged)
        q_hat = [q for q, a in merged if abs(a) >= _LINE_THRESHOLD * wmax]
        amps = fit(q_hat)
        for _ in range(2):
            for l in range(len(q_hat)):
                others = [k for k in range(len(q_hat)) if k != l]
                res_l = series - model([q_hat[k] for k in others]) @ amps[others] \
                    if others else series
                q_hat[l] = _refine_peak(res_l, dtheta, q_hat[l], bin_width)
            amps = fit(q_hat)

    weights = np.abs(amps)
    return sorted((float(q), float(w)) for q, w in zip(q_hat, weights))


# the controlled expansion, as it was in spinsim.compiler
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


# dense references, as they were in spinsim.statevector, gates, trotter and compiler
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


def commutator_error_bound(
    o1: PauliHamiltonian, o2: PauliHamiltonian, delta: float, n: int
) -> float:
    """First-order Trotter remainder bound (delta^2 / 2n) ||[O1, O2]|| (spectral)."""
    if o1.n_qubits != o2.n_qubits:
        raise InputError("operators act on different register sizes")
    if o1.n_qubits > 8:
        raise ResourceError("commutator bound limited to 8 qubits")
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    m1, m2 = dense_matrix(o1), dense_matrix(o2)
    comm = m1 @ m2 - m2 @ m1
    return float(delta**2 / (2 * n) * np.linalg.norm(comm, 2))


def is_unitary(m: np.ndarray, tol: float = 1e-10) -> bool:
    return m.shape[0] == m.shape[1] and bool(
        np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol
    )


def apply_dense_unitary(
    state: StateVector, u: np.ndarray, targets: tuple[int, ...]
) -> StateVector:
    """Apply an explicit 2^k x 2^k unitary to the given target qubits, in place."""
    check_targets(state.n_qubits, targets)
    if u.shape != (2 ** len(targets), 2 ** len(targets)):
        raise InputError(f"matrix shape {u.shape} does not match {len(targets)} targets")
    if not is_unitary(u):
        raise InputError("matrix is not unitary within 1e-10")
    _apply_matrix(state.amplitudes, state.n_qubits, targets, u)
    return state


def equal_up_to_global_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff phase_distance(u, v) <= tol."""
    return phase_distance(u, v) <= tol
