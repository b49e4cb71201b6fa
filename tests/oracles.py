"""Reference evolutions the tests check spinsim against.

``exact_propagator`` diagonalizes the dense 2^N x 2^N Hamiltonian whole, with
no use of its blocks, so it is an oracle independent of the block route of
:func:`spinsim.trotter.exact_stacks`.  ``digital_fidelity`` reads a compiled
evolution of one state against it.  ``exact_evolvers`` gives the block route
in the form the correlation tests apply: one function per time, evolving one
state in place.
"""

import numpy as np

from spinsim import trotter
from spinsim.compiler import GateSet
from spinsim.errors import InputError
from spinsim.pauli import PauliHamiltonian, dense_matrix
from spinsim.statevector import StateVector
from spinsim.trotter import TrotterPlan, evolve, trotterize


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
