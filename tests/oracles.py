"""Reference evolutions the tests check spinsim against.

``exact_propagator`` diagonalizes the dense 2^N x 2^N Hamiltonian whole, with
no use of its blocks, so it is an oracle independent of the block route of
:func:`spinsim.trotter.exact_stacks`.  ``digital_fidelity`` reads a compiled
evolution of one state against it.  ``exact_evolvers`` gives the block route
in the form the correlation tests apply: one function per time, evolving one
state in place.  ``spectrum_from_series`` is the spectrum fit before it
stopped at its fixed point: four full merge rounds, each start sample's
response from its own exponentials.
"""

from typing import Sequence

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
