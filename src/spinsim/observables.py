"""Physical quantities from simulated evolutions: site magnetizations, two-point
dynamical correlation functions (direct statevector route and the ancilla
protocol), and operator spectra via FFT of a phase-swept expectation series.

The caller makes U(t) and evolves the states: the :func:`correlation_rows` of
a run's specs at each time point, with its other states, and a route reads one
point's value from them.  A spectrum is given a compiler of Q, which compiles
the theta grid as one grid object per stack of states it evolves.

The ancilla protocols put one extra qubit after the system qubits.  An
operation controlled on it runs as the plain operation on the amplitudes with
the ancilla at 1 (:func:`_half`), not as a controlled gate circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InputError
from .gates import PAULI
from .pauli import PauliHamiltonian
from .statevector import StateVector, _apply_matrix, product_state
from .trotter import evolve_stack

if TYPE_CHECKING:
    from .trotter import TrotterCompiler


# a half row shorter than this many floats is summed _SHORT_ROW floats at a time
_SHORT_ROW = 2**12


def magnetization(state: StateVector, site: int) -> float:
    """<s_z> = (1/2) <sigma_z> at the given site, in [-1/2, 1/2]."""
    n = state.n_qubits
    if not 1 <= site <= n:
        raise InputError(f"site {site} out of range for {n} qubits")
    # squared real and imaginary parts summed over the halves with the site's
    # bit at 0 and at 1, in one pass over a float view of the amplitudes (a
    # strided view, such as an ancilla half, is copied to make one)
    x = np.ascontiguousarray(state.amplitudes).view(float)
    left, width = 2 ** (site - 1), 2 ** (n - site + 1)  # rows, floats per half row
    group = min(left, max(1, _SHORT_ROW // (2 * width)))
    if group == 1:
        x = x.reshape(left, 2, width)
        sums = np.einsum("ijk,ijk->j", x, x)
    else:
        # short rows: add up blocks of `group` rows elementwise first, so the
        # inner loop runs over 2 * group * width floats
        x = x.reshape(left // group, group, 2, width)
        sums = np.einsum("aijk,aijk->ijk", x, x).sum(axis=(0, 2))
    return float(0.5 * (sums[0] - sums[1]))


def total_magnetization(state: StateVector) -> float:
    """The sum of <s_z> over all sites: one pass over |psi|^2, basis state j
    weighed by (N - 2 popcount(j)) / 2."""
    x = np.ascontiguousarray(state.amplitudes).view(float).reshape(-1, 2)
    return float(np.einsum("ij,ij->i", x, x) @ _site_spin_sums(state.n_qubits))


@cache
def _site_spin_sums(n: int) -> np.ndarray:
    sums = np.zeros(1)
    for _ in range(n):
        sums = np.concatenate([sums + 0.5, sums - 0.5])
    return sums


@dataclass(frozen=True)
class CorrelationSpec:
    """Inputs of a dynamical correlation C_VW(t) = <V^dag(t) W> on |initial>.

    ``v``/``w`` are Pauli letters (I allowed) acting on sites ``vq``/``wq`` of
    the ``len(initial)`` system qubits.  The routes read C from evolved :func:`correlation_rows`.
    """

    v: str
    w: str
    vq: int
    wq: int
    initial: str

    def __post_init__(self):
        n = len(self.initial)
        if self.v not in PAULI or self.w not in PAULI:
            raise InputError(f"V/W must be Pauli letters, got {self.v!r}, {self.w!r}")
        for q, name in ((self.vq, "V"), (self.wq, "W")):
            if not 1 <= q <= n:
                raise InputError(f"{name} site {q} out of range for {n} qubits")


def _apply_pauli_letter(state: StateVector, letter: str, site: int) -> None:
    # no checks: CorrelationSpec put the site on the register the route builds
    if letter != "I":
        _apply_matrix(state.amplitudes, state.n_qubits, (site,), PAULI[letter])


def _half(state: StateVector, bit: int) -> StateVector:
    """A view of the amplitudes of ``state`` with its trailing ancilla at ``bit``.

    Applied to half 1, an operation is controlled on the ancilla; to half 0, anti-controlled.
    """
    return StateVector(state.n_qubits - 1, state.amplitudes[bit::2])


def correlation_rows(specs: Sequence[CorrelationSpec]) -> np.ndarray:
    """The states that ``specs``, all on one initial state psi0, evolve under U(t).

    A (2 + 2k, 2^N) stack for k specs: psi0, the zero half of the ancilla
    register |psi0>|+>, then for each spec W psi0 and that register's one half
    with W applied.  The direct route reads even rows, the ancilla route odd ones.
    """
    if len({spec.initial for spec in specs}) != 1:
        raise InputError("correlation rows need specs on one initial state")
    psi0 = product_state(len(specs[0].initial), specs[0].initial)
    register = product_state(psi0.n_qubits + 1, specs[0].initial + "+")
    rows = [psi0.amplitudes, register.amplitudes[0::2]]
    for spec in specs:
        right, ancilla = psi0.copy(), register.copy()
        _apply_pauli_letter(right, spec.w, spec.wq)
        _apply_pauli_letter(_half(ancilla, 1), spec.w, spec.wq)
        rows += [right.amplitudes, ancilla.amplitudes[1::2]]
    return np.array(rows)


def correlation_direct(spec: CorrelationSpec, psi_t: np.ndarray, w_psi_t: np.ndarray) -> complex:
    """C_VW(t) by pure statevector algebra: <V U psi | U W psi> at one time t.

    ``psi_t`` = U(t) psi0 and ``w_psi_t`` = U(t) W psi0 are the evolved rows 0 and
    2 + 2j of :func:`correlation_rows` for spec j; rows on another register are refused.
    """
    n = len(spec.initial)
    left, right = StateVector(n, np.array(psi_t, dtype=complex)), StateVector(n, w_psi_t)
    _apply_pauli_letter(left, spec.v, spec.vq)
    return complex(np.vdot(left.amplitudes, right.amplitudes))


def correlation_ancilla(spec: CorrelationSpec, zero_t: np.ndarray, one_t: np.ndarray) -> complex:
    """C_VW(t) at one time t via the ancilla protocol (Somma et al., PRA 65, 042323 (2002)).

    One ancilla in |+> follows the system qubits.  W runs on the ancilla's one
    half (controlled), U(t) on the system, V on the zero half (anti-controlled),
    and C is read off the ancilla as <sigma_x> + i <sigma_y>, exactly: there is
    no shot sampling.  ``zero_t`` and ``one_t`` are the evolved halves, rows 1 and
    3 + 2j of :func:`correlation_rows` for spec j; rows on another register are refused.
    """
    n = len(spec.initial)
    halves = [StateVector(n, row).amplitudes for row in (zero_t, one_t)]
    state = StateVector(n + 1, np.stack(halves, axis=1).reshape(-1))
    _apply_pauli_letter(_half(state, 0), spec.v, spec.vq)
    # <2 sigma_+> = <sigma_x> + i <sigma_y> on the ancilla, read from the
    # stride-2 halves: OpenBLAS sums contiguous copies in another order
    return complex(2 * np.vdot(state.amplitudes[0::2], state.amplitudes[1::2]))


def spin_correlation(series: np.ndarray) -> np.ndarray:
    """Spin-operator scaling: <s_a(t) s_b> = (1/4) <sigma_a(t) sigma_b>."""
    return 0.25 * np.asarray(series)


@dataclass(frozen=True)
class SpectrumSpec:
    """Inputs for spectrum extraction of a Hermitian operator Q.

    The series <U_Q(theta)> is measured on the grid theta_k = k * spacing() for
    k = 0..m-1 via the ancilla protocol with W = U_Q(theta) and no time
    evolution.  The spacing's Nyquist range covers 1.5x the sum of
    |coefficients| of Q (a spectral bound), so no builder Hamiltonian can alias.
    """

    operator: PauliHamiltonian
    initial: str
    m: int = 1024

    def __post_init__(self):
        if self.m < 2 or self.m & (self.m - 1):
            raise InputError(f"m must be a power of two, got {self.m}")
        if len(self.initial) != self.operator.n_qubits:
            raise InputError("initial state does not match operator register")

    def spacing(self) -> float:
        bound = sum(abs(t.coef.real) for t in self.operator.terms)
        if bound <= 0:
            return 2 * np.pi / self.m
        return float(np.pi / (1.5 * bound))


def unitary_expectation_series(spec: SpectrumSpec, compiler: TrotterCompiler) -> np.ndarray:
    """<psi| exp(-i Q theta) |psi> over the theta grid, via the ancilla route.

    ``compiler`` compiles Q, such as a :class:`~spinsim.trotter.TrotterCompiler`
    of Q; its ``iter_grid`` compiles the thetas a stack of points at a time, each
    stack one :class:`~spinsim.trotter.GridEvolution` that fills the step's angle
    slots for all its thetas at once.  Each evolution, global phase included,
    runs on the ancilla-one half of |psi>|+>: that is exp(-i Q theta)
    controlled on the ancilla, on any gate set.  A grid evolves copies of that
    half as one stack (:func:`~spinsim.trotter.evolve_stack`), each read
    against the ancilla-zero half, which no theta changes.
    """
    n = spec.operator.n_qubits
    start = product_state(n + 1, spec.initial + "+").amplitudes
    # the zero half as a stride-2 view, so that each product below is the
    # strided dot np.vdot takes on a register's two halves, bit for bit
    zero = start.conj()[0::2]
    dtheta = spec.spacing()
    thetas = [k * dtheta for k in range(spec.m)]
    series = []
    for grid in compiler.iter_grid(thetas):
        ones = evolve_stack(np.tile(start[1::2], (len(grid), 1, 1)), grid)
        series.append(2 * np.matmul(zero, ones[:, 0, :, None])[:, 0])
    return np.concatenate(series)


# the peak refinement's starting samples per window, and its most Newton steps
_PEAK_SAMPLES = 13
_NEWTON_STEPS = 32
_LINE_THRESHOLD = 0.01  # the weakest line reported, relative to the strongest


def _sample_responses(series: np.ndarray, thetas: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """|S(q)| at evenly spaced ``samples`` as |sum y w^j|, y = x e^{i samples[0] theta}
    and w = e^{i (samples[1] - samples[0]) theta}: two exponentials, then one
    multiply per sample.  Its rounding is not a direct sum's; it only ranks."""
    y = series * np.exp(1j * samples[0] * thetas)
    w = np.exp(1j * (samples[1] - samples[0]) * thetas)
    out = np.empty(len(samples))
    for j in range(len(samples)):
        out[j] = abs(y.sum())
        y *= w
    return out


def _refine_peak(series: np.ndarray, dtheta: float, q0: float, half_width: float) -> float:
    """The q within ``half_width`` of ``q0`` that maximizes |S(q)|^2.

    S(q) = sum_k x_k e^{i q theta_k} is the series' matched-filter response.
    Newton's method finds the root of d|S|^2/dq = 2 Re(conj(S) S'), with S'
    and S'' in closed form as in single-tone estimation (Rife & Boorstyn,
    IEEE Trans. Inf. Theory 20, 591 (1974)), starting from the sample, of a
    few across the window, with the largest :func:`_sample_responses`.  It
    stops when a step no longer shrinks, or would leave the window or the
    concave part of the peak.  The thetas are centred on the grid, which
    leaves |S| alone and keeps S' small.  The series is first scaled by a
    power of two, which scales every Newton quantity exactly and keeps them
    finite on series near either end of the float range.
    """
    parts = np.ascontiguousarray(series).view(float)
    series = np.ldexp(parts, -np.frexp(np.abs(parts).max())[1]).view(complex)
    thetas = (np.arange(len(series)) - (len(series) - 1) / 2) * dtheta
    samples = q0 + np.linspace(-half_width, half_width, _PEAK_SAMPLES)
    q = float(samples[np.argmax(_sample_responses(series, thetas, samples))])
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
    lines this recovers the exact weights.  The merge and refinement rounds
    stop early once one leaves every line's bits unchanged.  Results are
    sorted by eigenvalue.
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

    def bits(qlist):
        return np.array(qlist).tobytes()

    # alternate: merge sub-resolution duplicates at their modulus-weighted
    # centroid, drop lines below the relative threshold, and re-converge the
    # survivors by residual-refinement + joint least squares.  With amps =
    # fit(q_hat), a round and a pass are functions of q_hat alone, so one that
    # leaves q_hat's bits unchanged leaves them unchanged in every later one
    q_hat = sorted(locations)
    amps = fit(q_hat)
    for _ in range(4):
        round_start = bits(q_hat)
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
            pass_start = bits(q_hat)
            for l in range(len(q_hat)):
                others = [k for k in range(len(q_hat)) if k != l]
                res_l = series - model([q_hat[k] for k in others]) @ amps[others] \
                    if others else series
                q_hat[l] = _refine_peak(res_l, dtheta, q_hat[l], bin_width)
            if bits(q_hat) == pass_start:
                break
            amps = fit(q_hat)
        if bits(q_hat) == round_start:
            break

    weights = np.abs(amps)
    return sorted((float(q), float(w)) for q, w in zip(q_hat, weights))
