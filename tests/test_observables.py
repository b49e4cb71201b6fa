import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

import spinsim
from spinsim import compiler, runner, trotter
from spinsim.compiler import Circuit, GateSet, circuit_unitary, run_circuit
from spinsim.errors import InputError
from spinsim.gates import PAULI, GateOp
from spinsim.observables import (
    CorrelationSpec,
    SpectrumSpec,
    _half,
    _sample_responses,
    correlation_ancilla,
    correlation_direct,
    correlation_rows,
    magnetization,
    spectrum_from_series,
    spin_correlation,
    total_magnetization,
    unitary_expectation_series,
)
from spinsim.pauli import PauliHamiltonian, PauliString, heisenberg_chain, tim_chain
from spinsim.statevector import StateVector, basis_state, product_state
from spinsim.trotter import (
    EvolutionResult,
    TrotterCompiler,
    TrotterPlan,
    evolve,
    trotterize,
)
import oracles
from oracles import controlled_circuit, exact_evolvers, exact_propagator, pauli_expectation

RNG = np.random.default_rng(60)


def fig6_system():
    return heisenberg_chain(3, [1.0, 1.0], 20.0)


def trotter_evolvers(h, times, plan, gate_set=GateSet.S1):
    """U(t) under ``plan`` for each of ``times``, as in-place evolvers."""
    compile_at = TrotterCompiler(h, plan, gate_set)
    return [partial(evolve, result=compile_at(t)) for t in times]


# the rows of correlation_rows([spec]) each route reads
ROUTE_ROWS = {correlation_direct: (0, 2), correlation_ancilla: (1, 3)}


def at_point(route, spec, evolve_t):
    """A correlation route's value at one point: its rows evolved by ``evolve_t``, then read."""
    rows = correlation_rows([spec])
    n = len(spec.initial)
    return route(spec, *(evolve_t(StateVector(n, rows[k].copy())).amplitudes
                         for k in ROUTE_ROWS[route]))


def per_point(route, spec, evolvers):
    """A correlation route's value at each of ``evolvers``, as one array."""
    return np.array([at_point(route, spec, u) for u in evolvers])


def series_of(spec, plan=TrotterPlan.fixed_eps(0.1), gate_set=GateSet.S1):
    """The spec's expectation series, Q compiled under ``plan`` on ``gate_set``."""
    return unitary_expectation_series(spec, TrotterCompiler(spec.operator, plan, gate_set))


class TestMagnetization:
    def test_up_state(self):
        assert magnetization(basis_state(1, "0"), 1) == pytest.approx(0.5)

    def test_fig4a_initial(self):
        s = product_state(2, "0+")
        assert magnetization(s, 1) == pytest.approx(0.5)
        assert magnetization(s, 2) == pytest.approx(0.0)

    def test_evolved_against_dense_oracle(self):
        h = heisenberg_chain(2, [1.0], 0.0)
        t = np.pi / 4
        amps = exact_propagator(h, t) @ product_state(2, "0+").amplitudes
        s = product_state(2, "0+")
        s.amplitudes[:] = amps
        z1 = np.kron(np.diag([1.0, -1.0]), np.eye(2))
        expected = 0.5 * np.real(np.vdot(amps, z1 @ amps))
        assert magnetization(s, 1) == pytest.approx(expected, abs=1e-12)

    # 12 and 13 qubits: the last sites' short rows are summed in groups
    @pytest.mark.parametrize("n", [1, 3, 7, 12, 13])
    def test_against_index_array_reference(self, n):
        # the halves' sums against (1/2) sum |a_i|^2 (1 - 2 bit_site(i)) at
        # every site; a strided half of a wider state gives the values of its copy
        def reference(amps, site):
            bits = (np.arange(len(amps)) >> (n - site)) & 1
            return 0.5 * np.sum(np.abs(amps) ** 2 * (1.0 - 2.0 * bits))

        psi = random_state(n + 1)
        for state in (random_state(n), _half(psi, 1)):
            for site in range(1, n + 1):
                want = reference(state.amplitudes.copy(), site)
                assert abs(magnetization(state, site) - want) <= 1e-14

    def test_site_range(self):
        with pytest.raises(InputError):
            magnetization(basis_state(2, "00"), 3)


class TestTotalMagnetization:
    def test_basis_states(self):
        # each 0 counts +1/2 and each 1 counts -1/2
        for bits in ("0", "1", "000", "0110", "11111"):
            want = 0.5 * (bits.count("0") - bits.count("1"))
            assert total_magnetization(basis_state(len(bits), bits)) == want

    @pytest.mark.parametrize("n", [1, 3, 7, 12])
    def test_sum_of_site_magnetizations(self, n):
        # on a state and on a strided half of a wider one
        for state in (random_state(n), _half(random_state(n + 1), 0)):
            sites = sum(magnetization(state, site) for site in range(1, n + 1))
            assert abs(total_magnetization(state) - sites) <= 1e-14


class TestCorrelationDirect:
    def test_identity_pair_is_one(self):
        spec = CorrelationSpec(v="I", w="I", vq=1, wq=1, initial="111")
        exact = exact_evolvers(fig6_system(), np.linspace(0, 2, 5))
        assert np.allclose(per_point(correlation_direct, spec, exact), 1.0)

    def test_equal_time_xx_autocorrelation(self):
        spec = CorrelationSpec(v="X", w="X", vq=1, wq=1, initial="111")
        raw = per_point(correlation_direct, spec, exact_evolvers(fig6_system(), [0.0]))
        assert raw[0] == pytest.approx(1.0)
        assert spin_correlation(raw)[0] == pytest.approx(0.25)

    def test_hermitian_symmetry(self):
        # C_VV(-t) = conj(C_VV(t)) under exact evolution
        ts = np.linspace(0.1, 1.5, 6)
        spec = CorrelationSpec(v="X", w="X", vq=2, wq=2, initial="111")
        fwd = per_point(correlation_direct, spec, exact_evolvers(fig6_system(), ts))
        bwd = per_point(correlation_direct, spec, exact_evolvers(fig6_system(), -ts))
        assert np.max(np.abs(bwd - np.conj(fwd))) <= 1e-10

    def test_bounded_by_one(self):
        exact = list(exact_evolvers(fig6_system(), np.linspace(0, 3, 7)))
        for v, w in (("X", "Y"), ("Z", "X"), ("Y", "Y")):
            spec = CorrelationSpec(v=v, w=w, vq=1, wq=3, initial="100")
            assert np.all(np.abs(per_point(correlation_direct, spec, exact)) <= 1.0 + 1e-12)

    def test_conservation_witness(self):
        # <s_z1 + s_z2> constant under the 2-qubit Heisenberg evolution
        h = heisenberg_chain(2, [1.0], 0.0)
        total = []
        for t in np.linspace(0, 3, 9):
            s = product_state(2, "0+")
            s.amplitudes[:] = exact_propagator(h, float(t)) @ s.amplitudes
            total.append(magnetization(s, 1) + magnetization(s, 2))
        assert np.max(np.abs(np.array(total) - total[0])) <= 1e-10


class TestRouteEquivalence:
    def test_ancilla_identity_pair(self):
        spec = CorrelationSpec(v="I", w="I", vq=1, wq=1, initial="111")
        compiled = trotter_evolvers(fig6_system(), np.linspace(0, 2, 4), TrotterPlan.fixed_n(5))
        assert np.allclose(per_point(correlation_ancilla, spec, compiled), 1.0)

    def test_fig6_autocorrelation_t0(self):
        spec = CorrelationSpec(v="X", w="X", vq=1, wq=1, initial="111")
        compiled = trotter_evolvers(fig6_system(), [0.0], TrotterPlan.fixed_n(5))
        assert spin_correlation(per_point(correlation_ancilla, spec, compiled))[0] == pytest.approx(
            0.25, abs=1e-10
        )

    @pytest.mark.parametrize("v", "XYZ")
    @pytest.mark.parametrize("w", "XYZ")
    def test_all_pauli_pairs_all_sites(self, v, w):
        compiled = trotter_evolvers(fig6_system(), np.linspace(0.0, 1.4, 8), TrotterPlan.fixed_n(5))
        for vq in (1, 2, 3):
            for wq in (1, 2, 3):
                spec = CorrelationSpec(v=v, w=w, vq=vq, wq=wq, initial="111")
                direct = per_point(correlation_direct, spec, compiled)
                ancilla = per_point(correlation_ancilla, spec, compiled)
                assert np.max(np.abs(direct - ancilla)) <= 1e-10

    def test_exact_evolution_routes_agree(self):
        spec = CorrelationSpec(v="Y", w="X", vq=3, wq=1, initial="111")
        exact = list(exact_evolvers(fig6_system(), np.linspace(0, 2, 5)))
        d = per_point(correlation_direct, spec, exact)
        a = per_point(correlation_ancilla, spec, exact)
        assert np.max(np.abs(d - a)) <= 1e-10


class TestGivenEvolutions:
    """Either route reads one value from its rows, evolved by a given in-place evolver."""

    SPEC = CorrelationSpec(v="Y", w="X", vq=3, wq=1, initial="101")
    TIMES = np.linspace(0, 2, 5)
    PLAN = TrotterPlan.fixed_n(3)

    def test_exact_evolvers_serve_both_routes(self):
        # one list of evolvers, applied by both routes, gives what fresh ones give
        exact = list(exact_evolvers(fig6_system(), self.TIMES))
        for route in (correlation_direct, correlation_ancilla):
            fresh = exact_evolvers(fig6_system(), self.TIMES)
            assert np.array_equal(per_point(route, self.SPEC, exact),
                                  per_point(route, self.SPEC, fresh))

    def test_trotterize_evolvers_match_the_compiler(self):
        h = fig6_system()
        compiled = [partial(evolve, result=trotterize(h, t, self.PLAN)) for t in self.TIMES]
        compiler_route = trotter_evolvers(h, self.TIMES, self.PLAN)
        for route in (correlation_direct, correlation_ancilla):
            assert np.array_equal(per_point(route, self.SPEC, compiled),
                                  per_point(route, self.SPEC, compiler_route))

    @pytest.mark.parametrize("route", [correlation_direct, correlation_ancilla],
                             ids=["direct", "ancilla"])
    def test_one_value_per_call(self, route):
        h = fig6_system()
        compile_at = TrotterCompiler(h, self.PLAN)
        for t, evolve_t in zip(self.TIMES, trotter_evolvers(h, self.TIMES, self.PLAN)):
            got = at_point(route, self.SPEC, partial(evolve, result=compile_at(t)))
            assert isinstance(got, complex)
            assert got == at_point(route, self.SPEC, evolve_t)

    def test_exact_route_against_dense_oracle(self):
        h = fig6_system()
        want = []
        for t in self.TIMES:
            u = exact_propagator(h, t)
            psi = product_state(3, "101").amplitudes
            x1 = np.kron(PAULI["X"], np.eye(4))
            y3 = np.kron(np.eye(4), PAULI["Y"])
            want.append(np.vdot(y3 @ u @ psi, u @ x1 @ psi))
        got = per_point(correlation_direct, self.SPEC, exact_evolvers(h, self.TIMES))
        assert np.max(np.abs(got - np.array(want))) <= 1e-12

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_exact_route_rejects_non_finite_time(self, bad):
        with pytest.raises(InputError):
            per_point(correlation_direct, self.SPEC, exact_evolvers(fig6_system(), [0.0, 1.0, bad]))


class TestSpecValidation:
    def test_bad_letter(self):
        with pytest.raises(InputError):
            CorrelationSpec(v="Q", w="X", vq=1, wq=1, initial="111")

    def test_bad_site(self):
        with pytest.raises(InputError):
            CorrelationSpec(v="X", w="X", vq=4, wq=1, initial="111")

    @pytest.mark.parametrize("route", [correlation_direct, correlation_ancilla])
    @pytest.mark.parametrize("trotterized", [False, True])
    def test_bad_initial(self, route, trotterized):
        # two system qubits under a three-qubit evolution
        spec = CorrelationSpec(v="X", w="X", vq=1, wq=1, initial="11")
        h = fig6_system()
        if trotterized:
            evolutions = trotter_evolvers(h, [0.5], TrotterPlan.fixed_n(2))
        else:
            evolutions = exact_evolvers(h, [0.0])
        with pytest.raises(InputError):
            per_point(route, spec, evolutions)

    @pytest.mark.parametrize("route", [correlation_direct, correlation_ancilla])
    @pytest.mark.parametrize("trotterized", [False, True])
    def test_narrow_evolution(self, route, trotterized):
        # three system qubits under a two-qubit evolution, which would act on
        # the leading two alone
        spec = CorrelationSpec(v="X", w="X", vq=3, wq=1, initial="010")
        h = heisenberg_chain(2, 1.0, 0.5)
        if trotterized:
            evolutions = trotter_evolvers(h, [0.3, 0.7], TrotterPlan.fixed_n(2))
        else:
            evolutions = exact_evolvers(h, [0.3, 0.7])
        with pytest.raises(InputError):
            per_point(route, spec, evolutions)

    @pytest.mark.parametrize("route", [correlation_direct, correlation_ancilla])
    @pytest.mark.parametrize("qubits", [(4, 4), (3, 2)], ids=["wide", "one-short"])
    def test_rows_off_the_register(self, route, qubits):
        # rows that are not states on the spec's three system qubits
        spec = CorrelationSpec(v="X", w="X", vq=1, wq=1, initial="111")
        rows = [random_state(n).amplitudes for n in qubits]
        with pytest.raises(InputError):
            route(spec, *rows)


class TestCorrelationRows:
    def test_layout(self):
        # psi0, the zero half of |psi0>|+>, then per spec W psi0 and the one
        # half with W on it
        specs = [CorrelationSpec("X", "Y", 1, 2, "0+1"), CorrelationSpec("Z", "I", 3, 3, "0+1")]
        rows = correlation_rows(specs)
        psi0 = product_state(3, "0+1").amplitudes
        assert rows.shape == (6, 8)
        assert np.array_equal(rows[0], psi0)
        assert np.array_equal(rows[1], product_state(4, "0+1+").amplitudes[0::2])
        w_psi0 = np.kron(np.eye(2), np.kron(PAULI["Y"], np.eye(2))) @ psi0
        assert np.allclose(rows[2], w_psi0) and np.allclose(rows[3], w_psi0 / np.sqrt(2))
        assert np.array_equal(rows[4], psi0) and np.array_equal(rows[5], rows[1])

    @pytest.mark.parametrize("initials", [(), ("111", "110")], ids=["none", "two"])
    def test_one_initial_state(self, initials):
        with pytest.raises(InputError):
            correlation_rows([CorrelationSpec("X", "X", 1, 1, i) for i in initials])


class TestUnitaryExpectationSeries:
    def test_memory_flat_in_grid_length(self):
        # the thetas are compiled a chunk at a time, so a grid holds one
        # chunk's stacked blocks, not every point's.  XX, YY and ZZ commute, so
        # every theta takes one step.  Past the theta list and the series
        # (about 50 bytes a point), the peak does not grow with m; a grid
        # compiled whole grows by about 1.8 kB a point here.
        q = heisenberg_chain(2, [1.0], 0.0)
        peaks = {}
        for m in (2 * trotter.GRID_CHUNK, 8 * trotter.GRID_CHUNK):
            spec = SpectrumSpec(operator=q, initial="01", m=m)
            compile_q = TrotterCompiler(q, TrotterPlan.fixed_eps(0.01))
            tracemalloc.start()
            try:
                unitary_expectation_series(spec, compile_q)
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        (m1, p1), (m2, p2) = peaks.items()
        assert (p2 - p1) / (m2 - m1) < 200

    def test_narrow_compiler_rejected(self):
        # Q on three qubits, compiled as a two-qubit operator
        spec = SpectrumSpec(operator=tim_chain(3, [0.7, 0.7, 0.7], 1.0), initial="0+1", m=8)
        compile_at = TrotterCompiler(tim_chain(2, [0.7, 0.7], 1.0), TrotterPlan.fixed_n(2))
        with pytest.raises(InputError):
            unitary_expectation_series(spec, compile_at)

    def test_sigma_z_on_plus_gives_cosine(self):
        q = PauliHamiltonian(1, [PauliString(1.0, "Z")])
        spec = SpectrumSpec(operator=q, initial="+", m=64)
        series = series_of(spec)
        thetas = np.arange(64) * spec.spacing()
        assert np.max(np.abs(series - np.cos(thetas))) <= 1e-10

    def test_eigenstate_pure_phase(self):
        # |00> is an eigenstate of Z1 + Z2 with eigenvalue 2
        q = PauliHamiltonian(2, [PauliString(1.0, "ZI"), PauliString(1.0, "IZ")])
        spec = SpectrumSpec(operator=q, initial="00", m=32)
        series = series_of(spec)
        thetas = np.arange(32) * spec.spacing()
        assert np.max(np.abs(series - np.exp(-2j * thetas))) <= 1e-10

    def test_theta_zero_is_one(self):
        q = heisenberg_chain(2, [1.0], 0.0)
        spec = SpectrumSpec(operator=q, initial="01", m=16)
        series = series_of(spec)
        assert series[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("gate_set", list(GateSet), ids=lambda g: g.value)
    def test_matches_dense_oracle(self, gate_set):
        q = heisenberg_chain(2, [1.0], 0.0)
        spec = SpectrumSpec(operator=q, initial="01", m=16)
        series = series_of(spec, gate_set=gate_set)
        psi = product_state(2, "01").amplitudes
        for k in range(16):
            u = exact_propagator(q, k * spec.spacing())
            assert series[k] == pytest.approx(complex(np.vdot(psi, u @ psi)), abs=1e-10)


def random_state(n):
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def controlled_evolution(result: EvolutionResult, control: int) -> EvolutionResult:
    """``result`` with every gate controlled on ``control``, as gate circuits.

    The global phase becomes a phase gate on the control in front of the
    prefix; it is diagonal on the control and commutes with every controlled
    gate.
    """
    head = Circuit(result.prefix.n_qubits, result.prefix.ops, result.global_phase)
    return EvolutionResult(
        controlled_circuit(head, control),
        controlled_circuit(result.step, control),
        result.n_steps_used,
        result.phase,
        mirrored=result.mirrored,
    )


def ancilla_readout(state: StateVector) -> complex:
    """<sigma_x> + i <sigma_y> on the last qubit, from Pauli-string expectations."""
    n = state.n_qubits
    sx, sy = (PauliString(1.0, "I" * (n - 1) + letter) for letter in "XY")
    return complex(pauli_expectation(state, sx), pauli_expectation(state, sy))


def pauli_circuit(n: int, letter: str, site: int) -> Circuit:
    """The Pauli letter on ``site`` as one gate of the circuit format, phase included."""
    if letter == "I":
        return Circuit(n, ())
    if letter == "Y":  # Y = e^{i pi/2} Ry(pi)
        return Circuit(n, (GateOp("Ry", (np.pi,), (site,)),), np.pi / 2)
    kind, params = {"X": ("X", ()), "Z": ("Phase", (np.pi,))}[letter]
    return Circuit(n, (GateOp(kind, params, (site,)),))


def controlled_correlation(spec: CorrelationSpec, evolutions) -> np.ndarray:
    """The ancilla protocol run as controlled gate circuits.

    W is controlled on the ancilla and V anti-controlled (X on the ancilla on
    either side of the controlled V).  U(t) (x) I runs U(t) on a copy of the
    system amplitudes at each ancilla value.
    """
    n = len(spec.initial)
    a = n + 1
    ctrl_w = controlled_circuit(pauli_circuit(n, spec.w, spec.wq), a)
    ctrl_v = controlled_circuit(pauli_circuit(n, spec.v, spec.vq), a)
    flip = GateOp("X", (), (a,))
    anti_v = Circuit(a, (flip, *ctrl_v.ops, flip))
    out = []
    for evolve_t in evolutions:
        state = product_state(a, spec.initial + "+")
        run_circuit(state, ctrl_w)
        columns = state.amplitudes.reshape(-1, 2)
        for b in (0, 1):
            columns[:, b] = evolve_t(StateVector(n, columns[:, b].copy())).amplitudes
        run_circuit(state, anti_v)
        out.append(ancilla_readout(state))
    return np.array(out)


def _tilted_heisenberg(n: int) -> PauliHamiltonian:
    # x fields that do not commute with the bonds, z fields and an identity
    # term, which gives the compiled evolution a global phase
    h = heisenberg_chain(n, [1.0, 0.7, 1.2][: n - 1], 0.8)
    extra = [PauliString(0.4, "I" * n)] + [
        PauliString(0.3 * q, "I" * (q - 1) + "X" + "I" * (n - q)) for q in range(1, n + 1)
    ]
    return PauliHamiltonian(n, list(h.terms) + extra)


SLICE_HAMILTONIANS = {
    "tim2": lambda: tim_chain(2, [1.0, 0.6], 0.8),
    # z fields hoisted into the prefix
    "heis3-hoisted": lambda: heisenberg_chain(3, [1.0, 0.7], 3.0),
    "heis3-tilted": lambda: _tilted_heisenberg(3),
    "heis4-tilted": lambda: _tilted_heisenberg(4),
}


class TestAncillaHalfAgainstControlledCircuit:
    """The amplitude-half route against the hardware controlled circuits."""

    @pytest.mark.parametrize("gate_set", [GateSet.S1, GateSet.S2, GateSet.S3],
                             ids=lambda g: g.value)
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("folded", [False, True], ids=["gates", "folded"])
    @pytest.mark.parametrize("name", SLICE_HAMILTONIANS)
    def test_controlled_evolution(self, name, folded, order, gate_set):
        h = SLICE_HAMILTONIANS[name]()
        n = h.n_qubits
        # one step never folds
        plan = TrotterPlan.fixed_n(20 if folded else 1, order=order)
        for t in (0.9, -0.6):
            result = trotterize(h, t, plan, gate_set)
            assert result.folds == folded
            psi = random_state(n + 1)
            want = evolve(psi.copy(), controlled_evolution(result, n + 1))
            got = psi.copy()
            evolve(_half(got, 1), result)
            assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-12

    @pytest.mark.parametrize("gate_set", [GateSet.S1, GateSet.S2, GateSet.S3],
                             ids=lambda g: g.value)
    def test_expectation_series(self, gate_set):
        q = tim_chain(3, [0.7, 0.7, 0.7], 1.0)
        spec = SpectrumSpec(operator=q, initial="0+1", m=8)
        plan = TrotterPlan.fixed_eps(0.05)
        want = []
        for k in range(spec.m):
            result = trotterize(q, k * spec.spacing(), plan, gate_set)
            state = product_state(4, "0+1+")
            want.append(ancilla_readout(evolve(state, controlled_evolution(result, 4))))
        assert np.max(np.abs(series_of(spec, plan, gate_set) - np.array(want))) <= 1e-12

    @pytest.mark.parametrize("letter", "XYZ")
    def test_pauli_circuits(self, letter):
        assert np.max(np.abs(circuit_unitary(pauli_circuit(1, letter, 1)) - PAULI[letter])) <= 1e-15

    @pytest.mark.parametrize("evolution", ["exact", "trotter"])
    @pytest.mark.parametrize("v", "IXYZ")
    @pytest.mark.parametrize("w", "IXYZ")
    def test_correlation(self, v, w, evolution):
        h = heisenberg_chain(3, [1.0, 0.7], 0.9)
        times = np.linspace(-0.5, 1.5, 5)
        evolvers = (
            list(exact_evolvers(h, times)) if evolution == "exact"
            else trotter_evolvers(h, times, TrotterPlan.fixed_n(4, order=2), GateSet.S2)
        )
        for vq, wq in ((1, 1), (1, 3), (2, 1)):
            spec = CorrelationSpec(v=v, w=w, vq=vq, wq=wq, initial="0+1")
            want = controlled_correlation(spec, evolvers)
            assert np.max(np.abs(per_point(correlation_ancilla, spec, evolvers) - want)) <= 1e-12


ANCILLA_CONFIG = """
[model]
kind = tim
n_qubits = 3
h = 0.7
[initial]
state = 0+1
[evolution]
gateset = {gateset}
schedule = fixed_eps
eps = 0.1
{time}[observables]
{observables}
"""


@pytest.mark.parametrize("gateset", ["S1", "S4"])
@pytest.mark.parametrize("time, observables, column", [
    ("", "observable = spectrum 16", "q,weight"),
    ("[time]\nmax = 1.0\npoints = 4\n",
     "observable = correlation X Y 1 3\nobservable = correlation Z Z 2 2", "czz_2_2_re_qs"),
], ids=["spectrum", "correlation"])
def test_ancilla_runs_build_no_controlled_circuit(monkeypatch, gateset, time, observables, column):
    def refuse(*args, **kwargs):
        raise AssertionError("a controlled circuit was built")

    for name in ("controlled_circuit", "_controlled_op"):
        monkeypatch.setattr(oracles, name, refuse)
        assert not hasattr(spinsim, name) and not hasattr(compiler, name)
    text = ANCILLA_CONFIG.format(gateset=gateset, time=time, observables=observables)
    assert column in runner.run(runner.parse_config(text))


class TestSpectrumFromSeries:
    def test_cosine_two_lines(self):
        m = 256
        dtheta = 2 * np.pi / 256
        thetas = np.arange(m) * dtheta
        peaks = spectrum_from_series(np.cos(thetas), dtheta)
        assert len(peaks) == 2
        (q1, w1), (q2, w2) = peaks
        bin_width = 2 * np.pi / (m * dtheta)
        assert abs(q1 - (-1.0)) <= bin_width
        assert abs(q2 - 1.0) <= bin_width
        assert w1 == pytest.approx(0.5, abs=1e-6)
        assert w2 == pytest.approx(0.5, abs=1e-6)

    def test_eigenstate_single_line(self):
        m, dtheta, q0 = 128, 0.11, 1.37
        thetas = np.arange(m) * dtheta
        peaks = spectrum_from_series(np.exp(-1j * q0 * thetas), dtheta)
        assert len(peaks) == 1
        q, w = peaks[0]
        assert abs(q - q0) <= 2 * np.pi / (m * dtheta)
        assert w == pytest.approx(1.0, abs=1e-6)

    def test_heisenberg_singlet_triplet(self):
        # |01> splits evenly over the eigenvalues -3J and +J
        q = heisenberg_chain(2, [1.0], 0.0)
        spec = SpectrumSpec(operator=q, initial="01", m=1024)
        series = series_of(spec)
        peaks = spectrum_from_series(series, spec.spacing())
        assert len(peaks) == 2
        bin_width = 2 * np.pi / (spec.m * spec.spacing())
        (qa, wa), (qb, wb) = peaks
        assert abs(qa - (-3.0)) <= bin_width
        assert abs(qb - 1.0) <= bin_width
        assert wa == pytest.approx(0.5, abs=0.02)
        assert wb == pytest.approx(0.5, abs=0.02)

    def test_completeness_with_field(self):
        # every eigenvalue with weight >= 0.05 recovered within a bin, weight to 0.02
        h = heisenberg_chain(2, [1.0], 0.7)
        from spinsim.pauli import dense_matrix

        w, vecs = np.linalg.eigh(dense_matrix(h))
        psi = product_state(2, "01").amplitudes
        exact_weights = np.abs(vecs.conj().T @ psi) ** 2
        spec = SpectrumSpec(operator=h, initial="01", m=1024)
        peaks = spectrum_from_series(series_of(spec), spec.spacing())
        bin_width = 2 * np.pi / (spec.m * spec.spacing())
        for ev, ew in zip(w, exact_weights):
            if ew < 0.05:
                continue
            match = [pk for pk in peaks if abs(pk[0] - ev) <= bin_width]
            assert match, f"eigenvalue {ev} not recovered"
            assert match[0][1] == pytest.approx(ew, abs=0.02)

    def test_weights_sum_bounded(self):
        m, dtheta = 256, 0.07
        thetas = np.arange(m) * dtheta
        series = 0.6 * np.exp(-1j * 0.9 * thetas) + 0.4 * np.exp(1j * 2.2 * thetas)
        peaks = spectrum_from_series(series, dtheta)
        assert sum(w for _, w in peaks) <= 1.0 + 1e-6

    def test_non_power_of_two_rejected(self):
        with pytest.raises(InputError):
            spectrum_from_series(np.ones(100), 0.1)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)],
                             ids=["nan", "inf", "-inf", "nan-imag"])
    def test_non_finite_series_entry_rejected(self, entry):
        series = np.ones(64, dtype=complex)
        series[5] = entry
        with pytest.raises(InputError, match="series entries must be finite"):
            spectrum_from_series(series, 0.1)

    @pytest.mark.parametrize("dtheta", [0.0, -0.1, np.nan, np.inf], ids=["0", "-0.1", "nan", "inf"])
    def test_bad_dtheta_rejected(self, dtheta, capfd):
        with pytest.raises(InputError, match="dtheta must be positive and finite"):
            spectrum_from_series(np.ones(64), dtheta)
        assert capfd.readouterr().err == ""  # refused before LAPACK can print to stderr

    @pytest.mark.parametrize("m, dtheta", [(4, 2e-308), (2, 2.0943951023931954e-308),
                                           (8, 2.0943951023931954e-308)])
    def test_dtheta_whose_window_overflows_rejected(self, m, dtheta, capfd):
        # the window of 1.5 bins either side of q = pi/dtheta, or its width, is
        # past the float range: refused before the fit's SVD fails on it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="the fit's window about q = pi/dtheta overflows"):
                spectrum_from_series(np.exp(-1j * np.arange(m)), dtheta)
        assert capfd.readouterr().err == ""

    def test_smallest_dtheta_with_a_finite_window_fits(self):
        # 1024 samples at the same dtheta: its bins are narrow enough
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ((q, w),) = spectrum_from_series(np.ones(1024), 2.0943951023931954e-308)
        assert q == 0.0 and w == pytest.approx(1.0, rel=1e-12)


class TestSpectrumFitInternals:
    def test_sample_responses_match_direct_sums(self):
        # the recurrence's 13 responses against one exponential per sample
        rng = np.random.default_rng(25)
        for m in (16, 256, 1024):
            series = np.array([1, 1j]) @ rng.normal(size=(2, m))
            thetas = (np.arange(m) - (m - 1) / 2) * rng.uniform(0.05, 0.5)
            samples = rng.uniform(-3, 3) + np.linspace(-0.1, 0.1, 13)
            direct = np.array([abs(np.exp(1j * q * thetas) @ series) for q in samples])
            assert np.max(np.abs(_sample_responses(series, thetas, samples) / direct - 1)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e300, 1e150, 1e-300])
    def test_extreme_scales_fit_without_warnings(self, scale):
        # the peak refinement scales the series by a power of two, so its
        # Newton quantities neither overflow nor underflow
        m, dtheta = 64, 0.2
        thetas = np.arange(m) * dtheta
        series = 0.6 * np.exp(-1j * 0.7 * thetas) + 0.4 * np.exp(1j * 2.1 * thetas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ((q, w),) = spectrum_from_series(np.full(8, scale + 0j), 0.3)
            peaks = np.array(spectrum_from_series(scale * series, dtheta))
        assert q == 0.0 and w == pytest.approx(scale, rel=1e-12)
        assert np.max(np.abs(peaks[:, 0] - [-2.1, 0.7])) <= 1e-12
        assert np.max(np.abs(peaks[:, 1] / scale - [0.4, 0.6])) <= 1e-12


class TestSpectrumSpecValidation:
    def test_power_of_two(self):
        with pytest.raises(InputError):
            SpectrumSpec(operator=heisenberg_chain(2, [1.0], 0.0), initial="01", m=100)

    def test_default_spacing_covers_spectrum(self):
        h = heisenberg_chain(2, [1.0], 0.0)
        spec = SpectrumSpec(operator=h, initial="01")
        # sum |coef| = 3; Nyquist must reach 1.5 * 3
        assert np.pi / spec.spacing() >= 1.5 * 3 - 1e-12
