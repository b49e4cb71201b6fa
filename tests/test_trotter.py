import math
import tracemalloc

import numpy as np
import pytest

from spinsim import compiler, observables, runner, statevector, trotter
from spinsim.compiler import (
    Circuit,
    GateSet,
    circuit_unitary,
    decompose_pauli,
    run_circuit,
)
from spinsim.errors import InputError, ResourceError
from spinsim.gates import GATE_BUDGET
from spinsim.observables import SpectrumSpec, _half, unitary_expectation_series
from spinsim.pauli import (
    PauliHamiltonian,
    PauliString,
    dense_matrix,
    heisenberg_chain,
    tim_chain,
    xy_chain,
)
from spinsim.statevector import StateVector, basis_state, inner_product, product_state
from spinsim.trotter import (
    EvolutionResult,
    TrotterPlan,
    conserved_blocks,
    evolve,
    exact_stacks,
    steps_for_phase,
    trotterize,
)
import oracles
from oracles import commutator_error_bound, digital_fidelity, equal_up_to_global_phase, exact_propagator
from test_golden import RUN_CONFIGS

RNG = np.random.default_rng(314)


def fig2_hamiltonian():
    # H = X1 + X2 + Z1 Z2 at unit couplings
    return tim_chain(2, [1.0, 1.0], 1.0)


def random_state(n):
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


class TestStepsForPhase:
    def test_quadratic_example(self):
        assert steps_for_phase(2.0, 0.1, "quadratic") == 20

    def test_floor_at_zero_phase(self):
        assert steps_for_phase(0.0, 0.1, "quadratic") == 1
        assert steps_for_phase(0.0, 0.1, "linear") == 1

    def test_large_phase_magnitude(self):
        assert steps_for_phase(45.0, 0.1, "quadratic") == 10125

    def test_linear(self):
        assert steps_for_phase(45.0, 0.1, "linear") == 225

    def test_monotone_in_delta(self):
        deltas = np.linspace(0, 30, 40)
        for growth in ("linear", "quadratic"):
            ns = [steps_for_phase(float(d), 0.1, growth) for d in deltas]
            assert all(b >= a for a, b in zip(ns, ns[1:]))

    def test_monotone_in_eps(self):
        eps = np.linspace(0.01, 0.9, 20)
        ns = [steps_for_phase(7.0, float(e), "quadratic") for e in eps]
        assert all(b <= a for a, b in zip(ns, ns[1:]))

    def test_negative_delta_rejected(self):
        with pytest.raises(InputError):
            steps_for_phase(-1.0, 0.1)

    def test_bad_eps(self):
        with pytest.raises(InputError):
            steps_for_phase(1.0, 1.5)

    @pytest.mark.parametrize("delta, growth", [
        pytest.param(float("nan"), "quadratic", id="nan"),
        pytest.param(float("inf"), "quadratic", id="inf"),
        pytest.param(float("inf"), "linear", id="inf-linear"),
        # finite phases whose step count does not fit a float
        pytest.param(1e200, "quadratic", id="square-overflows"),
        pytest.param(1e308, "linear", id="ratio-overflows"),
        # a step count no index can hold
        pytest.param(1e10, "quadratic", id="steps-past-index"),
        pytest.param(1e19, "linear", id="steps-past-index-linear"),
    ])
    def test_non_finite_or_overflowing_phase_rejected(self, delta, growth):
        with pytest.raises(InputError):
            steps_for_phase(delta, 0.1, growth)


class TestTrotterize:
    def test_commuting_fast_path_heisenberg2(self):
        h = heisenberg_chain(2, [1.0], 0.0)
        res = trotterize(h, 0.83, TrotterPlan.fixed_n(40))
        assert res.n_steps_used == 1
        target = exact_propagator(h, 0.83)
        assert equal_up_to_global_phase(circuit_unitary(res.circuit), target, 1e-10)

    def test_tim_step_structure(self):
        # per step: the two field rotations (parallel layer), then the ZZ block
        h = tim_chain(2, [1.0, 1.0], 1.0)
        res = trotterize(h, 0.9, TrotterPlan.fixed_n(3))
        assert res.n_steps_used == 3
        kinds = [op.kind for op in res.circuit.ops]
        per_step = ["Rx", "Rx", "CNOT", "Rz", "CNOT"]
        assert kinds == per_step * 3
        # field rotation angle per step: 2 h t / n = Bg t / n with h = Bg/2
        assert res.circuit.ops[0].params[0] == pytest.approx(2 * 1.0 * 0.9 / 3)

    def test_field_hoisting_heisenberg3(self):
        h = heisenberg_chain(3, [1.0, 1.0], 20.0)
        res = trotterize(h, 0.4, TrotterPlan.fixed_n(5))
        ops = res.circuit.ops
        # hoisted z rotations first, once, with the full angle Bg t
        assert [op.kind for op in ops[:3]] == ["Rz", "Rz", "Rz"]
        assert ops[0].params[0] == pytest.approx(20.0 * 0.4)
        assert all(op.kind != "Rz" or op.targets[0] == 2 or True for op in ops)
        # remaining single-qubit z rotations only inside pair cores
        standalone_rz = [
            op for op in ops[3:] if op.kind == "Rz" and op.params[0] == pytest.approx(8.0)
        ]
        assert not standalone_rz

    def test_hoisting_exactness_at_large_n(self):
        h = heisenberg_chain(3, [1.0, 1.0], 20.0)
        res = trotterize(h, 0.5, TrotterPlan.fixed_n(64))
        u = circuit_unitary(res.circuit)
        assert equal_up_to_global_phase(u, exact_propagator(h, 0.5), 1e-3)

    def test_fixed_eps_step_counts(self):
        h = fig2_hamiltonian()
        res = trotterize(h, 2.0, TrotterPlan.fixed_eps(0.1, "quadratic"))
        assert res.n_steps_used == 20
        assert res.phase == pytest.approx(2.0)

    def test_identity_term_becomes_global_phase(self):
        h = PauliHamiltonian(2, [PauliString(0.7, "II"), PauliString(1.0, "ZZ")])
        res = trotterize(h, 1.3, TrotterPlan.fixed_n(1))
        u = circuit_unitary(res.circuit)
        assert np.max(np.abs(u - exact_propagator(h, 1.3))) <= 1e-10

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), 1e200, 1e12],
                             ids=["nan", "inf", "1e200", "1e12"])
    def test_fixed_eps_non_finite_or_overflowing_time_rejected(self, t):
        with pytest.raises(InputError):
            trotterize(fig2_hamiltonian(), t, TrotterPlan.fixed_eps(0.1))

    def test_all_identity_hamiltonian(self):
        # nothing to compile: empty circuits, one step, and e^{-i c t} as the global phase
        h = PauliHamiltonian(2, [PauliString(0.6, "II")])
        res = trotterize(h, 1.7, TrotterPlan.fixed_n(4))
        assert res.prefix.ops == () and res.step.ops == () and res.n_steps_used == 1
        psi = random_state(2)
        out = evolve(psi.copy(), res)
        assert np.max(np.abs(out.amplitudes - np.exp(-1j * 0.6 * 1.7) * psi.amplitudes)) <= 1e-12

    def test_three_body_terms_through_the_cnot_ladder(self):
        # the strings commute, so one step is exact, phase included
        h = PauliHamiltonian(4, [PauliString(0.7, "XXZI"), PauliString(-0.4, "ZZIY")])
        res = trotterize(h, 0.9, TrotterPlan.fixed_n(3))
        assert res.n_steps_used == 1
        assert res.step.two_qubit_count("CNOT") == 8  # two 3-qubit ladders of 2 + 2
        u = circuit_unitary(res.circuit)
        assert np.max(np.abs(u - exact_propagator(h, 0.9))) <= 1e-10

    def test_empty_hamiltonian_rejected(self):
        with pytest.raises(InputError):
            trotterize(PauliHamiltonian(2, []), 1.0, TrotterPlan.fixed_n(1))

    def test_reversibility_order1(self):
        h = fig2_hamiltonian()
        plan = TrotterPlan.fixed_n(7)
        state = random_state(2)
        ref = state.copy()
        run_circuit(state, trotterize(h, 1.2, plan).circuit)
        run_circuit(state, trotterize(h, -1.2, plan).circuit)
        assert abs(abs(inner_product(ref, state)) - 1.0) <= 1e-10
        assert np.max(np.abs(state.amplitudes - ref.amplitudes)) <= 1e-10

    def test_reversibility_order2(self):
        h = heisenberg_chain(3, [1.0, 0.7], 3.0)
        plan = TrotterPlan.fixed_n(4, order=2)
        state = random_state(3)
        ref = state.copy()
        run_circuit(state, trotterize(h, 0.9, plan).circuit)
        run_circuit(state, trotterize(h, -0.9, plan).circuit)
        assert np.max(np.abs(state.amplitudes - ref.amplitudes)) <= 1e-10

    def test_order2_more_accurate_than_order1(self):
        h = fig2_hamiltonian()
        t = 1.0
        exact = exact_propagator(h, t)
        err = {}
        for order in (1, 2):
            u = circuit_unitary(trotterize(h, t, TrotterPlan.fixed_n(8, order=order)).circuit)
            err[order] = np.linalg.norm(u - exact, 2)
        assert err[2] < err[1] / 5

    def test_gate_sets_agree(self):
        h = heisenberg_chain(3, [1.0, 1.0], 20.0)
        plan = TrotterPlan.fixed_n(3)
        u_ref = circuit_unitary(trotterize(h, 0.3, plan, GateSet.S1).circuit)
        for gs in (GateSet.S2, GateSet.S3, GateSet.S4):
            u = circuit_unitary(trotterize(h, 0.3, plan, gs).circuit)
            assert equal_up_to_global_phase(u, u_ref, 1e-10)


class TestTrotterCompiler:
    @pytest.mark.parametrize("t", [float("inf"), -float("inf"), float("nan")],
                             ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("h", [fig2_hamiltonian(), PauliHamiltonian(2, [PauliString(0.6, "II")])],
                             ids=["tim2", "identity"])
    def test_fixed_n_non_finite_time_rejected(self, h, t):
        with pytest.raises(InputError, match="time must be finite"):
            trotterize(h, t, TrotterPlan.fixed_n(3))

    @pytest.mark.parametrize("h, t, gate_set, kind", [
        (fig2_hamiltonian(), 1e308, GateSet.S1, "Rx"),           # 2 d overflows
        (PauliHamiltonian(2, [PauliString(-1.0, "ZZ")]), 1e308, GateSet.S3, "CPhase"),  # -2 d < 0
        (tim_chain(2, [1.0, 1.0], 1.0), 6e307, GateSet.S3, "CPhase"),    # -4 d
        (tim_chain(2, [0.5, 0.5], 4.0), 1e308, GateSet.S4, "MS_T4"),     # d itself
        (heisenberg_chain(2, [1.0], 2.0), 1e308, GateSet.S1, "Rz"),       # the hoisted field
        (PauliHamiltonian(2, [PauliString(4.0, "XX")]), 1e308, GateSet.S2, "Uxy"),  # d/2, twice
    ], ids=["S1-rotation", "S3-negative", "S3-positive", "S4-d", "field-prefix", "S2-recurring"])
    def test_fixed_n_overflowing_angle_rejected(self, h, t, gate_set, kind):
        compile_at = trotter.TrotterCompiler(h, TrotterPlan.fixed_n(1), gate_set)
        for sign in (1, -1):
            with pytest.raises(InputError, match=f"{kind} parameters must be finite"):
                trotterize(h, sign * t, TrotterPlan.fixed_n(1), gate_set)
            # in a grid, behind a point that compiles
            with pytest.raises(InputError, match=f"{kind} parameters must be finite"):
                compile_at.grid([0.0, 0.3, sign * t])

    @pytest.mark.parametrize("gate_set", list(GateSet))
    def test_calls_share_the_gates_without_an_angle(self, gate_set):
        # frame changes, CNOTs and pi flips are built once per compiler; each
        # call builds only the gates that carry its angles
        h = heisenberg_chain(3, [1.0, 0.7], 0.5)
        compile_at = trotter.TrotterCompiler(h, TrotterPlan.fixed_n(2, order=2), gate_set)
        a, b = compile_at(0.4).step.ops, compile_at(0.9).step.ops
        assert len(a) == len(b)
        shared = [x is y for x, y in zip(a, b)]
        assert shared == [x == y for x, y in zip(a, b)]
        assert any(shared) and not all(shared)

    @pytest.mark.parametrize("coef", [-0.8, 0.8])
    def test_s3_sign_rule_matches_decompose_pauli(self, coef):
        # one ZZ term takes one exact step, spelled as decompose_pauli spells it
        h = PauliHamiltonian(2, [PauliString(coef, "ZZ")])
        t = 0.6
        res = trotter.TrotterCompiler(h, TrotterPlan.fixed_n(3), GateSet.S3)(t)
        want = decompose_pauli(("z", "z"), coef * t, (1, 2), GateSet.S3)
        assert res.n_steps_used == 1 and not res.prefix.ops
        assert res.step.ops == want.ops
        assert res.global_phase == want.global_phase
        assert want.two_qubit_count("CPhase") == (2 if coef < 0 else 1)

    def test_compiler_is_reusable_across_times(self):
        h = heisenberg_chain(3, [1.0, 0.7], 3.0)
        plan = TrotterPlan.fixed_eps(0.05, "linear", order=2)
        compile_at = trotter.TrotterCompiler(h, plan, GateSet.S3)
        for t in (0.0, 1.3, -0.4, 2.9, 1.3):
            assert compile_at(t) == trotterize(h, t, plan, GateSet.S3)


def _repeating_chain(n):
    # non-commuting terms on 2-4 qubits, with a hoisted field prefix from 3 on
    if n == 2:
        return tim_chain(2, [1.0, 0.6], 0.9)
    return heisenberg_chain(n, [1.0, 0.7, 1.3][: n - 1], 0.5)


class TestStepAndRepeat:
    def test_step_repeats_to_the_unrolled_circuit(self):
        h = heisenberg_chain(3, [1.0, 0.7], 3.0)
        res = trotterize(h, 0.8, TrotterPlan.fixed_n(4, order=2), GateSet.S3)
        assert res.circuit.ops == res.prefix.ops + res.step.ops * 4
        assert [op.kind for op in res.prefix.ops] == ["Rz", "Rz", "Rz"]
        back = trotterize(h, -0.8, TrotterPlan.fixed_n(4, order=2), GateSet.S3)
        assert back.mirrored
        assert back.circuit.ops == back.step.ops * 4 + back.prefix.ops
        assert back.global_phase == -res.global_phase != 0.0

    @pytest.mark.parametrize(
        "h, plan, gate_set, t",
        [
            (fig2_hamiltonian(), TrotterPlan.fixed_n(40), GateSet.S1, 3.1),
            (fig2_hamiltonian(), TrotterPlan.fixed_n(40, order=2), GateSet.S4, -3.1),
            (heisenberg_chain(3, [1.0, 0.7], 3.0), TrotterPlan.fixed_n(20), GateSet.S2, 1.3),
            (heisenberg_chain(3, [1.0, 0.7], 3.0), TrotterPlan.fixed_n(20, order=2), GateSet.S3, -1.3),
        ],
    )
    @pytest.mark.parametrize("extra_qubits", [0, 1])
    def test_folded_step_matches_gates(self, h, plan, gate_set, t, extra_qubits):
        # with an extra qubit, the state is the half of the wider register at 1
        res = trotterize(h, t, plan, gate_set)
        assert res.folds
        state = random_state(h.n_qubits + extra_qubits)
        target = _half(state, 1) if extra_qubits else state
        by_gates = run_circuit(StateVector(h.n_qubits, target.amplitudes.copy()), res.circuit)
        folded = evolve(target, res)
        assert np.max(np.abs(folded.amplitudes - by_gates.amplitudes)) <= 1e-12

    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 64, 1000])
    @pytest.mark.parametrize("ancilla", [False, True])
    def test_step_power_matches_gates(self, monkeypatch, n_qubits, steps, ancilla):
        # every repeat count, folded or not by the rule, through the squaring
        monkeypatch.setattr(trotter, "_route_cost",
                            lambda n, blocks, reps: np.full(np.shape(reps), 0.5))
        res = trotterize(_repeating_chain(n_qubits), 2.3, TrotterPlan.fixed_n(steps, order=2))
        assert res.n_steps_used == steps and res.folds
        state = random_state(n_qubits + ancilla)
        before = state.amplitudes.copy()
        target = _half(state, 1) if ancilla else state
        by_gates = run_circuit(StateVector(target.n_qubits, target.amplitudes.copy()), res.circuit)
        evolve(target, res)
        assert np.max(np.abs(target.amplitudes - by_gates.amplitudes)) <= 1e-12
        if ancilla:  # the ancilla-zero half is left alone
            assert np.array_equal(state.amplitudes[0::2], before[0::2])

    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    def test_mirrored_power_inverts_forward(self, n_qubits):
        plan = TrotterPlan.fixed_n(1000)
        h = _repeating_chain(n_qubits)
        fwd, back = trotterize(h, 1.7, plan), trotterize(h, -1.7, plan)
        assert back.mirrored and fwd.folds and back.folds
        state = random_state(n_qubits)
        out = evolve(evolve(state.copy(), fwd), back)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) <= 1e-12

    @pytest.mark.parametrize("t", [1.0, -1.0])
    def test_folded_evolve_runs_only_the_prefix_as_gates(self, monkeypatch, t):
        # on the 3-qubit state only the prefix's blocks run; the step's run
        # once each, on the identity columns of its matrix (6 qubits)
        res = trotterize(heisenberg_chain(3, [1.0, 0.7], 3.0), t, TrotterPlan.fixed_n(64))
        assert res.prefix.ops and res.folds
        ran = []
        original = trotter._apply_matrix

        def counting(amps, n, targets, u):
            ran.append((n, targets, u))
            return original(amps, n, targets, u)

        monkeypatch.setattr(trotter, "_apply_matrix", counting)
        evolve(random_state(3), res)
        on_state = [(targets, u) for n, targets, u in ran if n == 3]
        assert [targets for targets, _ in on_state] == [targets for targets, _ in res.prefix.blocks]
        assert all(np.array_equal(u, w) for (_, u), (_, w) in zip(on_state, res.prefix.blocks))
        assert [(n, targets) for n, targets, _ in ran if n != 3] == [
            (6, targets) for targets, _ in res.step.blocks]

    # (qubits, steps, folds) cells of the gates-vs-folded timing table, on both
    # sides of the crossover: Heisenberg chain with a field, first order, S1
    @pytest.mark.parametrize("n_qubits, steps, folds", [
        (3, 1, False), (3, 4, True), (4, 2, False), (4, 4, True),
        (5, 2, False), (5, 8, True), (6, 8, False), (6, 16, True),
        (7, 32, False), (7, 64, True), (7, 4096, True),
        (8, 256, False), (8, 512, True),
        (9, 2048, False), (9, 4096, True),
        (10, 1024, False), (10, 4096, False),
    ])
    def test_fold_crossover_table(self, n_qubits, steps, folds):
        h = heisenberg_chain(n_qubits, [1.0] * (n_qubits - 1), 0.5)
        res = trotterize(h, 1.0, TrotterPlan.fixed_n(steps))
        assert res.folds is folds
        assert (not res.folds) is not folds

    def test_fold_rule(self):
        h = heisenberg_chain(3, [1.0, 0.7], 3.0)
        # building, setting up and applying the fold (4 passes over the 6-qubit
        # columns) is priced as 2 repeats of the 2 blocks: gate by gate
        assert not trotterize(h, 1.0, TrotterPlan.fixed_n(2)).folds
        assert trotterize(h, 1.0, TrotterPlan.fixed_n(8)).folds
        # all terms commute: one exact step, nothing repeats
        h2 = heisenberg_chain(2, [1.0], 0.0)
        assert not trotterize(h2, 1.0, TrotterPlan.fixed_n(50)).folds

    def test_fold_respects_dense_limit(self, monkeypatch):
        h = heisenberg_chain(3, [1.0, 0.7], 3.0)
        monkeypatch.setattr(trotter, "DENSE_QUBIT_LIMIT", 2)
        assert not trotterize(h, 1.0, TrotterPlan.fixed_n(8)).folds

    def test_folded_step_is_the_step_unitary(self):
        res = trotterize(fig2_hamiltonian(), 2.0, TrotterPlan.fixed_n(9))
        folded_step = trotter._step_matrices(res.step.n_qubits, res.step.blocks, 1)[0]
        assert res.folds and np.max(np.abs(folded_step - circuit_unitary(res.step))) <= 1e-14

    def test_evolve_rejects_narrow_register(self):
        res = trotterize(heisenberg_chain(3, [1.0, 1.0], 0.0), 1.0, TrotterPlan.fixed_n(2))
        with pytest.raises(InputError):
            evolve(random_state(2), res)

    def test_evolve_rejects_wide_register(self):
        # a 2-qubit evolution does not act on the leading qubits of 3
        res = trotterize(heisenberg_chain(2, [1.0], 0.5), 1.0, TrotterPlan.fixed_n(2))
        with pytest.raises(InputError, match="evolution acts on 2 qubits, state has 3"):
            evolve(random_state(3), res)


def _counting_grids(monkeypatch) -> tuple[list, set]:
    """Records each ``TrotterCompiler.grid`` call's (plan, times), and the compilers called."""
    calls, compilers = [], set()
    original = trotter.TrotterCompiler.grid

    def counting(self, times):
        calls.append((self.plan, tuple(times)))
        compilers.add(self)
        return original(self, times)

    monkeypatch.setattr(trotter.TrotterCompiler, "grid", counting)
    return calls, compilers


def test_fig2_compiles_one_grid_per_plan(monkeypatch):
    # each plan compiles its 46 deltas in one grid, after the budget check
    # compiles its last delta on its own
    calls, compilers = _counting_grids(monkeypatch)
    cfg = runner.figure_preset("fig2")
    runner.run(cfg)
    deltas = tuple(np.linspace(0.0, cfg.t_max, cfg.points))
    plans = {plan for plan, _ in calls}
    assert len(plans) == len(compilers) == len(cfg.observables) == 3
    assert sorted(calls, key=str) == sorted(
        [(plan, (cfg.t_max,)) for plan in plans] + [(plan, deltas) for plan in plans], key=str
    )


def test_spectrum_compiles_its_theta_grid_once(monkeypatch):
    # the series compiles its 64 thetas in one grid; the budget check compiles
    # the largest on its own, so that a grid too long to run is never filled
    calls, compilers = _counting_grids(monkeypatch)
    runner.run(runner.parse_config(
        "[model]\nkind = tim\nn_qubits = 2\nh = 0.7\n[initial]\nstate = 0+\n"
        "[observables]\nobservable = spectrum 64\n"
    ))
    (_, last), (_, thetas) = calls
    assert len(thetas) == len(set(thetas)) == 64 and last == thetas[-1:]
    assert len(compilers) == 1


def _per_point(states: np.ndarray, grid) -> np.ndarray:
    """Each row of a (points, rows, amplitudes) stack evolved on its own, by one
    ``evolve`` per point and row."""
    out = states.copy()
    for rows, result in zip(out, grid):
        for row in rows:
            evolve(StateVector(row.size.bit_length() - 1, row), result)
    return out


def _signed_tim3():
    # negative couplings: S3's t = 0 and t > 0 take different forms
    return tim_chain(3, [0.7, -0.4, 0.5], -0.8)


STACK_GRIDS = {
    # z fields hoisted into a prefix template; steps repeat as gates
    "heis3-hoisted": (lambda: heisenberg_chain(3, [1.0, 0.7], 3.0), TrotterPlan.fixed_n(3),
                      GateSet.S1, np.linspace(0.0, 2.0, 9)),
    # the same grid mirrored: every point at t < 0
    "heis3-mirrored": (lambda: heisenberg_chain(3, [1.0, 0.7], 3.0), TrotterPlan.fixed_n(3),
                       GateSet.S2, -np.linspace(0.0, 2.0, 9)),
    # mixed step counts, folded and not, on both sides of t = 0
    "tim3-eps-mixed": (lambda: tim_chain(3, [1.0, 0.6, 0.9], 0.8), TrotterPlan.fixed_eps(0.05),
                       GateSet.S1, np.linspace(-2.5, 2.5, 21)),
    # step counts 1 to 18 repeated as gates, in no order, mirrored and not
    "tim7-eps-gates": (lambda: tim_chain(7, [0.9, 0.6, 0.8, 0.7, 1.1, 0.5, 0.9], 1.0),
                       TrotterPlan.fixed_eps(0.05), GateSet.S1,
                       [0.2, 0.9, 0.0, 0.6, -0.4, 1.2, 0.4, -1.0]),
    # second order on the trapped-ion set, folding from two steps on
    "heis3-eps2-s4": (lambda: heisenberg_chain(3, [1.0, 0.7], 3.0),
                      TrotterPlan.fixed_eps(0.1, order=2), GateSet.S4, np.linspace(0.0, 3.0, 13)),
    # S3 with negative couplings: t = 0 in one form, t > 0 in the other
    "tim3-s3-forms": (_signed_tim3, TrotterPlan.fixed_n(20), GateSet.S3,
                      np.linspace(0.0, 1.5, 7)),
}


class TestEvolveStack:
    """``evolve_stack`` against one ``evolve`` per point, byte for byte."""

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("name", STACK_GRIDS)
    def test_grid_matches_one_evolve_per_point(self, name, rows):
        # one row a point, and three, as a run's correlation rows
        build, plan, gate_set, times = STACK_GRIDS[name]
        h = build()
        grid = trotter.TrotterCompiler(h, plan, gate_set).grid(times)
        states = np.array([[random_state(h.n_qubits).amplitudes for _ in range(rows)]
                           for _ in times])
        want = _per_point(states, grid)
        assert np.array_equal(trotter.evolve_stack(states, grid), want)
        if name == "heis3-mirrored":
            assert all(grid.mirrored[1:])
        if name == "tim3-eps-mixed":
            assert len(set(grid.n_steps.tolist())) > 5
            assert set(grid.folds.tolist()) == {True, False}
        if name == "tim7-eps-gates":
            assert not any(grid.folds)
            assert len(set(grid.n_steps[~grid.mirrored].tolist())) == 5
        if name == "tim3-s3-forms":
            assert len(grid.step) == 2

    def test_fig2_plans(self):
        # fig2's three fidelity plans over its deltas: every point folds but
        # the one step of each fixed-eps plan at delta 0
        cfg = runner.figure_preset("fig2")
        h = runner.build_hamiltonian(cfg)
        deltas = np.linspace(0.0, cfg.t_max, cfg.points)
        psi0 = basis_state(2, cfg.initial).amplitudes
        folded = 0
        for o in cfg.observables:
            plan = runner._fidelity_plan(o, cfg.plan.order)
            grid = trotter.TrotterCompiler(h, plan, cfg.gate_set).grid(deltas)
            folded += sum(grid.folds)
            states = np.tile(psi0, (len(grid), 1, 1))
            want = _per_point(states, grid)
            assert np.array_equal(trotter.evolve_stack(states, grid), want)
        assert folded == 3 * len(deltas) - 2

    @pytest.mark.parametrize("order", [1, 2])
    def test_folded_rows_every_repeat_count(self, monkeypatch, order):
        # every row folds, with step counts 1, 2 and 3 (each its own order of
        # products in np.linalg.matrix_power) and more, mirrored and not
        monkeypatch.setattr(trotter, "_route_cost",
                            lambda n, blocks, reps: np.full(np.shape(reps), 0.5))
        h = _repeating_chain(3)
        times = [0.0, 0.05, -0.1, 0.2, 0.3, -0.6, 1.1, 2.3]
        grid = trotter.TrotterCompiler(h, TrotterPlan.fixed_eps(0.02, order=order)).grid(times)
        assert {1, 2, 3} < set(grid.n_steps.tolist())
        assert max(grid.n_steps) > 64
        states = np.array([[random_state(3).amplitudes] for _ in times])
        want = _per_point(states, grid)
        assert np.array_equal(trotter.evolve_stack(states, grid), want)

    def test_heis2_spectrum_series(self):
        # the criterion 8 series, evolved a stack at a time and read by one
        # product, against one evolve and one vdot of the halves per theta
        spec = SpectrumSpec(heisenberg_chain(2, [1.0], 0.0), "01", m=1024)
        compile_q = trotter.TrotterCompiler(spec.operator, TrotterPlan.fixed_eps(0.1))
        start = product_state(3, "01+")
        want = []
        for result in compile_q.grid([k * spec.spacing() for k in range(spec.m)]):
            state = start.copy()
            evolve(_half(state, 1), result)
            want.append(2 * np.vdot(state.amplitudes[0::2], state.amplitudes[1::2]))
        assert np.array_equal(unitary_expectation_series(spec, compile_q), want)

    def test_series_makes_no_result_or_circuit_per_theta(self, monkeypatch):
        # the criterion 8 series evolves each theta from its grid's arrays and
        # fills: no EvolutionResult and no Circuit is made for a theta
        spec = SpectrumSpec(heisenberg_chain(2, [1.0], 0.0), "01", m=1024)
        compile_q = trotter.TrotterCompiler(spec.operator, TrotterPlan.fixed_eps(0.1))
        made = _count_constructions(monkeypatch)
        unitary_expectation_series(spec, compile_q)
        assert made == {}

    def test_run_grid_makes_no_result_or_circuit_per_point(self, monkeypatch):
        # fig2's pass over its grid, after the budget check's one-point compile
        # of each column's plan, makes no EvolutionResult and no Circuit
        made, original = _count_constructions(monkeypatch), runner._run_grid

        def counting_run_grid(*args):
            made.clear()
            return original(*args)

        monkeypatch.setattr(runner, "_run_grid", counting_run_grid)
        text = runner.run(runner.figure_preset("fig2"))
        assert "n_steps_used" in text and made == {}

    @pytest.mark.parametrize("folded", [False, True], ids=["gates", "folded"])
    def test_strided_ancilla_halves(self, folded):
        # a stack of ancilla-one halves, each a stride-2 view of its register
        h = heisenberg_chain(3, [1.0, 0.7], 3.0)
        plan = TrotterPlan.fixed_n(64 if folded else 2)
        grid = trotter.TrotterCompiler(h, plan, GateSet.S2).grid(np.linspace(-1.0, 1.0, 6))
        assert all(grid.folds[:2] == folded)
        registers = np.array([random_state(4).amplitudes for _ in grid])
        want = registers.copy()
        for row, result in zip(want, grid):
            evolve(_half(StateVector(4, row), 1), result)
        halves = registers[:, None, 1::2]
        assert not halves.flags.c_contiguous
        trotter.evolve_stack(halves, grid)
        assert np.array_equal(registers, want)

    @pytest.mark.parametrize("name", ["tim3-eps-mixed", "heis3-mirrored"])
    def test_runs_of_rows_of_one_result(self, monkeypatch, name):
        # three rows a point, as a run's correlation rows: each row gets the
        # bits it gets alone, and a folded point builds its step matrix once
        build, plan, gate_set, times = STACK_GRIDS[name]
        h = build()
        grid = trotter.TrotterCompiler(h, plan, gate_set).grid(times)
        states = np.array([[random_state(h.n_qubits).amplitudes for _ in range(3)]
                           for _ in times])
        want = _per_point(states, grid)
        built, original = [], trotter._step_matrices
        monkeypatch.setattr(trotter, "_step_matrices",
                            lambda n, blocks, g: built.append(g) or original(n, blocks, g))
        assert np.array_equal(trotter.evolve_stack(states, grid), want)
        assert sum(built) == sum(grid.folds)

    def test_stacks_stay_within_a_chunk(self, monkeypatch):
        # N = 12: 16 thetas run in stacks of 8 = 2^15 / 2^12 states
        stacks, calls = [], []
        original_stack, original_apply = trotter.evolve_stack, trotter._apply_matrix

        def recording_stack(states, grid):
            stacks.append(states.shape)
            return original_stack(states, grid)

        def recording_apply(amps, n, targets, u):
            calls.append(amps.size)
            return original_apply(amps, n, targets, u)

        monkeypatch.setattr(observables, "evolve_stack", recording_stack)
        monkeypatch.setattr(trotter, "_apply_matrix", recording_apply)
        q = heisenberg_chain(12, [1.0] * 11, 0.0)
        spec = SpectrumSpec(q, "01" * 6, m=16)
        unitary_expectation_series(spec, trotter.TrotterCompiler(q, TrotterPlan.fixed_n(1)))
        assert stacks == [(8, 1, 2**12), (8, 1, 2**12)]
        assert calls and max(calls) <= statevector._CHUNK
        assert list(map(len, trotter.iter_stacks(range(20), 12))) == [8, 8, 4]
        assert list(map(len, trotter.iter_stacks(range(3), 20))) == [1, 1, 1]
        monkeypatch.setattr(trotter, "GRID_CHUNK", 4)
        assert list(map(len, trotter.iter_stacks(range(10), 2))) == [4, 4, 2]

    def test_rejects_another_register(self):
        grid = trotter.TrotterCompiler(heisenberg_chain(2, [1.0], 0.5),
                                       TrotterPlan.fixed_n(2)).grid([0.5, 1.0])
        with pytest.raises(InputError, match="evolution acts on 2 qubits, state has 3"):
            trotter.evolve_stack(np.zeros((2, 1, 8), dtype=complex), grid)


def _count_constructions(monkeypatch) -> dict:
    """Counts, by class name, each ``EvolutionResult`` and ``Circuit`` (lazy ones too) made."""
    made = {}
    for cls in (EvolutionResult, Circuit, compiler._LazyCircuit):
        def counting(self, *args, original=cls.__init__, name=cls.__name__, **kwargs):
            made[name] = made.get(name, 0) + 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return made


def _random_unitary(dim: int) -> np.ndarray:
    q, r = np.linalg.qr(RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("dim", [4, 8])
def test_batched_power_matches_matrix_power(dim):
    # one stack of 70 unitaries to the powers 1..70, and one stack to one power
    stack = np.array([_random_unitary(dim) for _ in range(70)])
    ns = list(range(1, 71))
    want = np.array([np.linalg.matrix_power(u, n) for u, n in zip(stack, ns)])
    assert np.array_equal(trotter._matrix_powers(stack, ns), want)
    cubes = np.array([np.linalg.matrix_power(u, 3) for u in stack[:5]])
    assert np.array_equal(trotter._matrix_powers(stack[:5], [3] * 5), cubes)


def _phase_by_loop(compile_at, t: float, n: int) -> float:
    """The global phase as the unrolled circuit adds it: the identity terms, then one
    addition per phased term and step."""
    phase = 0.0
    for coef in compile_at._identity:
        phase += -coef * t
    dt = t / (compile_at._sweeps * n)
    term_phases = []
    for coef, lowering in compile_at._terms:
        d = dt * coef
        form = lowering.at(d)
        ph = form.phase(d) if form.phase else 0.0
        if ph:
            term_phases.append(ph)
    for _ in range(n):
        for ph in term_phases:
            phase += ph
    return phase


@pytest.mark.parametrize("gate_set", [GateSet.S2, GateSet.S3], ids=lambda g: g.value)
@pytest.mark.parametrize("chunk", [None, 64])
def test_global_phase_adds_term_by_term(monkeypatch, gate_set, chunk):
    # up to 3000 steps, in one accumulation or (chunk 64) in many
    if chunk is not None:
        monkeypatch.setattr(trotter, "_CHUNK", chunk)
    h = PauliHamiltonian(3, list(_signed_tim3().terms) + [PauliString(0.4, "III")])
    for n in (1, 2, 7, 64, 1000, 3000):
        compile_at = trotter.TrotterCompiler(h, TrotterPlan.fixed_n(n, order=2), gate_set)
        assert compile_at._phased
        for t in (0.0, 0.7, 2.9, -1.3):
            got = compile_at(t).global_phase
            want = _phase_by_loop(compile_at, abs(t), n)
            assert got.hex() == (-want if t < 0 else want).hex(), (n, t)


PRICE_HAMILTONIANS = {
    "tim3": lambda: tim_chain(3, [0.7, 0.7, 0.7], 1.0),
    # z fields hoisted in front of the Trotter loop
    "heis4-hoisted": lambda: heisenberg_chain(4, [1.0, 0.8, 1.2], 0.5),
    # negative couplings: S3's one-CPhase form at t = 0, its two-CPhase form after
    "heis3-negative": lambda: heisenberg_chain(3, [-0.8, 0.6], 0.5),
}
PRICE_PLANS = [TrotterPlan.fixed_n(1), TrotterPlan.fixed_n(3), TrotterPlan.fixed_n(64, order=2),
               TrotterPlan.fixed_eps(0.01), TrotterPlan.fixed_eps(0.02, "linear", order=2)]


class TestPrice:
    """``GridEvolution.price`` and ``folds``, the one cost model of a compiled point."""

    @pytest.mark.parametrize("plan", PRICE_PLANS, ids=str)
    @pytest.mark.parametrize("gate_set", list(GateSet), ids=lambda g: g.value)
    @pytest.mark.parametrize("name", PRICE_HAMILTONIANS)
    def test_price_and_folds(self, name, gate_set, plan):
        times = np.linspace(-2.5, 2.5, 21)
        grid = trotter.TrotterCompiler(PRICE_HAMILTONIANS[name](), plan, gate_set).grid(times)
        # never cheaper at a larger |t|: the run budget prices a grid by its last point
        by_time = np.argsort(np.abs(times), kind="stable")
        assert np.all(np.diff(grid.price[by_time]) >= 0)
        for k, result in enumerate(grid):
            unrolled = result.prefix.n_gates + result.n_steps_used * result.step.n_gates
            assert grid.folds[k] == oracles.folds(result.step.n_qubits, len(result.step.blocks),
                                                  result.n_steps_used)
            if grid.folds[k]:
                assert grid.price[k] < unrolled
            else:
                assert grid.price[k] == unrolled

    def test_price_grids_fold_and_do_not(self):
        # the cases above hold points on both sides of the fold rule
        folded = set()
        for build in PRICE_HAMILTONIANS.values():
            for plan in PRICE_PLANS:
                grid = trotter.TrotterCompiler(build(), plan).grid(np.linspace(-2.5, 2.5, 21))
                folded |= set(grid.folds.tolist())
        assert folded == {True, False}

    def test_fixed_eps_price_crosses_the_fold_rule_without_a_drop(self):
        # a 6-qubit chain folds from 16 steps on (the crossover table): its
        # price runs up with the step count, then on as log2 of it
        grid = trotter.TrotterCompiler(heisenberg_chain(6, [1.0] * 5, 0.5),
                                       TrotterPlan.fixed_eps(0.05)).grid(np.linspace(0, 2, 41))
        assert not grid.folds[0] and grid.folds[-1]
        assert np.all(np.diff(grid.price) >= 0)


class TestGateBudget:
    def test_steps_times_gates_against_budget(self, monkeypatch):
        h = fig2_hamiltonian()
        gates = len(trotterize(h, 1.0, TrotterPlan.fixed_n(1)).step.ops)
        monkeypatch.setattr(trotter, "GATE_BUDGET", 10 * gates)
        assert trotterize(h, 1.0, TrotterPlan.fixed_n(10)).n_steps_used == 10
        for t in (1.0, -1.0):
            with pytest.raises(ResourceError, match=f"are {11 * gates} gate applications"):
                trotterize(h, t, TrotterPlan.fixed_n(11))
        with pytest.raises(ResourceError, match=f"are {11 * gates} gate applications"):
            trotter.TrotterCompiler(h, TrotterPlan.fixed_n(11)).grid([0.5, 1.0])

    def test_budget_far_above_the_largest_preset_plan(self, monkeypatch):
        counts = []
        original = trotter.TrotterCompiler.grid

        def counting(self, times):
            results = original(self, times)
            counts.extend(r.n_steps_used * len(r.step.ops) for r in results)
            return results

        monkeypatch.setattr(trotter.TrotterCompiler, "grid", counting)
        runner.run(runner.figure_preset("fig2"))
        # fig2's quadratic fixed-eps column at delta = 45
        assert max(counts) == 50_625
        assert GATE_BUDGET >= 100 * max(counts)


    @staticmethod
    def _planned(monkeypatch, cfg) -> int:
        # under a zero run budget every run is refused, naming its planned total
        monkeypatch.setattr(runner.gates, "GATE_BUDGET", 0)
        with pytest.raises(ResourceError, match="the run plans") as exc:
            runner.run(cfg)
        monkeypatch.undo()
        return int(str(exc.value).split()[3])

    def test_run_budget_far_above_every_preset_run(self, monkeypatch):
        planned = {fid: self._planned(monkeypatch, runner.figure_preset(fid))
                   for fid in runner.FIGURE_IDS}
        # each point priced by its route: fig2's folded steps cost less than the
        # 2,381,696 gates they stand for, and fig6a-c's 8-qubit steps, which
        # fold too, now plan the most
        assert planned["fig2"] == 2_119
        assert planned["fig6a"] == planned["fig6b"] == planned["fig6c"] == 17_484
        assert max(planned.values()) == 17_484
        assert GATE_BUDGET >= 40 * max(planned.values())

    # what a fixed-n evolution run plans beyond what it applies: nothing, but
    # at t = 0, where heis3-s3-corr-first's negative couplings (d = -0.0) take
    # S3's one-CPhase form, 36 gates shorter than the two-CPhase form of every
    # other point, in each of the point's six compiled rows (psi0, shared by
    # the scalar columns and the direct route, the ancilla's zero half, and
    # W psi0 and the one half for each of the two correlations).  Both forms'
    # 4 steps of 2 blocks fold on 3 qubits, so those gates cost r of each
    _SPARE_AT_T0 = {"heis3-s3-corr-first": 6 * 36 * trotter._route_cost(3, 2, 4)}

    @pytest.mark.parametrize("name", runner.FIGURE_IDS + tuple(RUN_CONFIGS))
    def test_run_budget_covers_the_evolutions_run(self, monkeypatch, name):
        # every evolution the run applies, counted as the budget prices it: a
        # compiled one by its grid's price, an exact row of a stack as one; the
        # figure presets and the golden run configs
        if name in runner.FIGURE_IDS:
            cfg = runner.figure_preset(name)
        else:
            cfg = runner.parse_config(RUN_CONFIGS[name])
        planned = self._planned(monkeypatch, cfg)
        counted = []
        original_stack, original_exact = trotter.evolve_stack, trotter.exact_stacks

        def counting_stack(states, grid):  # each of a point's rows
            counted.extend(states.shape[1] * grid.price)
            return original_stack(states, grid)

        def counting_exact(h, rows, times):
            for stack in original_exact(h, rows, times):  # (points, rows, amplitudes)
                counted.extend([1] * (stack.shape[0] * stack.shape[1]))
                yield stack

        # evolve is the one-row case of evolve_stack
        monkeypatch.setattr(trotter, "evolve_stack", counting_stack)
        monkeypatch.setattr(observables, "evolve_stack", counting_stack)
        monkeypatch.setattr(trotter, "exact_stacks", counting_exact)
        runner.run(cfg)
        assert planned >= math.fsum(counted) > 0
        if name in runner.FIGURE_IDS and cfg.run_kind == "evolution":
            assert cfg.plan.n_steps is not None
        if cfg.run_kind == "evolution" and cfg.plan.n_steps is not None:
            # a fixed-n plan costs the same at every point but t = 0 (above)
            assert planned == math.ceil(math.fsum(counted) + self._SPARE_AT_T0.get(name, 0))

    def test_run_budget_is_the_planned_total(self, monkeypatch):
        cfg = runner.figure_preset("fig4c")
        planned = self._planned(monkeypatch, cfg)
        # 61 points of one exact evolution and 5 steps of 5 gates in one block,
        # which fold: they cost r of their gates
        r = trotter._route_cost(2, 1, 5)
        assert 0.6 < r < 0.61
        assert planned == math.ceil(61 * (1 + 5 * 5 * r))
        monkeypatch.setattr(runner.gates, "GATE_BUDGET", planned)
        runner.run(cfg)
        monkeypatch.setattr(runner.gates, "GATE_BUDGET", planned - 1)
        with pytest.raises(ResourceError):
            runner.run(cfg)


def test_each_state_a_point_needs_is_evolved_once(monkeypatch):
    # heis5-eps2: scalar columns and a correlation on one psi0.  A point
    # evolves psi0 once under each evolution, for the scalar columns and the
    # direct routes alike: 1 + n_corr exact rows (psi0, then W psi0) and
    # 2 + 2 n_corr compiled ones (psi0, the ancilla's zero half, then W psi0
    # and the one half), each compiled row once
    cfg = runner.parse_config(RUN_CONFIGS["heis5-eps2"])
    n_corr = sum(o.kind == "correlation" for o in cfg.observables)
    assert n_corr == 1 and n_corr < len(cfg.observables)
    exact_rows, compiled_rows = [], []  # exact rows per point, compiled rows per stack
    original_stack, original_exact = trotter.evolve_stack, trotter.exact_stacks

    def counting_stack(states, grid):
        compiled_rows.append(states.shape[0] * states.shape[1])
        return original_stack(states, grid)

    def counting_exact(h, rows, times):
        for stack in original_exact(h, rows, times):  # (points, rows, amplitudes)
            exact_rows.extend([stack.shape[1]] * stack.shape[0])
            yield stack

    monkeypatch.setattr(trotter, "evolve_stack", counting_stack)
    monkeypatch.setattr(observables, "evolve_stack", counting_stack)
    monkeypatch.setattr(trotter, "exact_stacks", counting_exact)
    runner.run(cfg)
    assert sum(exact_rows) == cfg.points * (1 + n_corr)
    assert exact_rows == [1 + n_corr] * cfg.points
    assert sum(compiled_rows) == cfg.points * (2 + 2 * n_corr)


def _count_dense_matrix(monkeypatch) -> list:
    calls = []
    original = trotter.dense_matrix

    def counting(h):
        calls.append(h)
        return original(h)

    monkeypatch.setattr(trotter, "dense_matrix", counting)
    return calls


EVOLUTION_CONFIG = """
[model]
kind = heisenberg
n_qubits = 3
j = 1.0 0.7
bg = 0.4
[initial]
state = 010
[time]
max = 1.0
points = 6
[observables]
observable = magnetization 1
observable = probability 010
observable = correlation X Z 1 2
observable = correlation Y Y 3 3
"""

SPECTRUM_CONFIG = """
[model]
kind = tim
n_qubits = 2
h = 1
[initial]
state = 00
[observables]
observable = spectrum 16
"""


@pytest.mark.parametrize("cfg, diagonalizations", [
    pytest.param(lambda: runner.figure_preset("fig2"), 1, id="fig2"),
    # scalar columns and two exact correlation routes share one reference
    pytest.param(lambda: runner.parse_config(EVOLUTION_CONFIG), 1, id="evolution"),
    pytest.param(lambda: runner.parse_config(SPECTRUM_CONFIG), 0, id="spectrum"),
])
def test_one_diagonalization_per_run(monkeypatch, cfg, diagonalizations):
    calls = _count_dense_matrix(monkeypatch)
    runner.run(cfg())
    assert len(calls) == diagonalizations


def test_spectrum_runs_past_dense_limit(monkeypatch):
    # a spectrum has no exact reference, so 13 qubits need no dense matrix
    calls = _count_dense_matrix(monkeypatch)
    text = SPECTRUM_CONFIG.replace("n_qubits = 2", "n_qubits = 13")
    text = text.replace("state = 00", "state = " + "0" * 13).replace("spectrum 16", "spectrum 2")
    lines = runner.run(runner.parse_config(text)).splitlines()
    assert lines[lines.index("q,weight") + 1:]
    assert calls == []


def random_real_pauli_hamiltonian(n: int) -> PauliHamiltonian:
    terms = [
        PauliString(float(RNG.normal()), "".join(RNG.choice(list("IXYZ"), size=n)))
        for _ in range(n + 3)
    ]
    terms.append(PauliString(0.5, "Z" * n))  # never only identities
    return PauliHamiltonian(n, terms)


def stacked_rows(h, rows, times) -> np.ndarray:
    """``exact_stacks`` over ``times``, its stacks joined: (points, rows, amplitudes)."""
    return np.concatenate(list(exact_stacks(h, rows, times)))


def random_rows(n: int, count: int = 3) -> np.ndarray:
    return np.array([random_state(n).amplitudes for _ in range(count)])


def z_field(n: int, bg: float) -> list[PauliString]:
    return tuple(PauliString(bg / 2, "I" * k + "Z" + "I" * (n - k - 1)) for k in range(n))


# each against the dense oracle, with its size of block: many for the
# chains whose total S_z is conserved, one for TIM and the random ones
EXACT_HAMILTONIANS = {
    "random-real": lambda: PauliHamiltonian(4, [
        PauliString(float(RNG.normal()), "".join(RNG.choice(list("IXZ"), size=4)))
        for _ in range(7)] + [PauliString(0.5, "ZZZZ")]),
    "random-complex": lambda: PauliHamiltonian(4, random_real_pauli_hamiltonian(4).terms
                                               + (PauliString(0.3, "YXZI"),)),
    "heisenberg-field": lambda: heisenberg_chain(5, [1.0, 0.7, 1.3, 0.9], 0.5),
    "xy-field": lambda: PauliHamiltonian(4, xy_chain(4, 1.0, 0.6).terms + z_field(4, 0.8)),
    "hubbard2": lambda: runner.build_hamiltonian(
        runner.parse_config(RUN_CONFIGS["hubbard2-fidelity"])),
    "tim": lambda: tim_chain(3, [0.5, 1.0, 0.7], 1.0),
    "one-by-one": lambda: PauliHamiltonian(3, (PauliString(1.0, "ZZI"), PauliString(0.4, "IZZ"))
                                           + z_field(3, 0.6)),
    "identity-only": lambda: PauliHamiltonian(3, [PauliString(0.8, "III")]),
}


class TestExactStacks:
    """Rows evolved by one block diagonalization of H against the dense propagator."""

    TIMES = (0.0, 0.37, -1.3)

    @pytest.mark.parametrize("name", EXACT_HAMILTONIANS)
    def test_rows_match_dense_oracle(self, name):
        h = EXACT_HAMILTONIANS[name]()
        rows = random_rows(h.n_qubits)
        times = np.linspace(-2.0, 3.0, 7)
        got = stacked_rows(h, rows, times)
        assert got.shape == (len(times), *rows.shape)
        for t, evolved in zip(times, got):
            want = (exact_propagator(h, t) @ rows.T).T
            assert np.max(np.abs(evolved - want)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_plain_state(self, n):
        h = random_real_pauli_hamiltonian(n)
        psi = random_state(n).amplitudes
        for t, (evolved,) in zip(self.TIMES, stacked_rows(h, psi[None], self.TIMES)):
            assert np.max(np.abs(evolved - exact_propagator(h, t) @ psi)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_strided_rows_read_and_left_as_they_are(self, n):
        # rows over every other entry of a larger array, reversed, are read
        # through that array, which is not written
        h = random_real_pauli_hamiltonian(n)
        base = random_rows(n, 2)
        backing = np.zeros((2, 2 ** (n + 1)), dtype=complex)
        backing[:, ::-2] = base
        kept = backing.copy()
        for t, evolved in zip(self.TIMES, stacked_rows(h, backing[:, ::-2], self.TIMES)):
            assert np.max(np.abs(evolved - (exact_propagator(h, t) @ base.T).T)) <= 1e-12
        assert np.array_equal(backing, kept)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_made_a_stack_of_points_at_a_time(self, monkeypatch, n):
        # at most 8 points a stack, as a stack of states holds: the times cross stacks
        monkeypatch.setattr(trotter, "GRID_CHUNK", 8)
        h = random_real_pauli_hamiltonian(n)
        times = np.linspace(-1.0, 2.0, 20)
        rows = random_rows(n, 2)
        stacks = list(exact_stacks(h, rows, times))
        assert [len(s) for s in stacks] == [8, 8, 4]
        for t, evolved in zip(times, np.concatenate(stacks)):
            assert np.max(np.abs(evolved - (exact_propagator(h, t) @ rows.T).T)) <= 1e-12

    def test_non_finite_time_refused_when_reached(self, monkeypatch):
        # one point a stack: the points before the bad time are given first
        monkeypatch.setattr(trotter, "GRID_CHUNK", 1)
        stacks = exact_stacks(heisenberg_chain(2, 1.0, 0.5), random_rows(2),
                              [0.0, 0.5, float("nan")])
        next(stacks), next(stacks)
        with pytest.raises(InputError, match="finite time and phase, got t = nan"):
            next(stacks)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), 1e308],
                             ids=["nan", "inf", "-inf", "phase-overflows"])
    def test_non_finite_time_or_phase_rejected(self, t):
        with pytest.raises(InputError, match="finite time and phase"):
            list(exact_stacks(heisenberg_chain(2, 1.0, 0.5), random_rows(2), [0.0, t]))
        with pytest.raises(InputError, match="finite time and phase"):
            exact_propagator(heisenberg_chain(2, 1.0, 0.5), t)

    def test_narrow_register_rejected(self):
        with pytest.raises(InputError):
            exact_stacks(heisenberg_chain(3, 1.0), random_rows(2), [0.5])

    def test_wide_register_rejected(self):
        with pytest.raises(InputError, match="state has 3 qubits, H acts on 2"):
            exact_stacks(heisenberg_chain(2, 1.0), random_rows(3), [0.5])

    def test_heis9_blocks_are_the_total_sz_sectors(self):
        # the benchmark's chain: per-bond couplings and a uniform z field
        h = heisenberg_chain(9, [0.6, 1.4, 0.9, 1.2, 0.5, 1.1, 0.8, 1.3], 0.5)
        blocks = conserved_blocks(h)
        sizes = sorted(d for idx, _, _ in blocks for d in [idx.shape[1]] * len(idx))
        assert sizes == sorted(math.comb(9, k) for k in range(10))
        # each block is the states of one number of up spins
        for idx, _, _ in blocks:
            ups = ((idx[..., None] >> np.arange(9)) & 1).sum(axis=-1)
            assert np.all(ups == ups[:, :1])
        states = np.sort(np.concatenate([idx.ravel() for idx, _, _ in blocks]))
        assert np.array_equal(states, np.arange(2**9))

    @pytest.mark.parametrize("name, sizes", [("tim", [8]), ("identity-only", [1] * 8),
                                             ("one-by-one", [1] * 8)])
    def test_block_sizes(self, name, sizes):
        blocks = conserved_blocks(EXACT_HAMILTONIANS[name]())
        assert sorted(d for idx, _, _ in blocks for d in [idx.shape[1]] * len(idx)) == sizes

    def test_blocks_diagonalize_h(self):
        h = EXACT_HAMILTONIANS["xy-field"]()
        m = dense_matrix(h)
        for idx, w, v in conserved_blocks(h):
            for k in range(len(idx)):
                block = m[np.ix_(idx[k], idx[k])]
                assert np.max(np.abs(block - (v[k] * w[k]) @ v[k].conj().T)) <= 1e-12

    def test_memory_within_half_again_the_dense_h(self):
        # the dense complex H of ten qubits is 16 MiB; its blocks, diagonalized
        # once the dense H is let go, add little to it
        h = heisenberg_chain(10, 1.0, 0.5)
        rows = random_rows(10, 2)
        tracemalloc.start()
        try:
            for _ in exact_stacks(h, rows, np.linspace(0.0, np.pi, 11)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 16 * 4**10


class TestTrotterScaling:
    def fit_slope(self, order):
        h = fig2_hamiltonian()
        delta = 2.0
        exact = exact_propagator(h, delta)
        ns = [4, 8, 16, 32, 64]
        errs = []
        for n in ns:
            u = circuit_unitary(
                trotterize(h, delta, TrotterPlan.fixed_n(n, order=order)).circuit
            )
            errs.append(np.linalg.norm(u - exact, 2))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        return slope

    def test_order1_slope(self):
        assert self.fit_slope(1) == pytest.approx(-1.0, abs=0.15)

    def test_order2_slope(self):
        assert self.fit_slope(2) == pytest.approx(-2.0, abs=0.15)


class TestExactPropagator:
    def test_t_zero(self):
        h = heisenberg_chain(2, [1.0], 0.0)
        assert np.allclose(exact_propagator(h, 0.0), np.eye(4))

    def test_sigma_z_diagonal(self):
        h = PauliHamiltonian(1, [PauliString(1.0, "Z")])
        t = 0.62
        assert np.allclose(exact_propagator(h, t), np.diag([np.exp(-1j * t), np.exp(1j * t)]))

    def test_unitary(self):
        h = heisenberg_chain(3, [1.0, 0.4], 7.0)
        u = exact_propagator(h, 1.7)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-10


class TestDigitalFidelity:
    def test_commuting_is_exact(self):
        h = heisenberg_chain(2, [1.0], 0.0)
        f = digital_fidelity(basis_state(2, "01"), h, 2.5, TrotterPlan.fixed_n(1))
        assert f == pytest.approx(1.0, abs=1e-10)

    def test_fixed_n_degrades(self):
        h = fig2_hamiltonian()
        psi0 = basis_state(2, "00")
        f = digital_fidelity(psi0, h, 8.0, TrotterPlan.fixed_n(5))
        assert f < 0.9

    def test_quadratic_schedule_holds(self):
        h = fig2_hamiltonian()
        psi0 = basis_state(2, "00")
        f = digital_fidelity(psi0, h, 8.0, TrotterPlan.fixed_eps(0.1, "quadratic"))
        assert f >= 0.9


class TestCommutatorBound:
    def test_commuting_pair_zero(self):
        o1 = PauliHamiltonian(2, [PauliString(1.0, "XX")])
        o2 = PauliHamiltonian(2, [PauliString(1.0, "YY")])
        assert commutator_error_bound(o1, o2, 2.0, 5) == pytest.approx(0.0)

    def test_sigma_x_sigma_z(self):
        o1 = PauliHamiltonian(1, [PauliString(1.0, "X")])
        o2 = PauliHamiltonian(1, [PauliString(1.0, "Z")])
        d, n = 1.7, 4
        assert commutator_error_bound(o1, o2, d, n) == pytest.approx(d**2 / n)

    def test_doubling_n_halves(self):
        o1 = PauliHamiltonian(2, [PauliString(1.0, "XI"), PauliString(1.0, "IX")])
        o2 = PauliHamiltonian(2, [PauliString(1.0, "ZZ")])
        b1 = commutator_error_bound(o1, o2, 2.0, 5)
        b2 = commutator_error_bound(o1, o2, 2.0, 10)
        assert b2 == pytest.approx(b1 / 2)

    def test_register_limit(self):
        o = PauliHamiltonian(9, [PauliString(1.0, "X" * 9)])
        with pytest.raises(ResourceError):
            commutator_error_bound(o, o, 1.0, 1)


class TestPlanValidation:
    def test_requires_exactly_one_schedule(self):
        with pytest.raises(InputError):
            TrotterPlan(order=1)
        with pytest.raises(InputError):
            TrotterPlan(order=1, n_steps=5, eps=0.1)

    def test_bad_order(self):
        with pytest.raises(InputError):
            TrotterPlan(order=3, n_steps=5)

    def test_bad_growth(self):
        with pytest.raises(InputError):
            TrotterPlan.fixed_eps(0.1, growth="cubic")


# one limit for every dense 2^N x 2^N matrix; the matrix is never allocated
@pytest.mark.parametrize("dense", [
    pytest.param(dense_matrix, id="dense_matrix"),
    pytest.param(lambda h: circuit_unitary(Circuit(h.n_qubits, ())), id="circuit_unitary"),
    pytest.param(lambda h: exact_propagator(h, 1.0), id="exact_propagator"),
    pytest.param(lambda h: exact_stacks(h, np.zeros((1, 2**13)), [1.0]), id="exact_stacks"),
])
def test_dense_limit_at_13_qubits(dense):
    with pytest.raises(ResourceError):
        dense(heisenberg_chain(13, 1.0))
