"""Golden lock on the behaviour contract.

The files under ``tests/golden/`` were written by the program as it stood
before Trotter steps were compiled once and repeated: every figure preset's
CSV, the ``verify`` report, and the sha256 of ``dumps_circuit`` for a grid of
compiled evolutions (``circuits.json``).  The digests of the fixed Heisenberg
bond variants and of the controlled Trotter steps were added later, by the
program as it stood before its single-qubit rotation spellings were merged;
the two ``heisenberg2/3cnot`` digests were rewritten when that variant began
to emit its closed-form circuit instead of a numerical KAK synthesis.  A
change that moves any of them has changed what the program computes, not only
how fast.

The ``run-*.csv`` files hold the output of the configs in ``RUN_CONFIGS``:
run shapes the presets do not reach.  Three were written by the program as it
stood before the exact reference was diagonalized once per run (five qubits
under a fixed-eps second-order plan with scalar and correlation columns, a
fixed Heisenberg bond variant whose correlation columns run the Trotter plan,
and a Jordan-Wigner fidelity sweep).  ``heis3-s3-corr-first`` (a correlation
listed before the scalar columns, on S3 with negative couplings and hoisted
fields) and ``heis3-s4-fidelity1`` (a fidelity sweep of one column) were
written by the program as it stood before fidelity sweeps and evolution runs
shared one time-grid loop.  ``heis2-3cnot-corr`` (only a correlation, so the
bond variant's grid evolves no row beside the Trotter plan's) was written by
the program as it stood before a compiled time grid became one object.

The ``spectrum-*.csv`` files, and the ``spectrum-*.series`` expectation
series they were fitted to (one ``re,im`` line per theta), were written by the
program as it stood before the ancilla control of a spectrum run was applied
to an amplitude half instead of a controlled gate circuit, from the configs in
``SPECTRUM_CONFIGS``: the criterion 8 setting and non-commuting fixed-eps
plans, whose folded steps repeat up to thousands of times.
The plan line of ``spectrum-heis2.csv`` was rewritten when a spectrum run's
header began to name the fixed-eps plan that runs in place of a fixed_n one.

Preset values may move by float rounding (the folded step multiplies a dense
matrix, and a fused block the matrices of its gates, instead of applying the
gates one by one), so they are compared within 1e-9; every
comment line, the column names, the ``verify`` report and the compiled
circuits are compared byte for byte.  When the exact reference began to
diagonalize H by its conserved blocks, instead of whole, values moved on
fig6b (4 lines, by at most 6.4e-18), fig6c (2 lines, 2.9e-18), heis5-eps2
(1 line, 2.4e-17) and heis3-s3-corr-first (6 lines, 5.6e-17); fig2, fig4a,
fig4b, fig4c, fig6a and the other run configs kept their bytes.  When
``total_magnetization`` began to be read in one pass over |psi|^2, instead of
as a sum of site magnetizations, the ``mz_total`` columns of
heis3-s3-corr-first moved on 8 lines, by at most 8.3e-17 about their exact 0.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from spinsim import observables
from spinsim.cli import main as cli_main
from spinsim.compiler import GateSet, controlled_circuit, dumps_circuit, heisenberg2_circuit
from spinsim.pauli import PauliHamiltonian, PauliString, heisenberg_chain, tim_chain
from spinsim.runner import (
    FIGURE_IDS,
    build_hamiltonian,
    figure_preset,
    format_verify_report,
    parse_config,
    run,
    verify_suite,
)
from spinsim.trotter import TrotterPlan, trotterize
import oracles

GOLDEN = Path(__file__).resolve().parent / "golden"

RUN_CONFIGS = {
    # scalar columns and the exact correlation route share the exact reference
    "heis5-eps2": """
[model]
kind = heisenberg
n_qubits = 5
j = 1.0 0.8 1.2 0.9
bg = 0.6
[initial]
state = 01101
[evolution]
order = 2
schedule = fixed_eps
eps = 0.05
growth = quadratic
[time]
max = 2.0
points = 9
[observables]
observable = magnetization 2
observable = probability 01101
observable = correlation X Y 2 4
""",
    # the scalar columns run the 3-CNOT bond, the correlations the Trotter plan
    "heis2-3cnot": """
[model]
kind = heisenberg
n_qubits = 2
j = 1.0
[initial]
state = 0+
[evolution]
variant = 3cnot
steps = 3
[time]
max = 3.0
points = 13
[observables]
observable = magnetization 1
observable = correlation X X 1 2
""",
    # only a correlation: the 3-CNOT bond's grid evolves no rows beside the
    # Trotter plan's
    "heis2-3cnot-corr": """
[model]
kind = heisenberg
n_qubits = 2
j = 1.0
[initial]
state = 0+
[evolution]
variant = 3cnot
steps = 3
[time]
max = 3.0
points = 5
[observables]
observable = correlation X X 1 2
""",
    # four-qubit Jordan-Wigner terms
    "hubbard2-fidelity": """
[model]
kind = hubbard2
v = 1.0
u = 2.0
[initial]
state = 1001
[time]
max = 3.0
points = 11
[observables]
observable = fidelity fixed_n 3
observable = fidelity fixed_eps 0.1 linear
observable = fidelity fixed_eps 0.2 quadratic
""",
    # a correlation before the scalar columns, on S3 with negative couplings
    # (its two-CPhase form) and hoisted z fields
    "heis3-s3-corr-first": """
[model]
kind = heisenberg
n_qubits = 3
j = -0.8 0.6
bg = 0.5
[initial]
state = 1+0
[evolution]
gateset = S3
steps = 4
[time]
max = 2.0
points = 9
[observables]
observable = correlation Z X 1 3
observable = total_magnetization
observable = correlation Y Y 2 2
observable = probability 100
""",
    # a fidelity sweep with a single digital evolution
    "heis3-s4-fidelity1": """
[model]
kind = heisenberg
n_qubits = 3
j = 1.0 0.7
bg = 0.3
[initial]
state = 010
[evolution]
gateset = S4
order = 2
[time]
max = 2.5
points = 6
[observables]
observable = fidelity fixed_eps 0.05 linear
""",
}


SPECTRUM_CONFIGS = {
    # criterion 8: |01> splits evenly over the eigenvalues -3 and +1
    "heis2": """
[model]
kind = heisenberg
n_qubits = 2
j = 1.0
[initial]
state = 01
[observables]
observable = spectrum 1024
""",
    # fields that do not commute with the bonds, first order
    "tim3-eps": """
[model]
kind = tim
n_qubits = 3
h = 0.7
[initial]
state = 0+1
[evolution]
schedule = fixed_eps
eps = 0.05
[observables]
observable = spectrum 64
""",
    # the same model under a second-order plan on the exchange gate set
    "tim3-eps-order2-s2": """
[model]
kind = tim
n_qubits = 3
h = 0.7
[initial]
state = 0+1
[evolution]
gateset = S2
order = 2
schedule = fixed_eps
eps = 0.05
[observables]
observable = spectrum 32
""",
}


def _tilted_heisenberg3() -> PauliHamiltonian:
    # x and z fields on every site commute, summed, with the isotropic bonds,
    # so they are hoisted through the two-axis (Euler-angle) field route
    h = heisenberg_chain(3, [1.0, 0.7], 1.4)
    fields = [PauliString(0.9, "I" * (q - 1) + "X" + "I" * (3 - q)) for q in (1, 2, 3)]
    return PauliHamiltonian(3, list(h.terms) + fields)


CIRCUIT_HAMILTONIANS = {
    # z fields hoisted in front of the Trotter loop
    "heis3-hoisted": lambda: heisenberg_chain(3, [1.0, 0.7], 3.0),
    "heis3-tilted": _tilted_heisenberg3,
    # fields that do not commute with the bonds: no hoisting
    "tim2": lambda: tim_chain(2, [1.0, 0.6], 0.8),
    # every term commutes: one exact step, identity term as a global phase
    "commuting": lambda: PauliHamiltonian(
        2,
        [PauliString(0.4, "II"), PauliString(1.0, "XX"),
         PauliString(0.5, "YY"), PauliString(-0.3, "ZZ")],
    ),
}


def circuit_cases():
    """(case id, Hamiltonian, t, plan, gate set) over the compiled-circuit grid."""
    for name, build in CIRCUIT_HAMILTONIANS.items():
        for gate_set in GateSet:
            for order in (1, 2):
                for t in (0.7, -0.7):
                    yield (
                        f"{name}/{gate_set.value}/order{order}/t{t:+}",
                        build(), t, TrotterPlan.fixed_n(3, order=order), gate_set,
                    )


def fixed_circuit_cases():
    """(case id, circuit) for circuits built outside the Trotter grid.

    The fixed Heisenberg bond variants, and the controlled expansion of one
    Trotter step (S2 adds the exchange gate, controlled through pair frames).
    """
    for variant in ("6cnot", "3cnot", "3uxy", "s4"):
        for delta in (0.7, -1.3):
            yield f"heisenberg2/{variant}/d{delta:+}", heisenberg2_circuit(delta, (1, 2), variant)
    for gate_set in (GateSet.S1, GateSet.S2):
        step = trotterize(_tilted_heisenberg3(), 0.7, TrotterPlan.fixed_n(1), gate_set).circuit
        yield f"controlled/heis3-tilted/{gate_set.value}", controlled_circuit(step, 4)


def digest(circuit) -> str:
    return hashlib.sha256(dumps_circuit(circuit).encode()).hexdigest()


def circuit_digest(h, t, plan, gate_set) -> str:
    return digest(trotterize(h, t, plan, gate_set).circuit)


def _split(csv: str):
    lines = csv.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    values = np.array([[float(x) for x in ln.split(",")] for ln in body[1:]])
    return comments, body[0], values


@pytest.fixture(scope="module")
def preset_output():
    return {fid: run(figure_preset(fid)) for fid in FIGURE_IDS}


def _assert_matches_golden(csv: str, name: str):
    comments, columns, values = _split(csv)
    gold_comments, gold_columns, gold_values = _split((GOLDEN / f"{name}.csv").read_text())
    assert comments == gold_comments
    assert any(ln.startswith("# n_steps_used") for ln in comments)
    assert columns == gold_columns
    assert values.shape == gold_values.shape
    assert np.max(np.abs(values - gold_values)) <= 1e-9


@pytest.mark.parametrize("fid", FIGURE_IDS)
def test_preset_matches_golden(fid, preset_output):
    _assert_matches_golden(preset_output[fid], fid)


@pytest.mark.parametrize("name", RUN_CONFIGS)
def test_run_config_matches_golden(name):
    _assert_matches_golden(run(parse_config(RUN_CONFIGS[name])), f"run-{name}")


def run_spectrum(text: str, monkeypatch) -> tuple[str, np.ndarray]:
    """The CSV of a spectrum config and the expectation series it was fitted to."""
    series = []
    fit = observables.spectrum_from_series
    monkeypatch.setattr(
        observables, "spectrum_from_series", lambda s, d: series.append(s) or fit(s, d)
    )
    csv = run(parse_config(text))
    return csv, series[0]


def _read_series(text: str) -> np.ndarray:
    return np.array([complex(*map(float, ln.split(","))) for ln in text.splitlines()])


@pytest.mark.parametrize("name", SPECTRUM_CONFIGS)
def test_spectrum_config_matches_golden(name, monkeypatch):
    # a spectrum CSV has no n_steps_used line, so this does not go through
    # _assert_matches_golden
    csv, series = run_spectrum(SPECTRUM_CONFIGS[name], monkeypatch)
    comments, columns, values = _split(csv)
    gold = _split((GOLDEN / f"spectrum-{name}.csv").read_text())
    assert comments == gold[0]
    assert any(ln.startswith("# theta grid") for ln in comments)
    assert columns == gold[1] == "q,weight"
    gold_series = _read_series((GOLDEN / f"spectrum-{name}.series").read_text())
    assert series.shape == gold_series.shape
    assert np.max(np.abs(series - gold_series)) <= 1e-9
    # the goldens were fitted by a golden-section search on |DTFT(q)|, which
    # is flat to float precision within ~1e-9 of its peak and located the
    # lines only that well; the fit's Newton steps now move them by up to 5e-9
    assert values.shape == gold[2].shape
    assert np.max(np.abs(values - gold[2])) <= 1e-8


@pytest.mark.parametrize("name", ["tim3-eps", "tim3-eps-order2-s2"])
def test_spectrum_fit_is_stable_under_rounding_noise(name):
    # Newton's method on d|S|^2/dq locates each line to rounding: noise of
    # 1e-15 on a golden series moves no fitted q by more than 1e-12
    series = _read_series((GOLDEN / f"spectrum-{name}.series").read_text())
    cfg = parse_config(SPECTRUM_CONFIGS[name])
    dtheta = observables.SpectrumSpec(build_hamiltonian(cfg), cfg.initial, m=len(series)).spacing()
    clean = np.array(observables.spectrum_from_series(series, dtheta))
    rng = np.random.default_rng(15)
    for _ in range(3):
        noise = np.array([1.0, 1j]) @ rng.normal(size=(2, len(series)))
        noisy = np.array(observables.spectrum_from_series(series + 1e-15 * noise, dtheta))
        assert noisy.shape == clean.shape
        assert np.max(np.abs(noisy[:, 0] - clean[:, 0])) <= 1e-12


def _fit_cases(monkeypatch):
    """(series, dtheta) pairs: the golden series, the criterion 8 series as a
    run makes it, and seeded random series of up to five lines, every third noisy."""
    cases = []
    for name, text in SPECTRUM_CONFIGS.items():
        series = _read_series((GOLDEN / f"spectrum-{name}.series").read_text())
        cfg = parse_config(text)
        spec = observables.SpectrumSpec(build_hamiltonian(cfg), cfg.initial, m=len(series))
        cases.append((series, spec.spacing()))
    cases.append((run_spectrum(SPECTRUM_CONFIGS["heis2"], monkeypatch)[1], cases[0][1]))
    rng = np.random.default_rng(25)
    for k in range(120):
        m, dtheta, lines = 2 ** rng.integers(4, 11), rng.uniform(0.05, 0.5), rng.integers(1, 6)
        qs = rng.uniform(-np.pi / dtheta, np.pi / dtheta, lines)
        amps = rng.uniform(0.01, 1, lines) * np.exp(1j * rng.uniform(0, 2 * np.pi, lines))
        series = np.exp(-1j * np.outer(np.arange(m) * dtheta, qs)) @ amps
        if k % 3 == 0:
            series = series + rng.uniform(1e-6, 1e-2) * (np.array([1, 1j]) @ rng.normal(size=(2, m)))
        cases.append((series, dtheta))
    return cases


def test_spectrum_fit_matches_full_round_oracle_bit_for_bit(monkeypatch):
    # stopping at the fixed point and ranking the start samples by recurrence
    # change how much the fit computes, not one bit of what it returns
    for series, dtheta in _fit_cases(monkeypatch):
        got = observables.spectrum_from_series(series, dtheta)
        want = oracles.spectrum_from_series(series, dtheta)
        assert [tuple(map(float.hex, p)) for p in got] == [tuple(map(float.hex, p)) for p in want]


def test_spectrum_fit_stops_at_its_fixed_point(monkeypatch):
    series = run_spectrum(SPECTRUM_CONFIGS["heis2"], monkeypatch)[1]
    cfg = parse_config(SPECTRUM_CONFIGS["heis2"])
    dtheta = observables.SpectrumSpec(build_hamiltonian(cfg), cfg.initial, m=len(series)).spacing()
    counts = {}
    for module in (observables, oracles):
        refine = module._refine_peak

        def counted(*args, module=module, refine=refine):
            counts[module] = counts.get(module, 0) + 1
            return refine(*args)

        monkeypatch.setattr(module, "_refine_peak", counted)
        module.spectrum_from_series(series, dtheta)
    # two extractions, then two lines per pass: four rounds of two passes
    # against two rounds of two passes and a third round's unchanged pass
    assert counts == {oracles: 18, observables: 12}


@pytest.mark.parametrize("fid", FIGURE_IDS)
def test_preset_is_deterministic(fid, preset_output):
    assert run(figure_preset(fid)) == preset_output[fid]


def test_verify_report_matches_golden():
    report = format_verify_report(verify_suite()) + "\n"
    assert report == (GOLDEN / "verify.txt").read_text()


def test_unrolled_circuits_match_golden():
    golden = json.loads((GOLDEN / "circuits.json").read_text())
    digests = {case: circuit_digest(*args) for case, *args in circuit_cases()}
    digests.update((case, digest(c)) for case, c in fixed_circuit_cases())
    assert digests == golden


def test_dump_heis2_3cnot_has_three_cnots(tmp_path, capsys):
    cfgfile = tmp_path / "heis2-3cnot.cfg"
    cfgfile.write_text(RUN_CONFIGS["heis2-3cnot"])
    assert cli_main(["dump-circuit", str(cfgfile)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(ln.startswith("CNOT()") for ln in lines) == 3
