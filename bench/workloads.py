"""The four benchmark workloads: inputs made from a seed, one pass, and the
checks on a pass's output.

Every call into spinsim goes through a module attribute (``runner.run``,
``trotter.trotterize``, ...) so that the tracer in ``tracing.py`` can wrap it.
A check returns a list of failure messages; an empty list means the pass is
correct.  Checks use tolerances, not byte identity, so a legitimate
reordering of floating-point operations still passes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from spinsim import compiler, observables, pauli, runner, statevector, trotter

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

@dataclass
class Prepared:
    """A workload after set-up: ``run`` does one pass, ``check`` judges it."""

    run: Callable[[], object]
    check: Callable[[object], list[str]]
    points: int  # time (or delta) points evaluated per pass
    parse_s: float
    build_h_s: float
    inputs: dict


def _csv_table(text: str) -> tuple[list[str], list[str], np.ndarray]:
    """Split runner CSV into comment lines, column names and a float table."""
    lines = text.splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    columns = body[0].split(",")
    table = np.array([[float(x) for x in ln.split(",")] for ln in body[1:]])
    return header, columns, table.reshape(len(body) - 1, len(columns))


def _prepare_runner(cfg_source: Callable[[], runner.ExperimentConfig], check, inputs) -> Prepared:
    t0 = perf_counter()
    cfg = cfg_source()
    t1 = perf_counter()
    h = runner.build_hamiltonian(cfg)
    t2 = perf_counter()
    return Prepared(
        run=lambda: runner.run(cfg),
        check=lambda out: check(cfg, h, out),
        points=cfg.points,
        parse_s=t1 - t0,
        build_h_s=t2 - t1,
        inputs=inputs,
    )


# --- fig2: the paper's fidelity sweep, unchanged ------------------------------

def _check_fig2(cfg, h, csv: str) -> list[str]:
    errors: list[str] = []
    header, columns, table = _csv_table(csv)
    _, ref_columns, ref = _csv_table((REFERENCE_DIR / "fig2.csv").read_text())
    if columns != ref_columns or table.shape != ref.shape:
        return [f"fig2: table {columns} {table.shape} differs from reference {ref.shape}"]
    fid = table[:, 1:]
    if not np.all(np.isfinite(fid)) or fid.min() < 0.0 or fid.max() > 1.0 + 1e-9:
        errors.append("fig2: a fidelity lies outside [0, 1+1e-9]")
    at_zero = table[table[:, 0] == 0.0, 1:]
    if at_zero.size == 0 or np.max(np.abs(at_zero - 1.0)) > 1e-9:
        errors.append("fig2: fidelity at delta=0 is not 1")
    diff = float(np.max(np.abs(table - ref)))
    if diff > 1e-9:
        errors.append(f"fig2: values differ from the stored reference by {diff:.3e}")

    # step counts: fixed_n is constant; fixed_eps follows steps_for_phase of
    # delta = (largest coupling) * t, as the schedule defines it
    scale = max(abs(term.coef.real) for term in h.terms if term.letters.strip("I"))
    steps = {
        ln.split("[", 1)[1].split("]", 1)[0]: [int(x) for x in ln.split(":", 1)[1].split()]
        for ln in header
        if ln.startswith("# n_steps_used[")
    }
    for name, obs in zip(columns[1:], cfg.observables):
        if obs.args[0] == "fixed_n":
            want = [obs.args[1]] * len(table)
        else:
            _, eps, growth = obs.args
            want = [trotter.steps_for_phase(scale * d, eps, growth) for d in table[:, 0]]
        if steps.get(name) != want:
            errors.append(f"fig2: n_steps_used[{name}] does not match steps_for_phase")
    return errors


def fig2(seed: int) -> Prepared:
    # a fixed paper preset: the seed is ignored
    return _prepare_runner(lambda: runner.figure_preset("fig2"), _check_fig2, {"preset": "fig2"})


# --- heis9-exact: exact reference at N=9 through the runner ----------------------

HEIS9_N = 9


def _seeded_chain(seed: int, n: int) -> tuple[list[float], str]:
    """Per-bond J in U(0.5, 1.5) and an initial bitstring, drawn from the seed."""
    rng = random.Random(seed)
    couplings = [rng.uniform(0.5, 1.5) for _ in range(n - 1)]
    bits = "".join(rng.choice("01") for _ in range(n))
    return couplings, bits


def heis9_config_text(seed: int) -> str:
    couplings, bits = _seeded_chain(seed, HEIS9_N)
    # couplings are written per bond: the scalar form `j = 1` is rejected for
    # n_qubits >= 3 by the current parser
    return "\n".join([
        "[model]",
        "kind = heisenberg",
        f"n_qubits = {HEIS9_N}",
        "j = " + " ".join(f"{j:.17g}" for j in couplings),
        "bg = 0.5",
        "[initial]",
        f"state = {bits}",
        "[evolution]",
        "gateset = S1",
        "schedule = fixed_n",
        "steps = 5",
        "[time]",
        f"max = {math.pi!r}",
        "points = 11",
        "[observables]",
        "observable = magnetization 1",
        "observable = total_magnetization",
        "observable = correlation X X 1 1",
        "",
    ])


def _check_heis9(cfg, h, csv: str) -> list[str]:
    errors: list[str] = []
    _, columns, table = _csv_table(csv)
    col = {name: k for k, name in enumerate(columns)}
    if len(table) != cfg.points or not np.all(np.isfinite(table)):
        return [f"heis9-exact: expected {cfg.points} finite rows"]
    # the uniform z field and the isotropic bonds conserve total S_z, and the
    # initial state is a basis state, so exact mz_total is constant
    mz_total = table[:, col["mz_total"]]
    expected = 0.5 * (cfg.initial.count("0") - cfg.initial.count("1"))
    if np.max(np.abs(mz_total - expected)) > 1e-9:
        errors.append("heis9-exact: exact mz_total is not conserved")
    # <X1(0) X1> = 1 on every route, i.e. 0.25 after the spin scaling
    for route in ("qs", "digital", "exact"):
        re = table[0, col[f"cxx_1_1_re_{route}"]]
        im = table[0, col[f"cxx_1_1_im_{route}"]]
        if abs(re - 0.25) > 1e-9 or abs(im) > 1e-9:
            errors.append(f"heis9-exact: cxx_1_1 {route} at t=0 is {re}+{im}i, not 0.25")
    return errors


def heis9_exact(seed: int) -> Prepared:
    text = heis9_config_text(seed)
    return _prepare_runner(lambda: runner.parse_config(text), _check_heis9, {"config": text})


# --- gatesets-n20: the S1-S4 comparison at N=20 through the library API ----------

GATESETS_N = 20


def _check_gatesets(results: dict) -> list[str]:
    errors: list[str] = []
    states = {}
    for name, (state, mz) in results.items():
        if abs(state.norm() - 1.0) > 1e-10:
            errors.append(f"gatesets-n20: {name} state norm is {state.norm()!r}")
        if not all(math.isfinite(m) and abs(m) <= 0.5 + 1e-12 for m in mz):
            errors.append(f"gatesets-n20: {name} magnetization out of range")
        states[name] = state.amplitudes
    # S1-S4 spell the same first-order product formula exactly, so the final
    # states agree up to a global phase
    names = sorted(states)
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            overlap = abs(np.vdot(states[names[a]], states[names[b]]))
            if overlap < 1.0 - 1e-10:
                errors.append(
                    f"gatesets-n20: {names[a]} and {names[b]} states differ, |overlap| = {overlap!r}"
                )
    if len(names) != len(compiler.GateSet):
        errors.append(f"gatesets-n20: ran {names}, expected every gate set")
    return errors


def gatesets_n20(seed: int) -> Prepared:
    couplings, bits = _seeded_chain(seed, GATESETS_N)
    t0 = perf_counter()
    h = pauli.heisenberg_chain(GATESETS_N, couplings, 0.5)
    t1 = perf_counter()
    plan = trotter.TrotterPlan.fixed_n(1)

    def run() -> dict:
        results = {}
        for gate_set in compiler.GateSet:
            circuit = trotter.trotterize(h, 1.0, plan, gate_set).circuit
            state = compiler.run_circuit(statevector.product_state(GATESETS_N, bits), circuit)
            mz = [observables.magnetization(state, q) for q in range(1, GATESETS_N + 1)]
            results[gate_set.value] = (state, mz)
        return results

    return Prepared(
        run=run,
        check=_check_gatesets,
        points=1,
        parse_s=0.0,
        build_h_s=t1 - t0,
        inputs={"couplings": couplings, "initial": bits, "bg": 0.5, "t": 1.0},
    )


# --- spectrum-heis2: criterion 8's spectrum extraction through the runner ----------

SPECTRUM_CONFIG = """\
[model]
kind = heisenberg
n_qubits = 2
j = 1.0
bg = 0.0
[initial]
state = 01
[observables]
observable = spectrum 1024
"""


def _check_spectrum(cfg, h, csv: str) -> list[str]:
    header, columns, table = _csv_table(csv)
    if columns != ["q", "weight"]:
        return [f"spectrum-heis2: unexpected columns {columns}"]
    m = cfg.observables[0].args[0]
    # the theta grid's Nyquist range covers 1.5x the sum of |coefficients|
    dtheta = math.pi / (1.5 * sum(abs(term.coef.real) for term in h.terms))
    grid = [ln for ln in header if ln.startswith("# theta grid:")]
    if grid != [f"# theta grid: m={m} dtheta={dtheta:.12g}"]:
        return [f"spectrum-heis2: theta grid header {grid} does not match m={m}"]
    bin_width = 2 * math.pi / (m * dtheta)
    if len(table) != 2:
        return [f"spectrum-heis2: expected 2 peaks, got {len(table)}"]
    errors = []
    # H = XX + YY + ZZ has the singlet at -3 and the triplet at +1, and |01>
    # has weight 1/2 on each
    for (q, w), q_true in zip(table, (-3.0, 1.0)):
        if abs(q - q_true) > bin_width:
            errors.append(f"spectrum-heis2: peak at {q} is not within a bin of {q_true}")
        if abs(w - 0.5) > 0.02:
            errors.append(f"spectrum-heis2: peak at {q} has weight {w}, not 0.5+-0.02")
    return errors


def spectrum_heis2(seed: int) -> Prepared:
    # a fixed paper setting: the seed is ignored
    return _prepare_runner(
        lambda: runner.parse_config(SPECTRUM_CONFIG), _check_spectrum, {"config": SPECTRUM_CONFIG}
    )


PREPARE = {
    "fig2": fig2,
    "heis9-exact": heis9_exact,
    "gatesets-n20": gatesets_n20,
    "spectrum-heis2": spectrum_heis2,
}
