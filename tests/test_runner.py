import time
from dataclasses import replace

import numpy as np
import pytest

from spinsim import compiler, observables
from spinsim.cli import main as cli_main
from spinsim.compiler import GateSet, loads_circuit
from spinsim.errors import InputError, ResourceError
from spinsim.gates import GATE_BUDGET
from spinsim.pauli import heisenberg_chain, parse_hamiltonian, tim_chain
from spinsim.runner import (
    ExperimentConfig,
    ObservableSpec,
    build_hamiltonian,
    figure_preset,
    format_verify_report,
    parse_config,
    run,
    verify_suite,
)
from spinsim.trotter import TrotterPlan

SAMPLE_CONFIG = """
# three-spin chain in a strong field
[model]
kind = heisenberg
n_qubits = 3
j = 1.0 1.0
bg = 20.0

[initial]
state = 100

[evolution]
gateset = S1
order = 1
schedule = fixed_n
steps = 5

[time]
max = 1.0
points = 5

[observables]
observable = probability 100
observable = magnetization 1
"""

SPECTRUM_CONFIG = (
    "[model]\nkind = heisenberg\nn_qubits = 2\n[observables]\nobservable = spectrum 16\n"
)


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, rows


class TestParseConfig:
    def test_sample(self):
        cfg = parse_config(SAMPLE_CONFIG)
        assert cfg.model == "heisenberg"
        assert cfg.n_qubits == 3
        assert cfg.couplings["j"] == [1.0, 1.0]
        assert cfg.couplings["bg"] == 20.0
        assert cfg.initial == "100"
        assert cfg.plan.n_steps == 5
        assert cfg.observables[0] == ObservableSpec("probability", ("100",))
        assert cfg.observables[1] == ObservableSpec("magnetization", (1,))

    def test_tim_bg_shorthand(self):
        cfg = parse_config(
            "[model]\nkind = tim\nn_qubits = 2\nbg = 2.0\njzz = 1.0\n"
            "[observables]\nobservable = total_magnetization\n"
        )
        assert cfg.couplings["h"] == [1.0, 1.0]

    def test_unknown_model(self):
        with pytest.raises(InputError, match="model.kind"):
            parse_config("[model]\nkind = pottsmodel\nn_qubits = 2\n")

    def test_duplicate_key(self):
        with pytest.raises(InputError, match="more than once"):
            parse_config("[model]\nkind = tim\nn_qubits = 2\nn_qubits = 3\n")

    @pytest.mark.parametrize("text, where", [
        ("[model]\nkind = tim\nn_qubits = 2\nh = 1\n[evolution]\nstep = 7\n", "line 6: evolution.step"),
        ("[model]\nkind = heisenberg\nn_qubits = 2\njzz = 2\n", "line 4: model.jzz"),
        ("[model]\nkind = hubbard2\nn_qubits = 4\n", "line 3: model.n_qubits"),
        ("[model]\nkind = tim\nn_qubits = 2\nh = 1\n[evolutoin]\n", "line 5: unknown section"),
        ("[model]\nkind = tim\nn_qubits = 2\nbg = 2\nh = 1\n", "line 4: model.bg"),
        ("[model]\nkind = tim\nn_qubits = 2\nh = 1\n[evolution]\n"
         "schedule = fixed_eps\nsteps = 3\n", "line 7: evolution.steps"),
        ("[model]\nkind = tim\nn_qubits = 2\nh = 1\n[evolution]\n"
         "steps = 3\ngrowth = linear\n", "line 7: evolution.growth"),
    ])
    def test_unread_key_or_section_names_its_line(self, text, where):
        with pytest.raises(InputError, match=where):
            parse_config(text)

    @pytest.mark.parametrize("evolution, where", [
        ("steps = 3", "line 8: evolution.steps"),
        ("schedule = fixed_eps", "line 8: evolution.schedule"),
        ("eps = 0.2", "line 8: evolution.eps"),
        ("growth = linear", "line 8: evolution.growth"),
    ])
    def test_fidelity_config_reads_no_schedule(self, evolution, where):
        # each fidelity column's schedule comes from its observable
        with pytest.raises(InputError, match=where):
            parse_config(_fidelity("fidelity fixed_n 3") + f"[evolution]\n{evolution}\n")

    @pytest.mark.parametrize("text", [
        pytest.param(SPECTRUM_CONFIG, id="spectrum"),
        pytest.param(SPECTRUM_CONFIG.replace("spectrum 16", "fidelity fixed_n 3"), id="fidelity"),
    ])
    def test_variant_outside_time_evolution_refused(self, text):
        with pytest.raises(InputError, match="evolution.variant: .* only to time evolution"):
            parse_config(text + "[evolution]\nvariant = 3cnot\n")

    def test_fixed_eps_schedule(self):
        cfg = parse_config(
            "[model]\nkind = xy\nn_qubits = 2\njxx = 1\njyy = 1\n"
            "[evolution]\nschedule = fixed_eps\neps = 0.05\ngrowth = linear\n"
            "[observables]\nobservable = magnetization 1\n"
        )
        assert cfg.plan.eps == 0.05
        assert cfg.plan.growth == "linear"


def _model(body: str) -> str:
    return f"[model]\n{body}\n[observables]\nobservable = magnetization 1\n"


class TestScalarCouplings:
    """A single coupling or field value applies to every bond or site."""

    @staticmethod
    def _terms(h):
        return {t.letters: t.coef for t in h.terms}

    def test_heisenberg_scalar_j(self):
        cfg = parse_config(_model("kind = heisenberg\nn_qubits = 4\nj = 0.5"))
        assert cfg.couplings["j"] == [0.5, 0.5, 0.5]
        assert self._terms(build_hamiltonian(cfg)) == self._terms(heisenberg_chain(4, 0.5))

    def test_heisenberg_default_j(self):
        cfg = parse_config(_model("kind = heisenberg\nn_qubits = 3"))
        assert cfg.couplings["j"] == [1.0, 1.0]
        header, rows = parse_csv(run(ExperimentConfig(**{**cfg.__dict__, "points": 3})))
        assert header == ["t", "mz1", "mz1_qs"]

    def test_tim_scalar_h(self):
        cfg = parse_config(_model("kind = tim\nn_qubits = 3\nh = 1"))
        assert cfg.couplings["h"] == [1.0, 1.0, 1.0]
        assert self._terms(build_hamiltonian(cfg)) == self._terms(tim_chain(3, 1.0, 1.0))

    def test_per_bond_list_still_checked(self):
        cfg = parse_config(_model("kind = heisenberg\nn_qubits = 3\nj = 1 2 3"))
        with pytest.raises(InputError, match="needs 2 entries"):
            build_hamiltonian(cfg)


def _fidelity(obs: str) -> str:
    return f"[model]\nkind = tim\nn_qubits = 2\nh = 1\n[observables]\nobservable = {obs}\n"


# each input is malformed; parsing it must raise InputError and nothing else
MALFORMED = [
    pytest.param(parse_config, _model("kind = tim\nn_qubits = three\nh = 1"), id="n_qubits-word"),
    pytest.param(parse_config, _model("kind = tim\nn_qubits = 2.5\nh = 1"), id="n_qubits-float"),
    pytest.param(parse_config, _model("kind = tim\nn_qubits = 2\nbg = strong"), id="bg-word"),
    pytest.param(parse_config, _model("kind = heisenberg\nn_qubits = 3\nj = 1 x"), id="j-word"),
    pytest.param(parse_config, _model("kind = xyz\nn_qubits = 2\njzz = z"), id="jzz-word"),
    pytest.param(parse_config, _model("kind = hubbard2\nv = abc"), id="v-word"),
    pytest.param(parse_config, _model("kind = heisenberg\nn_qubits = 3\nj = nan nan"), id="j-nan"),
    pytest.param(parse_config, _model("kind = tim\nn_qubits = 2\nh = 1 -inf"), id="h-inf"),
    pytest.param(parse_config, _model("kind = tim\nn_qubits = 2\nh = 1\njzz = 1e999"), id="jzz-overflow"),
    pytest.param(parse_config, _model("kind = tim\nn_qubits = 2\nh = 1\n[time]\nmax = inf"), id="time-inf"),
    pytest.param(parse_config, _model("kind = tim\nn_qubits = 2\nh = 1\n[time]\npoints = lots"), id="points-word"),
    pytest.param(parse_config, _model("kind = tim\nn_qubits = 2\nh = 1\n[evolution]\norder = two"), id="order-word"),
    pytest.param(parse_config, _model("kind = tim\nn_qubits = 2\nh = 1\n[evolution]\nsteps = 5.5"), id="steps-float"),
    pytest.param(
        parse_config,
        _model("kind = tim\nn_qubits = 2\nh = 1\n[evolution]\nschedule = fixed_eps\neps = nan"),
        id="eps-nan",
    ),
    pytest.param(parse_config, "[model\nkind = tim\n", id="unclosed-section"),
    pytest.param(parse_config, _fidelity("fidelity fixed_n"), id="fidelity-no-steps"),
    pytest.param(parse_config, _fidelity("fidelity fixed_n five"), id="fidelity-steps-word"),
    pytest.param(parse_config, _fidelity("fidelity fixed_eps"), id="fidelity-no-eps"),
    pytest.param(parse_config, _fidelity("fidelity fixed_eps inf"), id="fidelity-eps-inf"),
    pytest.param(parse_config, _fidelity("fidelity fixed_eps 0.1 linear x"), id="fidelity-extra"),
    pytest.param(parse_config, _fidelity("magnetization one"), id="site-word"),
    pytest.param(parse_config, _fidelity("correlation X X 1 b"), id="correlation-site-word"),
    pytest.param(parse_config, _fidelity("spectrum many"), id="spectrum-m-word"),
    pytest.param(parse_config, _fidelity("spectrum 4 8"), id="spectrum-extra"),
    pytest.param(parse_config, _fidelity("total_magnetization 3"), id="total-magnetization-extra"),
    pytest.param(parse_config, _fidelity(""), id="empty-observable"),
    pytest.param(loads_circuit, "qubits\n", id="qubits-missing"),
    pytest.param(loads_circuit, "qubits two\n", id="qubits-word"),
    pytest.param(loads_circuit, "qubits 0\n", id="qubits-zero"),
    pytest.param(loads_circuit, "qubits 1\nphase\n", id="phase-missing"),
    pytest.param(loads_circuit, "qubits 1\nphase abc\n", id="phase-word"),
    pytest.param(loads_circuit, "qubits 1\nphase inf\n", id="phase-inf"),
    pytest.param(loads_circuit, "Rx(abc) 1\n", id="param-word"),
    pytest.param(loads_circuit, "Rx(nan) 1\n", id="param-nan"),
    pytest.param(loads_circuit, "Rx(1e999) 1\n", id="param-overflow"),
    pytest.param(loads_circuit, "Rx(0.1,0.2) 1\n", id="param-count"),
    pytest.param(loads_circuit, "Rx(0.1) 0\n", id="target-zero"),
    pytest.param(loads_circuit, "CNOT() 1 1\n", id="target-repeated"),
    pytest.param(loads_circuit, "Foo(0.1) 1\n", id="unknown-kind"),
    pytest.param(loads_circuit, "qubits 1\nCNOT() 1 2\n", id="target-outside-register"),
    pytest.param(parse_hamiltonian, "one XX\n", id="coef-word"),
    pytest.param(parse_hamiltonian, "nan XX\n", id="coef-nan"),
    pytest.param(parse_hamiltonian, "-inf ZZ\n", id="coef-inf"),
    pytest.param(parse_hamiltonian, "1.0 XQ\n", id="letters-bad"),
    pytest.param(parse_hamiltonian, "1.0\n", id="letters-missing"),
    pytest.param(parse_hamiltonian, "1.0 XX 2.0\n", id="extra-field"),
    pytest.param(parse_hamiltonian, "1.0 XX\n1.0 XXX\n", id="width-mismatch"),
    pytest.param(parse_hamiltonian, "# nothing\n", id="no-terms"),
]


@pytest.mark.parametrize("parse, text", MALFORMED)
def test_malformed_input_raises_input_error(parse, text):
    with pytest.raises(InputError):
        parse(text)


@pytest.mark.parametrize("text, field", [
    pytest.param(_model("kind = heisenberg\nn_qubits = 3\nj = nan nan"), "model.j", id="j-nan"),
    pytest.param(_model("kind = tim\nn_qubits = 2\nh = 1\n[time]\nmax = inf"), "time.max", id="time-inf"),
])
def test_non_finite_config_number_rejected(text, field):
    with pytest.raises(InputError, match=rf"{field}: must be finite"):
        parse_config(text)


class TestValidation:
    """A config is checked where it is built, so a bad one is never made."""

    def test_site_out_of_range_names_field(self):
        cfg = parse_config(SAMPLE_CONFIG)
        with pytest.raises(InputError, match=r"observables\[0\]\.site"):
            ExperimentConfig(
                **{**cfg.__dict__, "observables": (ObservableSpec("magnetization", (9,)),)}
            )

    def test_bitstring_mismatch(self):
        cfg = parse_config(SAMPLE_CONFIG)
        with pytest.raises(InputError, match=r"observables\[0\]\.bits"):
            ExperimentConfig(
                **{**cfg.__dict__, "observables": (ObservableSpec("probability", ("10",)),)}
            )

    def test_spectrum_exclusive(self):
        cfg = parse_config(SAMPLE_CONFIG)
        with pytest.raises(InputError, match="spectrum"):
            ExperimentConfig(
                **{
                    **cfg.__dict__,
                    "observables": (
                        ObservableSpec("spectrum", (64,)),
                        ObservableSpec("magnetization", (1,)),
                    ),
                }
            )

    @pytest.mark.parametrize("v, w", [("XY", "Z"), ("X", "Q"), ("", "X")])
    def test_correlation_letters_name_field(self, v, w):
        cfg = parse_config(SAMPLE_CONFIG)
        with pytest.raises(InputError, match=r"observables\[0\]: V/W must be Pauli letters"):
            ExperimentConfig(
                **{**cfg.__dict__, "observables": (ObservableSpec("correlation", (v, w, 1, 2)),)}
            )

    def test_initial_state_checked(self):
        cfg = parse_config(SAMPLE_CONFIG)
        with pytest.raises(InputError, match="initial.state"):
            ExperimentConfig(**{**cfg.__dict__, "initial": "10"})

    @pytest.mark.parametrize("n, error", [(0, InputError), (27, ResourceError)])
    def test_register_size_checked(self, n, error):
        cfg = parse_config(SAMPLE_CONFIG)
        with pytest.raises(error, match="model.n_qubits"):
            ExperimentConfig(**{**cfg.__dict__, "n_qubits": n, "initial": "0" * n})

    def test_grids_within_gate_budget(self):
        # a grid point costs at least one gate application; the checks allocate nothing
        cfg = parse_config(SAMPLE_CONFIG)
        ExperimentConfig(**{**cfg.__dict__, "points": GATE_BUDGET})
        with pytest.raises(ResourceError, match="time.points"):
            ExperimentConfig(**{**cfg.__dict__, "points": GATE_BUDGET + 1})
        m = 1 << GATE_BUDGET.bit_length()
        # a spectrum takes the fixed_eps plan that plan=None resolves to
        spectrum = {**cfg.__dict__, "plan": None}
        ExperimentConfig(**{**spectrum, "observables": (ObservableSpec("spectrum", (m // 2,)),)})
        with pytest.raises(ResourceError, match=r"observables\[0\]\.m"):
            ExperimentConfig(**{**spectrum, "observables": (ObservableSpec("spectrum", (m,)),)})


def test_one_check_for_every_way_a_config_is_built(tmp_path, capsys):
    message = "initial.state: '10' does not match n_qubits=3"
    text = SAMPLE_CONFIG.replace("state = 100", "state = 10")
    builds = {
        "parse_config": lambda: parse_config(text),
        "replace": lambda: replace(figure_preset("fig4b"), initial="10"),
        "constructor": lambda: ExperimentConfig(
            model="heisenberg", n_qubits=3, initial="10",
            observables=(ObservableSpec("magnetization", (1,)),),
        ),
    }
    for path, build in builds.items():
        with pytest.raises(InputError) as exc:
            build()
        assert str(exc.value) == message, path
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(text)
    assert cli_main(["run", str(cfgfile), "--gateset", "S2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


class TestBuildHamiltonian:
    def test_pauli_file_inline(self, tmp_path):
        ham = tmp_path / "h.txt"
        ham.write_text("0.5 ZZ\n1.0 XI\n")
        cfg = ExperimentConfig(
            model="pauli-file", n_qubits=2,
            couplings={"file": str(ham)},
            initial="00",
            observables=(ObservableSpec("magnetization", (1,)),),
        )
        h = build_hamiltonian(cfg)
        assert {t.letters for t in h.terms} == {"ZZ", "XI"}

    def test_hubbard2(self):
        cfg = ExperimentConfig(
            model="hubbard2", n_qubits=4,
            couplings={"v": 1.0, "u": 2.0},
            initial="0000",
            observables=(ObservableSpec("magnetization", (1,)),),
        )
        h = build_hamiltonian(cfg)
        assert h.n_qubits == 4
        assert any(t.letters == "IIII" for t in h.terms)  # U/2 offset kept


class TestPresets:
    def test_fig2_parameters(self):
        cfg = figure_preset("fig2")
        assert cfg.model == "tim"
        assert cfg.couplings == {"h": [1.0, 1.0], "jzz": 1.0}
        assert cfg.initial == "00"
        kinds = [o.args for o in cfg.observables]
        assert ("fixed_n", 5) in kinds
        assert ("fixed_eps", 0.1, "linear") in kinds
        assert ("fixed_eps", 0.1, "quadratic") in kinds
        assert cfg.t_max == 45.0

    def test_fig4a_parameters(self):
        cfg = figure_preset("fig4a")
        assert cfg.model == "heisenberg"
        assert cfg.initial == "0+"
        assert cfg.heis2_variant == "3cnot"

    def test_fig4c_parameters(self):
        cfg = figure_preset("fig4c")
        assert cfg.model == "tim"
        assert cfg.couplings["h"] == [1.0, 1.0]  # Bg = 2J
        assert cfg.couplings["jzz"] == 1.0

    def test_fig6c_parameters(self):
        cfg = figure_preset("fig6c")
        assert cfg.observables == (ObservableSpec("correlation", ("X", "X", 3, 1)),)
        assert cfg.plan.n_steps == 5
        assert cfg.initial == "111"
        assert cfg.couplings["bg"] == 20.0

    def test_unknown_id(self):
        with pytest.raises(InputError, match="fig2"):
            figure_preset("fig9")


class TestRun:
    def test_deterministic(self):
        cfg = parse_config(SAMPLE_CONFIG)
        assert run(cfg) == run(cfg)

    def test_fig4b_columns_and_t0(self):
        cfg = figure_preset("fig4b")
        cfg = ExperimentConfig(**{**cfg.__dict__, "points": 7})
        header, rows = parse_csv(run(cfg))
        assert header == ["t", "p100", "p100_qs"]
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert rows[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_header_records_steps_and_assumptions(self):
        cfg = figure_preset("fig4c")
        cfg = ExperimentConfig(**{**cfg.__dict__, "points": 3})
        text = run(cfg)
        assert "# assumption:" in text
        assert "# n_steps_used:" in text

    def test_scalar_run_against_direct_compute(self):
        cfg = parse_config(SAMPLE_CONFIG)
        header, rows = parse_csv(run(cfg))
        import spinsim

        h = build_hamiltonian(cfg)
        t = rows[2, 0]
        amps = spinsim.exact_propagator(h, t) @ spinsim.product_state(3, "100").amplitudes
        s = spinsim.StateVector(3, amps)
        assert rows[2, header.index("p100")] == pytest.approx(
            spinsim.probability(s, "100"), abs=1e-9
        )

    @pytest.mark.parametrize("variant", ["", "variant = 3cnot\n"], ids=["plan", "3cnot"])
    def test_correlation_routes_get_their_evolvers(self, monkeypatch, variant):
        # the runner compiles every route's U(t) itself, under a fixed variant too
        def refuse(*args, **kwargs):
            raise AssertionError("a correlation route compiled its own evolution")

        monkeypatch.setattr(observables, "trotterize", refuse)
        monkeypatch.setattr(observables, "exact_evolvers", refuse)
        cfg = parse_config(
            "[model]\nkind = heisenberg\nn_qubits = 2\n[evolution]\n" + variant
            + "[time]\npoints = 3\n[observables]\nobservable = correlation X Y 1 2\n"
        )
        header, rows = parse_csv(run(cfg))
        assert rows.shape == (3, 7)

    def test_spectrum_header_names_the_plan_that_ran(self):
        # a spectrum config's schedule defaults to fixed_eps(0.1), under the order it sets
        text = run(parse_config(
            "[model]\nkind = heisenberg\nn_qubits = 2\n[initial]\nstate = 01\n"
            "[evolution]\norder = 2\n[observables]\nobservable = spectrum 16\n"
        ))
        assert " plan=TrotterPlan(order=2, n_steps=None, eps=0.1, growth='quadratic')\n" in text

    def test_spectrum_run(self):
        cfg = ExperimentConfig(
            model="heisenberg", n_qubits=2,
            couplings={"j": [1.0], "bg": 0.0},
            initial="01",
            observables=(ObservableSpec("spectrum", (256,)),),
        )
        text = run(cfg)
        header, rows = parse_csv(text)
        assert header == ["q", "weight"]
        qs = sorted(rows[:, 0])
        assert qs[0] == pytest.approx(-3.0, abs=0.1)
        assert qs[-1] == pytest.approx(1.0, abs=0.1)


class TestVerifySuite:
    def test_all_pass(self):
        checks = verify_suite()
        report = format_verify_report(checks)
        assert all(c.passed for c in checks), report

    def test_corrupted_cnot_detected(self, monkeypatch):
        original = compiler.gate_matrix

        def corrupted(op):
            # identity instead of CNOT
            return np.eye(4, dtype=complex) if op.kind == "CNOT" else original(op)

        monkeypatch.setattr(compiler, "gate_matrix", corrupted)
        checks = verify_suite()
        pair_check = next(c for c in checks if "pair decompositions" in c.name)
        assert not pair_check.passed
        assert pair_check.max_error >= 0.1

    def test_report_mentions_gate_counts(self):
        report = format_verify_report(verify_suite())
        assert "6/3/3" in report


_PLAN = "TrotterPlan(order={}, n_steps={}, eps={}, growth='{}')"


class TestCli:
    def test_figure_to_file(self, tmp_path, capsys):
        out = tmp_path / "fig4a.csv"
        rc = cli_main(["figure", "fig4a", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("#")

    def test_run_config_file(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(SAMPLE_CONFIG)
        out = tmp_path / "out.csv"
        rc = cli_main(["run", str(cfgfile), "--out", str(out)])
        assert rc == 0
        header, rows = parse_csv(out.read_text())
        assert header[0] == "t"

    def test_invalid_site_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(SAMPLE_CONFIG.replace("magnetization 1", "magnetization 7"))
        rc = cli_main(["run", str(cfgfile)])
        assert rc == 2
        assert "observables[1].site" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert cli_main(["run", "/nonexistent/exp.cfg"]) == 2

    @pytest.mark.parametrize("config", [
        pytest.param(_model("kind = tim\nn_qubits = three\nh = 1"), id="n_qubits-word"),
        pytest.param(_fidelity("fidelity fixed_n"), id="fidelity-no-steps"),
        pytest.param(b"[model]\nkind = tim # \xe9t\xe9\n", id="config-not-utf8"),
        pytest.param(None, id="config-is-directory"),
        pytest.param(
            _model("kind = pauli-file\nn_qubits = 2\nfile = {ham}"), id="hamiltonian-not-utf8"
        ),
        pytest.param(
            _model("kind = pauli-file\nn_qubits = 2\nfile = {missing}"), id="hamiltonian-missing"
        ),
        pytest.param(
            _model("kind = tim\nn_qubits = 2\nh = 1\n[evolution]\nschedule = fixed_eps\n"
                   "[time]\nmax = 1e200"),
            id="fixed-eps-steps-overflow",
        ),
        pytest.param(
            _model("kind = tim\nn_qubits = 2\nh = 1\n[evolution]\nschedule = fixed_eps\n"
                   "[time]\nmax = 1e12"),
            id="fixed-eps-steps-past-index",
        ),
        pytest.param(_model("kind = tim\nn_qubits = 2\nh = 1\n[evolution]\nstep = 7"), id="key-typo"),
        pytest.param(
            _model("kind = tim\nn_qubits = 2\nh = 1\n[evolution]\nschedule = fixed_n\neps = 0.3"),
            id="eps-under-fixed-n",
        ),
        pytest.param(_model("kind = tim\nn_qubits = 2\nh = 1\n[evolutoin]\nsteps = 7"), id="section-typo"),
        pytest.param(_model("kind = tim\nn_qubits = 2\nh = 1\nbg = 2"), id="tim-h-and-bg"),
        pytest.param(SPECTRUM_CONFIG + "[evolution]\nsteps = 7\n", id="spectrum-steps"),
        pytest.param(SPECTRUM_CONFIG + "[evolution]\nschedule = fixed_n\n", id="spectrum-fixed-n"),
    ])
    def test_parse_error_exits_2(self, tmp_path, capsys, config):
        ham = tmp_path / "h.txt"
        ham.write_bytes(b"1.0 XX # \xff\n")
        cfgfile = tmp_path / "bad.cfg"
        if config is None:
            cfgfile.mkdir()
        elif isinstance(config, bytes):
            cfgfile.write_bytes(config)
        else:
            cfgfile.write_text(config.format(ham=ham, missing=tmp_path / "missing.txt"))
        assert cli_main(["run", str(cfgfile)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_three_body_term_outside_s1_exits_2(self, tmp_path, capsys):
        ham = tmp_path / "h.txt"
        ham.write_text("1.0 XXZ\n0.5 ZII\n")
        cfgfile = tmp_path / "multi.cfg"
        cfgfile.write_text(
            _model(f"kind = pauli-file\nn_qubits = 3\nfile = {ham}\n[evolution]\ngateset = S2")
        )
        assert cli_main(["run", str(cfgfile)]) == 2
        assert "compiled in the CNOT set (S1)" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, plan", [
        (["--steps", "3"], "TrotterPlan(order=1, n_steps=3, eps=None, growth='quadratic')"),
        (["--eps", "0.2", "--order", "2"],
         "TrotterPlan(order=2, n_steps=None, eps=0.2, growth='quadratic')"),
        (["--eps", "0.2", "--growth", "linear"],
         "TrotterPlan(order=1, n_steps=None, eps=0.2, growth='linear')"),
    ])
    def test_schedule_overrides(self, tmp_path, flags, plan):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(SAMPLE_CONFIG)
        out = tmp_path / "out.csv"
        assert cli_main(["run", str(cfgfile), "--out", str(out)] + flags) == 0
        assert f" plan={plan}\n" in out.read_text()

    def test_growth_override_on_fixed_eps_config(self, tmp_path):
        cfgfile = tmp_path / "eps.cfg"
        cfgfile.write_text(SAMPLE_CONFIG.replace("schedule = fixed_n\nsteps = 5", "schedule = fixed_eps"))
        texts = {}
        for growth in ("linear", "quadratic"):
            out = tmp_path / f"{growth}.csv"
            assert cli_main(["run", str(cfgfile), "--growth", growth, "--out", str(out)]) == 0
            texts[growth] = out.read_text()
            assert f"eps=0.1, growth='{growth}')" in texts[growth]
        steps = {g: t.split("# n_steps_used: ")[1].split("\n")[0] for g, t in texts.items()}
        assert steps["linear"] != steps["quadratic"]

    @pytest.mark.parametrize("command", ["run", "dump-circuit"])
    @pytest.mark.parametrize("flags, message", [
        (["--growth", "linear"], "--growth applies to a fixed_eps schedule only"),
        (["--steps", "3", "--growth", "linear"], "--growth applies to a fixed_eps schedule only"),
        (["--steps", "3", "--eps", "0.2"], "--steps and --eps"),
    ], ids=["growth-on-fixed-n", "growth-with-steps", "steps-and-eps"])
    def test_conflicting_overrides_exit_2(self, tmp_path, capsys, command, flags, message):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(SAMPLE_CONFIG)
        assert cli_main([command, str(cfgfile)] + flags) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("kind, flag, ran", [
        ("evolution", "--gateset S2", ("S2", _PLAN.format(1, 5, None, "quadratic"))),
        ("evolution", "--order 2", ("S1", _PLAN.format(2, 5, None, "quadratic"))),
        ("evolution", "--steps 3", ("S1", _PLAN.format(1, 3, None, "quadratic"))),
        ("evolution", "--eps 0.2", ("S1", _PLAN.format(1, None, 0.2, "quadratic"))),
        ("evolution", "--growth linear", "--growth applies to a fixed_eps schedule only"),
        ("fig2", "--gateset S2", ("S2", _PLAN.format(1, 5, None, "quadratic"))),
        ("fig2", "--order 2", ("S1", _PLAN.format(2, 5, None, "quadratic"))),
        ("fig2", "--steps 3", "evolution: a fidelity sweep takes only an order"),
        ("fig2", "--eps 0.2", "evolution: a fidelity sweep takes only an order"),
        ("fig2", "--growth linear", "--growth applies to a fixed_eps schedule only"),
        ("spectrum", "--gateset S2", ("S2", _PLAN.format(1, None, 0.1, "quadratic"))),
        ("spectrum", "--order 2", ("S1", _PLAN.format(2, None, 0.1, "quadratic"))),
        ("spectrum", "--steps 3", "evolution.schedule: spectrum steps grow with theta"),
        ("spectrum", "--eps 0.2", ("S1", _PLAN.format(1, None, 0.2, "quadratic"))),
        ("spectrum", "--growth linear", ("S1", _PLAN.format(1, None, 0.1, "linear"))),
    ])
    def test_override_matrix(self, tmp_path, capsys, kind, flag, ran):
        # a run's header names the gate set and plan that ran; an override it
        # would not use is refused
        if kind == "fig2":
            argv = ["figure", "fig2"]
        else:
            cfgfile = tmp_path / f"{kind}.cfg"
            cfgfile.write_text(SAMPLE_CONFIG if kind == "evolution" else SPECTRUM_CONFIG)
            argv = ["run", str(cfgfile)]
        out = tmp_path / "out.csv"
        rc = cli_main(argv + flag.split() + ["--out", str(out)])
        if isinstance(ran, str):
            assert rc == 2
            assert capsys.readouterr().err.startswith(f"error: {ran}")
        else:
            assert rc == 0
            assert f" gateset={ran[0]} plan={ran[1]}\n" in out.read_text()

    @pytest.mark.parametrize("command", ["run", "dump-circuit"])
    def test_steps_override_on_spectrum_config_exits_2(self, tmp_path, capsys, command):
        # a spectrum run's steps must grow with theta, so a fixed count is refused
        cfgfile = tmp_path / "spectrum.cfg"
        cfgfile.write_text(
            "[model]\nkind = heisenberg\nn_qubits = 2\n[observables]\nobservable = spectrum 16\n"
        )
        assert cli_main([command, str(cfgfile), "--steps", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: evolution.schedule: spectrum steps grow with theta; use fixed_eps\n"
        )

    def test_dump_circuit_on_spectrum_config_exits_2(self, tmp_path, capsys):
        # a spectrum run compiles one circuit per theta, none at time.max
        cfgfile = tmp_path / "spectrum.cfg"
        cfgfile.write_text(
            "[model]\nkind = heisenberg\nn_qubits = 2\n[observables]\nobservable = spectrum 64\n"
        )
        assert cli_main(["dump-circuit", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: dump-circuit does not apply to a spectrum run")

    def test_dump_circuit_on_fidelity_config_exits_2(self, tmp_path, capsys):
        # a fidelity sweep compiles one circuit per schedule and delta, none at time.max
        cfgfile = tmp_path / "fidelity.cfg"
        cfgfile.write_text(_fidelity("fidelity fixed_eps 0.1 linear"))
        assert cli_main(["dump-circuit", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: dump-circuit does not apply to a fidelity run")

    def test_dump_circuit_steps_past_index_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "long.cfg"
        cfgfile.write_text(
            _model("kind = tim\nn_qubits = 2\nh = 1\n[evolution]\nschedule = fixed_eps\n"
                   "[time]\nmax = 1e12")
        )
        assert cli_main(["dump-circuit", str(cfgfile)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["run", "dump-circuit"])
    @pytest.mark.parametrize("config", [
        pytest.param(
            _model("kind = tim\nn_qubits = 2\nh = 1\n[evolution]\nschedule = fixed_eps\n"
                   "[time]\nmax = 1e9"),
            id="fixed-eps-time-1e9",
        ),
        pytest.param(
            _model("kind = tim\nn_qubits = 2\nh = 1\n[evolution]\nsteps = 1000000000000"),
            id="steps-1e12",
        ),
    ])
    def test_plan_over_gate_budget_exits_3(self, tmp_path, capsys, command, config):
        # refused before anything is simulated or unrolled
        cfgfile = tmp_path / "long.cfg"
        cfgfile.write_text(config)
        start = time.perf_counter()
        assert cli_main([command, str(cfgfile)]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("resource limit: ")
        assert "gate applications, over the budget" in err

    @pytest.mark.parametrize("command", ["run", "dump-circuit"])
    @pytest.mark.parametrize("config", [
        pytest.param(_model("kind = tim\nn_qubits = 27\nh = 1"), id="qubits-27"),
        pytest.param(_model("kind = tim\nn_qubits = 1000000000000\nh = 1"), id="qubits-1e12"),
        pytest.param(
            _model("kind = tim\nn_qubits = 2\nh = 1\n[time]\npoints = 1000000000000"),
            id="points-1e12",
        ),
        pytest.param(
            "[model]\nkind = heisenberg\nn_qubits = 2\n"
            "[observables]\nobservable = spectrum 1099511627776\n",
            id="spectrum-2^40",
        ),
    ])
    def test_register_or_grid_over_limit_exits_3(self, tmp_path, capsys, command, config):
        # refused where the config is read, before a Hamiltonian or grid is built
        cfgfile = tmp_path / "big.cfg"
        cfgfile.write_text(config)
        start = time.perf_counter()
        assert cli_main([command, str(cfgfile)]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("resource limit: ")

    @pytest.mark.parametrize("gateset", ["S1", "S4"])
    def test_spectrum_peaks(self, tmp_path, gateset):
        # criterion 8 on the command line: |01> splits evenly over -3 and +1
        cfgfile = tmp_path / "spectrum.cfg"
        cfgfile.write_text(
            "[model]\nkind = heisenberg\nn_qubits = 2\nj = 1.0\n[initial]\nstate = 01\n"
            "[observables]\nobservable = spectrum 1024\n"
        )
        out = tmp_path / "spectrum.csv"
        assert cli_main(["run", str(cfgfile), "--gateset", gateset, "--out", str(out)]) == 0
        text = out.read_text()
        assert f"gateset={gateset}" in text
        header, rows = parse_csv(text)
        assert header == ["q", "weight"]
        bin_width = 9.0 / 1024  # 2 pi / (m dtheta) with dtheta = pi / 4.5
        assert rows[:, 0] == pytest.approx([-3.0, 1.0], abs=bin_width)
        assert rows[:, 1] == pytest.approx([0.5, 0.5], abs=0.02)

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        assert cli_main(["figure", "fig4c", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_past_dense_limit_exits_3(self, tmp_path, capsys):
        cfgfile = tmp_path / "big.cfg"
        cfgfile.write_text(
            _model("kind = heisenberg\nn_qubits = 13\n[time]\npoints = 2\n[evolution]\nsteps = 1")
        )
        assert cli_main(["run", str(cfgfile)]) == 3
        assert capsys.readouterr().err.startswith("resource limit: ")

    def test_gateset_override(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(SAMPLE_CONFIG)
        out = tmp_path / "out.csv"
        rc = cli_main(["run", str(cfgfile), "--gateset", "S3", "--out", str(out)])
        assert rc == 0
        assert "gateset=S3" in out.read_text()

    def test_dump_circuit_roundtrips(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(SAMPLE_CONFIG)
        out = tmp_path / "circ.txt"
        rc = cli_main(["dump-circuit", str(cfgfile), "--out", str(out)])
        assert rc == 0
        circ = loads_circuit(out.read_text())
        assert circ.n_qubits == 3
        assert len(circ.ops) > 0

    def test_verify_exits_zero(self, tmp_path):
        out = tmp_path / "verify.txt"
        assert cli_main(["verify", "--out", str(out)]) == 0
        assert "checks passed" in out.read_text()
