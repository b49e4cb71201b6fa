"""Config-driven experiment execution, figure-reproduction presets and the
decomposition verification suite.

Energies are expressed in units of J = 1 and times in 1/J throughout the CSV
output.  Runs are deterministic: identical configs produce byte-identical CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Iterator

import numpy as np

from . import compiler, gates, observables, pauli, trotter
from .compiler import Circuit, GateSet, phase_distance
from .errors import InputError, ResourceError
from .statevector import StateVector, check_register, inner_product, probability, product_state
from .statevector import _basis_index
from .trotter import TrotterPlan

MODELS = ("heisenberg", "xyz", "xy", "tim", "hubbard2", "pauli-file")
FIGURE_IDS = ("fig2", "fig4a", "fig4b", "fig4c", "fig6a", "fig6b", "fig6c")


@dataclass(frozen=True)
class ObservableSpec:
    kind: str              # magnetization | total_magnetization | probability |
                           # correlation | spectrum | fidelity
    args: tuple = ()


def _check_grid(size: int, path: str):
    # every grid point costs at least one gate application
    if size > gates.GATE_BUDGET:
        raise ResourceError(
            f"{path}: {size} grid points are over the budget of {gates.GATE_BUDGET} "
            "gate applications"
        )


def _fidelity_plan(o: ObservableSpec, order: int) -> TrotterPlan:
    """The schedule a fidelity column runs, at the sweep's splitting order."""
    if o.args[0] == "fixed_n":
        return TrotterPlan.fixed_n(o.args[1], order=order)
    return TrotterPlan.fixed_eps(o.args[1], o.args[2], order=order)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run of a spin model, checked when built: ``InputError`` if unusable,
    ``ResourceError`` past a register or grid limit.

    ``plan=None`` is ``fixed_eps(0.1)`` for a spectrum run, whose steps grow with
    theta, else ``fixed_n(5)``.  An evolution run reads every field.  A fidelity
    sweep reads only the plan's order (its observables set the schedules).  A
    spectrum run reads neither ``t_max`` nor ``points``, and its parsed config
    refuses the ``[time]`` keys; neither takes ``heis2_variant``.
    """

    model: str
    n_qubits: int
    couplings: dict = field(default_factory=dict)
    initial: str = ""
    gate_set: GateSet = GateSet.S1
    plan: TrotterPlan | None = None
    t_max: float = math.pi
    points: int = 61
    observables: tuple[ObservableSpec, ...] = ()
    heis2_variant: str | None = None
    assumptions: tuple[str, ...] = ()
    name: str = ""

    @property
    def run_kind(self) -> str:
        """``spectrum`` or ``fidelity`` when those are all its observables, else ``evolution``."""
        kinds = {o.kind for o in self.observables}
        return kinds.pop() if kinds in ({"spectrum"}, {"fidelity"}) else "evolution"

    def __post_init__(self):
        if self.plan is None:
            spectrum = self.run_kind == "spectrum"
            plan = TrotterPlan.fixed_eps(0.1) if spectrum else TrotterPlan.fixed_n(5)
            object.__setattr__(self, "plan", plan)
        if self.model not in MODELS:
            raise InputError(f"model: unknown model {self.model!r}")
        check_register(self.n_qubits, "model.n_qubits")
        if len(self.initial) != self.n_qubits:
            raise InputError(
                f"initial.state: {self.initial!r} does not match n_qubits={self.n_qubits}"
            )
        if any(ch not in "01+-" for ch in self.initial):
            raise InputError(f"initial.state: only 0/1/+/- allowed, got {self.initial!r}")
        if self.points < 1:
            raise InputError(f"time.points: must be >= 1, got {self.points}")
        _check_grid(self.points, "time.points")
        if not self.observables:
            raise InputError("observables: at least one observable is required")
        kinds = {o.kind for o in self.observables}
        if "spectrum" in kinds and len(self.observables) > 1:
            raise InputError("observables: spectrum must be the only observable")
        if "fidelity" in kinds and kinds != {"fidelity"}:
            raise InputError("observables: fidelity sweeps cannot mix with other kinds")
        for k, o in enumerate(self.observables):
            path = f"observables[{k}]"
            if o.kind == "magnetization":
                site = o.args[0]
                if not 1 <= site <= self.n_qubits:
                    raise InputError(
                        f"{path}.site: site {site} out of range for {self.n_qubits} qubits"
                    )
            elif o.kind == "probability":
                try:
                    _basis_index(self.n_qubits, o.args[0])
                except InputError as exc:
                    raise InputError(f"{path}.bits: {exc}") from exc
            elif o.kind == "correlation":
                try:
                    observables.CorrelationSpec(*o.args, self.initial)
                except InputError as exc:
                    raise InputError(f"{path}: {exc}") from exc
            elif o.kind == "spectrum":
                m = o.args[0]
                if m < 2 or m & (m - 1):
                    raise InputError(f"{path}.m: must be a power of two, got {m}")
                _check_grid(m, f"{path}.m")
            elif o.kind == "fidelity":
                try:
                    _fidelity_plan(o, order=1)
                except InputError as exc:
                    raise InputError(f"{path}: {exc}") from exc
        if self.run_kind == "spectrum" and self.plan.eps is None:
            raise InputError("evolution.schedule: spectrum steps grow with theta; use fixed_eps")
        if self.run_kind == "fidelity" and replace(self.plan, order=1) != TrotterPlan.fixed_n(5):
            raise InputError(
                "evolution: a fidelity sweep takes only an order; its observables set schedules"
            )
        if self.heis2_variant is not None:
            if self.heis2_variant not in ("6cnot", "3cnot", "3uxy", "s4"):
                raise InputError(f"evolution.variant: unknown variant {self.heis2_variant!r}")
            applies_to = (self.run_kind, self.model, self.n_qubits, self.couplings.get("bg", 0.0))
            if applies_to != ("evolution", "heisenberg", 2, 0.0):
                raise InputError(
                    "evolution.variant: fixed Heisenberg variants apply only to time evolution "
                    "of the 2-qubit field-free Heisenberg model"
                )


# --- config text format -------------------------------------------------------

def _parse_sections(text: str) -> dict[str, list[tuple[str, str, int]]]:
    sections: dict[str, list[tuple[str, str, int]]] = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in ("model", "initial", "evolution", "time", "observables"):
                raise InputError(f"line {ln}: unknown section [{current}]")
            sections.setdefault(current, [])
            continue
        if "=" not in line:
            raise InputError(f"line {ln}: expected `key = value`, got {raw!r}")
        if current is None:
            raise InputError(f"line {ln}: key outside any [section]")
        key, value = line.split("=", 1)
        sections[current].append((key.strip().lower(), value.strip(), ln))
    return sections


def _single(entries, key, path, default=None, required=False):
    found = [v for k, v, _ in entries if k == key]
    entries[:] = [e for e in entries if e[0] != key]  # read; parse_config refuses the rest
    if not found:
        if required:
            raise InputError(f"{path}: missing required key {key!r}")
        return default
    if len(found) > 1:
        raise InputError(f"{path}: key {key!r} given more than once")
    return found[0]


def _float(raw: str, path: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise InputError(f"{path}: cannot parse a number from {raw!r}") from exc
    if not math.isfinite(value):
        raise InputError(f"{path}: must be finite, got {raw!r}")
    return value


def _int(raw: str, path: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{path}: cannot parse an integer from {raw!r}") from exc


def _floats(raw: str, path: str) -> list[float]:
    return [_float(x, path) for x in raw.replace(",", " ").split()]


def _number(entries, key: str, path: str, default: str) -> float:
    return _float(_single(entries, key, path, default=default), path)


def _per_site(raw: str, count: int, path: str) -> list[float]:
    """Numbers for ``count`` bonds or sites; a single value applies to all of them."""
    values = _floats(raw, path)
    return values * count if len(values) == 1 else values


def read_text(path: str) -> str:
    """The UTF-8 text of an input file; an unreadable file is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    sec = _parse_sections(text)
    model_entries = sec.get("model", [])
    kind = _single(model_entries, "kind", "model.kind", required=True).lower()
    if kind not in MODELS:
        raise InputError(f"model.kind: unknown model {kind!r}; choose from {MODELS}")
    couplings: dict = {}
    if kind == "hubbard2":
        n_qubits = 4
        couplings["v"] = _number(model_entries, "v", "model.v", "1.0")
        couplings["u"] = _number(model_entries, "u", "model.u", "0.0")
    else:
        n_raw = _single(model_entries, "n_qubits", "model.n_qubits", required=True)
        n_qubits = _int(n_raw, "model.n_qubits")
        check_register(n_qubits, "model.n_qubits")
        if kind == "heisenberg":
            j = _single(model_entries, "j", "model.j", default="1.0")
            couplings["j"] = _per_site(j, n_qubits - 1, "model.j")
            couplings["bg"] = _number(model_entries, "bg", "model.bg", "0.0")
        elif kind in ("xyz", "xy"):
            couplings["jxx"] = _number(model_entries, "jxx", "model.jxx", "1.0")
            couplings["jyy"] = _number(model_entries, "jyy", "model.jyy", "1.0")
            couplings["jzz"] = (
                0.0 if kind == "xy" else _number(model_entries, "jzz", "model.jzz", "1.0")
            )
        elif kind == "tim":
            h = _single(model_entries, "h", "model.h")
            if h is not None:
                couplings["h"] = _per_site(h, n_qubits, "model.h")
            else:  # the shorthand h = bg / 2, unread (so refused) next to h
                bg = _single(model_entries, "bg", "model.bg")
                if bg is None:
                    raise InputError("model: tim needs either h or bg")
                couplings["h"] = [_float(bg, "model.bg") / 2.0] * n_qubits
            couplings["jzz"] = _number(model_entries, "jzz", "model.jzz", "1.0")
        elif kind == "pauli-file":
            couplings["file"] = _single(model_entries, "file", "model.file", required=True)

    init_entries = sec.get("initial", [])
    initial = _single(init_entries, "state", "initial.state", default="0" * n_qubits)

    obs: list[ObservableSpec] = []
    for key, value, ln in sec.pop("observables", []):
        if key != "observable":
            raise InputError(f"line {ln}: observables section only takes `observable = ...`")
        obs.append(_parse_observable(value, f"observables[{len(obs)}]"))

    evo = sec.get("evolution", [])
    gs_raw = _single(evo, "gateset", "evolution.gateset", default="S1").upper()
    try:
        gate_set = GateSet(gs_raw)
    except ValueError as exc:
        raise InputError(f"evolution.gateset: unknown gate set {gs_raw!r}") from exc
    order = _int(_single(evo, "order", "evolution.order", default="1"), "evolution.order")
    kinds = {o.kind for o in obs}
    # a fidelity sweep reads no schedule keys (so refuses them): its observables set them
    plan_entries = [] if kinds == {"fidelity"} else evo
    default = "fixed_eps" if kinds == {"spectrum"} else "fixed_n"
    schedule = _single(plan_entries, "schedule", "evolution.schedule", default=default).lower()
    if schedule == "fixed_n":
        steps = _single(plan_entries, "steps", "evolution.steps", default="5")
        plan = TrotterPlan.fixed_n(_int(steps, "evolution.steps"), order=order)
    elif schedule == "fixed_eps":
        eps = _number(plan_entries, "eps", "evolution.eps", "0.1")
        growth = _single(plan_entries, "growth", "evolution.growth", default="quadratic").lower()
        plan = TrotterPlan.fixed_eps(eps, growth=growth, order=order)
    else:
        raise InputError(
            f"evolution.schedule: expected fixed_n or fixed_eps, got {schedule!r}"
        )
    variant = _single(evo, "variant", "evolution.variant", default=None)

    # a spectrum run reads no time keys (so refuses them): its theta grid is its own
    time_entries = [] if kinds == {"spectrum"} else sec.get("time", [])
    t_max = _number(time_entries, "max", "time.max", str(math.pi))
    points = _int(_single(time_entries, "points", "time.points", default="61"), "time.points")

    unread = sorted((ln, name, key) for name, entries in sec.items() for key, _, ln in entries)
    if unread:
        ln, name, key = unread[0]
        raise InputError(f"line {ln}: {name}.{key} is unknown or unused by this model and run")

    return ExperimentConfig(
        model=kind,
        n_qubits=n_qubits,
        couplings=couplings,
        initial=initial,
        gate_set=gate_set,
        plan=plan,
        t_max=t_max,
        points=points,
        observables=tuple(obs),
        heis2_variant=variant,
    )


def _parse_observable(value: str, path: str) -> ObservableSpec:
    parts = value.split()
    if not parts:
        raise InputError(f"{path}: empty observable")
    kind = parts[0].lower()
    args = parts[1:]
    if kind == "magnetization":
        if len(args) != 1:
            raise InputError(f"{path}: magnetization takes one site argument")
        return ObservableSpec("magnetization", (_int(args[0], f"{path}.site"),))
    if kind == "total_magnetization":
        if args:
            raise InputError(f"{path}: total_magnetization takes no arguments")
        return ObservableSpec("total_magnetization")
    if kind == "probability":
        if len(args) != 1:
            raise InputError(f"{path}: probability takes one bitstring argument")
        return ObservableSpec("probability", (args[0],))
    if kind == "correlation":
        if len(args) != 4:
            raise InputError(f"{path}: correlation takes `V W i j`")
        return ObservableSpec(
            "correlation",
            (args[0].upper(), args[1].upper(), _int(args[2], f"{path}.i"), _int(args[3], f"{path}.j")),
        )
    if kind == "spectrum":
        if len(args) > 1:
            raise InputError(f"{path}: spectrum takes at most one grid size")
        m = _int(args[0], f"{path}.m") if args else 1024
        return ObservableSpec("spectrum", (m,))
    if kind == "fidelity":
        if not args:
            raise InputError(f"{path}: fidelity takes a schedule, e.g. `fixed_n 5`")
        if args[0] == "fixed_n":
            if len(args) != 2:
                raise InputError(f"{path}: fidelity fixed_n takes a step count")
            return ObservableSpec("fidelity", ("fixed_n", _int(args[1], f"{path}.steps")))
        if args[0] == "fixed_eps":
            if len(args) not in (2, 3):
                raise InputError(f"{path}: fidelity fixed_eps takes eps and an optional growth")
            growth = args[2] if len(args) > 2 else "quadratic"
            return ObservableSpec("fidelity", ("fixed_eps", _float(args[1], f"{path}.eps"), growth))
        raise InputError(f"{path}: unknown fidelity schedule {args[0]!r}")
    raise InputError(f"{path}: unknown observable kind {kind!r}")


def build_hamiltonian(cfg: ExperimentConfig) -> pauli.PauliHamiltonian:
    c = cfg.couplings
    if cfg.model == "heisenberg":
        return pauli.heisenberg_chain(cfg.n_qubits, c["j"], c.get("bg", 0.0))
    if cfg.model in ("xyz", "xy"):
        return pauli.xyz_chain(cfg.n_qubits, c["jxx"], c["jyy"], c.get("jzz", 0.0))
    if cfg.model == "tim":
        return pauli.tim_chain(cfg.n_qubits, c["h"], c["jzz"])
    if cfg.model == "hubbard2":
        return pauli.jordan_wigner(pauli.hubbard_2site(c["v"], c["u"]))
    return pauli.parse_hamiltonian(read_text(c["file"]), cfg.n_qubits)  # pauli-file


# --- figure presets -----------------------------------------------------------

def figure_preset(figure_id: str) -> ExperimentConfig:
    """Exact parameterization of the reproducible figures (J = 1 units)."""
    fid = figure_id.lower()
    if fid == "fig2":
        return ExperimentConfig(
            model="tim", n_qubits=2,
            couplings={"h": [1.0, 1.0], "jzz": 1.0},
            initial="00",
            t_max=45.0, points=46,
            observables=(
                ObservableSpec("fidelity", ("fixed_n", 5)),
                ObservableSpec("fidelity", ("fixed_eps", 0.1, "linear")),
                ObservableSpec("fidelity", ("fixed_eps", 0.1, "quadratic")),
            ),
            name="fig2",
        )
    if fid == "fig4a":
        return ExperimentConfig(
            model="heisenberg", n_qubits=2,
            couplings={"j": [1.0], "bg": 0.0},
            initial="0+",
            plan=TrotterPlan.fixed_n(1),
            t_max=math.pi, points=61,
            observables=(
                ObservableSpec("magnetization", (1,)),
                ObservableSpec("magnetization", (2,)),
                ObservableSpec("total_magnetization"),
            ),
            heis2_variant="3cnot",
            name="fig4a",
        )
    if fid == "fig4b":
        return ExperimentConfig(
            model="heisenberg", n_qubits=3,
            couplings={"j": [1.0, 1.0], "bg": 20.0},
            initial="100",
            t_max=math.pi, points=61,
            observables=(ObservableSpec("probability", ("100",)),),
            assumptions=("trotter steps n=5 (step count not stated for this figure)",),
            name="fig4b",
        )
    if fid == "fig4c":
        return ExperimentConfig(
            model="tim", n_qubits=2,
            couplings={"h": [1.0, 1.0], "jzz": 1.0},  # Bg = 2J -> h_i = Bg/2 = J
            initial="00",
            t_max=math.pi, points=61,
            observables=(ObservableSpec("total_magnetization"),),
            assumptions=(
                "initial state |up up> = |00> (not stated for this figure)",
                "trotter steps n=5 (step count not stated for this figure)",
            ),
            name="fig4c",
        )
    if fid in ("fig6a", "fig6b", "fig6c"):
        site = {"fig6a": 1, "fig6b": 2, "fig6c": 3}[fid]
        return ExperimentConfig(
            model="heisenberg", n_qubits=3,
            couplings={"j": [1.0, 1.0], "bg": 20.0},
            initial="111",
            t_max=math.pi, points=61,
            observables=(ObservableSpec("correlation", ("X", "X", site, 1)),),
            name=fid,
        )
    raise InputError(f"unknown figure id {figure_id!r}; valid ids: {', '.join(FIGURE_IDS)}")


# --- execution ----------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _scalar_value(obs: ObservableSpec, state: StateVector, exact: StateVector) -> float:
    """``obs`` read on ``state``; a fidelity is its overlap with the ``exact`` state."""
    if obs.kind == "fidelity":
        return abs(inner_product(exact, state))
    if obs.kind == "magnetization":
        return observables.magnetization(state, obs.args[0])
    if obs.kind == "total_magnetization":
        return observables.total_magnetization(state)
    return probability(state, obs.args[0])


def _scalar_name(obs: ObservableSpec) -> str:
    if obs.kind == "fidelity":
        return f"fid_fixed{obs.args[1]}" if obs.args[0] == "fixed_n" else f"fid_{obs.args[2]}"
    if obs.kind == "magnetization":
        return f"mz{obs.args[0]}"
    if obs.kind == "total_magnetization":
        return "mz_total"
    return f"p{obs.args[0]}"


def _compilers(cfg, h):
    """``compilers(plan)``: the plan's :class:`~spinsim.trotter.TrotterCompiler` on the
    config's gate set, built once per plan."""
    return cache(lambda plan: trotter.TrotterCompiler(h, plan, cfg.gate_set))


def _variant_evolution(cfg, t: float) -> trotter.EvolutionResult:
    """U(t) as the config's fixed Heisenberg variant circuit."""
    j = cfg.couplings["j"][0]
    circ = compiler.heisenberg2_circuit(j * t, (1, 2), cfg.heis2_variant)
    return trotter.EvolutionResult(Circuit(circ.n_qubits, circ.ops), Circuit(circ.n_qubits, ()),
                                   1, abs(j * t), circ.global_phase)


def _digital_grids(cfg, compilers, times) -> list[tuple[Iterator[trotter.GridEvolution], int]]:
    """The digital evolutions at ``times``, each as one grid per stack of points, with
    the number of rows it evolves at a point: a fidelity sweep's grids, one per
    column, and an evolution run's first one evolve psi0 for the scalar columns.

    A Trotter plan compiles a stack as one grid (its compiler's ``iter_grid``); a
    fixed Heisenberg variant spells its circuit per point, a plain form of its
    stack's grid.  Correlations run the plan on their 2 + 2k rows, psi0 first
    (:func:`~spinsim.observables.correlation_rows`): on its one grid, or on a
    second beside a variant, which then evolves no row if no column is scalar.
    """
    if cfg.run_kind == "fidelity":
        return [(compilers(_fidelity_plan(o, cfg.plan.order)).iter_grid(times), 1)
                for o in cfg.observables]
    n_corr = sum(o.kind == "correlation" for o in cfg.observables)
    rows = 2 + 2 * n_corr if n_corr else 1
    if cfg.heis2_variant is None:
        return [(compilers(cfg.plan).iter_grid(times), rows)]
    variant = (trotter.GridEvolution.of([_variant_evolution(cfg, float(t)) for t in ts])
               for ts in trotter.iter_stacks(times, cfg.n_qubits))
    grids = [(variant, int(n_corr < len(cfg.observables)))]
    if n_corr:
        grids.append((compilers(cfg.plan).iter_grid(times), rows))
    return grids


def run(cfg: ExperimentConfig) -> str:
    """Execute a config, valid by construction; returns the CSV text (comments prefixed #)."""
    header = [f"# spinsim run: model={cfg.model} n_qubits={cfg.n_qubits}"]
    if cfg.name:
        header.append(f"# preset: {cfg.name}")
    header.append(f"# couplings: {cfg.couplings}")
    header.append(
        f"# initial={cfg.initial} gateset={cfg.gate_set.value} plan={cfg.plan}"
    )
    for a in cfg.assumptions:
        header.append(f"# assumption: {a}")

    h = build_hamiltonian(cfg)
    compilers = _compilers(cfg, h)
    _check_run_budget(cfg, h, compilers)
    if cfg.run_kind == "spectrum":
        return _run_spectrum(cfg, h, compilers(cfg.plan), header)
    return _run_grid(cfg, h, compilers, np.linspace(0.0, cfg.t_max, cfg.points), header)


def _check_run_budget(cfg, h, compilers):
    """Refuse a run of over ``GATE_BUDGET`` planned gate applications, before its grid is made.

    No point of the grid costs more than its last, largest time: the price of
    each compiled evolution there (``GridEvolution.price``, by the route it runs)
    times the rows it evolves (:func:`_digital_grids`), plus one per row of its
    exact stack: psi0 and each correlation's W psi0.  That point is compiled
    here as a one-point grid, so a grid too long to run is refused unfilled.
    """
    if cfg.run_kind == "spectrum":
        spec = _spectrum_spec(cfg, h)
        total = spec.m * compilers(cfg.plan).grid([(spec.m - 1) * spec.spacing()]).price[0]
    else:
        n_corr = sum(o.kind == "correlation" for o in cfg.observables)
        grids = _digital_grids(cfg, compilers, [cfg.t_max])
        total = cfg.points * (1 + n_corr + sum(rows * next(grid).price[0] for grid, rows in grids))
    if (total := math.ceil(total)) > gates.GATE_BUDGET:
        raise ResourceError(f"the run plans {total} gate applications, over the budget "
                            f"of {gates.GATE_BUDGET}")


def _spectrum_spec(cfg, h) -> observables.SpectrumSpec:
    return observables.SpectrumSpec(h, cfg.initial, cfg.observables[0].args[0])


def _run_spectrum(cfg, h, compile_q, header) -> str:
    spec = _spectrum_spec(cfg, h)
    series = observables.unitary_expectation_series(spec, compile_q)
    peaks = observables.spectrum_from_series(series, spec.spacing())
    header.append(f"# theta grid: m={spec.m} dtheta={_fmt(spec.spacing())}")
    rows = ["q,weight"] + [f"{_fmt(q)},{_fmt(w)}" for q, w in peaks]
    return "\n".join(header + rows) + "\n"


def _run_grid(cfg, h, compilers, times, header) -> str:
    """The CSV of a fidelity sweep or an evolution run of H, over the time grid ``times``.

    One pass, a stack of points at a time: each grid (:func:`_digital_grids`)
    evolves its rows at the stack's points as one (points, rows, amplitudes)
    stack of states, as do the exact rows, psi0 then W psi0 per correlation,
    under one block diagonalization of H (:func:`~spinsim.trotter.exact_stacks`).
    Every column reads a point's rows, and the stack is let go.  So each state
    is evolved once: the scalar columns read the exact psi0 (index 0), then
    each grid's psi0, and the correlation routes read the rows they need.
    """
    fidelity = cfg.run_kind == "fidelity"
    scalar_obs = [o for o in cfg.observables if o.kind != "correlation"]
    specs = [observables.CorrelationSpec(*o.args, cfg.initial)
             for o in cfg.observables if o.kind == "correlation"]
    # (column, observable, index of the state it reads)
    if fidelity:  # each column reads its own digital state against the exact one
        reads = [(_scalar_name(o), o, k + 1) for k, o in enumerate(scalar_obs)]
    else:  # each scalar reads the exact state, then (_qs) the digital one
        reads = [(_scalar_name(o) + suffix, o, k)
                 for o in scalar_obs for suffix, k in (("", 0), ("_qs", 1))]
    columns = [name for name, _, _ in reads]
    for s in specs:
        columns += [f"c{s.v.lower()}{s.w.lower()}_{s.vq}_{s.wq}_{part}_{route}"
                    for route in ("qs", "digital", "exact") for part in ("re", "im")]
    if specs:
        header.append("# correlation columns carry the spin scaling <s s> = <sigma sigma>/4")
        header.append("# qs: ancilla route (trotter); digital: direct route (trotter); exact: direct route (exact propagator)")

    grids = _digital_grids(cfg, compilers, times)
    # psi0, then the correlations' rows: each grid evolves the first n of them
    start = (observables.correlation_rows(specs) if specs
             else product_state(cfg.n_qubits, cfg.initial).amplitudes[None])
    table = np.zeros((len(times), len(columns)))
    corr = np.zeros((len(times), len(specs), 3), dtype=complex)
    steps_used = []
    exact = trotter.exact_stacks(h, start[0::2], times)
    for *stacks, exact_stack in zip(*(grid for grid, _ in grids), exact):
        # each grid's rows at these points, as (point, row, amplitude)
        evolved = [trotter.evolve_stack(np.tile(start[:n], (len(s), 1, 1)), s)
                   for s, (_, n) in zip(stacks, grids)]
        for i, exact_rows in enumerate(exact_stack):
            k = len(steps_used)
            steps_used.append([int(s.n_steps[i]) for s in stacks])
            if reads:
                states = [StateVector(cfg.n_qubits, row)
                          for row in (exact_rows[0], *(d[i, 0] for d in evolved))]
                table[k, :len(reads)] = [_scalar_value(o, states[j], states[0])
                                         for _, o, j in reads]
            if specs:
                direct, halves = evolved[-1][i, 0::2], evolved[-1][i, 1::2]
                corr[k] = [(observables.correlation_ancilla(spec, halves[0], halves[j]),
                            observables.correlation_direct(spec, direct[0], direct[j]),
                            observables.correlation_direct(spec, exact_rows[0], exact_rows[j]))
                           for j, spec in enumerate(specs, 1)]
    # each route's re and im, in that order, with the spin scaling
    table[:, len(reads):] = observables.spin_correlation(corr).reshape(len(times), -1).view(float)
    # a fixed variant takes one step, as does the Trotter plan on its commuting
    # two-qubit model
    for k, label in enumerate([f"[{name}]" for name in columns] if fidelity else [""]):
        header.append(f"# n_steps_used{label}: {' '.join(str(n[k]) for n in steps_used)}")
    rows = [("delta," if fidelity else "t,") + ",".join(columns)]
    rows += [",".join(map(_fmt, (t, *row))) for t, row in zip(times, table)]
    return "\n".join(header + rows) + "\n"


# --- verification suite ---------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    max_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tol


def verify_suite() -> list[CheckResult]:
    """Machine-check the gate and decomposition identities; returns per-check results."""
    rng = np.random.default_rng(20240817)
    checks: list[CheckResult] = []

    # single-qubit identity: U(theta,phi,lam) as phase-gate/Hadamard product
    err = 0.0
    for _ in range(100):
        th, ph, la = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
        lhs = gates.u3(th, ph, la)
        rhs = (
            np.exp(-1j * th / 2)
            * gates.phase_gate(np.pi / 2 + ph)
            @ gates.hadamard()
            @ gates.phase_gate(th)
            @ gates.hadamard()
            @ gates.phase_gate(-np.pi / 2 + la)
        )
        err = max(err, float(np.max(np.abs(lhs - rhs))))
    checks.append(CheckResult("u3 = phase/hadamard product (elementwise)", err, 1e-12))

    # axis-rotation synthesis of u3 with an Rx core (z angles carry +-pi/2 shifts)
    err = 0.0
    for _ in range(100):
        th, ph, la = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
        lhs = gates.u3(th, ph, la)
        rhs = (
            gates.rotation("z", ph + np.pi / 2)
            @ gates.rotation("x", th)
            @ gates.rotation("z", la - np.pi / 2)
        )
        err = max(err, phase_distance(lhs, rhs))
    checks.append(CheckResult("u3 = Rz Rx Rz synthesis (up to phase)", err, 1e-12))

    # reference-frame changes
    ry = gates.rotation("y", np.pi / 2)
    rx = gates.rotation("x", np.pi / 2)
    z = gates.PAULI["Z"]
    err = float(np.max(np.abs(ry @ z @ ry.conj().T - gates.PAULI["X"])))
    err = max(err, float(np.max(np.abs(rx @ z @ rx.conj().T + gates.PAULI["Y"]))))
    checks.append(CheckResult("frame changes Ry/Rx of sigma_z", err, 1e-12))

    # [sigma_a sigma_a, sigma_b sigma_b] = 0
    err = 0.0
    for a in "XYZ":
        for b in "XYZ":
            ma = gates.string_matrix(a + a)
            mb = gates.string_matrix(b + b)
            err = max(err, float(np.max(np.abs(ma @ mb - mb @ ma))))
    checks.append(CheckResult("pair-exponential generators commute", err, 1e-12))

    # gate unitarity
    err = 0.0
    sample_ops = [
        gates.GateOp("U3", tuple(rng.uniform(-3, 3, 3)), (1,)),
        gates.GateOp("H", (), (1,)),
        gates.GateOp("Phase", (0.7,), (1,)),
        gates.GateOp("Rx", (1.1,), (1,)),
        gates.GateOp("CNOT", (), (1, 2)),
        gates.GateOp("CPhase", (0.9,), (1, 2)),
        gates.GateOp("Uxy", (0.4,), (1, 2)),
        gates.GateOp("MS_T4", (0.3, 0.2), (1, 2, 3)),
    ]
    for op in sample_ops:
        m = gates.gate_matrix(op)
        err = max(err, float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))))
    checks.append(CheckResult("gate matrices unitary", err, 1e-10))

    # pair decomposition soundness: 9 axis pairs x 4 sets x random angles
    err = 0.0
    for alpha in "xyz":
        for beta in "xyz":
            for gs in GateSet:
                for d in rng.uniform(-np.pi, np.pi, 6):
                    circ = compiler.decompose_pauli((alpha, beta), float(d), (1, 2), gs)
                    u = compiler.circuit_unitary(circ)
                    target = gates.pauli_pair_exponential(alpha, beta, float(d))
                    err = max(err, phase_distance(u, target))
    checks.append(CheckResult("pair decompositions vs exp(-i d ss) (all sets)", err, 1e-10))

    # heisenberg variants + gate-count contracts
    err = 0.0
    count_err = 0.0
    for d in rng.uniform(-np.pi, np.pi, 6):
        target = gates.hermitian_expm(
            float(d) * sum(gates.string_matrix(a + a) for a in "XYZ")
        )
        for variant, kind, count in (
            ("6cnot", "CNOT", 6), ("3cnot", "CNOT", 3), ("3uxy", "Uxy", 3), ("s4", None, None)
        ):
            circ = compiler.heisenberg2_circuit(float(d), (1, 2), variant)
            err = max(err, phase_distance(compiler.circuit_unitary(circ), target))
            if kind is not None and circ.two_qubit_count(kind) != count:
                count_err = 1.0
    checks.append(CheckResult("heisenberg variants vs dense bond exponential", err, 1e-10))
    checks.append(CheckResult("two-qubit gate counts 6/3/3", count_err, 0.0))

    # S3 single- vs two-CPhase forms
    err = 0.0
    lowering = compiler.pauli_lowering(("z", "z"), (1, 2), GateSet.S3)
    for d in rng.uniform(0.05, np.pi, 6):
        single = lowering.circuit(float(d), 2)
        double = lowering.negative.circuit(float(d), 2)
        err = max(
            err,
            phase_distance(compiler.circuit_unitary(single), compiler.circuit_unitary(double)),
        )
    checks.append(CheckResult("S3 one-CPhase and two-CPhase forms agree", err, 1e-10))

    # multi-qubit ladder, all 27 axis triples
    err = 0.0
    for a1 in "xyz":
        for a2 in "xyz":
            for a3 in "xyz":
                for d in rng.uniform(-np.pi, np.pi, 2):
                    circ = compiler.decompose_pauli((a1, a2, a3), float(d), (1, 2, 3))
                    gen = gates.string_matrix((a1 + a2 + a3).upper())
                    target = gates.hermitian_expm(float(d) * gen)
                    err = max(err, phase_distance(compiler.circuit_unitary(circ), target))
    checks.append(CheckResult("3-qubit ladder vs dense exponential (27 triples)", err, 1e-10))
    return checks


def format_verify_report(checks: list[CheckResult]) -> str:
    lines = []
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.name}: max error {c.max_error:.3e} (tol {c.tol:.0e})")
    n_fail = sum(1 for c in checks if not c.passed)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(lines)
