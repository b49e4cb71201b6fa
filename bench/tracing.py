"""Spans and counters recorded around calls into spinsim's public functions.

The tracer wraps a function in every module namespace that imports it, so a
call is seen whichever module makes it.  Spans (name, start, end, parent) stay
in memory until the benchmark writes them out.  ``Tracer.installed`` restores
the original functions on exit, so untraced passes never go through a wrapper.
"""

from __future__ import annotations

import contextlib
import inspect
from collections import Counter, defaultdict
from operator import attrgetter
from time import perf_counter

from spinsim import compiler, observables, trotter

_AMPLITUDE_BYTES = 16  # complex128


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.gate_s: defaultdict = defaultdict(float)  # apply_gate seconds by kind
        self._stack: list[int] = []
        self._compiled: set = set()
        self._patched: list[tuple[object, str, object]] = []

    def begin_pass(self):
        """Repeated compiles are counted within one pass."""
        self._compiled.clear()

    def _wrap(self, modules, attr: str, name: str, after=None):
        """Wrap ``attr`` in each module that holds the same function.

        A module that no longer has the function is skipped, so a layer that
        a later version removes reads zero instead of breaking the trace.
        """
        found = [getattr(m, attr) for m in modules if hasattr(m, attr)]
        if not found:
            return
        original = found[0]
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, perf_counter(), None, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[2] = perf_counter()
            if after is not None:
                after(args, kwargs, result, span[2] - span[1])
            return result

        for module in modules:
            if getattr(module, attr, None) is original:
                self._patched.append((module, attr, original))
                setattr(module, attr, traced)

    def _after_trotterize(self, signature):
        def after(args, kwargs, result, _duration):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            h, t, plan, gate_set = (bound.arguments[k] for k in ("h", "t", "plan", "gate_set"))
            key = (
                h.n_qubits,
                tuple((term.letters, term.coef) for term in h.terms),
                t,
                plan,
                gate_set,
            )
            self.counts["trotterize_repeats"] += key in self._compiled
            self._compiled.add(key)
            ops = result.circuit.ops
            self.counts["ops_emitted"] += len(ops)
            arity = Counter(map(len, map(attrgetter("targets"), ops)))
            self.counts[f"two_qubit_gates.{gate_set.value}"] += arity[2]
        return after

    def _after_run_circuit(self, args, kwargs, result, _duration):
        # count gates from the circuit rather than opening a span per gate
        state, circuit = args[0], args[1] if len(args) > 1 else kwargs["circuit"]
        kinds = Counter(map(attrgetter("kind"), circuit.ops))
        for kind, count in kinds.items():
            self.counts[f"gates.{kind}"] += count
        n_gates = len(circuit.ops)
        self.counts["gates.total"] += n_gates
        # computed, not measured: two passes over the whole state per gate
        self.counts["bytes_moved_computed"] += n_gates * 2 * _AMPLITUDE_BYTES * 2**state.n_qubits

    def _after_apply_gate(self, args, kwargs, result, duration):
        gate = args[1] if len(args) > 1 else kwargs["gate"]
        self.counts[f"apply_gate.{gate.kind}"] += 1
        self.gate_s[gate.kind] += duration

    @contextlib.contextmanager
    def installed(self, per_gate: bool):
        """Wrap the public functions; ``per_gate`` also opens a span per gate."""
        trotterize_after = self._after_trotterize(inspect.signature(trotter.trotterize))
        try:
            self._wrap([trotter, observables], "trotterize", "trotter.trotterize",
                       trotterize_after)
            self._wrap([trotter, observables], "exact_propagator", "trotter.exact_propagator")
            self._wrap([trotter], "dense_matrix", "pauli.dense_matrix")
            self._wrap([trotter], "digital_fidelity", "trotter.digital_fidelity")
            self._wrap([compiler, trotter, observables], "run_circuit", "compiler.run_circuit",
                       self._after_run_circuit)
            self._wrap([observables], "controlled_circuit", "compiler.controlled_circuit")
            if per_gate:
                self._wrap([compiler], "apply_gate", "statevector.apply_gate",
                           self._after_apply_gate)
            self._wrap([observables], "apply_dense_unitary", "statevector.apply_dense_unitary")
            self._wrap([observables], "magnetization", "observables.magnetization")
            self._wrap([observables], "correlation_direct", "observables.correlation_direct")
            self._wrap([observables], "correlation_ancilla", "observables.correlation_ancilla")
            self._wrap([observables], "unitary_expectation_series",
                       "observables.unitary_expectation_series")
            self._wrap([observables], "spectrum_from_series", "observables.spectrum_from_series")
            yield self
        finally:
            for module, attr, original in reversed(self._patched):
                setattr(module, attr, original)
            self._patched.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time sums only the outermost span of a name, so a recursive
        call is not counted twice.  Self time is a span's duration minus the
        part covered by its children.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_s[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["inclusive_s"] += end - start
        return dict(out)

    def spans_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]

