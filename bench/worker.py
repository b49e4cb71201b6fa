"""One workload in one fresh process: set-up, then timed or traced passes.

run.py starts this script; it prints one JSON object as its last line.

    python3 bench/worker.py --workload fig2 --seed 1 --mode setup
    python3 bench/worker.py --workload fig2 --seed 1 --mode timed --seconds 24
    python3 bench/worker.py --workload fig2 --seed 1 --mode trace --seconds 24

Passes run as a closed loop: one pass finishes, and is checked, before the
next starts.  A new pass starts only while it is expected to end within
``--seconds``; there is always at least one.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# gate kinds whose kernels run on gatesets-n20; the ones a kernel change moves
KERNEL_KINDS = ("Rx", "Ry", "Rz", "CNOT", "CPhase", "Uxy", "MS_T1", "MS_T3", "MS_T4")
# kinds that some workload runs; the rest (U3, ZZ, XX, YY, MS_T2) stay at zero
GATE_KINDS = KERNEL_KINDS + ("H", "X", "Phase")


def _import_spinsim() -> float:
    """Import spinsim from this checkout's src/; returns the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import spinsim
    elapsed = perf_counter() - t0
    if Path(spinsim.__file__).resolve().parent != SRC / "spinsim":
        raise SystemExit(f"spinsim was imported from {spinsim.__file__}, not from {SRC}")
    return elapsed


def _one_pass(prepared) -> tuple[float, list[str]]:
    """Wall seconds of one pass and its check failures."""
    t0 = perf_counter()
    try:
        output = prepared.run()
    except Exception:  # a pass that raises counts as a failed pass
        return perf_counter() - t0, [traceback.format_exc(limit=3)]
    wall = perf_counter() - t0
    return wall, prepared.check(output)


def _time_left(start: float, seconds: float, walls: list[float]) -> bool:
    """Whether a pass of median length, started now, ends within ``seconds``.

    Stopping on the prediction keeps a run near ``seconds`` on a slow machine
    too, at the cost of fewer passes.
    """
    return perf_counter() - start + median(walls) <= seconds


def timed(prepared, seconds: float) -> dict:
    walls, failed, errors = [], 0, []
    start = perf_counter()
    while not walls or _time_left(start, seconds, walls):
        wall, problems = _one_pass(prepared)
        walls.append(wall)
        failed += bool(problems)
        errors += problems[:3]
    return {"walls": walls, "attempted": len(walls), "failed": failed, "errors": errors[:10]}


def traced(prepared, seconds: float, per_gate: bool, spans_path: Path) -> dict:
    """Alternate untraced and traced passes after one warm-up pass.

    Per-layer numbers are per traced pass.  The warm-up keeps the first
    pass's cold caches out of the tracing overhead.
    """
    from tracing import Tracer

    tracer = Tracer()
    untraced_walls, traced_walls, failed, errors = [], [], 0, []
    start = perf_counter()
    warm_up, problems = _one_pass(prepared)
    failed += bool(problems)
    errors += problems[:3]
    while not traced_walls or _time_left(start, seconds, [warm_up] + untraced_walls + traced_walls):
        if len(untraced_walls) <= len(traced_walls):
            wall, problems = _one_pass(prepared)
            untraced_walls.append(wall)
        else:
            tracer.begin_pass()
            with tracer.installed(per_gate):
                wall, problems = _one_pass(prepared)
            traced_walls.append(wall)
        failed += bool(problems)
        errors += problems[:3]

    n = len(traced_walls)
    wall = median(traced_walls)
    totals = tracer.totals()
    counts = tracer.counts

    def seconds_in(name, key="inclusive_s"):
        return totals.get(name, {}).get(key, 0.0) / n

    def calls(name):
        return totals.get(name, {}).get("calls", 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    trotterize_calls = calls("trotter.trotterize")
    metrics = {
        "runner.parse_s": prepared.parse_s,
        "runner.build_h_s": prepared.build_h_s,
        "pauli.dense_matrix_calls": calls("pauli.dense_matrix"),
        "pauli.dense_matrix_s": seconds_in("pauli.dense_matrix"),
        "trotter.exact_calls": calls("trotter.exact_propagator"),
        "trotter.exact_calls_per_point": calls("trotter.exact_propagator") / prepared.points,
        "trotter.exact_s": seconds_in("trotter.exact_propagator"),
        "trotter.exact_self_s": seconds_in("trotter.exact_propagator", "self_s"),
        "trotter.exact_share": ratio(seconds_in("trotter.exact_propagator"), wall),
        "trotter.trotterize_calls": trotterize_calls,
        "trotter.trotterize_s": seconds_in("trotter.trotterize"),
        "trotter.trotterize_share": ratio(seconds_in("trotter.trotterize"), wall),
        "trotter.ops_emitted": counts["ops_emitted"] / n,
        "trotter.compile_ops_per_s": ratio(
            counts["ops_emitted"] / n, seconds_in("trotter.trotterize")
        ),
        "trotter.repeat_compile_ratio": ratio(counts["trotterize_repeats"] / n, trotterize_calls),
        "trotter.digital_fidelity_s": seconds_in("trotter.digital_fidelity"),
        "compiler.run_circuit_calls": calls("compiler.run_circuit"),
        "compiler.run_circuit_s": seconds_in("compiler.run_circuit"),
        "compiler.run_circuit_share": ratio(seconds_in("compiler.run_circuit"), wall),
        "compiler.controlled_circuit_s": seconds_in("compiler.controlled_circuit"),
    }
    for gate_set in ("S1", "S2", "S3", "S4"):
        metrics[f"compiler.two_qubit_gates.{gate_set}"] = counts[f"two_qubit_gates.{gate_set}"] / n
    for kind in GATE_KINDS:
        metrics[f"statevector.gates.{kind}"] = counts[f"gates.{kind}"] / n
    metrics["statevector.gates.total"] = counts["gates.total"] / n
    for kind in KERNEL_KINDS:
        metrics[f"statevector.ms_per_gate.{kind}"] = 1e3 * ratio(
            tracer.gate_s[kind], counts[f"apply_gate.{kind}"]
        )
    metrics.update({
        "statevector.bytes_moved_computed": counts["bytes_moved_computed"] / n,
        "statevector.apply_dense_unitary_calls": calls("statevector.apply_dense_unitary"),
        "statevector.apply_dense_unitary_s": seconds_in("statevector.apply_dense_unitary"),
        "observables.magnetization_s": seconds_in("observables.magnetization"),
        "observables.correlation_direct_s": seconds_in("observables.correlation_direct"),
        "observables.correlation_ancilla_s": seconds_in("observables.correlation_ancilla"),
        "observables.expectation_series_s": seconds_in("observables.unitary_expectation_series"),
        "observables.spectrum_fit_calls": calls("observables.spectrum_from_series"),
        "observables.spectrum_fit_s": seconds_in("observables.spectrum_from_series"),
        "trace.untraced_wall_s": median(untraced_walls),
        "trace.traced_wall_s": wall,
        "trace.overhead_s": wall - median(untraced_walls),
        "trace.spans_per_pass": len(tracer.spans) / n,
    })

    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps({
        "totals_per_pass": {k: {f: v / n for f, v in t.items()} for k, t in totals.items()},
        "counts_per_pass": {k: v / n for k, v in counts.items()},
        "traced_walls": traced_walls,
        "untraced_walls": untraced_walls,
        "spans": tracer.spans_json(),
    }))
    return {
        "metrics": metrics,
        "attempted": 1 + len(untraced_walls) + n,
        "failed": failed,
        "errors": errors[:10],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    args = parser.parse_args(argv)

    import_s = _import_spinsim()
    import workloads

    t0 = perf_counter()
    prepared = workloads.PREPARE[args.workload](args.seed)
    setup_s = import_s + perf_counter() - t0
    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "parse_s": prepared.parse_s,
        "build_h_s": prepared.build_h_s,
    }
    if args.mode == "timed":
        import env

        result.update(timed(prepared, args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["inputs"] = prepared.inputs
        result["env"] = env.environment(ROOT)
    elif args.mode == "trace":
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        result.update(traced(prepared, args.seconds, args.workload == "gatesets-n20", spans_path))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
