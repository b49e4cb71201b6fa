"""spinsim benchmark: one workload per call, each in fresh processes.

    python3 bench/run.py --workload fig2 --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1

With ``--trace 0`` it reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); with ``--trace 1`` it runs a separate traced process and
reports the per-layer metrics.  The last line of output is one JSON object
with the keys correct, attempted, failed and metrics.  A detailed record,
with the environment and the seed, goes to .bench_out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("fig2", "heis9-exact", "gatesets-n20", "spectrum-heis2")
SETUP_PROBES = 6  # set-up-only processes, half before and half after the timed one
RUN_TIMEOUT_S = 170  # for all processes of one workload together


def _worker(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    # on timeout, subprocess.run kills the worker and waits for it
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile that has at
    least ten samples beyond it (None when the count is too small)."""
    n = len(values)
    q1, _, q3 = quantiles(values, n=4) if n > 1 else (values[0],) * 3
    out = {"n": n, "median": median(values), "q1": q1, "q3": q3, "tail": None}
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            out["tail"] = {"percentile": p, "value": quantiles(values, n=1000)[int(p * 10) - 1]}
            break
    return out


def _metrics(values: dict, kind: str) -> dict:
    """Values named as BENCHMARK.json lists them under ``kind``, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(values):
        raise SystemExit(f"{kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(values))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns the result object printed last and the detailed record."""
    deadline = monotonic() + RUN_TIMEOUT_S
    if trace:
        run = _worker(workload, seed, "trace", seconds, deadline)
        metrics = _metrics(run["metrics"], "per_layer")
        record = {"trace": run}
    else:
        # set-up probes before and after the timed process, so that setup_s
        # samples the machine at both ends of the run
        def probe():
            return _worker(workload, seed, "setup", seconds, deadline)["setup_s"]

        setup = [probe() for _ in range(SETUP_PROBES // 2)]
        run = _worker(workload, seed, "timed", seconds, deadline)
        setup.append(run["setup_s"])
        setup += [probe() for _ in range(SETUP_PROBES // 2)]
        metrics = _metrics({
            "wall_s": median(run["walls"]),
            "setup_s": median(setup),
            "peak_rss_mb": run["peak_rss_mb"],
        }, "end_to_end")
        record = {
            "wall_s": summarize(run["walls"]),
            "setup_s": summarize(setup),
            "peak_rss_mb": run["peak_rss_mb"],
            "check_fail_ratio": run["failed"] / run["attempted"],
            "timed": run,
        }
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    record.update({"workload": workload, "seed": seed, "seconds": seconds, "result": result})
    return result, record


def _print_summary(workload: str, record: dict):
    result = record["result"]
    print(f"== {workload} seed={record['seed']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for error in record.get("timed", record.get("trace", {})).get("errors", []):
        print("   check failed:", error.strip().splitlines()[-1])
    if "wall_s" in record:
        for name in ("wall_s", "setup_s"):
            s = record[name]
            tail = f" p{s['tail']['percentile']:g}={s['tail']['value']:.4f}" if s["tail"] else ""
            print(f"   {name:<16} median {s['median']:.4f} s  q1 {s['q1']:.4f}  "
                  f"q3 {s['q3']:.4f}  n={s['n']}{tail}")
        print(f"   {'peak_rss_mb':<16} {record['peak_rss_mb']:.1f} MB")
        print(f"   {'check_fail_ratio':<16} {record['check_fail_ratio']:.4f}")
    else:
        for name, m in result["metrics"].items():
            if m["value"]:
                print(f"   {name:<40} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spinsim" / "__init__.py").is_file():
        sys.stderr.write(f"no spinsim sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2

    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    for name in names:
        result, record = measure(name, args.seed, args.seconds, bool(args.trace))
        path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1))
        _print_summary(name, record)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
