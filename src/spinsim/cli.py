"""Command-line front end.

Subcommands: ``run <config>``, ``figure <id>``, ``verify`` and ``dump-circuit
<config>`` (time-evolution runs only).  An override flag makes a new config,
checked as it is built.  Exit codes: 0 success, 2 invalid input, 3 resource limit.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import compiler, runner, trotter
from .errors import InputError, ResourceError


def _add_override_flags(p: argparse.ArgumentParser):
    p.add_argument("--gateset", choices=["S1", "S2", "S3", "S4"], help="override gate set")
    p.add_argument("--order", type=int, choices=[1, 2], help="override Trotter order")
    p.add_argument("--steps", type=int, help="override: fixed step count")
    p.add_argument("--eps", type=float, help="override: fixed digital error budget")
    p.add_argument("--growth", choices=["linear", "quadratic"], help="override: fixed-eps growth")
    p.add_argument("--out", help="write output to this file instead of stdout")


def _apply_overrides(cfg, args):
    given = [f"--{flag}" for flag in ("steps", "eps", "order", "growth", "gateset")
             if getattr(args, flag) is not None]
    if given and cfg.heis2_variant is not None and all(
        o.kind != "correlation" for o in cfg.observables
    ):
        raise InputError(
            f"{given[0]} does not apply: the fixed Heisenberg variant {cfg.heis2_variant} "
            "runs every column in place of the plan and gate set"
        )
    if args.steps is not None and args.eps is not None:
        raise InputError("--steps and --eps set different schedules; give one of them")
    plan = replace(cfg.plan, order=args.order or cfg.plan.order)
    if args.steps is not None:
        plan = trotter.TrotterPlan.fixed_n(args.steps, order=plan.order)
    elif args.eps is not None:
        plan = trotter.TrotterPlan.fixed_eps(args.eps, plan.growth, order=plan.order)
    if args.growth and plan.eps is None:
        raise InputError("--growth applies to a fixed_eps schedule only")
    plan = replace(plan, growth=args.growth or plan.growth)
    return replace(cfg, gate_set=compiler.GateSet(args.gateset or cfg.gate_set), plan=plan)


def _emit(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinsim",
        description="Digital quantum simulation of spin models (CSV output).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config file")
    p_run.add_argument("config")
    _add_override_flags(p_run)

    p_fig = sub.add_parser("figure", help="run a figure-reproduction preset")
    p_fig.add_argument("id", help=f"one of: {', '.join(runner.FIGURE_IDS)}")
    _add_override_flags(p_fig)

    p_ver = sub.add_parser("verify", help="run the decomposition verification suite")
    p_ver.add_argument("--out", help="write the report to this file")

    p_dump = sub.add_parser(
        "dump-circuit", help="compile the config's full-time evolution circuit"
    )
    p_dump.add_argument("config")
    _add_override_flags(p_dump)

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            checks = runner.verify_suite()
            _emit(runner.format_verify_report(checks) + "\n", args.out)
            return 0 if all(c.passed for c in checks) else 1
        if args.command == "figure":
            cfg = _apply_overrides(runner.figure_preset(args.id), args)
        else:
            cfg = _apply_overrides(runner.parse_config(runner.read_text(args.config)), args)
        if args.command == "dump-circuit":
            compiles = {"spectrum": "theta", "fidelity": "schedule and delta"}.get(cfg.run_kind)
            if compiles:
                raise InputError(
                    f"dump-circuit does not apply to a {cfg.run_kind} run, which compiles "
                    f"one circuit per {compiles}"
                )
            h = runner.build_hamiltonian(cfg)
            (grid, _), *_ = runner._digital_grids(cfg, runner._compilers(cfg, h), [cfg.t_max])
            _emit(compiler.dumps_circuit(next(grid)[0].circuit), args.out)
        else:
            _emit(runner.run(cfg), args.out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
