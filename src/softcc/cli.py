"""Command-line front end.

Commands:
  check FILE     parse and validate, report ok or the first error
  solve FILE     solve a problem file (interest clause): solution + best level
  run FILE       execute one run of the agent under a scheduling policy
  observe FILE   explore all runs and print the observables
  bb FILE        compute the don't-know solution by iterated cuts

Exit codes: 0 when successful runs dominate, 2 when every run fails,
3 on hang or divergence, 4 when a limit was hit, 1 for usage, parse,
or validation errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys

from .constraints import ConstraintError
from .engine import EngineError, RunLimits, _Session, run_all, run_one
from .lang import ProgramError, Ref, format_value
from .observe import (
    ObserveError,
    constraint_json,
    constraint_text,
    observables_json,
    observables_of,
    observe,
    run_record_json,
    solve_bb,
    value_json,
    FILTER_MODES,
)
from .parser import parse_program
from .problem import Problem, blevel, solve


class _CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _CliError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise _CliError(f"{path}: not UTF-8: {e}") from None
    try:
        return parse_program(text)
    except ProgramError as e:
        raise _CliError(f"{path}: {e}") from None


def _limits(args) -> RunLimits:
    max_steps = args.max_steps
    if max_steps is None:
        env = os.environ.get("SCC_MAX_STEPS")
        try:
            max_steps = int(env) if env else 100_000
        except ValueError:
            raise _CliError(f"SCC_MAX_STEPS is not an integer: {env!r}") from None
    if max_steps <= 0 or args.max_fresh <= 0:
        raise _CliError("limits must be positive")
    return RunLimits(max_steps=max_steps, max_fresh_vars=args.max_fresh)


def _emit(args, doc: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


_TERMINAL_CODES = {
    "success": 0,
    "fail": 2,
    "hang": 3,
    "divergent": 3,
    "bound_exceeded": 4,
}


def _flags_code(obs) -> int:
    if obs.result.records and any(r.kind == "success" for r in obs.result.records):
        return 0
    if obs.fail_dk:
        return 2
    if obs.hang or obs.divergent:
        return 3
    if obs.bound_exceeded:
        return 4
    return 2


def cmd_check(args) -> int:
    _load(args.file)
    print("ok")
    return 0


def _problem_of(program) -> Problem:
    if program.interest is None:
        raise _CliError("no interest clause; not a problem file")
    constraints = []
    for t in program.templates.values():
        missing = [v for v in t.params if v not in program.variables]
        if missing:
            raise _CliError(
                f"constraint {t.name} is over {missing}, not declared variables; "
                "a problem file's constraints must range over declared variables"
            )
        constraints.append(program.resolve(Ref(t.name, tuple(t.params))))
    return Problem(program.system, constraints, program.interest)


def cmd_solve(args) -> int:
    program = _load(args.file)
    prob = _problem_of(program)
    sol = solve(prob)
    bl = blevel(prob)
    system = program.system
    doc = {"solution": constraint_json(sol), "blevel": value_json(bl)}
    vars_ = prob.interest
    if system.cells(len(vars_)) <= 4096:
        cells = []
        for combo in itertools.product(system.domain, repeat=len(vars_)):
            v = sol.eval(dict(zip(vars_, combo)))
            key = (
                str(combo[0])
                if len(combo) == 1
                else "(" + ",".join(str(a) for a in combo) + ")"
            )
            cells.append(f"{key}={format_value(v)}")
        head = ",".join(vars_) if vars_ else "()"  # as constraint_text heads it
        line = f"{head}: " + " ".join(cells) + f" ; blevel={format_value(bl)}"
    else:
        line = constraint_text(sol) + f" ; blevel={format_value(bl)}"
    _emit(args, doc, [line])
    return 0


def _require_agent(program):
    if program.main is None:
        raise _CliError("the file declares no agent to run")


def cmd_run(args) -> int:
    program = _load(args.file)
    _require_agent(program)
    rec = run_one(program, policy=args.policy, seed=args.seed, limits=_limits(args))
    doc = run_record_json(rec)
    lines = [f"terminal: {rec.kind}", f"steps: {rec.steps}"]
    if rec.store is not None:
        lines.append(f"store: {constraint_text(rec.store.materialize())}")
    _emit(args, doc, lines)
    return _TERMINAL_CODES[rec.kind]


def _observe_lines(obs, bb=None):
    lines = [f"success_set: {len(obs.success_set)} store(s)"]
    for i, c in enumerate(obs.success_set, 1):
        lines.append(f"  {i}. {constraint_text(c)}")
    lines.append(f"dk: {constraint_text(obs.dk_solution)}")
    lines.append(
        "fail={} fail_dk={} hang={} divergent={} bound_exceeded={}".format(
            *(
                str(b).lower()
                for b in (obs.fail, obs.fail_dk, obs.hang, obs.divergent, obs.bound_exceeded)
            )
        )
    )
    if bb is not None:
        lines.append(f"bb: iterations={bb.iterations} runs_pruned={bb.runs_pruned}")
    return lines


def cmd_observe(args) -> int:
    program = _load(args.file)
    _require_agent(program)
    obs = observe(program, limits=_limits(args), mode=args.filter)
    _emit(args, observables_json(obs), _observe_lines(obs))
    return _flags_code(obs)


def cmd_bb(args) -> int:
    program = _load(args.file)
    _require_agent(program)
    limits = _limits(args)
    # explore first, so the bb passes start with the answers it computed
    session = _Session(program.system)
    obs = observables_of(program, run_all(program, limits, _session=session))
    psi, stats = solve_bb(program, limits, _session=session)
    obs = dataclasses.replace(obs, dk_solution=psi)  # printed as observe prints its dk
    _emit(args, observables_json(obs, bb=stats), _observe_lines(obs, bb=stats))
    return _flags_code(obs)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="scc", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, limits=True):
        sp.add_argument("file", help="program or problem file")
        sp.add_argument("--format", choices=("json", "text"), default="text")
        if limits:
            sp.add_argument(
                "--max-steps",
                type=int,
                default=None,
                help="step limit per run (default 100000, or SCC_MAX_STEPS)",
            )
            sp.add_argument("--max-fresh", type=int, default=1000)

    sp = sub.add_parser("check", help="parse and validate a file")
    common(sp, limits=False)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("solve", help="solve a problem file")
    common(sp, limits=False)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("run", help="execute one run of the agent")
    common(sp)
    sp.add_argument("--policy", choices=("leftmost", "random"), default="leftmost")
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("observe", help="explore all runs, print observables")
    common(sp)
    sp.add_argument("--filter", choices=FILTER_MODES, default="all")
    sp.set_defaults(fn=cmd_observe)

    sp = sub.add_parser("bb", help="don't-know solution by iterated cuts")
    common(sp)
    sp.set_defaults(fn=cmd_bb)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if getattr(args, "policy", None) is not None:
        if args.policy == "random" and args.seed is None:
            print("scc: error: --policy random requires --seed", file=sys.stderr)
            return 1
        if args.policy == "leftmost" and args.seed is not None:
            print("scc: error: --seed only applies to --policy random", file=sys.stderr)
            return 1
    if sys.stdout is None:  # scc was started with stdout closed
        print("scc: error: cannot write the output: stdout is closed", file=sys.stderr)
        return 1
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a full stdout or a closed pipe fails here, not at exit
        return code
    except _CliError as e:
        print(f"scc: error: {e}", file=sys.stderr)
        return e.code
    except (ProgramError, ConstraintError, EngineError, ObserveError) as e:
        print(f"scc: error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # BrokenPipeError included; the file reads report their own
        # what is left in stdout's buffer is flushed again at exit, to nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"scc: error: cannot write the output: {e.strerror or e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
