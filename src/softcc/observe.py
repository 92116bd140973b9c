"""Observables of a program's runs, and cut-based pruning.

The observables collect what the maximal runs show: the set of final
stores of successful runs projected onto the free variables of the main
agent (fresh variables are discarded by the projection), their +-fold as
the don't-know solution, and flags for failing, hanging, divergent and
limit-hitting runs.

The cut transformation raises every constraint threshold that lies
strictly below a bound psi up to psi, turning runs that cannot beat an
already-found solution into early failures.  Iterating it — explore
until a new solution appears, fold it into psi, restart — computes the
don't-know solution while pruning dominated runs, in the style of
branch and bound.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from .constraints import Constraint, leqc, oplus, oplus_all, pointwise_eq, strictly_below
from .engine import RunLimits, RunRecord, RunResult, _Session, run_all
from .lang import (
    Agent,
    Ask,
    Cut,
    Eventual,
    Level,
    Program,
    Tell,
    format_value,
    free_vars,
    rebuild,
    walk,
    with_children,
)


class ObserveError(RuntimeError):
    pass


FILTER_MODES = ("all", "best", "worst", "frontier")


@dataclass
class Observables:
    success_set: List[Constraint]
    dk_solution: Constraint
    fail: bool
    fail_dk: bool
    hang: bool
    divergent: bool
    bound_exceeded: bool
    obs_vars: Tuple[str, ...]
    result: RunResult = field(repr=False, default=None)


def observation_vars(program: Program) -> Tuple[str, ...]:
    return tuple(sorted(free_vars(program.main)))


def _maximal(items: List[Constraint], strict=strictly_below) -> List[Constraint]:
    out = []
    for c in items:
        if not any(strict(c, d) for d in items if d is not c):
            out.append(c)
    return out


def filter_success_set(items: List[Constraint], mode: str) -> List[Constraint]:
    """Post-filter a success set: everything, the order-maximal elements,
    the order-minimal elements, or both frontiers together."""
    if mode == "all":
        return list(items)
    if mode == "best":
        return _maximal(items)
    if mode == "worst":
        return _maximal(items, strict=lambda a, b: strictly_below(b, a))
    if mode == "frontier":
        best = filter_success_set(items, "best")
        worst = filter_success_set(items, "worst")
        keys = {c.canonical_key() for c in best}
        return best + [c for c in worst if c.canonical_key() not in keys]
    raise ObserveError(f"unknown filter mode {mode!r}")


def observables_of(
    program: Program, result: RunResult, mode: str = "all"
) -> Observables:
    obs = observation_vars(program)
    projected: List[Constraint] = []
    seen = set()
    for rec in result.records:
        if rec.kind != "success":
            continue
        proj = rec.store.project(obs)
        key = proj.canonical_key()
        if key not in seen:
            seen.add(key)
            projected.append(proj)
    dk = oplus_all(projected, program.system)
    kinds = [r.kind for r in result.records]
    return Observables(
        success_set=filter_success_set(projected, mode),
        dk_solution=dk,
        fail=("fail" in kinds),
        fail_dk=bool(kinds) and all(k == "fail" for k in kinds),
        hang=("hang" in kinds),
        divergent=("divergent" in kinds),
        bound_exceeded=("bound_exceeded" in kinds),
        obs_vars=obs,
        result=result,
    )


def observe(
    program: Program, limits: RunLimits = RunLimits(), mode: str = "all"
) -> Observables:
    return observables_of(program, run_all(program, limits), mode)


def success_set(program: Program, limits: RunLimits = RunLimits()) -> List[Constraint]:
    return observe(program, limits).success_set


def dk_solution(program: Program, limits: RunLimits = RunLimits()) -> Constraint:
    return observe(program, limits).dk_solution


# -- the cut transformation ---------------------------------------------


def _cut_leave(psi: Constraint):
    """The rebuild step of the cut for bound psi."""
    zero = psi.system.constant(psi.system.semiring.zero)
    psi_is_zero = pointwise_eq(psi, zero)
    raised = Cut(psi, None, True)

    def leave(a: Agent, _, kids) -> Agent:
        if not isinstance(a, (Tell, Ask)):
            return with_children(a, kids)
        t = a.threshold
        # an eventual threshold is the bottom constraint, so a nonzero
        # bound raises it; Level thresholds are out of the cut's scope
        if isinstance(t, Cut) and strictly_below(t.constraint, psi) or (
            isinstance(t, Eventual) and not psi_is_zero
        ):
            t = raised
        return type(a)(a.con, t, *kids)

    return leave


def cut_agent(a: Agent, psi: Constraint) -> Agent:
    """Raise every constraint threshold strictly below psi up to psi."""
    return rebuild(a, _cut_leave(psi))


def cut_program(program: Program, psi: Constraint) -> Program:
    """cut_agent over the main agent and every procedure body; thresholds
    are all that change, so the system and resolve caches are shared."""
    leave = _cut_leave(psi)
    cut = copy.copy(program)
    cut.decls = {name: replace(d, body=rebuild(d.body, leave)) for name, d in program.decls.items()}
    cut.main = rebuild(program.main, leave)
    return cut


# -- branch and bound ----------------------------------------------------


@dataclass
class BBStats:
    iterations: int = 0  # number of times the bound was raised
    runs_pruned: int = 0  # runs that failed at a raised threshold
    runs_explored: int = 0  # maximal runs met across all restarts


def solve_bb(
    program: Program, limits: RunLimits = RunLimits(), *, _session: Optional[_Session] = None
) -> Tuple[Constraint, BBStats]:
    """The don't-know solution by iterated cuts.

    Each pass runs the program cut at the bound psi until a success not
    already below psi appears (``run_all``'s stop), folds it into psi and
    restarts; a complete pass that finds nothing new ends the search.
    Runs are counted leftmost first, as path enumeration meets them.  The
    returned constraint pointwise equals the +-fold over all successes.

    Every pass starts from one root store, in one session, so later passes
    find the answers of the stores earlier passes reached (see
    ``engine._Session``); the stop test's projection of the accepted
    success goes into psi as it is.  ``_session`` hands on the session of
    an earlier exploration of the same program, as ``scc bb`` does.
    """
    if program.main is None:
        raise ObserveError("program has no agent to run")
    agents = [program.main] + [d.body for d in program.decls.values()]
    if any(isinstance(getattr(n, "threshold", None), Level) for a in agents for n in walk(a)):
        raise ObserveError(
            "branch and bound handles constraint thresholds only; "
            "a semiring-level threshold cannot be raised to a bound"
        )
    system = program.system
    session = _Session(system) if _session is None else _session
    obs = observation_vars(program)
    psi = system.constant(system.semiring.zero)
    stats = BBStats()
    found: List[Constraint] = []  # the projection of the success a pass stopped at

    def new(store) -> bool:
        proj = store.project(obs)
        if leqc(proj, psi):
            return False
        found.append(proj)
        return True

    while True:
        # at the zero bound the cut raises nothing, so the first pass runs program
        cut = cut_program(program, psi) if stats.iterations else program
        res = run_all(cut, limits, stop=new, _session=session)
        stats.runs_explored += res.total_runs
        stats.runs_pruned += sum(r.pruned for r in res.records)
        if not found:
            return psi, stats
        psi = oplus(psi, found.pop())
        stats.iterations += 1


# -- serialization -------------------------------------------------------


def value_json(v):
    """A value as a JSON number where one reads back as the value, and as
    its program text otherwise ("inf" included)."""
    if isinstance(v, bool):
        return v
    text = format_value(v)
    return float(v) if text != "inf" and format_value(float(v)) == text else text


def constraint_json(c: Constraint) -> dict:
    return {
        "vars": list(c.vars),
        "support": sorted(c.support()),
        "rows": [
            {"assignment": list(row), "value": value_json(v)}
            for row, v in c.rows_sorted()
        ],
        "default": None if c.default is None else value_json(c.default),
    }


def observables_json(obs: Observables, bb: Optional[BBStats] = None) -> dict:
    return {
        "success_set": [constraint_json(c) for c in obs.success_set],
        "dk_solution": constraint_json(obs.dk_solution),
        "fail": obs.fail,
        "fail_dk": obs.fail_dk,
        "hang": obs.hang,
        "divergent": obs.divergent,
        "bound_exceeded": obs.bound_exceeded,
        "bb": None
        if bb is None
        else {"iterations": bb.iterations, "runs_pruned": bb.runs_pruned},
    }


def run_record_json(rec: RunRecord) -> dict:
    final = None
    if rec.store is not None:
        final = constraint_json(rec.store.materialize())
    return {
        "terminal": rec.kind,
        "final_store": final,
        "rule_trace": [rule for rule, _ in rec.trace],
        "steps": rec.steps,
    }


def constraint_text(c: Constraint) -> str:
    """One-line rendering: variables, then rows, then the default."""
    rows = " ".join(
        "({})={}".format(",".join(str(a) for a in row), format_value(v))
        for row, v in c.rows_sorted()
    )
    head = ",".join(c.vars) if c.vars else "()"
    parts = [f"{head}:"]
    if rows:
        parts.append(rows)
    if c.default is not None:
        parts.append(f"default={format_value(c.default)}")
    return " ".join(parts)
