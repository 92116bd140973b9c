"""The benchmark's workloads: inputs, timed operations and output checks.

network    ``observe`` on the two frozen network fixtures.  Over a billion
           schedules collapse onto 526 configurations per fixture, so
           deduplication (``Constraint.canonical_key`` via ``Store.key``)
           carries the time.
genprog    ``observe`` and ``solve_bb`` on programs from the frozen
           generator.  Time spreads over every layer; this is the
           branch-and-bound workload and the mixed one.
deep_tell  ``run_one`` on a recursive weighted tell up to a step limit.
           Every tell appends a factor and every ``Store.key`` refolds
           all of them, so ``combine_project`` carries the time.

Every operation is called through the ``softcc`` package namespace, so
the tracer's wrappers see it.  Checks run outside the timed sections.
"""

import itertools
import pathlib
from dataclasses import dataclass
from typing import Callable, Tuple

import frozen_genprog

HERE = pathlib.Path(__file__).resolve().parent

DEEP_TELL = (
    "semiring weighted; domain {a, b}; var x; "
    "constraint c(x) { (a) = 1; (b) = 2; } "
    "proc p(x) :: tell(c(x)) -> p(x); agent = p(x);"
)

# Expected behaviour of each network fixture, fixed by the fixture alone.
NETWORK_EXPANSIONS = 526
NETWORK_TOTAL_RUNS = 1_221_325_404
# Criterion 9 of the acceptance suite: duplicated copies of each shared
# variable agree wherever the solution is nonzero, and every site's end
# flag is forced true.
NETWORK_TRIOS = (("x_a", "x_d", "x_c"), ("y_a", "y_d", "y_b"), ("z_b", "z_d", "z_c"))
NETWORK_ENDS = ("end_a", "end_b", "end_c", "end_d")


@dataclass(frozen=True)
class Config:
    program_seed: int = 7  # genprog: seed of the frozen generator
    programs: int = 200  # genprog: number of programs
    steps: int = 160  # deep_tell: run_one step limit

    def key(self, workload: str) -> str:
        """Names the input set, for the recorded behaviour counts."""
        if workload == "genprog":
            return f"genprog/seed{self.program_seed}/n{self.programs}"
        if workload == "deep_tell":
            return f"deep_tell/steps{self.steps}"
        return workload


@dataclass
class Workload:
    name: str
    ops: Tuple[str, ...]
    texts: Callable  # Config -> [(input name, program text)]


def _network_texts(cfg):
    return [(n, (HERE / "inputs" / f"{n}.scc").read_text()) for n in ("network", "network_weighted")]


def _genprog_texts(cfg):
    texts = frozen_genprog.program_texts(cfg.program_seed, cfg.programs)
    return [(f"p{i:03d}", t) for i, t in enumerate(texts)]


def _deep_tell_texts(cfg):
    return [("deep_tell", DEEP_TELL)]


WORKLOADS = {
    "network": Workload("network", ("observe",), _network_texts),
    "genprog": Workload("genprog", ("observe", "solve_bb"), _genprog_texts),
    "deep_tell": Workload("deep_tell", ("run_one",), _deep_tell_texts),
}


def run_op(api, op, program, cfg):
    """The timed call: what ``scc observe`` / ``scc bb`` / ``scc run`` wait on."""
    if op == "observe":
        return api.observe(program)
    if op == "solve_bb":
        return api.solve_bb(program)
    return api.run_one(program, "leftmost", limits=api.RunLimits(max_steps=cfg.steps))


def summarize(op, out):
    """(behaviour counts, result constraint or value) of one operation."""
    if op == "observe":
        r = out.result
        counts = {
            "expansions": r.expansions,
            "total_runs": r.total_runs,
            "successes": len(out.success_set),
        }
        return counts, out.dk_solution
    if op == "solve_bb":
        psi, stats = out
        counts = {
            "iterations": stats.iterations,
            "runs_explored": stats.runs_explored,
            "runs_pruned": stats.runs_pruned,
        }
        return counts, psi
    last = out.trace[-1][1].store
    return {"steps": out.steps, "bound_exceeded": int(out.kind == "bound_exceeded")}, last.blevel()


def same_result(api, a, b) -> bool:
    if isinstance(a, api.Constraint):
        return api.pointwise_eq(a, b)
    return a == b


def check_pass(api, workload, cfg, program, summaries):
    """Problems with one input's outputs in one pass; summaries maps op to
    (counts, result).  Cheap checks only: they run after every pass."""
    problems = []
    if workload == "network":
        counts, _ = summaries["observe"]
        want = {"expansions": NETWORK_EXPANSIONS, "total_runs": NETWORK_TOTAL_RUNS, "successes": 1}
        if counts != want:
            problems.append(f"observe counts {counts}, expected {want}")
    elif workload == "genprog":
        dk, psi = summaries["observe"][1], summaries["solve_bb"][1]
        if not api.pointwise_eq(dk, psi):
            problems.append("solve_bb psi differs from observe's dk solution")
    else:
        counts, blevel = summaries["run_one"]
        want = {"steps": cfg.steps, "bound_exceeded": 1}
        if counts != want:
            problems.append(f"run_one counts {counts}, expected {want}")
        # each tell of c(x) lowers the best level by the cost 1 of (a)
        if not program.semiring.eq(blevel, float(cfg.steps // 2)):
            problems.append(f"final blevel {blevel}, expected {cfg.steps // 2}")
    return problems


def check_reference(api, workload, program, summaries):
    """Problems found against an independent definition; run once per input."""
    if workload == "network":
        return _network_invariants(api, program, summaries["observe"][1])
    if workload == "genprog":
        return _genprog_enumeration(api, program, summaries["observe"])
    return []


def _network_invariants(api, program, dk):
    s = program.semiring
    problems = []
    for trio in NETWORK_TRIOS:
        for v1, v2 in itertools.combinations(trio, 2):
            pair = api.project(dk, (v1, v2))
            for d1, d2 in itertools.product(program.domain, repeat=2):
                if d1 != d2 and not s.eq(pair.eval({v1: d1, v2: d2}), s.zero):
                    problems.append(f"{v1}={d1}, {v2}={d2} is not zero in the dk solution")
    for end in NETWORK_ENDS:
        flag = api.project(dk, (end,))
        for d in program.domain:
            is_zero = s.eq(flag.eval({end: d}), s.zero)
            if is_zero == (d == "true"):
                problems.append(f"end flag {end}={d} is {'zero' if is_zero else 'nonzero'}")
    return problems


def _genprog_enumeration(api, program, observed):
    """run_all against plain path enumeration: iter_runs and the +-fold of
    the projected success stores."""
    counts, dk = observed
    obs_vars = api.observation_vars(program)
    total, projected = 0, []
    for rec in api.iter_runs(program):
        total += 1
        if rec.kind == "success":
            projected.append(rec.store.project(obs_vars))
    problems = []
    if total != counts["total_runs"]:
        problems.append(f"run_all total_runs {counts['total_runs']}, path enumeration {total}")
    if not api.pointwise_eq(api.oplus_all(projected, program.system), dk):
        problems.append("observe's dk differs from the fold over enumerated paths")
    return problems
