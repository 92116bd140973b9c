"""Semiring-based soft constraints and an interpreter for the scc language.

The library has three layers:

* a constraint algebra parameterized by a semiring — combination,
  projection, entailment, and problem solving (``semiring``,
  ``constraints``, ``problem``);
* a small concurrent language whose agents tell and ask soft
  constraints against a shared store, with thresholds that turn
  over-eager actions into failures (``lang``, ``parser``, ``engine``);
* observables over all runs plus cut-based branch-and-bound search for
  the best reachable store (``observe``), and a command line (``cli``).
"""

from .semiring import (
    BOOLEAN,
    FUZZY,
    PROBABILISTIC,
    WEIGHTED,
    ALL_SEMIRINGS,
    CarrierError,
    Semiring,
    by_name,
)
from .constraints import (
    Constraint,
    ConstraintError,
    ConstraintSystem,
    IncompleteConstraintError,
    MAX_CELLS,
    TooLargeError,
    combine_project,
    entails,
    entails_witness,
    glb,
    hide,
    leqc,
    oplus,
    oplus_all,
    pointwise_eq,
    project,
    refutes_entailment,
    rename,
    strictly_below,
    tensor,
    tensor_all,
)
from .problem import ConsistencyCut, Problem, blevel, consistent, is_consistent, solve
from .lang import (
    Agent,
    Ask,
    Call,
    ConstRef,
    Cut,
    Decl,
    DiagRef,
    Eventual,
    Exists,
    Level,
    Par,
    Program,
    ProgramError,
    Ref,
    Stop,
    Sum,
    Tell,
    Template,
    free_vars,
    pretty,
    substitute,
)
from .parser import ParseError, parse_program, pretty_program
from .engine import (
    Configuration,
    EngineError,
    RunLimits,
    RunRecord,
    RunResult,
    Store,
    StepEdge,
    initial_configuration,
    iter_runs,
    run_all,
    run_one,
    step,
)
from .observe import (
    BBStats,
    FILTER_MODES,
    Observables,
    ObserveError,
    constraint_json,
    constraint_text,
    cut_agent,
    cut_program,
    dk_solution,
    filter_success_set,
    observables_json,
    observables_of,
    observation_vars,
    observe,
    run_record_json,
    solve_bb,
    success_set,
    value_json,
)

__version__ = "0.1.0"
