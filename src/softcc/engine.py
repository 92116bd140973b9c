"""Small-step execution of agents against a shared store.

The store starts at constant one and only ever moves down the constraint
order as tells combine new constraints in.  Each tell folds into one of
its factors, whose supports form an antichain, so n tells cost O(n); best
level, entailment and projections go through variable elimination so the
joint table is never built unless it is small.  Each store memoises its
tells: every schedule that tells the same constraint to the same store
gets one shared successor, with its key and entailment answers computed
once.  That is exact, as a fold reads nothing but the store and the
constraint, and weak, so a store lives only while a run holds it.

A configuration is an agent plus a store (plus the fresh-name counters a
run has used).  ``step`` returns every rule application at once:

  stop succeeds; tell combines and then checks its threshold, failing
  when the would-be store falls strictly below it; ask checks its
  threshold and fires only when the store entails the asked constraint;
  choice steps by any branch whose guard fires, fails when all branches
  fail, hangs when the rest hang; parallel composition interleaves and
  continues as the other side once one side succeeds, failing if either
  side fails; exists runs its body on a fresh variable; calls unfold.

A lone ask with nothing to fire on is not a verdict by itself: as long
as any other component can move the run goes on, and the configuration
is classified Hang only when nothing anywhere can step.

``run_all`` explores every maximal run depth-first, deduplicating
structurally identical configurations, detecting on-path repetition as
divergence, and counting maximal runs exactly as path enumeration does.
Its memo is exact: a configuration is memoised only when none of its runs
met an on-path repeat or the step bound, with its height (the steps down
to its deepest running configuration), and reused at depth d only while
d + height stays below the step bound.  Its traces are chains ((rule,
configuration), rest) ending in () that share their tails, flattened
once, at the root.

A leaf (tell, ask, stop, choice or call) moves by looking at itself and
the store alone: a choice's branches are asks, so no leaf opens an
exists.  Parallel composition lifts that move unchanged, with the
counters of the component that moves.  So each ``run_all`` call owns a
leaf memo, keyed by store identity and leaf: every leaf met again at the
same store, in any configuration, costs one lookup.  Each entry pins its
store, so the memo belongs to the exploration and not to the store; the
stores it holds are freed when the call, or the session that branch and
bound hands it, ends.  ``iter_runs`` yields the runs one by one in
leftmost order and keeps no leaf memo, so it stays an independent
oracle.  ``run_one`` follows a single run under a leftmost or seeded
random policy; leftmost builds only the moves of the first component
that can move.
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .constraints import (
    Constraint,
    combine_project,
    entails_witness,
    leqc,
    tensor,
    tensor_all,
)
from .lang import (
    Agent,
    Ask,
    Call,
    Cut,
    Eventual,
    Exists,
    Level,
    Par,
    Program,
    Stop,
    Sum,
    Tell,
    substitute,
)
from .semiring import Value


class EngineError(RuntimeError):
    pass


# -- the store ----------------------------------------------------------

# Stores whose joint table fits in this many cells compare pointwise;
# larger ones compare by their factor multiset, which is still sound for
# deduplication but can miss a repeat that is only pointwise.  Folding
# tells bounds each factor's width but not the store's, so both remain.
_POINTWISE_CELLS = 4096


class Store:
    """An immutable factored store: the combination of everything told.

    ``told`` holds the canonical key of every told constraint (by default,
    of each given factor); x is intensive, so the store entails each one.

    Each store memoises its tells (see ``tell``), so a repeated tell returns
    one successor whose key, hash, level, entailment and cut answers are
    warm.  What a leaf agent does at the store is memoised by ``run_all``,
    not here, so that no store keeps the stores its runs reached alive.
    """

    __slots__ = (
        "system", "factors", "told", "_key", "_hash", "_proj", "_entails", "_below", "_tells",
        "__weakref__",
    )

    def __init__(self, system, factors: Tuple[Constraint, ...] = (), told=None):
        self.system = system
        self.factors = factors
        self.told = frozenset(f.canonical_key() for f in factors) if told is None else told
        self._key = self._hash = None
        self._proj, self._entails, self._below, self._tells = {}, {}, {}, {}

    def tell(self, c: Constraint) -> "Store":
        """The store after combining c in.

        c folds into the first factor whose support contains its own, or
        else absorbs every factor inside its support.  So the supports form
        an antichain: there are never more factors than distinct told
        supports, and none wider than the widest told constraint.  With an
        idempotent x, re-telling a constraint already told leaves the store
        pointwise unchanged, so the store itself is returned; that keeps
        repeated tells recognizable as repeats.

        Other results are memoised weakly under c's variables and canonical
        key; the fold reads nothing else of c, so the memo is exact.  Stores
        are not interned by ``key()``: equal keys can hide different
        variables, and so successors on different sides of the pointwise cap.
        """
        ck = c.canonical_key()
        if ck in self.told and self.system.semiring.idempotent_times:
            return self
        memo = (c.vars, ck)
        ref = self._tells.get(memo)
        new = ref() if ref is not None else None
        if new is None:
            new = self._fold(c, ck)
            self._tells[memo] = weakref.ref(new)
        return new

    def _fold(self, c: Constraint, ck) -> "Store":
        told = self.told if ck in self.told else self.told | {ck}
        cv = set(c.vars)
        for i, f in enumerate(self.factors):
            if cv.issubset(f.vars):
                folded = self.factors[:i] + (tensor(f, c),) + self.factors[i + 1 :]
                return Store(self.system, folded, told)
        inside = [f for f in self.factors if cv.issuperset(f.vars)]
        rest = tuple(f for f in self.factors if not cv.issuperset(f.vars))
        return Store(self.system, rest + (tensor_all(inside + [c], self.system),), told)

    def vars(self) -> tuple:
        return tuple(dict.fromkeys(v for f in self.factors for v in f.vars))

    def key(self) -> tuple:
        if self._key is None:
            nvars = len(self.vars())
            if self.system.cells(nvars) <= _POINTWISE_CELLS:
                self._key = ("pw", self.materialize().canonical_key())
            else:
                keys = (f.canonical_key() for f in self.factors)
                self._key = ("fs", tuple(sorted(keys, key=repr)))
        return self._key

    def __eq__(self, other):
        return self is other or isinstance(other, Store) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def materialize(self) -> Constraint:
        """The store as one constraint; only sensible while it stays small."""
        return self.project(self.vars())

    def blevel(self) -> Value:
        return self.project(()).scalar()

    def entails(self, c: Constraint) -> bool:
        ck = c.canonical_key()
        if ck in self.told:
            return True  # x is intensive: the store lies below all it was told
        got = self._entails.get(ck)
        if got is None:
            got = self._entails[ck] = leqc(self.project(c.vars), c)
        return got

    def witness(self, c: Constraint) -> Optional[dict]:
        """An assignment refuting entailment of c, or None if entailed."""
        factors = self.factors or (self.system.constant(self.system.semiring.one),)
        return entails_witness(list(factors), c)

    def below_cut(self, phi: Constraint) -> bool:
        ck = phi.canonical_key()
        got = self._below.get(ck)
        if got is None:
            # only a store that entails phi can lie below it, and entailment
            # needs no joint table; then it is strictly below unless phi is
            # below it too
            got = self._below[ck] = self.entails(phi) and not leqc(phi, self.materialize())
        return got

    def project(self, keep) -> Constraint:
        """The store projected onto keep, cached by the set of its variables."""
        k = frozenset(keep)
        got = self._proj.get(k)
        if got is None:
            got = self._proj[k] = combine_project(self.factors, k, self.system)
        return got

    def value_at(self, assignment) -> Value:
        s = self.system.semiring
        return s.combine_all(f.eval(assignment) for f in self.factors)

    def __repr__(self):
        return f"Store({len(self.factors)} factors over {self.vars()})"


# -- configurations -----------------------------------------------------


@dataclass(frozen=True)
class Configuration:
    """One point of a run: running agent, or a terminal verdict."""

    kind: str  # running | success | fail | hang
    agent: Optional[Agent]
    store: Store
    fresh: Tuple[Tuple[str, int], ...] = ()
    blocked: Tuple[Constraint, ...] = field(default=(), compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # every memo, on-path and seen lookup hashes it, so hash it once
        object.__setattr__(self, "_hash", hash((self.kind, self.agent, self.store, self.fresh)))

    def __hash__(self):
        return self._hash

    def fresh_total(self) -> int:
        return sum(n for _, n in self.fresh)


@dataclass(frozen=True)
class StepEdge:
    rule: str
    target: Configuration
    pruned: bool = False  # the edge is a fail at a threshold the cut raised


@dataclass
class _Move:
    rule: str
    kind: str  # running | success | fail
    agent: Optional[Agent]
    store: Store
    pruned: bool = False


# the rules of a tell or an ask under each kind of threshold: (fires, fails, waits)
_RULES = {
    (node, t): tuple(f"{prefix}{node.__name__.lower()}{end}" for end in ("", "-fail", "-hang"))
    for node in (Tell, Ask)
    for t, prefix in ((Eventual, "eventual-"), (Level, "valued-"), (Cut, ""))
}


def _leaf(agent: Agent, store: Store, program: Program):
    """The rule applications of a leaf, an agent that is neither a Par nor
    an exists: (moves, hang-candidates).  They read the leaf and the store
    alone."""
    if isinstance(agent, (Tell, Ask)):
        fires, fails, waits = _RULES[type(agent), type(agent.threshold)]
        c = program.resolve(agent.con)
        new = store.tell(c) if isinstance(agent, Tell) else store
        t = agent.threshold
        if isinstance(t, Level):
            failed = store.system.semiring.lt(new.blevel(), t.value)
        else:
            failed = isinstance(t, Cut) and new.below_cut(program.threshold_constraint(t))
        if failed:
            return [_Move(fails, "fail", None, store, isinstance(t, Cut) and t.raised)], []
        if isinstance(agent, Ask) and not store.entails(c):
            return [], [(waits, c)]
        return [_Move(fires, "running", agent.body, new)], []

    if isinstance(agent, Stop):
        return [_Move("stop", "success", None, store)], []

    if isinstance(agent, Sum):
        proceeds, fails, hangs = [], [], []
        for b in agent.branches:  # each an ask
            m, h = _leaf(b, store, program)
            for mv in m:
                (proceeds if mv.kind == "running" else fails).append(mv)
            hangs.extend(h)
        if proceeds:
            return proceeds, []
        if not hangs:
            # every branch failed its threshold check
            pruned = any(mv.pruned for mv in fails)
            return [_Move("choice-fail", "fail", None, store, pruned)], []
        return [], [("choice-hang", c) for _, c in hangs]

    if isinstance(agent, Call):
        d = program.decls.get(agent.name)
        if d is None:
            raise EngineError(f"unknown proc {agent.name!r}")
        if len(agent.args) != len(d.params):
            raise EngineError(f"arity mismatch calling {agent.name!r}")
        body = substitute(d.body, dict(zip(d.params, agent.args)))
        return [_Move("call", "running", body, store)], []

    raise EngineError(f"not an agent: {agent!r}")


def _moves(
    agent: Agent, store: Store, fresh: Dict[str, int], program: Program, first=False, leaves=None
):
    """All rule applications of an agent: (moves, hang-candidates), each
    move as (leaf move, kind, agent, counters) once lifted.

    One walk over the Par and exists nodes with an explicit stack.  Each
    component carries ``up``, a linked list (left?, other side, up) of the
    Par nodes above it; a run of directly nested binders opens with one
    substitution, on fresh counters of the component's own; and each move of
    a leaf is lifted through its ``up`` once, with the component's counters.
    With ``first``, the walk ends at the first leaf that moves, leftmost; its
    moves come first either way.  ``leaves``, an exploration's leaf memo
    (see ``run_all``), supplies the result of every leaf that already met
    this store.
    """
    at = {}
    if leaves is not None:
        entry = leaves.get(id(store))
        if entry is None:
            entry = leaves[id(store)] = (store, at)  # the store is pinned, so its id stays its own
        at = entry[1]
    out, hangs = [], []
    todo = [(agent, None, fresh)]
    while todo:
        a, up, fr = todo.pop()
        if isinstance(a, Par):
            todo.append((a.right, (False, a.left, up), fr))
            todo.append((a.left, (True, a.right, up), fr))
            continue
        if isinstance(a, Exists):
            fr, names = dict(fr), {}
            while isinstance(a, Exists):
                k = fr.get(a.var, 0)
                fr[a.var] = k + 1
                names[a.var] = f"{a.var}#{k}"  # an inner binder shadows an outer one
                a = a.body
            todo.append((substitute(a, names), up, fr))
            continue
        got = at.get(a)
        if got is None:
            got = at[a] = _leaf(a, store, program)
        moves, waiting = got
        hangs += waiting
        for mv in moves:
            kind, new = mv.kind, mv.agent
            if up is not None and kind != "fail":
                # a side that succeeds continues as the other side
                new, link = up[1:] if kind == "success" else (new, up)
                while link is not None:
                    left, other, link = link
                    new = Par(new, other) if left else Par(other, new)
                kind = "running"
            out.append((mv, kind, new, fr))
        if first and out:
            break
    return out, hangs


def step(cfg: Configuration, program: Program, first=False, *, _leaves=None) -> List[StepEdge]:
    """Every rule application from a configuration, deduplicated.

    Terminal configurations have no successors.  A running configuration
    where nothing can move and at least one ask is waiting steps to Hang.
    With ``first``, only the moves of the leftmost leaf that moves are
    built; the first edge is the same.  ``_leaves`` is ``run_all``'s leaf
    memo; the edges are the same with or without it.
    """
    if cfg.kind != "running":
        return []
    fresh = dict(cfg.fresh)
    moves, hangs = _moves(cfg.agent, cfg.store, fresh, program, first, _leaves)
    edges: List[StepEdge] = []
    seen = set()
    for mv, kind, agent, fr in moves:
        counters = cfg.fresh if fr is fresh else tuple(sorted(fr.items()))
        target = Configuration(kind, agent, mv.store, counters)
        if target in seen:
            continue
        seen.add(target)
        edges.append(StepEdge(mv.rule, target, mv.pruned))
    if not edges:
        if not hangs:
            raise EngineError("running configuration with no rule and no waiting ask")
        rule = hangs[0][0] if len(hangs) == 1 else "quiescence"
        target = Configuration("hang", cfg.agent, cfg.store, cfg.fresh, tuple(c for _, c in hangs))
        edges.append(StepEdge(rule, target))
    return edges


# -- run records --------------------------------------------------------


@dataclass(frozen=True)
class RunLimits:
    max_steps: int = 100_000
    max_fresh_vars: int = 1000


@dataclass
class RunRecord:
    """One (class of) maximal run: terminal kind, final state, one trace.

    ``run_all`` flattens each class's shared trace chain once, at the root."""

    kind: str  # success | fail | hang | divergent | bound_exceeded
    config: Optional[Configuration]
    trace: Tuple[Tuple[str, Configuration], ...]
    paths: int = 1
    pruned: int = 0  # how many of the paths failed at a threshold the cut raised

    @property
    def steps(self) -> int:
        return len(self.trace)

    @property
    def store(self) -> Optional[Store]:
        return self.config.store if self.config is not None else None


@dataclass
class RunResult:
    records: List[RunRecord]
    total_runs: int
    expansions: int


class _Frame:
    __slots__ = ("rule", "cfg", "depth", "edges", "idx", "agg", "height")

    def __init__(self, rule, cfg, depth, edges):
        self.rule = rule  # the rule of the edge that reached cfg
        self.cfg = cfg
        self.depth = depth
        self.edges = edges
        self.idx = 0
        self.agg: Dict = {}  # (kind, config or None) -> [kind, config, trace, paths, pruned]
        # steps down to the deepest running configuration below; inf once a
        # run below met an on-path repeat or the step bound
        self.height = 0


def _merge(agg: Dict, kind, config, trace, paths=1, pruned=0):
    old = agg.get((kind, config))
    if old is None:
        agg[kind, config] = [kind, config, trace, paths, pruned]
    else:
        old[3] += paths
        old[4] += pruned


def _fold(f: _Frame, rule: str, cfg: Configuration, rows, height) -> None:
    """Fold the run classes from cfg, reached by rule, into frame f."""
    f.height = max(f.height, height + 1)
    for kind, config, trace, paths, pruned in rows:
        _merge(f.agg, kind, config, ((rule, cfg), trace), paths, pruned)


def initial_configuration(program: Program) -> Configuration:
    if program.main is None:
        raise EngineError("program has no agent to run")
    return Configuration("running", program.main, Store(program.system), ())


class _Session:
    """One root store for several explorations of one system, and their
    leaf memos.  Holding the memos keeps every store they reached alive, so
    a later exploration meets warm successors in ``Store.tell``'s weak memo;
    all of it is freed with the session."""

    def __init__(self, system):
        self.root = Store(system)
        self.leaves: List[Dict] = []


def run_all(
    program: Program,
    limits: RunLimits = RunLimits(),
    stop: Optional[Callable[[Store], bool]] = None,
    *,
    _session: Optional[_Session] = None,
) -> RunResult:
    """Depth-first exploration of every maximal run, leftmost first.

    Structurally repeated configurations are explored once; repetition on
    the current path is reported as a divergent run; paths that exhaust a
    limit are reported as bound_exceeded.  total_runs counts maximal runs
    exactly as path enumeration does.  With ``stop``, a test of the store
    alone, exploration ends at the first success it holds for, and the
    result counts the runs met up to and including that one.

    The call owns its leaf memo (see the module docstring), which goes
    with it unless ``_session``, a private ``_Session``, holds the memo
    and supplies the root store.
    """
    init = initial_configuration(program)
    leaves: Dict[int, tuple] = {}  # id(store) -> (store, {leaf: (moves, waiting)})
    if _session is not None:
        init = Configuration("running", program.main, _session.root)
        _session.leaves.append(leaves)
    memo: Dict[Configuration, Tuple[list, int]] = {}  # cfg -> (rows, height)
    onpath = {init}
    root = _Frame(None, init, 0, step(init, program, _leaves=leaves))
    expansions = 1
    stack = [root]
    stopped = False

    while stack:
        f = stack[-1]
        if f.idx < len(f.edges) and not stopped:
            edge = f.edges[f.idx]
            f.idx += 1
            rule, nxt = edge.rule, edge.target
            if nxt.kind != "running":
                _merge(f.agg, nxt.kind, nxt, ((rule, nxt), ()), 1, int(edge.pruned))
                stopped = nxt.kind == "success" and stop is not None and stop(nxt.store)
                continue
            hit = memo.get(nxt)
            if hit is not None and f.depth + 1 + hit[1] < limits.max_steps:
                _fold(f, rule, nxt, *hit)
                continue
            if nxt in onpath:
                f.height = math.inf  # the verdict depends on the path
                _merge(f.agg, "divergent", None, ((rule, nxt), ()))
                continue
            too_deep = f.depth + 1 >= limits.max_steps
            if too_deep or nxt.fresh_total() > limits.max_fresh_vars:
                if too_deep:
                    f.height = math.inf  # the verdict depends on the depth
                _merge(f.agg, "bound_exceeded", None, ())
                continue
            stack.append(_Frame(rule, nxt, f.depth + 1, step(nxt, program, _leaves=leaves)))
            expansions += 1
            onpath.add(nxt)
            continue
        # frame complete, or unwinding after a stop
        stack.pop()
        onpath.discard(f.cfg)
        rows = list(f.agg.values())
        if not stopped and f.height < math.inf:
            memo[f.cfg] = rows, f.height
        if stack:
            _fold(stack[-1], f.rule, f.cfg, rows, f.height)

    records = [RunRecord(k, c, _flatten(t), n, p) for k, c, t, n, p in root.agg.values()]
    return RunResult(records, sum(r.paths for r in records), expansions)


def _flatten(chain) -> tuple:
    links = []
    while chain:
        link, chain = chain
        links.append(link)
    return tuple(links)


def iter_runs(
    program: Program, limits: RunLimits = RunLimits()
) -> Iterator[RunRecord]:
    """Yield each maximal run, leftmost-first, one full trace at a time."""
    init = initial_configuration(program)
    trace: List[Tuple[str, Configuration]] = []
    onpath = {init}
    # stack of (edge list, index); trace mirrors the stack depth
    stack: List[Tuple[List[StepEdge], int]] = [(step(init, program), 0)]
    while stack:
        edges, idx = stack[-1]
        if idx >= len(edges):
            stack.pop()
            if trace:
                _, gone = trace.pop()
                onpath.discard(gone)
            continue
        stack[-1] = (edges, idx + 1)
        edge = edges[idx]
        nxt = edge.target
        if nxt.kind != "running":
            yield RunRecord(
                nxt.kind, nxt, tuple(trace) + ((edge.rule, nxt),), 1, int(edge.pruned)
            )
            continue
        if nxt in onpath:
            yield RunRecord("divergent", None, tuple(trace) + ((edge.rule, nxt),))
            continue
        if len(trace) + 1 >= limits.max_steps or nxt.fresh_total() > limits.max_fresh_vars:
            yield RunRecord("bound_exceeded", None, tuple(trace))
            continue
        trace.append((edge.rule, nxt))
        onpath.add(nxt)
        stack.append((step(nxt, program), 0))


def run_one(
    program: Program,
    policy: str = "leftmost",
    seed: Optional[int] = None,
    limits: RunLimits = RunLimits(),
) -> RunRecord:
    """Follow one maximal run under a scheduling policy."""
    if policy not in ("leftmost", "random"):
        raise EngineError(f"unknown policy {policy!r}")
    rng = None
    if policy == "random":
        if seed is None:
            raise EngineError("random policy needs a seed")
        rng = random.Random(seed)
    cfg = initial_configuration(program)
    seen = {cfg}
    trace: List[Tuple[str, Configuration]] = []
    while True:
        if len(trace) >= limits.max_steps:
            return RunRecord("bound_exceeded", None, tuple(trace))
        edges = step(cfg, program, first=rng is None)
        edge = edges[0] if rng is None else rng.choice(edges)
        nxt = edge.target
        trace.append((edge.rule, nxt))
        if nxt.kind != "running":
            return RunRecord(nxt.kind, nxt, tuple(trace), 1, int(edge.pruned))
        if nxt in seen:
            return RunRecord("divergent", None, tuple(trace))
        if nxt.fresh_total() > limits.max_fresh_vars:
            return RunRecord("bound_exceeded", None, tuple(trace))
        seen.add(nxt)
        cfg = nxt
