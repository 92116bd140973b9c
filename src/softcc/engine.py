"""Small-step execution of agents against a shared store.

The store starts at constant one and only ever moves down the constraint
order as tells combine new constraints in.  Each tell folds into one of
its factors, whose supports form an antichain, so n tells cost O(n); best
level, entailment and projections go through variable elimination so the
joint table is never built unless it is small.  A store caches only
what it derives from its own factors (key, hash, width and components);
each cache below is kept for the work it saves on a benchmark workload,
counted per pass of that workload.

Two objects own the engine's tables.  A ``_Session`` owns the two that
outlive one exploration, so that branch and bound's passes share them:
``answers`` and ``levels``.  A ``_Context``, one per ``run_all`` call and
passed to ``step`` and ``_leaf``, owns the rest: the state table and the
leaf and unfold memos.  A store points at its record, and a record only
at ``levels``, which points at no record; so reference counting alone
frees a finished exploration.

x is commutative and associative, so schedules that tell the same
constraints in other orders reach pointwise-equal stores.  The stores an
exploration tells share one record of their "pw" key and entailment
answers per told multiset (network: 190 ``tensor`` calls become 50;
genprog: 8,751 ``combine_project`` calls become 6,097, and the session
shared by the branch-and-bound passes saves 316 more); a cut answer is
entailment plus a test of that key.  Factors and a wide store's "fs" key,
the multiset of its factors' keys, follow the order of folding and stay
each store's own.  x distributes over +, so there entailment and best
level also split a store into its components, the factors joined by
shared variables: a component that shares no variable with the asked
constraint enters as its best level, a scalar, from ``levels`` (network:
820 ``project`` calls become 76), and a tell changes only the components
it touches.  ``project``, ``materialize``, ``key`` and ``witness`` never
split, as their results are printed or keyed.  Stores built any other
way share nothing and project whole.

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
``step`` numbers each target once in the state table, keyed by the
configuration's head: its kind, agent, fresh counters and blocked asks.
A head holds its first store unhashed and becomes a dict from store to
number only when a store unequal to it arrives, so a store is keyed only
at a head that has met two different stores; stores told alike compare
equal without a key (see ``Store``).  The memo, the on-path set and the
run-class rows hold these numbers.  The memo is exact: a
configuration is memoised only when none of its runs met an on-path
repeat or the step bound, with its height (the steps down to its deepest
running configuration), and reused at depth d only while d + height
stays below the step bound (genprog: 42,905 expansions become 5,803;
network does not finish without it).  Its traces are chains ((rule,
configuration), rest) ending in () that share their tails, flattened
once, at the root.

``step`` is the engine's one step walk: one loop over the agent's Par
and exists nodes that lifts each leaf's moves into edges.  A leaf (tell,
ask, stop, choice or call) moves by looking at itself and the store
alone, as a choice's branches are asks, and parallel composition lifts
the move unchanged.  So the leaf memo is keyed by store identity and
leaf, and pins its stores: a leaf met again at a store costs one lookup,
and a tell met again reuses its successor store (genprog: 25,819
``_leaf`` calls become 12,300, and 6,873 ``tensor`` calls 3,840).  The
unfold memo holds what reads no store: a call's body, and a chain of
binders opened under given fresh counters (network: 686 ``substitute``
calls become 32).  Neither goes on the session, as branch and bound's
cut passes unfold one hash-consed call to different bodies.
``iter_runs`` yields the runs one by one in leftmost order and keeps no
memo, so it stays an independent oracle.  ``run_one`` follows a single
run under a leftmost or seeded random policy; leftmost builds only the
moves of the first component that can move.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

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


class _Answers:
    """What a store's pointwise value alone decides: its "pw" key and its
    entailment answers.

    ``told`` is the multiset of keys told since an empty root: the set of
    them, and those told more than once with their counts (none when x is
    idempotent, as a repeat then leaves the store as it is).  The stores an
    exploration tells from its session's root share the record of their
    multiset through the session's ``answers``, and each such record holds
    the session's ``levels``, which holds no record.  Any other store has a
    record of its own, with no levels.
    """

    __slots__ = ("levels", "told", "pw", "entails", "__weakref__")

    def __init__(self, levels=None, told=None):
        self.levels, self.told, self.pw, self.entails = levels, told, None, {}

    def after(self, ck, told, answers: Dict) -> "_Answers":
        """The record in ``answers`` of a store told ck on top of this
        one's, with ``told`` its set of told keys."""
        once, more = self.told
        if ck in once:
            counts = dict(more)
            counts[ck] = counts.get(ck, 1) + 1
            more = frozenset(counts.items())
        got = answers.get((told, more))
        if got is None:
            got = answers[told, more] = _Answers(self.levels, (told, more))
        return got


class Store:
    """An immutable factored store: the combination of everything told.

    ``told`` holds the canonical key of every told constraint (by default,
    of each given factor); x is intensive, so the store entails each one.

    Stores an exploration tells alike share their pointwise answers (see
    ``_Answers``), and a session's stores read their components' best
    levels from it (see ``_split``).  Two stores are equal when their keys
    are; two pointwise keyed stores that share one record are equal without
    a key, as the record holds the "pw" key of both.  What a leaf agent does
    at the store is memoised by the exploration (see ``_Context``), so that
    no store keeps the stores its runs reached alive.
    """

    __slots__ = (
        "system", "factors", "told", "_key", "_hash", "_narrow", "_ans", "_comps", "__weakref__",
    )

    def __init__(self, system, factors: Tuple[Constraint, ...] = (), told=None, *, _ans=None):
        self.system = system
        self.factors = factors
        self.told = frozenset(f.canonical_key() for f in factors) if told is None else told
        self._key = self._hash = self._narrow = self._comps = None
        self._ans = _Answers() if _ans is None else _ans

    def tell(self, c: Constraint, *, _answers=None) -> "Store":
        """The store after combining c in.

        c folds into the first factor whose support contains its own, or
        else absorbs every factor inside its support.  So the supports form
        an antichain: there are never more factors than distinct told
        supports, and none wider than the widest told constraint.  With an
        idempotent x, re-telling a constraint already told leaves the store
        pointwise unchanged, so the store itself is returned; that keeps
        repeated tells recognizable as repeats.  Stores are not interned by
        ``key()``: equal keys can hide different variables, and so
        successors on different sides of the pointwise cap.  Only an
        exploration passes ``_answers``, its session's table of records; a
        store told without it has a record of its own.
        """
        ck = c.canonical_key()
        known = ck in self.told
        if known and self.system.semiring.idempotent_times:
            return self
        told = self.told if known else self.told | {ck}
        ans = None if _answers is None else self._ans.after(ck, told, _answers)
        cv = set(c.vars)
        for i, f in enumerate(self.factors):
            if cv.issubset(f.vars):
                folded = self.factors[:i] + (tensor(f, c),) + self.factors[i + 1 :]
                break
        else:
            inside = [f for f in self.factors if cv.issuperset(f.vars)]
            rest = tuple(f for f in self.factors if not cv.issuperset(f.vars))
            folded = rest + (tensor_all(inside + [c], self.system),)
        return Store(self.system, folded, told, _ans=ans)

    def vars(self) -> tuple:
        factors = self.factors
        if len(factors) == 1:
            return factors[0].vars
        return tuple(dict.fromkeys([v for f in factors for v in f.vars]))

    def _pointwise(self) -> bool:
        """Whether the joint table is small enough to key pointwise."""
        if self._narrow is None:
            self._narrow = self.system.cells(len(self.vars())) <= _POINTWISE_CELLS
        return self._narrow

    def _pw(self) -> tuple:
        """The "pw" key: the joint table's canonical key, kept in the record."""
        ans = self._ans
        if ans.pw is None:
            ans.pw = ("pw", self.materialize().canonical_key())
        return ans.pw

    def key(self) -> tuple:
        if self._key is None:
            if self._pointwise():
                self._key = self._pw()
            else:  # a wide store: the multiset of its factor keys
                keys = Counter(f.canonical_key() for f in self.factors)
                self._key = ("fs", frozenset(keys.items()))
        return self._key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Store):
            return False
        if self._ans is other._ans and self._pointwise() and other._pointwise():
            return True  # told alike: both keys are the record's "pw" key
        return self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def materialize(self) -> Constraint:
        """The store as one constraint; only sensible while it stays small."""
        return self.project(self.vars())

    def blevel(self) -> Value:
        split = self._split(())
        return self.project(()).scalar() if split is None else split[1]

    def entails(self, c: Constraint) -> bool:
        ck = c.canonical_key()
        if ck in self.told:
            return True  # x is intensive: the store lies below all it was told
        entails = self._ans.entails
        got = entails.get(ck)
        if got is None:
            split = self._split(c.vars)
            if split is None:
                proj = self.project(c.vars)
            else:
                near, level = split  # a product of best levels, in the carrier
                proj = Constraint._unchecked(self.system, (), {(): level})
                if near:
                    proj = combine_project(near + [proj], c.vars, self.system)
            got = entails[ck] = leqc(proj, c)
        return got

    def _split(self, keep) -> Optional[Tuple[List[Constraint], Value]]:
        """The factors of the components that touch keep, and the x of
        every other component's best level; None off a session, for one
        component (a tell would mostly replace its entry before a read),
        and when every component touches keep.  Each entry of the session's
        ``levels`` pins its factors, so their ids stay their own.
        """
        levels = self._ans.levels
        if levels is None or len(self.factors) < 2:
            return None
        comps = self._comps
        if comps is None:
            comps = []  # [(variables, factors)], joined by shared variables
            for f in self.factors:
                vs, fs = set(f.vars), [f]
                for comp in [k for k in comps if not vs.isdisjoint(k[0])]:
                    comps.remove(comp)
                    vs |= comp[0]
                    fs = comp[1] + fs
                comps.append((vs, fs))
            self._comps = comps
        near = [f for vs, fs in comps if not vs.isdisjoint(keep) for f in fs]
        if len(comps) < 2 or len(near) == len(self.factors):
            return None
        s, level = self.system.semiring, self.system.semiring.one
        for vs, fs in comps:
            if vs.isdisjoint(keep):
                ids = frozenset(map(id, fs))
                got = levels.get(ids)
                if got is None:
                    got = levels[ids] = fs, combine_project(fs, (), self.system).scalar()
                level = s.combine(level, got[1])
        return near, level

    def witness(self, c: Constraint) -> Optional[dict]:
        """An assignment refuting entailment of c, or None if entailed."""
        factors = self.factors or (self.system.constant(self.system.semiring.one),)
        return entails_witness(list(factors), c)

    def below_cut(self, phi: Constraint) -> bool:
        """Whether the store lies strictly below phi.  Only a store that
        entails phi can, and entailment needs no joint table; then it is
        strictly below unless it is phi itself, which the "pw" key decides
        (see pointwise_eq).  Both answers are the record's."""
        return self.entails(phi) and phi.canonical_key() != self._pw()[1]

    def project(self, keep) -> Constraint:
        """The store projected onto keep."""
        return combine_project(self.factors, keep, self.system)

    def value_at(self, assignment) -> Value:
        s = self.system.semiring
        return s.combine_all(f.eval(assignment) for f in self.factors)

    def __repr__(self):
        return f"Store({len(self.factors)} factors over {self.vars()})"


# -- configurations -----------------------------------------------------


class Configuration(NamedTuple):
    """One point of a run: running agent, or a terminal verdict.  A plain
    tuple, equal by value over all five fields; ``blocked`` is a function of
    agent and store within the one program an exploration compares under."""

    kind: str  # running | success | fail | hang
    agent: Optional[Agent]
    store: Store
    fresh: Tuple[Tuple[str, int], ...] = ()
    blocked: Tuple[Constraint, ...] = ()

    def fresh_total(self) -> int:
        return sum(n for _, n in self.fresh)


def _number(heads: Dict, cfgs: List[Configuration], cfg: Configuration) -> int:
    """cfg's number in the state table (heads, cfgs), appending cfg to cfgs
    when it is new.  ``heads`` maps a head, a configuration without its
    store, to the number of the first configuration met with it; a store
    unequal to that one's turns the entry into a dict from store to number.
    So a store is compared only when another meets it at its head, and
    hashed only where two different stores met.
    """
    kind, agent, store, fresh, blocked = cfg
    n = len(cfgs)
    head = kind, agent, fresh, blocked
    got = heads.setdefault(head, n)
    if type(got) is dict:
        m = got.setdefault(store, n)
    elif got == n:
        m = n
    else:
        first = cfgs[got].store
        if first is store or first == store:
            return got
        heads[head] = {first: got, store: n}
        m = n
    if m == n:
        cfgs.append(cfg)
    return m


class StepEdge(NamedTuple):
    rule: str
    target: Configuration
    pruned: bool = False  # the edge is a fail at a threshold the cut raised


# the rules of a tell or an ask under each kind of threshold: (fires, fails, waits)
_RULES = {
    (node, t): tuple(f"{prefix}{node.__name__.lower()}{end}" for end in ("", "-fail", "-hang"))
    for node in (Tell, Ask)
    for t, prefix in ((Eventual, "eventual-"), (Level, "valued-"), (Cut, ""))
}


def _leaf(agent: Agent, store: Store, program: Program, ctx: Optional[_Context]):
    """The rule applications of a leaf, an agent that is neither a Par nor
    an exists: (moves, hang-candidates), each move a tuple (rule, kind,
    agent, store, pruned).  They read the leaf and the store alone.  With
    ``ctx``, a tell shares records through the session's answers, and a
    call's body comes from, or goes into, the unfold memo."""
    if isinstance(agent, (Tell, Ask)):
        fires, fails, waits = _RULES[type(agent), type(agent.threshold)]
        c = program.resolve(agent.con)
        answers = None if ctx is None else ctx.session.answers
        new = store.tell(c, _answers=answers) if isinstance(agent, Tell) else store
        t = agent.threshold
        if isinstance(t, Level):  # a level built through the library may hold a float
            s = store.system.semiring
            failed = s.lt(new.blevel(), s.check(t.value))
        else:
            failed = isinstance(t, Cut) and new.below_cut(program.threshold_constraint(t))
        if failed:
            return [(fails, "fail", None, store, isinstance(t, Cut) and t.raised)], []
        if isinstance(agent, Ask) and not store.entails(c):
            return [], [(waits, c)]
        return [(fires, "running", agent.body, new, False)], []

    if isinstance(agent, Stop):
        return [("stop", "success", None, store, False)], []

    if isinstance(agent, Sum):
        proceeds, pruned, hangs = [], False, []
        for b in agent.branches:  # each an ask
            m, h = _leaf(b, store, program, ctx)
            for mv in m:
                _, kind, _, _, cut = mv
                if kind == "running":
                    proceeds.append(mv)
                pruned = pruned or cut  # only a fail is pruned
            hangs.extend(h)
        if proceeds:
            return proceeds, []
        if not hangs:
            # every branch failed its threshold check
            return [("choice-fail", "fail", None, store, pruned)], []
        return [], [("choice-hang", c) for _, c in hangs]

    if isinstance(agent, Call):
        unfolded = {} if ctx is None else ctx.unfolded
        body = unfolded.get(agent)
        if body is None:
            d = program.decls.get(agent.name)
            if d is None:
                raise EngineError(f"unknown proc {agent.name!r}")
            if len(agent.args) != len(d.params):
                raise EngineError(f"arity mismatch calling {agent.name!r}")
            body = unfolded[agent] = substitute(d.body, dict(zip(d.params, agent.args)))
        return [("call", "running", body, store, False)], []

    raise EngineError(f"not an agent: {agent!r}")


def step(cfg: Configuration, program: Program, first=False, *, _ctx=None) -> List[StepEdge]:
    """Every rule application from a configuration, deduplicated.

    One walk over the Par and exists nodes with an explicit stack.  Each
    component carries ``up``, a linked list (left?, other side, up) of the
    Par nodes above it, and its fresh counters as a sorted tuple; a run of
    directly nested binders opens with one substitution, on counters of the
    component's own.  Each move of a leaf is lifted through its ``up``
    once and becomes an edge unless an earlier edge has the same target,
    as its number in a state table tells (see ``_number``).

    Terminal configurations have no successors.  A running configuration
    where nothing can move and at least one ask is waiting steps to Hang.
    With ``first``, the walk ends at the leftmost leaf that moves; the first
    edge is the same.  With ``_ctx``, ``run_all``'s ``_Context``, the step
    numbers every target in its state table, reads its memos, and returns
    (edges, the targets' numbers); the edges are the same.  Without it, the
    step builds a table of its own at the second edge.
    """
    if cfg.kind != "running":
        return [] if _ctx is None else ([], [])
    store = cfg.store
    if _ctx is None:
        heads, at, unfolded = None, {}, {}
    else:
        heads, targets, unfolded = _ctx.heads, _ctx.cfgs, _ctx.unfolded
        # the store is pinned, so its id stays its own
        at = _ctx.leaves.setdefault(id(store), (store, {}))[1]
    edges, nums, hangs = [], [], []  # nums: the targets' numbers, once there is a table
    todo = [(cfg.agent, None, cfg.fresh)]
    while todo:
        a, up, fresh = todo.pop()
        if isinstance(a, Par):
            todo.append((a.right, (False, a.left, up), fresh))
            todo.append((a.left, (True, a.right, up), fresh))
            continue
        if isinstance(a, Exists):
            got = unfolded.get((a, fresh))
            if got is None:
                fr, names, b = dict(fresh), {}, a
                while isinstance(b, Exists):
                    k = fr.get(b.var, 0)
                    fr[b.var] = k + 1
                    names[b.var] = f"{b.var}#{k}"  # an inner binder shadows an outer one
                    b = b.body
                got = unfolded[a, fresh] = substitute(b, names), tuple(sorted(fr.items()))
            todo.append((got[0], up, got[1]))
            continue
        got = at.get(a)
        if got is None:
            got = at[a] = _leaf(a, store, program, _ctx)
        moves, waiting = got
        hangs += waiting
        for rule, kind, new, after, pruned in moves:
            if up is not None and kind != "fail":
                # a side that succeeds continues as the other side
                new, link = up[1:] if kind == "success" else (new, up)
                while link is not None:
                    left, other, link = link
                    new = Par(new, other) if left else Par(other, new)
                kind = "running"
            target = Configuration(kind, new, after, fresh)
            if heads is None and edges:  # a table of the step's own
                heads, targets = {}, []
                nums.append(_number(heads, targets, edges[0].target))
            if heads is not None:
                n = _number(heads, targets, target)
                if n in nums:
                    continue  # an earlier edge reaches target
                nums.append(n)
            edges.append(StepEdge(rule, target, pruned))
        if first and edges:
            break
    if not edges:
        # some ask is waiting: _leaf gives every leaf a move or a waiting ask
        rule = hangs[0][0] if len(hangs) == 1 else "quiescence"
        target = Configuration("hang", cfg.agent, store, cfg.fresh, tuple(c for _, c in hangs))
        edges.append(StepEdge(rule, target))
        if heads is not None:
            nums.append(_number(heads, targets, target))
    return edges if _ctx is None else (edges, nums)


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
    __slots__ = ("rule", "cfg", "num", "depth", "edges", "nums", "idx", "agg", "height")

    def __init__(self, rule, cfg, num, depth, edges, nums):
        self.rule = rule  # the rule of the edge that reached cfg
        self.cfg = cfg
        self.num = num  # cfg's number in the state table
        self.depth = depth
        self.edges, self.nums = edges, nums  # step's edges and their targets' numbers
        self.idx = 0
        # (kind, number or None) -> [kind, number or None, trace, paths, pruned]
        self.agg: Dict = {}
        # steps down to the deepest running configuration below; inf once a
        # run below met an on-path repeat or the step bound
        self.height = 0


def _merge(agg: Dict, kind, num, trace, paths=1, pruned=0):
    old = agg.get((kind, num))
    if old is None:
        agg[kind, num] = [kind, num, trace, paths, pruned]
    else:
        old[3] += paths
        old[4] += pruned


def _fold(f: _Frame, rule: str, cfg: Configuration, rows, height) -> None:
    """Fold the run classes from cfg, reached by rule, into frame f."""
    f.height = max(f.height, height + 1)
    for kind, num, trace, paths, pruned in rows:
        _merge(f.agg, kind, num, ((rule, cfg), trace), paths, pruned)


def _main(program: Program) -> Agent:
    if program.main is None:
        raise EngineError("program has no agent to run")
    return program.main


def initial_configuration(program: Program) -> Configuration:
    return Configuration("running", _main(program), Store(program.system), ())


class _Session:
    """One root store for several explorations of one system, and the two
    tables that outlive each: ``answers``, from told multiset to record
    (see ``_Answers``), and ``levels``, from a frozenset of component
    factor ids to (factors, best level) (see ``Store._split``)."""

    def __init__(self, system):
        self.answers, self.levels = {}, {}
        self.root = Store(system, _ans=_Answers(self.levels, (frozenset(), frozenset())))


class _Context:
    """One exploration's tables, passed to ``step`` and ``_leaf``: the state
    table (``heads``, ``cfgs``; see ``_number``), the leaf memo (id(store)
    -> (store, {leaf: (moves, waiting)})) and the unfold memo (call -> body,
    (exists, fresh) -> (opened agent, fresh)); and the session."""

    def __init__(self, session: _Session):
        self.session, self.heads, self.cfgs, self.leaves, self.unfolded = session, {}, [], {}, {}


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

    ``_session``, a private ``_Session``, supplies the root store, and so
    the answers of earlier explorations; without one, the call runs in a
    session of its own.  The call's ``_Context`` goes with it.
    """
    main = _main(program)
    ctx = _Context(_Session(program.system) if _session is None else _session)
    init = Configuration("running", main, ctx.session.root)
    memo: Dict[int, Tuple[list, int]] = {}  # number -> (rows, height)
    onpath = {_number(ctx.heads, ctx.cfgs, init)}
    root = _Frame(None, init, 0, 0, *step(init, program, _ctx=ctx))
    expansions = 1
    stack = [root]
    stopped = False

    while stack:
        f = stack[-1]
        if f.idx < len(f.edges) and not stopped:
            edge, n = f.edges[f.idx], f.nums[f.idx]
            f.idx += 1
            rule, nxt = edge.rule, edge.target
            if nxt.kind != "running":
                _merge(f.agg, nxt.kind, n, ((rule, nxt), ()), 1, int(edge.pruned))
                stopped = nxt.kind == "success" and stop is not None and stop(nxt.store)
                continue
            hit = memo.get(n)
            if hit is not None and f.depth + 1 + hit[1] < limits.max_steps:
                _fold(f, rule, nxt, *hit)
                continue
            if n in onpath:
                f.height = math.inf  # the verdict depends on the path
                _merge(f.agg, "divergent", None, ((rule, nxt), ()))
                continue
            too_deep = f.depth + 1 >= limits.max_steps
            if too_deep or nxt.fresh_total() > limits.max_fresh_vars:
                if too_deep:
                    f.height = math.inf  # the verdict depends on the depth
                _merge(f.agg, "bound_exceeded", None, ())
                continue
            stack.append(_Frame(rule, nxt, n, f.depth + 1, *step(nxt, program, _ctx=ctx)))
            expansions += 1
            onpath.add(n)
            continue
        # frame complete, or unwinding after a stop
        stack.pop()
        onpath.discard(f.num)
        rows = list(f.agg.values())
        if not stopped and f.height < math.inf:
            memo[f.num] = rows, f.height
        if stack:
            _fold(stack[-1], f.rule, f.cfg, rows, f.height)

    records = []
    for kind, num, chain, paths, pruned in root.agg.values():
        trace = _flatten(chain)
        # a terminal class's configuration ends the trace it was first met by
        records.append(RunRecord(kind, None if num is None else trace[-1][1], trace, paths, pruned))
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
    seen = {cfg}  # not a state table: a run meets each head with many stores
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
        n = len(seen)
        seen.add(nxt)
        if len(seen) == n:  # nxt was seen before
            return RunRecord("divergent", None, tuple(trace))
        if nxt.fresh_total() > limits.max_fresh_vars:
            return RunRecord("bound_exceeded", None, tuple(trace))
        cfg = nxt
