"""Agent syntax: AST nodes, thresholds, substitution and programs.

Agents are the usual concurrent-constraint shapes: stop, tell and ask
with a threshold on the arrow, guarded choice, parallel composition,
local variables and procedure calls.  A program packages the header
(semiring, domain, variables), constraint templates, procedure
declarations, an optional main agent and an optional interest set.

Thresholds come in three forms.  Eventual is the bare arrow and never
blocks a tell.  Level carries a semiring value compared against the best
level of the store.  Cut carries a whole constraint compared against the
store itself.  Eventual behaves exactly like Level(zero) and like
Cut(constant zero).

Every syntax node is hash-consed: its class returns the live node with
the same fields if there is one, so equal nodes are one object, and
equality and hashing are by identity.  The live nodes sit in one
process-wide table from (class, *fields) to a weak reference, which a
constructor probes with one dict lookup; only the classes that hold
values or constraints (``Level``, ``ConstRef``, ``Cut``) map their
fields through ``_key`` first.  ``Sum`` also checks the grammar: a
choice has two or more branches, each an Ask.  The parser keeps source
positions aside.  Every walker over agents is built on ``walk``, a
pre-order iterator, or ``rebuild``, a bottom-up map; both keep an
explicit stack, so depth costs no recursion.  The engine's step walk and
the parser's agent reader keep stacks of their own.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, Dict, Optional, Tuple, Union

from . import constraints as C
from .constraints import Constraint, ConstraintSystem
from .semiring import _EXACT, Semiring, Value


class ProgramError(ValueError):
    """A malformed program: bad reference, arity, scope or table."""

    def __init__(self, msg: str, pos: Optional[Tuple[int, int]] = None):
        if pos is not None:
            msg = f"line {pos[0]}, column {pos[1]}: {msg}"
        super().__init__(msg)
        self.pos = pos


# -- hash-consed nodes --------------------------------------------------

# process-wide, so equal agents are one object wherever they were built;
# (class, *fields) -> weak reference, so it keeps no node alive.  When a
# node dies, _gone drops its entry, unless a rebuilt node took the key
# since.  ``live`` is bound at definition: at interpreter exit the module
# globals may be gone before the last callback runs.
_live: "Dict[tuple, weakref.KeyedRef]" = {}


def _gone(ref: weakref.KeyedRef, live=_live) -> None:
    if live.get(ref.key) is ref:
        del live[ref.key]


def _key(v):
    # a value keeps its type, so true, 1 and the decimal 1 stay apart; a
    # constraint keeps its domain, as the same table over another domain is
    # another function
    if isinstance(v, (bool, Decimal)):
        return (type(v), v)
    if isinstance(v, Constraint):
        return (v.system.domain, v)
    return v


class Node:
    """An immutable syntax node.  Its class is its one constructor, which
    returns the live node with the same class and fields if there is one."""

    __slots__ = ("__weakref__",)
    _fields: Tuple[str, ...] = ()
    _values = False  # whether the fields hold values, keyed through _key

    def __new__(cls, *fields):
        key = (cls, *map(_key, fields)) if cls._values else (cls, *fields)
        ref = _live.get(key)
        node = ref() if ref is not None else None
        if node is None:
            # a live entry has the class's arity, so only a miss checks it
            if len(fields) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes fields {cls._fields}, got {fields!r}")
            node = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                object.__setattr__(node, name, value)
            _live[key] = weakref.KeyedRef(node, _gone, key)
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self) -> str:
        # read off a walk, so a deep agent costs no recursion
        return "".join(x for x in walk(self, _repr_parts) if isinstance(x, str))


def _repr_parts(node: Node) -> list:
    """A node's repr in pieces, with its child nodes left for the walk."""
    out = [f"{type(node).__name__}("]
    for i, name in enumerate(node._fields):
        v = getattr(node, name)
        out.append(f"{', ' if i else ''}{name}=")
        if isinstance(v, tuple) and v and isinstance(v[0], Node):  # a choice's branches
            out += ["(", *[x for b in v for x in (b, ", ")][:-1], ")"]
        else:
            out.append(v if isinstance(v, Node) else repr(v))
    return out + [")"]


# -- constraint references inside agents --------------------------------


class Ref(Node):
    """A named constraint applied to variables; args None means bare use."""

    __slots__ = _fields = ("name", "args")


class DiagRef(Node):
    """The built-in equality constraint between two variables."""

    __slots__ = _fields = ("x", "y")


class ConstRef(Node):
    """A constant constraint with empty support."""

    __slots__ = _fields = ("value",)
    _values = True


CExpr = Union[Ref, DiagRef, ConstRef]


# -- thresholds ---------------------------------------------------------


class Eventual(Node):
    __slots__ = ()


class Level(Node):
    __slots__ = _fields = ("value",)
    _values = True


class Cut(Node):
    """A constraint threshold; ``raised`` marks one raised by the cut."""

    __slots__ = _fields = ("constraint", "name", "raised")
    _values = True


Threshold = Union[Eventual, Level, Cut]


# -- agents -------------------------------------------------------------


class Stop(Node):
    __slots__ = ()


class Tell(Node):
    __slots__ = _fields = ("con", "threshold", "body")


class Ask(Node):
    __slots__ = _fields = ("con", "threshold", "body")


class Sum(Node):
    """Guarded choice over a tuple of two or more branches, each an Ask."""

    __slots__ = _fields = ("branches",)

    def __new__(cls, branches):
        if len(branches) < 2:
            raise ProgramError("a choice needs two or more branches")
        if not all(isinstance(b, Ask) for b in branches):
            raise ProgramError("choice branches must be ask-guarded")
        return super().__new__(cls, branches)


class Par(Node):
    __slots__ = _fields = ("left", "right")


class Exists(Node):
    __slots__ = _fields = ("var", "body")


class Call(Node):
    __slots__ = _fields = ("name", "args")


Agent = Union[Stop, Tell, Ask, Sum, Par, Exists, Call]


def children(a: Agent) -> tuple:
    if isinstance(a, (Tell, Ask, Exists)):
        return (a.body,)
    if isinstance(a, Par):
        return (a.left, a.right)
    if isinstance(a, Sum):
        return a.branches
    return ()


def with_children(a: Agent, kids) -> Agent:
    """The agent a with its children replaced, in ``children`` order."""
    if isinstance(a, (Tell, Ask)):
        return type(a)(a.con, a.threshold, *kids)
    if isinstance(a, Exists):
        return Exists(a.var, *kids)
    if isinstance(a, Par):
        return Par(*kids)
    if isinstance(a, Sum):
        return Sum(tuple(kids))
    return a


# -- the walk -----------------------------------------------------------


def walk(agent: Agent, expand: Callable = children):
    """Every node under an agent, in pre-order, left to right; ``expand(node)``
    lists what follows a node in place of its children, strings included."""
    todo = [agent]
    while todo:
        item = todo.pop()
        yield item
        if isinstance(item, Node):
            todo.extend(reversed(expand(item)))


def rebuild(agent: Agent, leave: Callable, enter: Optional[Callable] = None, ctx=None):
    """Map an agent bottom-up: ``leave(node, ctx, kids)`` returns the node's
    result from its children's.  ``enter(node, ctx)`` runs first, in
    pre-order, and returns the context the node's ``leave`` and its
    children see; None keeps the node as it is, without looking below."""
    done: list = []  # results of finished subtrees, left to right
    todo = [(agent, ctx, None)]
    while todo:
        node, c, n = todo.pop()
        if n is not None:  # the node's n children are done
            kids = done[len(done) - n :]
            del done[len(done) - n :]
            done.append(leave(node, c, kids))
            continue
        if enter is not None:
            c = enter(node, c)
            if c is None:
                done.append(node)
                continue
        kids = children(node)
        todo.append((node, c, len(kids)))
        for k in reversed(kids):
            todo.append((k, c, None))
    return done[0]


# -- free variables and substitution ------------------------------------


def _cexpr_vars(e: CExpr) -> frozenset:
    if isinstance(e, Ref):
        return frozenset(e.args or ())
    if isinstance(e, DiagRef):
        return frozenset((e.x, e.y))
    return frozenset()


def _free_vars(a: Agent, _, kids) -> frozenset:
    if isinstance(a, (Tell, Ask)):
        return kids[0] | _cexpr_vars(a.con)
    if isinstance(a, Exists):
        return kids[0] - {a.var}
    if isinstance(a, Call):
        return frozenset(a.args)
    return frozenset().union(*kids)


def free_vars(agent: Agent) -> frozenset:
    """Variables an agent mentions in told/asked constraints and call args.

    Threshold constraints do not count: cutting an agent must not change
    what its observables are projected onto.
    """
    return rebuild(agent, _free_vars)


def _subst_cexpr(e: CExpr, mapping: Dict[str, str]) -> CExpr:
    if isinstance(e, Ref):
        if e.args is None:
            return e
        return Ref(e.name, tuple(mapping.get(a, a) for a in e.args))
    if isinstance(e, DiagRef):
        return DiagRef(mapping.get(e.x, e.x), mapping.get(e.y, e.y))
    return e


def _alpha_fresh(base: str, forbidden) -> str:
    i = 0
    while f"{base}#r{i}" in forbidden:
        i += 1
    return f"{base}#r{i}"


def _subst_enter(a: Agent, mapping: Dict[str, str]) -> Optional[Dict[str, str]]:
    if not isinstance(a, Exists):
        return mapping
    inner = {k: v for k, v in mapping.items() if k != a.var}
    if a.var in inner.values():
        # the binder would capture an incoming name: rename it as well
        forbidden = set(free_vars(a.body)) | set(inner.values()) | set(inner)
        inner[a.var] = _alpha_fresh(a.var, forbidden)
    return inner or None


def _subst_leave(a: Agent, mapping: Dict[str, str], kids) -> Agent:
    if isinstance(a, (Tell, Ask)):
        return type(a)(_subst_cexpr(a.con, mapping), a.threshold, *kids)
    if isinstance(a, Exists):
        return Exists(mapping.get(a.var, a.var), *kids)
    if isinstance(a, Call):
        return Call(a.name, tuple(mapping.get(x, x) for x in a.args))
    return with_children(a, kids)


def substitute(agent: Agent, mapping: Dict[str, str]) -> Agent:
    """Simultaneous capture-avoiding substitution of variables for variables."""
    mapping = {k: v for k, v in mapping.items() if k != v}
    if not mapping:
        return agent
    return rebuild(agent, _subst_leave, _subst_enter, mapping)


# -- pretty printing ----------------------------------------------------


def format_value(v: Value) -> str:
    """A value as program text: a number prints as the float literal that
    reads as the same value where there is one, and exactly otherwise, so
    no two values print alike."""
    if isinstance(v, bool):
        return "true" if v else "false"
    d = v if isinstance(v, Decimal) else Decimal(repr(v))
    if d.is_infinite():
        return "inf"
    if d == d.to_integral_value():
        return format(d, ".0f")
    f = repr(float(d))
    return f if Decimal(f) == d else str(d.normalize(_EXACT)).lower()


def _pp_cexpr(e: CExpr) -> str:
    if isinstance(e, Ref):
        if e.args is None:
            return e.name
        return f"{e.name}({', '.join(e.args)})"
    if isinstance(e, DiagRef):
        return f"diag({e.x}, {e.y})"
    return f"const({format_value(e.value)})"


def _pp_arrow(t: Threshold) -> str:
    if isinstance(t, Eventual):
        return "->"
    if isinstance(t, Level):
        return f"->^{format_value(t.value)}"
    if t.name is None:
        raise ProgramError("cannot print a cut threshold with no name")
    return f"->[{t.name}]"


def _pp_parts(a: Agent) -> tuple:
    if isinstance(a, Stop):
        return ("stop",)
    if isinstance(a, (Tell, Ask)):
        if isinstance(a.body, Sum):
            raise ProgramError("cannot print a choice as an arrow body: the text cannot group it")
        word = type(a).__name__.lower()
        return (f"{word}({_pp_cexpr(a.con)}) {_pp_arrow(a.threshold)} ", a.body)
    if isinstance(a, Sum):
        for b in a.branches[:-1]:
            while isinstance(b, (Tell, Ask)):
                b = b.body
            if isinstance(b, Exists):  # it would extend over the branches after it
                raise ProgramError("cannot print a choice branch ending in exists before another")
        return tuple(x for b in a.branches for x in (" + ", b))[1:]
    if isinstance(a, Par):
        return ("(", a.left, " || ", a.right, ")")
    if isinstance(a, Exists):
        return (f"exists {a.var} . ", a.body)
    return (f"{a.name}({', '.join(a.args)})",)


def pretty(agent: Agent) -> str:
    """Deterministic one-line rendering that the parser reads back.

    The text has no grouping for a choice, so an agent that needs one (a
    choice as an arrow body, or a choice branch other than the last whose
    arrow chain ends in an exists) raises ProgramError."""
    return "".join(x for x in walk(agent, _pp_parts) if isinstance(x, str))


# -- templates, declarations, programs ----------------------------------


@dataclass
class Template:
    """A named constraint table over formal parameters."""

    name: str
    params: Tuple[str, ...]
    table: Dict[tuple, Value]
    default: Optional[Value]
    pos: Optional[Tuple[int, int]] = field(default=None, compare=False, repr=False)

    def base_constraint(self, system: ConstraintSystem) -> Constraint:
        return Constraint(system, self.params, self.table, self.default)


@dataclass
class Decl:
    """A named procedure with formal parameters and an agent body."""

    name: str
    params: Tuple[str, ...]
    body: Agent
    pos: Optional[Tuple[int, int]] = field(default=None, compare=False, repr=False)


@dataclass
class Program:
    """A parsed and validated scc program."""

    semiring: Semiring
    domain: Tuple
    variables: Tuple[str, ...]
    templates: Dict[str, Template]
    decls: Dict[str, Decl]
    main: Optional[Agent]
    interest: Optional[Tuple[str, ...]]

    def __post_init__(self):
        self.system = ConstraintSystem(self.semiring, self.domain)
        self._resolve_cache: Dict = {}
        self._bases: Dict[str, Constraint] = {}

    def ref_args(self, e: Ref) -> Tuple[str, ...]:
        """A reference's arguments, checked against its template; a bare
        reference takes the template's own parameters."""
        tpl = self.templates.get(e.name)
        if tpl is None:
            raise ProgramError(f"unknown constraint {e.name!r}")
        args = e.args if e.args is not None else tpl.params
        if len(args) != len(tpl.params):
            raise ProgramError(
                f"constraint {e.name!r} takes {len(tpl.params)} arguments, got {len(args)}"
            )
        return args

    def resolve(self, e: CExpr) -> Constraint:
        """Turn a constraint reference into an actual constraint."""
        got = self._resolve_cache.get(e)
        if got is not None:
            return got
        if isinstance(e, Ref):
            args, tpl = self.ref_args(e), self.templates[e.name]
            base = self._bases.get(e.name)
            if base is None:
                base = self._bases[e.name] = tpl.base_constraint(self.system)
            got = C.rename(base, dict(zip(tpl.params, args)))
        elif isinstance(e, DiagRef):
            got = self.system.diagonal(e.x, e.y)
        else:
            got = self.system.constant(e.value)
        self._resolve_cache[e] = got
        return got

    def threshold_constraint(self, t: Cut) -> Constraint:
        if t.constraint is None:
            raise ProgramError(f"unresolved cut threshold {t.name!r}")
        return t.constraint
