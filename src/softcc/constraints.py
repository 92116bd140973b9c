"""Soft constraints as finite tables of semiring values.

A constraint maps assignments of its support variables to semiring values.
Tables are dicts keyed by tuples of domain atoms in support order.  A
constraint either lists every tuple (dense, ``default is None``) or lists
some tuples and falls back to ``default`` for the rest.

The algebra: ``tensor`` combines pointwise with x, ``oplus`` with +,
``project`` sums out eliminated variables, ``hide`` removes one variable,
``leqc`` is the induced constraint order, equality is ``canonical_key``
equality (``pointwise_eq``; values are exact, so keys hold them as they
are), and ``entails`` asks whether a set of constraints forces another one.
Every kernel works from the rows a table lists plus its default.
``tensor``, ``oplus`` and ``glb`` share one row-wise outer join,
``_join``: each side's rows meet the other's rows and default, and the
cells neither lists take the defaults' result.  A default that absorbs the
operation, as the zero absorbs x, lists nothing, so dense and zero-default
tables join over their listed rows alone.  ``project`` adds each kept key's
listed rows, and the default where the key has an unlisted extension; +
is idempotent, so that is the + over every extension.  The order compares
listed rows with the least value over their extensions, so it answers at
any width.  ``combine_project`` combines a factor list and projects in one
pass via variable elimination so the full joint table never needs to
exist; the factors of each bucket join in factor order.
``entails_witness`` pins one variable at a time by entailment tests.  No
operation walks the cells of a union of supports.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Mapping, Optional, Sequence, Union

from .semiring import Semiring, Value

Atom = Union[str, int]

# A join refuses to build more rows than this.
MAX_CELLS = 500_000


class ConstraintError(ValueError):
    pass


class IncompleteConstraintError(ConstraintError):
    """A dense constraint is missing tuples, or eval hit a hole with no default."""


class TooLargeError(ConstraintError):
    """A join would build more rows than MAX_CELLS."""


def _atom_key(a: Atom):
    # Atoms mix ints and strings; give them a total order for stable output.
    return (0, a, "") if isinstance(a, int) else (1, 0, a)


def _by_rank(system: "ConstraintSystem"):
    """The sort key of a (row, value) item: the ranks of the row's atoms."""
    rank = system.rank.__getitem__
    return lambda kv: tuple(map(rank, kv[0]))


class ConstraintSystem:
    """A semiring plus a shared finite domain for all variables.

    ``rank`` numbers the atoms in their output order, ints first in numeric
    order and then names in code-point order; rows sort by their tuples of
    ranks.
    """

    def __init__(self, semiring: Semiring, domain: Sequence[Atom]):
        domain = tuple(domain)
        if not domain:
            raise ConstraintError("domain must be nonempty")
        if len(set(domain)) != len(domain):
            raise ConstraintError("domain atoms must be distinct")
        for a in domain:
            if not isinstance(a, (str, int)) or isinstance(a, bool):
                raise ConstraintError(f"domain atom must be a name or integer, got {a!r}")
        self.semiring = semiring
        self.domain = domain
        self.rank = {a: i for i, a in enumerate(sorted(domain, key=_atom_key))}

    def __repr__(self) -> str:
        return f"ConstraintSystem({self.semiring.kind}, |D|={len(self.domain)})"

    def cells(self, nvars: int) -> int:
        return len(self.domain) ** nvars

    def constant(self, a: Value) -> "Constraint":
        """The constraint with empty support and value a everywhere."""
        return Constraint._unchecked(self, (), {(): self.semiring.check(a)})

    def diagonal(self, x: str, y: str) -> "Constraint":
        """d_xy: one where x and y agree, zero where they differ."""
        s = self.semiring
        if x == y:
            return self.constant(s.one)
        table = {}
        for dx in self.domain:
            for dy in self.domain:
                table[(dx, dy)] = s.one if dx == dy else s.zero
        return Constraint(self, (x, y), table)


class Constraint:
    """A finite table from support-variable assignments to semiring values."""

    __slots__ = ("system", "vars", "table", "default", "_canon", "_supp", "_pruned")

    def __init__(
        self,
        system: ConstraintSystem,
        variables: Sequence[str],
        table: Mapping[tuple, Value],
        default: Optional[Value] = None,
    ):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ConstraintError(f"support has repeated variables: {variables}")
        for v in variables:
            if not isinstance(v, str) or not v:
                raise ConstraintError(f"variable names must be nonempty strings, got {v!r}")
        s = system.semiring
        dom = set(system.domain)
        checked = {}
        for key, val in table.items():
            key = tuple(key)
            if len(key) != len(variables):
                raise ConstraintError(f"row {key} does not match support {variables}")
            for a in key:
                if a not in dom:
                    raise ConstraintError(f"atom {a!r} is not in the domain")
            checked[key] = s.check(val)
        if default is None:
            if len(checked) != system.cells(len(variables)):
                raise IncompleteConstraintError(
                    f"dense constraint over {variables} lists {len(checked)} of "
                    f"{system.cells(len(variables))} tuples and has no default"
                )
        else:
            default = s.check(default)
        self.system, self.vars, self.table, self.default = system, variables, checked, default
        self._canon = self._supp = self._pruned = None

    @classmethod
    def _unchecked(cls, system, variables, table, default=None) -> "Constraint":
        """An operation's result: its atoms and values were checked on the way in."""
        self = cls.__new__(cls)
        self.system, self.vars, self.table, self.default = system, tuple(variables), table, default
        self._canon = self._supp = self._pruned = None
        return self

    # -- evaluation ----------------------------------------------------

    def eval(self, assignment: Mapping[str, Atom]) -> Value:
        """Value at an assignment covering at least the support variables."""
        try:
            key = tuple(assignment[v] for v in self.vars)
        except KeyError as e:
            raise ConstraintError(f"assignment is missing variable {e.args[0]!r}") from None
        got = self.table.get(key, self.default)
        if got is None:
            raise IncompleteConstraintError(f"no row for {key} and no default")
        return got

    def scalar(self) -> Value:
        """The value of a zero-variable constraint."""
        if self.vars:
            raise ConstraintError(f"constraint still depends on {self.vars}")
        return self.eval({})

    # -- support -------------------------------------------------------

    def support(self) -> frozenset:
        """Variables the function really depends on; constant columns drop out.

        Each variable takes one pass over the rows, grouped by the rest of
        their key, and stops at the first group whose values differ; a group
        that lists fewer rows than the domain has atoms also meets the
        default.
        """
        if self._supp is None:
            ndom = len(self.system.domain)
            rows = self.table.items()
            live = []
            for i, v in enumerate(self.vars):
                seen = {}  # group -> its first value
                for key, q in rows:
                    if seen.setdefault(key[:i] + key[i + 1 :], q) != q:
                        break
                else:
                    if self.default is None or len(rows) == ndom * len(seen):
                        continue  # every group is complete
                    sizes = Counter(key[:i] + key[i + 1 :] for key in self.table)
                    if all(q == self.default or sizes[g] == ndom for g, q in seen.items()):
                        continue
                live.append(v)
            self._supp = frozenset(live)
        return self._supp

    def pruned(self) -> "Constraint":
        """The same function restricted to its computed support: the
        projection hiding its dead variables.  A dead variable's extensions
        of a kept key all take one value, so the projection keeps the
        variables in order, each kept key's first listed row (+ returns its
        first argument on a tie), and the stored default, and it drops rows
        equal to that default."""
        supp = self._supp if self._supp is not None else self.support()
        if len(supp) == len(self.vars):
            return self  # caching self would make a cycle only the cycle collector frees
        if self._pruned is None:
            self._pruned = project(self, [v for v in self.vars if v in supp])
        return self._pruned

    # -- canonical form and equality ----------------------------------

    def canonical_key(self) -> tuple:
        """Hashable key identifying the function.

        Pointwise-equal constraints get the same key at every size: the
        pruned table in sorted-variable order, with the most frequent
        value as default (ties go to the smallest) and every other cell
        listed.  Unlisted cells are counted, not enumerated, unless the
        stored default loses the vote; then they number at most the
        listed rows.  Rows are reordered only when the variables are not
        sorted already, the vote is skipped when every cell has one value,
        and the rows are sorted only when there are two or more.
        """
        if self._canon is None:
            c = self.pruned()
            system = c.system
            svars = tuple(sorted(c.vars))
            if svars == c.vars:
                table = c.table
            else:
                order = [c.vars.index(v) for v in svars]
                table = {tuple([key[i] for i in order]): val for key, val in c.table.items()}
            counts = {}
            for v in table.values():
                counts[v] = counts.get(v, 0) + 1
            unlisted = system.cells(len(svars)) - len(table)
            if unlisted:
                stored = c.default
                counts[stored] = counts.get(stored, 0) + unlisted
            if len(counts) == 1:
                (default,) = counts
            else:
                # deterministic tie-break: highest count, then smallest value
                default, top = None, 0
                for v, n in counts.items():
                    if n > top or n == top and v < default:
                        default, top = v, n
            if unlisted and default != stored:
                table = dict(table)
                for key in itertools.product(system.domain, repeat=len(svars)):
                    table.setdefault(key, stored)
            rows = [(k, v) for k, v in table.items() if v != default]
            if len(rows) > 1:
                rows.sort(key=_by_rank(system))
            self._canon = (system.semiring.kind, svars, default, tuple(rows))
        return self._canon

    def __eq__(self, other) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return f"Constraint({self.system.semiring.kind}, vars={self.vars}, rows={len(self.table)})"

    def rows_sorted(self):
        """Listed rows in stable order, for printing and serialization."""
        return sorted(self.table.items(), key=_by_rank(self.system))


# -- helpers -----------------------------------------------------------


def _zero_function(c: Constraint) -> bool:
    """True when the constraint takes the zero value everywhere."""
    zero = c.system.semiring.zero
    return (c.default is None or c.default == zero) and all(v == zero for v in c.table.values())


def rename(c: Constraint, mapping: Mapping[str, str]) -> Constraint:
    """Rename support variables; repeated targets select the diagonal rows."""
    targets = [mapping.get(v, v) for v in c.vars]
    new_vars = []
    first_pos = {}
    for i, t in enumerate(targets):
        if t not in first_pos:
            first_pos[t] = i
            new_vars.append(t)
    if len(new_vars) == len(c.vars):
        return Constraint._unchecked(c.system, targets, dict(c.table), c.default)
    # collapsed: keep only rows consistent on repeated positions
    keep_idx = [first_pos[t] for t in new_vars]
    table = {}
    for key, val in c.table.items():
        if all(key[i] == key[first_pos[t]] for i, t in enumerate(targets)):
            table[tuple(key[i] for i in keep_idx)] = val
    return Constraint._unchecked(c.system, tuple(new_vars), table, c.default)


# -- the algebra -------------------------------------------------------


def _join(c1: Constraint, c2: Constraint, op, absorb, what: str) -> Constraint:
    """c1 op c2 pointwise over the union of supports, from the rows each lists.

    Each listed row of c1 meets c2's rows at its key, and c2's default at
    every other extension; each listed row of c2 meets c1's default at every
    key that c1 leaves unlisted; every other cell takes op of the defaults.
    ``absorb`` is the value that absorbs op: a default equal to it lists
    nothing, since every cell it meets takes it.  Where a side is dense,
    that side's rows reach every cell, and absorb is the output default
    (None keeps such an output dense).  Rows equal to the output default are
    dropped.  When c2's variables lie in c1's, each row of c1 meets one key
    of c2 and looks it up; otherwise c2's rows are bucketed by the shared
    variables.  The rows are counted against ``MAX_CELLS`` before any is
    built.
    """
    system = c1.system
    if system is not c2.system and (
        system.semiring is not c2.system.semiring or system.domain != c2.system.domain
    ):
        raise ConstraintError("constraints belong to different systems")
    v1, v2, t1, t2, d1, d2 = c1.vars, c2.vars, c1.table, c2.table, c1.default, c2.default
    d = absorb if d1 is None or d2 is None else op(d1, d2)
    miss = None if d2 is None or d2 == absorb else d2  # what c1's rows meet where c2 lists nothing
    same = v1 == v2
    extra = () if same else [j for j, v in enumerate(v2) if v not in v1]
    i2 = [j for j, v in enumerate(v2) if v in v1] if extra else range(len(v2))  # shared
    i1 = i2 if same else [v1.index(v2[j]) for j in i2]  # the same variables in c1
    rows, fills = 0, []
    if d1 is not None and d1 != absorb:
        # c2's rows meet d1 at the keys c1 leaves unlisted
        per = system.cells(len(v1) - len(i1))
        listed = Counter(tuple([k[i] for i in i1]) for k in t1)
        for key2, val2 in t2.items():
            v = op(d1, val2)
            if v != d:
                shared = tuple([key2[j] for j in i2])
                fills.append((shared, tuple([key2[j] for j in extra]), v))
                rows += per - listed[shared]
    if not extra:
        rows += len(t1)
    else:
        buckets = {}
        for key2, val2 in t2.items():
            shared, ext = tuple([key2[j] for j in i2]), tuple([key2[j] for j in extra])
            buckets.setdefault(shared, {})[ext] = val2
        per, met = system.cells(len(extra)), []
        for key1, val1 in t1.items():
            bucket = buckets.get(tuple([key1[i] for i in i1]), {})
            rest = d if miss is None else op(val1, miss)  # at the extensions c2 leaves unlisted
            if rest != d:
                rows += per - len(bucket)
            if bucket or rest != d:
                met.append((key1, val1, bucket, rest))
                rows += len(bucket)
    if rows > MAX_CELLS:
        raise TooLargeError(f"{what} over {len(v1) + len(extra)} variables is too large")
    table = {}
    if not extra:
        for key1, val1 in t1.items():
            val2 = t2.get(key1 if same else tuple([key1[i] for i in i1]), miss)
            if val2 is not None:
                v = op(val1, val2)
                if v != d:
                    table[key1] = v
    else:
        for key1, val1, bucket, rest in met:
            for ext, val2 in bucket.items():
                v = op(val1, val2)
                if v != d:
                    table[key1 + ext] = v
            if rest != d:
                for ext in itertools.product(system.domain, repeat=len(extra)):
                    if ext not in bucket:
                        table[key1 + ext] = rest
    if fills:
        only1 = [i for i in range(len(v1)) if i not in i1]
        order = [*i1, *only1]
        perm = [order.index(i) for i in range(len(v1))]
        for shared, ext, v in fills:
            for e in itertools.product(system.domain, repeat=len(only1)):
                cell = shared + e
                key1 = tuple([cell[i] for i in perm])
                if key1 not in t1:
                    table[key1 + ext] = v
    out = v1 + tuple([v2[j] for j in extra]) if extra else v1
    return Constraint._unchecked(system, out, table, d)


def tensor(c1: Constraint, c2: Constraint) -> Constraint:
    """Pointwise combination with x over the union of supports: ``_join``
    with the zero, which absorbs x, so dense and zero-default tables join
    over their listed rows alone, and a tell folds into a store factor by
    lookup."""
    s = c1.system.semiring
    return _join(c1, c2, s.combine, s.zero, "tensor")


def tensor_all(constraints: Iterable[Constraint], system: ConstraintSystem) -> Constraint:
    """Fold with tensor; the empty combination is constant one."""
    acc = None
    for c in constraints:
        acc = c if acc is None else tensor(acc, c)
    return system.constant(system.semiring.one) if acc is None else acc


def oplus(c1: Constraint, c2: Constraint) -> Constraint:
    """Pointwise choice with + over the union of supports; the zero
    function, the unit of +, returns the other side.  A sum with a dense
    side lists every cell."""
    if _zero_function(c1):
        return c2
    if _zero_function(c2):
        return c1
    return _join(c1, c2, c1.system.semiring.sum, None, "oplus")


def oplus_all(constraints: Iterable[Constraint], system: ConstraintSystem) -> Constraint:
    """Fold with oplus; the empty choice is constant zero."""
    acc = None
    for c in constraints:
        acc = c if acc is None else oplus(acc, c)
    return system.constant(system.semiring.zero) if acc is None else acc


def project(c: Constraint, keep: Iterable[str]) -> Constraint:
    """Sum out every support variable not in keep (the + over extensions).

    + is idempotent, so each kept key takes the + of its listed rows, with
    the default added in when the key has an unlisted extension; a kept key
    with no listed rows takes the default.  Sums equal to the default are
    dropped.
    """
    keepset = set(keep)
    system = c.system
    s = system.semiring
    keep_idx = [i for i, v in enumerate(c.vars) if v in keepset]
    if len(keep_idx) == len(c.vars):
        return c
    new_vars = tuple(c.vars[i] for i in keep_idx)
    add, d = s.sum, c.default
    groups = {}
    for key, val in c.table.items():
        nk = tuple([key[i] for i in keep_idx])
        groups[nk] = add(groups[nk], val) if nk in groups else val
    if d is None:
        return Constraint._unchecked(system, new_vars, groups)
    if d != s.zero:  # the zero is the unit of +, so adding it in changes nothing
        per = system.cells(len(c.vars) - len(keep_idx))
        rows = Counter(tuple([key[i] for i in keep_idx]) for key in c.table)
        groups = {k: v if rows[k] == per else add(v, d) for k, v in groups.items()}
    return Constraint._unchecked(system, new_vars, {k: v for k, v in groups.items() if v != d}, d)


def hide(c: Constraint, x: str) -> Constraint:
    """Existential quantification of one variable: project onto the rest."""
    return project(c, [v for v in c.vars if v != x])


def leqc(c1: Constraint, c2: Constraint) -> bool:
    """The constraint order: c1 below c2 iff c1 + c2 = c2 pointwise.

    Past their shared variables, c1 and c2 extend each shared key
    independently, so c1 lies below c2 iff every value c1 takes at a key
    lies below the least value c2 takes over that key's extensions.  The
    least value comes from c2's listed rows at the key, and from its
    default when they leave an extension unlisted.  c1's listed rows are
    compared one by one; its default, unless it is the zero, at each key
    where c1 leaves a cell unlisted.  Keys that c2 does not list are
    counted, not enumerated, so no width is too large.
    """
    system = c1.system
    leq = system.semiring.leq
    pos2 = {v: j for j, v in enumerate(c2.vars)}
    i1 = [i for i, v in enumerate(c1.vars) if v in pos2]
    i2 = [pos2[c1.vars[i]] for i in i1]
    least, rows2 = {}, {}  # shared key -> c2's least listed value, its row count
    for key, val in c2.table.items():
        k = tuple([key[j] for j in i2])
        m = least.get(k)
        if m is None or leq(val, m):
            least[k] = val
        rows2[k] = rows2.get(k, 0) + 1
    d2 = c2.default
    if d2 is not None:
        ext2 = system.cells(len(c2.vars) - len(i2))
        for k, n in rows2.items():
            if n < ext2 and leq(d2, least[k]):
                least[k] = d2
    # a key that c2 does not list takes its default (a dense c2 lists every key)
    rows1 = {}  # shared key -> c1's row count
    for key, val in c1.table.items():
        k = tuple([key[i] for i in i1])
        if not leq(val, least.get(k, d2)):
            return False
        rows1[k] = rows1.get(k, 0) + 1
    d1 = c1.default
    if d1 is None or d1 == system.semiring.zero:
        return True
    ext1 = system.cells(len(c1.vars) - len(i1))
    if any(rows1.get(k, 0) < ext1 and not leq(d1, m) for k, m in least.items()):
        return False
    # the keys c2 does not list: does c1 leave a cell unlisted at one of them?
    unlisted = system.cells(len(i1)) - len(least)
    full = sum(1 for k, n in rows1.items() if n == ext1 and k not in least)
    return full == unlisted or leq(d1, d2)


def pointwise_eq(c1: Constraint, c2: Constraint) -> bool:
    """Equality as functions of the full variable set: equal canonical keys.

    Every carrier is exact, so value equality is ``==``, and
    ``canonical_key`` (support, pruning, default vote) reads the values
    themselves.  So two keys are equal exactly when each constraint lies
    below the other, and given c1 below c2 the reverse check is the key test.
    """
    return c1.canonical_key() == c2.canonical_key()


def strictly_below(c1: Constraint, c2: Constraint) -> bool:
    """c1 below c2 and not pointwise equal, by key; false for incomparable pairs."""
    return c1.canonical_key() != c2.canonical_key() and leqc(c1, c2)


def glb(constraints: Sequence[Constraint], system: ConstraintSystem) -> Constraint:
    """Pointwise greatest lower bound; the carriers here are chains, so min.

    A fold of ``_join`` under min, which the zero absorbs.
    """
    if not constraints:
        return system.constant(system.semiring.one)
    s = system.semiring
    acc, *rest = constraints
    for c in rest:
        acc = _join(acc, c, lambda a, b: b if s.leq(b, a) else a, s.zero, "glb")
    return acc


# -- factored combination ----------------------------------------------


def combine_project(
    factors: Sequence[Constraint], keep: Iterable[str], system: ConstraintSystem
) -> Constraint:
    """tensor-fold the factors and project onto keep, via variable elimination.

    Equivalent to project(tensor_all(factors), keep) but eliminates one
    variable at a time, joining only the factors that touch it, so the
    intermediate tables stay near the size the factor graph demands.  The
    elimination order picks the variable with the narrowest bucket; within
    a bucket, and for what is left at the end, factors join in the order
    given, since any join order yields the same table.  A lone factor with
    nothing to eliminate is its pruned self.
    """
    keepset = set(keep)
    if len(factors) == 1:
        c = factors[0].pruned()
        if keepset.issuperset(c.vars):
            return c
    pruned = [c.pruned() for c in factors]
    work = [c for c in pruned if c.vars]
    scalars = [c for c in pruned if not c.vars]
    elim = set()
    for c in work:
        elim.update(c.vars)
    elim -= keepset
    while elim:
        best_v, best_cost = None, None
        for v in sorted(elim):
            touched = [c for c in work if v in c.vars]
            joint = set()
            for c in touched:
                joint.update(c.vars)
            cost = len(joint)
            if best_cost is None or cost < best_cost:
                best_v, best_cost = v, cost
        touched = [c for c in work if best_v in c.vars]
        rest = [c for c in work if best_v not in c.vars]
        joined = tensor_all(touched, system)
        summed = project(joined, [v for v in joined.vars if v != best_v])
        work = rest + [summed.pruned()]
        elim.discard(best_v)
    return tensor_all(work + scalars, system)


# -- entailment --------------------------------------------------------


def entails(constraints: Sequence[Constraint], c: Constraint) -> bool:
    """Does the set force c?  True iff the combination is below c."""
    if not constraints:
        raise ConstraintError("entailment needs a nonempty constraint set")
    system = constraints[0].system
    proj = combine_project(constraints, c.vars, system)
    return leqc(proj, c)


def entails_witness(
    constraints: Sequence[Constraint], c: Constraint
) -> Optional[dict]:
    """An assignment refuting entailment, or None when the set entails c.

    The witness is the first counterexample in variable-sorted,
    domain-declaration order over the union of supports.  It is found by
    conditioning: each variable in turn is pinned to the first atom at which
    the pinned set still fails to entail c, one ``entails`` call per atom
    tried, so no joint table is built.  The last atom needs no test.
    """
    if entails(constraints, c):
        return None
    system = constraints[0].system
    s = system.semiring
    pinned, witness = list(constraints), {}
    for v in sorted({v for f in (*constraints, c) for v in f.vars}):
        for a in system.domain:
            pin = Constraint._unchecked(system, (v,), {(a,): s.one}, s.zero)
            if a == system.domain[-1] or not entails(pinned + [pin], c):
                break
        pinned.append(pin)
        witness[v] = a
    return witness


def refutes_entailment(
    constraints: Sequence[Constraint], c: Constraint, assignment: Mapping[str, Atom]
) -> bool:
    """Check one assignment: does it show the set failing to entail c?"""
    system = constraints[0].system
    s = system.semiring
    combined = s.combine_all(f.eval(assignment) for f in constraints)
    return not s.leq(combined, c.eval(assignment))
