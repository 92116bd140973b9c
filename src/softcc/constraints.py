"""Soft constraints as finite tables of semiring values.

A constraint maps assignments of its support variables to semiring values.
Tables are dicts keyed by tuples of domain atoms in support order.  A
constraint either lists every tuple (dense, ``default is None``) or lists
some tuples and falls back to ``default`` for the rest.  Keeping the
default equal to the semiring zero lets combination and projection work
row-wise on the listed tuples only, which is what makes larger variable
counts affordable.

The algebra: ``tensor`` combines pointwise with x, ``oplus`` with +,
``project`` sums out eliminated variables, ``hide`` removes one variable,
``leqc`` is the induced constraint order, equality is ``canonical_key``
equality (``pointwise_eq``; values are exact, so keys hold them as they
are), and ``entails`` asks whether a set of constraints forces another one.
The order compares listed rows with the least value over their extensions,
so it answers at any width.  ``combine_project`` combines a factor list and
projects in one pass via variable elimination so the full joint table never
needs to exist; the factors of each bucket join in factor order.  ``tensor`` joins the listed
rows: by direct lookup when the second support lies inside the first, as
every fold of a tell into a store factor does, through buckets on the
shared variables otherwise, and over either's keys for equal supports.
Every operation that walks the cells of a joint table does so through
``_cells``; the order walks none.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Mapping, Optional, Sequence, Union

from .semiring import Semiring, Value

Atom = Union[str, int]

# Dense enumeration fallbacks refuse to materialize beyond this many cells.
MAX_CELLS = 500_000


class ConstraintError(ValueError):
    pass


class IncompleteConstraintError(ConstraintError):
    """A dense constraint is missing tuples, or eval hit a hole with no default."""


class TooLargeError(ConstraintError):
    """An operation would need to enumerate more cells than MAX_CELLS."""


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
        """The same function restricted to its computed support."""
        supp = self._supp if self._supp is not None else self.support()
        if len(supp) == len(self.vars):
            return self  # caching self would make a cycle only the cycle collector frees
        if self._pruned is None:
            keep = [i for i, v in enumerate(self.vars) if v in supp]
            new_vars = tuple(self.vars[i] for i in keep)
            s = self.system.semiring
            new_table = {}
            for key, val in self.table.items():
                nk = tuple(key[i] for i in keep)
                if nk not in new_table:
                    new_table[nk] = val
            if self.default is not None:
                new_table = {
                    k: v for k, v in new_table.items() if not s.eq(v, self.default)
                }
            self._pruned = Constraint._unchecked(self.system, new_vars, new_table, self.default)
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


def _sparse_ok(c: Constraint) -> bool:
    # Row-wise algorithms apply when everything unlisted is the zero.
    if c.default is None:
        return True  # dense: every tuple is listed
    return c.system.semiring.eq(c.default, c.system.semiring.zero)


def _zero_function(c: Constraint) -> bool:
    """True when the constraint takes the zero value everywhere."""
    s = c.system.semiring
    if not _sparse_ok(c):
        return False
    return all(s.eq(v, s.zero) for v in c.table.values())


def _union_vars(c1: Constraint, c2: Constraint) -> tuple:
    return c1.vars + tuple(v for v in c2.vars if v not in c1.vars)


def _indices(sub: Sequence[str], into: Sequence[str]):
    pos = {v: i for i, v in enumerate(into)}
    return [pos[v] for v in sub]


def _cells(constraints: Sequence[Constraint], union: Sequence[str], what: str):
    """Every assignment of union, in product order, with each constraint's value there.

    Yields ``(key, values)``.  A dense constraint lists every tuple, so no
    value is ever missing.
    """
    system = constraints[0].system
    n = len(union)
    if system.cells(n) > MAX_CELLS:
        raise TooLargeError(f"{what} over {n} variables is too large")
    looks = [(c.table, c.default, _indices(c.vars, union)) for c in constraints]
    for key in itertools.product(system.domain, repeat=n):
        yield key, [t.get(tuple([key[i] for i in idx]), d) for t, d, idx in looks]


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


def tensor(c1: Constraint, c2: Constraint) -> Constraint:
    """Pointwise combination with x over the union of supports.

    When everything unlisted is the zero, the join runs over listed rows
    alone.  If c2's variables all lie in c1's, each row of c1 meets at most
    one row of c2 and looks it up directly (by its own key when the
    variables are the same, in the same order); otherwise the rows of c2
    are bucketed by the variables the two share, and the output is counted
    before it is built, so that it too keeps to ``MAX_CELLS``.  Equal
    variable sets join as ``_join_equal`` does, whatever the defaults.
    """
    system = c1.system
    if system is not c2.system and (
        system.semiring is not c2.system.semiring or system.domain != c2.system.domain
    ):
        raise ConstraintError("constraints belong to different systems")
    s = system.semiring
    if _sparse_ok(c1) and _sparse_ok(c2):
        combine, eq, zero = s.combine, s.eq, s.zero
        v1, v2, t2 = c1.vars, c2.vars, c2.table
        table = {}
        extra = [i for i, v in enumerate(v2) if v not in v1]
        if not extra:
            same = v1 == v2
            idx = [v1.index(v) for v in v2]
            for key1, val1 in c1.table.items():
                val2 = t2.get(key1 if same else tuple([key1[i] for i in idx]))
                if val2 is not None:
                    v = combine(val1, val2)
                    if not eq(v, zero):
                        table[key1] = v
            return Constraint._unchecked(system, v1, table, zero)
        shared = [v for v in v2 if v in v1]
        i1 = _indices(shared, v1)
        i2 = _indices(shared, v2)
        buckets = {}
        for key2, val2 in t2.items():
            buckets.setdefault(tuple([key2[i] for i in i2]), []).append(
                (tuple([key2[i] for i in extra]), val2)
            )
        met, rows = [], 0
        for key1, val1 in c1.table.items():
            bucket = buckets.get(tuple([key1[i] for i in i1]))
            if bucket is not None:
                met.append((key1, val1, bucket))
                rows += len(bucket)
        if rows > MAX_CELLS:
            raise TooLargeError(f"tensor over {len(v1) + len(extra)} variables is too large")
        for key1, val1, bucket in met:
            for ext, val2 in bucket:
                v = combine(val1, val2)
                if not eq(v, zero):
                    table[key1 + ext] = v
        return Constraint._unchecked(system, v1 + tuple(v2[i] for i in extra), table, zero)
    if set(c1.vars) == set(c2.vars):
        return _join_equal(c1, c2, s.combine)
    union = _union_vars(c1, c2)
    table = {key: s.combine(a, b) for key, (a, b) in _cells((c1, c2), union, "tensor")}
    return Constraint._unchecked(system, union, table)


def _join_equal(c1: Constraint, c2: Constraint, op) -> Constraint:
    """c1 op c2 pointwise, where c2 has c1's variables in any order: over
    the keys either lists, and the op of the defaults everywhere else."""
    t1, d1, d2 = c1.table, c1.default, c2.default
    idx = _indices(c1.vars, c2.vars)
    t2 = {tuple([key[i] for i in idx]): val for key, val in c2.table.items()}
    table = {key: op(val, t2.get(key, d2)) for key, val in t1.items()}
    table.update((key, op(d1, val)) for key, val in t2.items() if key not in t1)
    default = None if d1 is None or d2 is None else op(d1, d2)
    return Constraint._unchecked(c1.system, c1.vars, table, default)


def tensor_all(constraints: Iterable[Constraint], system: ConstraintSystem) -> Constraint:
    """Fold with tensor; the empty combination is constant one."""
    acc = None
    for c in constraints:
        acc = c if acc is None else tensor(acc, c)
    return system.constant(system.semiring.one) if acc is None else acc


def oplus(c1: Constraint, c2: Constraint) -> Constraint:
    """Pointwise choice with + over the union of supports."""
    system = c1.system
    s = system.semiring
    # the zero function is the unit of +, pointwise
    if _zero_function(c1):
        return c2
    if _zero_function(c2):
        return c1
    if set(c1.vars) == set(c2.vars):
        return _join_equal(c1, c2, s.sum)
    union = _union_vars(c1, c2)
    table = {key: s.sum(v1, v2) for key, (v1, v2) in _cells((c1, c2), union, "oplus")}
    return Constraint._unchecked(system, union, table)


def oplus_all(constraints: Iterable[Constraint], system: ConstraintSystem) -> Constraint:
    """Fold with oplus; the empty choice is constant zero."""
    acc = None
    for c in constraints:
        acc = c if acc is None else oplus(acc, c)
    return system.constant(system.semiring.zero) if acc is None else acc


def project(c: Constraint, keep: Iterable[str]) -> Constraint:
    """Sum out every support variable not in keep (the + over extensions)."""
    keepset = set(keep)
    system = c.system
    s = system.semiring
    keep_idx = [i for i, v in enumerate(c.vars) if v in keepset]
    if len(keep_idx) == len(c.vars):
        return c
    new_vars = tuple(c.vars[i] for i in keep_idx)
    if _sparse_ok(c):
        groups = {}
        for key, val in c.table.items():
            nk = tuple(key[i] for i in keep_idx)
            groups[nk] = s.sum(groups[nk], val) if nk in groups else val
        if c.default is None:
            return Constraint._unchecked(system, new_vars, groups)
        # unlisted extensions contribute the zero default, the unit of +
        zero = s.zero
        groups = {k: v for k, v in groups.items() if not s.eq(v, zero)}
        return Constraint._unchecked(system, new_vars, groups, zero)
    groups = {}
    for key, (val,) in _cells((c,), c.vars, "projection"):
        nk = tuple(key[i] for i in keep_idx)
        groups[nk] = s.sum(groups[nk], val) if nk in groups else val
    return Constraint._unchecked(system, new_vars, groups)


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
    """Pointwise greatest lower bound; the carriers here are chains, so min."""
    if not constraints:
        return system.constant(system.semiring.one)
    s = system.semiring
    union: tuple = ()
    for c in constraints:
        union = union + tuple(v for v in c.vars if v not in union)
    table = {}
    for key, vals in _cells(constraints, union, "glb"):
        best = vals[0]
        for v in vals[1:]:
            if s.leq(v, best):
                best = v
        table[key] = best
    return Constraint._unchecked(system, union, table)


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
    domain-declaration order over the union of supports.
    """
    if entails(constraints, c):
        return None
    s = constraints[0].system.semiring
    union = []
    for f in constraints:
        union.extend(v for v in f.vars if v not in union)
    union.extend(v for v in c.vars if v not in union)
    union = sorted(union)
    for key, vals in _cells([*constraints, c], union, "witness search"):
        if not s.leq(s.combine_all(vals[:-1]), vals[-1]):
            return dict(zip(union, key))
    return None


def refutes_entailment(
    constraints: Sequence[Constraint], c: Constraint, assignment: Mapping[str, Atom]
) -> bool:
    """Check one assignment: does it show the set failing to entail c?"""
    system = constraints[0].system
    s = system.semiring
    combined = s.combine_all(f.eval(assignment) for f in constraints)
    return not s.leq(combined, c.eval(assignment))
