"""Constraint tables: golden values, algebra laws, entailment."""

import functools
import itertools
import math
import random
from collections import Counter
from decimal import Decimal

import pytest

from softcc import (
    ALL_SEMIRINGS,
    BOOLEAN,
    CarrierError,
    Constraint,
    ConstraintError,
    ConstraintSystem,
    FUZZY,
    IncompleteConstraintError,
    PROBABILISTIC,
    TooLargeError,
    WEIGHTED,
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
    Store,
    strictly_below,
    tensor,
    tensor_all,
)
from softcc import constraints

IDEMPOTENT = (BOOLEAN, FUZZY)


# -- fixtures used across the tests ------------------------------------


def crossword_system():
    return ConstraintSystem(FUZZY, ("a", "b"))


def crossword_constraints(sys2):
    c1 = Constraint(sys2, ("x",), {("a",): 0.9, ("b",): 0.1})
    c2 = Constraint(
        sys2,
        ("x", "y"),
        {("a", "a"): 0.8, ("a", "b"): 0.2, ("b", "a"): 0.0, ("b", "b"): 0.0},
    )
    c3 = Constraint(sys2, ("y",), {("a",): 0.9, ("b",): 0.5})
    return c1, c2, c3


def distance_system():
    return ConstraintSystem(FUZZY, tuple(range(21)))


def closeness(sysd, scale):
    table = {}
    for i in sysd.domain:
        for j in sysd.domain:
            table[(i, j)] = 1.0 / (1.0 + scale * abs(i - j))
    return Constraint(sysd, ("x", "y"), table)


def step_bound(sysd, cutoff=10):
    table = {(i,): (1.0 if i <= cutoff else 0.0) for i in sysd.domain}
    return Constraint(sysd, ("x",), table)


def rand_constraint(system, rng, pool=("x", "y", "z"), max_vars=3):
    nv = rng.randrange(0, max_vars + 1)
    vars_ = tuple(rng.sample(list(pool), nv))
    s = system.semiring
    if rng.random() < 0.5:
        table = {
            key: s.sample(rng)
            for key in itertools.product(system.domain, repeat=nv)
        }
        return Constraint(system, vars_, table)
    table = {}
    for key in itertools.product(system.domain, repeat=nv):
        if rng.random() < 0.6:
            table[key] = s.sample(rng)
    return Constraint(system, vars_, table, default=s.sample(rng))


def small_systems():
    out = []
    for s in ALL_SEMIRINGS:
        out.append(ConstraintSystem(s, ("a", "b")))
        out.append(ConstraintSystem(s, ("a", "b", "c")))
    return out


# -- construction and evaluation ---------------------------------------


def test_construction_errors():
    sys2 = crossword_system()
    with pytest.raises(IncompleteConstraintError):
        Constraint(sys2, ("x",), {("a",): 0.5})  # missing row, no default
    with pytest.raises(ConstraintError):
        Constraint(sys2, ("x", "x"), {("a", "a"): 1.0}, default=0.0)
    with pytest.raises(ConstraintError):
        Constraint(sys2, ("x",), {("q",): 0.5}, default=0.0)  # atom not in domain
    with pytest.raises(ConstraintError):
        Constraint(sys2, ("x",), {("a", "b"): 0.5}, default=0.0)  # arity
    with pytest.raises(CarrierError):
        Constraint(sys2, ("x",), {("a",): 1.5}, default=0.0)  # carrier
    with pytest.raises(ConstraintError):
        ConstraintSystem(FUZZY, ())
    with pytest.raises(ConstraintError):
        ConstraintSystem(FUZZY, ("a", "a"))


def test_eval_and_scalar():
    sys2 = crossword_system()
    c1, c2, _ = crossword_constraints(sys2)
    assert c1.eval({"x": "a"}) == pytest.approx(0.9)
    assert c1.eval({"x": "b", "y": "a"}) == pytest.approx(0.1)  # extra vars ignored
    assert c2.eval({"x": "a", "y": "b"}) == pytest.approx(0.2)
    with pytest.raises(ConstraintError):
        c2.eval({"x": "a"})  # missing y
    k = sys2.constant(0.7)
    assert k.scalar() == pytest.approx(0.7)
    assert k.eval({}) == pytest.approx(0.7)
    with pytest.raises(ConstraintError):
        c1.scalar()


def test_sparse_default_eval():
    sys2 = crossword_system()
    c = Constraint(sys2, ("x", "y"), {("a", "a"): 0.8}, default=0.0)
    assert c.eval({"x": "a", "y": "a"}) == pytest.approx(0.8)
    assert c.eval({"x": "b", "y": "a"}) == pytest.approx(0.0)


def test_support_drops_constant_columns():
    sys2 = crossword_system()
    c = Constraint(
        sys2,
        ("x", "y"),
        {("a", "a"): 0.4, ("a", "b"): 0.4, ("b", "a"): 0.9, ("b", "b"): 0.9},
    )
    assert c.support() == frozenset({"x"})
    p = c.pruned()
    assert p.vars == ("x",)
    assert pointwise_eq(p, c)
    k = sys2.constant(0.5)
    assert k.support() == frozenset()
    d = sys2.diagonal("x", "y")
    assert d.support() == frozenset({"x", "y"})


def _pruned_form(c):
    """The form of ``pruned`` by a row walk of its own: the support's
    variables in their order, the first listed row per kept key, rows equal
    to the stored default dropped, and that default kept.  Each value comes
    with its text, so a decimal's exponent shows."""
    supp = c.support()
    keep = [i for i, v in enumerate(c.vars) if v in supp]
    table = {}
    for key, val in c.table.items():
        table.setdefault(tuple(key[i] for i in keep), val)
    rows = [(k, v, str(v)) for k, v in table.items() if c.default is None or v != c.default]
    return tuple(c.vars[i] for i in keep), rows, c.default, str(c.default)


def test_pruned_keeps_its_form():
    # combine_project returns a lone factor as its pruned self, and scc run
    # and scc observe print that form.  Tables with dead columns, dense or
    # sparse with a zero or a nonzero default, list rows equal to their
    # default and write one decimal two ways (0.5 and 0.50)
    rng = random.Random("pruned-form")
    seen = Counter()
    for system in small_systems():
        s = system.semiring
        for shape in ("dense", "zero", "nonzero") * 15:
            live = rng.sample(("x", "y"), rng.randrange(0, 3))
            dead = rng.sample(("u", "v"), rng.randrange(1, 3))
            vs = tuple(rng.sample(live + dead, len(live) + len(dead)))
            values = [s.sample(rng) for _ in range(2)]
            f = {k: rng.choice(values) for k in itertools.product(system.domain, repeat=len(live))}
            default = None if shape == "dense" else s.zero
            while shape == "nonzero" and default == s.zero:
                default = rng.choice(values + [s.sample(rng)])
            table = {}
            for key in itertools.product(system.domain, repeat=len(vs)):
                val = f[tuple(key[vs.index(v)] for v in live)]
                if isinstance(val, Decimal) and rng.random() < 0.5:
                    val += Decimal("0.00")  # the same value with another exponent
                if default is None or val != default or rng.random() < 0.5:
                    table[key] = val
            c = Constraint(system, vs, table, default)
            p = c.pruned()
            rows = [(k, v, str(v)) for k, v in p.table.items()]
            assert (p.vars, rows, p.default, str(p.default)) == _pruned_form(c)
            assert pointwise_eq(p, c)
            seen[shape] += len(p.vars) < len(vs)
            seen["default listed"] += any(v == default for v in table.values())
    assert min(seen.values()) > 20, seen


def test_canonical_key_identifies_functions():
    sys2 = crossword_system()
    dense = Constraint(
        sys2,
        ("x", "y"),
        {("a", "a"): 0.8, ("a", "b"): 0.0, ("b", "a"): 0.0, ("b", "b"): 0.0},
    )
    sparse = Constraint(sys2, ("y", "x"), {("a", "a"): 0.8}, default=0.0)
    assert dense == sparse
    assert hash(dense) == hash(sparse)
    # a dead column does not change identity
    padded = Constraint(
        sys2,
        ("x", "y", "z"),
        {("a", "a", "a"): 0.8, ("a", "a", "b"): 0.8},
        default=0.0,
    )
    assert padded == sparse
    # values a hair apart are other functions; one value reached two ways is one
    wiggled = Constraint(sys2, ("x", "y"), {("a", "a"): 0.8 + 1e-12}, default=0.0)
    assert wiggled != sparse
    sysp = ConstraintSystem(PROBABILISTIC, ("a", "b"))
    via = tensor(Constraint(sysp, ("x",), {("a",): 0.1}, default=0.0), sysp.constant(0.3))
    direct = Constraint(sysp, ("x",), {("a",): 0.03}, default=0.0)  # 0.030000000000000002 in floats
    assert via == direct and hash(via) == hash(direct)
    other = Constraint(sys2, ("x", "y"), {("a", "a"): 0.7}, default=0.0)
    assert other != sparse


def test_rows_sort_by_atom_rank_on_a_mixed_domain():
    # ints come first in numeric order, then names in code-point order
    system = ConstraintSystem(FUZZY, (10, 2, "b", "A"))
    order = [2, 10, "A", "b"]
    assert system.rank == {a: i for i, a in enumerate(order)}
    keys = list(itertools.product(system.domain, repeat=2))
    random.Random("mixed-domain").shuffle(keys)
    table = {k: (i + 1) / 100 for i, k in enumerate(keys)}  # all distinct; 0.01 is the default
    c = Constraint(system, ("y", "x"), table)
    in_order = list(itertools.product(order, repeat=2))
    assert c.rows_sorted() == [(k, table[k]) for k in in_order]
    kind, svars, default, rows = c.canonical_key()
    assert (svars, default) == (("x", "y"), 0.01)
    want = [((x, y), table[y, x]) for x, y in in_order if table[y, x] != 0.01]
    assert list(rows) == want


# Values on a small grid, so ties and repeated values are common.
GRID = {
    "boolean": (False, True),
    "fuzzy": (0.0, 0.2, 0.5, 0.8, 1.0),
    "probabilistic": (0.0, 0.2, 0.5, 0.8, 1.0),
    "weighted": (0.0, 0.2, 0.5, 0.8, 1.0, math.inf),
}
POOL = tuple(f"v{i}" for i in range(6))


def _grid_function(system, rng):
    """A random function, as a full table over its variables, on few grid values."""
    ndom = len(system.domain)
    nv = rng.randrange(0, (6 if ndom == 2 else 4) + 1)
    vars_ = tuple(rng.sample(POOL, nv))
    grid = GRID[system.semiring.kind]
    values = rng.sample(grid, rng.randrange(1, min(3, len(grid)) + 1))
    cells = list(itertools.product(system.domain, repeat=nv))
    if rng.random() < 0.3 and len(values) > 1 and len(cells) % 2 == 0:
        # an exact tie between the two first values
        picks = [values[0], values[1]] * (len(cells) // 2)
        rng.shuffle(picks)
        return vars_, dict(zip(cells, picks))
    return vars_, {key: rng.choice(values) for key in cells}


def _forms(system, vars_, f, rng, seen):
    """The function f written dense and sparse, with shuffled columns and dead ones.

    Sparse defaults are every value f takes, so they win, tie or lose the
    majority, plus one grid value f may not take at all.
    """
    counts = {}
    for v in f.values():
        counts[v] = counts.get(v, 0) + 1
    top = max(counts.values())
    shapes = [(dict(f), None)]
    for d in set(counts) | {rng.choice(GRID[system.semiring.kind])}:
        n = counts.get(d, 0)
        if n == top:
            seen.add("tie" if sum(m == top for m in counts.values()) > 1 else "win")
        elif n:
            seen.add("lose")
        # rows equal to the default may stay listed too
        table = {k: v for k, v in f.items() if v != d or rng.random() < 0.3}
        shapes.append((table, d))
    out = []
    for table, d in shapes:
        vs = vars_
        if rng.random() < 0.5:
            dead = rng.choice([v for v in POOL if v not in vars_] or ["dead"])
            vs = vars_ + (dead,)
            table = {k + (a,): v for k, v in table.items() for a in system.domain}
        perm = rng.sample(range(len(vs)), len(vs))
        out.append(
            Constraint(
                system,
                tuple(vs[i] for i in perm),
                {tuple(k[i] for i in perm): v for k, v in table.items()},
                d,
            )
        )
    return out


def _same_function(c1, c2):
    """Pointwise equality by enumerating the union of supports."""
    s = c1.system.semiring
    union = sorted(set(c1.vars) | set(c2.vars))
    for key in itertools.product(c1.system.domain, repeat=len(union)):
        env = dict(zip(union, key))
        if not s.eq(c1.eval(env), c2.eval(env)):
            return False
    return True


def test_canonical_key_exact_on_random_forms():
    rng = random.Random(2024)
    seen = set()
    outcomes = {True: 0, False: 0}
    for s in ALL_SEMIRINGS:
        for system in (ConstraintSystem(s, ("a", "b")), ConstraintSystem(s, ("a", "b", "c"))):
            for _ in range(40):
                vars_, f = _grid_function(system, rng)
                r = rng.random()
                if r < 0.3:
                    gvars, g = vars_, dict(f)
                elif r < 0.7:
                    gvars, g = vars_, dict(f)
                    cell = rng.choice(list(g))
                    g[cell] = rng.choice([v for v in GRID[s.kind] if v != g[cell]])
                else:
                    gvars, g = _grid_function(system, rng)
                fs = _forms(system, vars_, f, rng, seen)
                gs = _forms(system, gvars, g, rng, seen)
                pairs = [(a, b) for a in fs for b in fs] + [
                    (rng.choice(fs), rng.choice(gs)) for _ in range(6)
                ]
                for c1, c2 in pairs:
                    same = _same_function(c1, c2)
                    outcomes[same] += 1
                    assert (c1.canonical_key() == c2.canonical_key()) == same, (c1, c2)
                    assert pointwise_eq(c1, c2) == same
                    if same:
                        assert hash(c1) == hash(c2)
    # every default shape and both answers were exercised
    assert seen == {"win", "tie", "lose"}
    assert min(outcomes.values()) > 100


def test_canonical_key_exact_beyond_4096_cells():
    # 13 variables over two atoms: 8192 cells, every variable in the support
    sys2 = crossword_system()
    vars_ = tuple(f"x{i}" for i in range(13))
    top = ("a",) * 13
    dense = Constraint(
        sys2,
        vars_,
        {key: (1.0 if key == top else 0.0) for key in itertools.product(sys2.domain, repeat=13)},
    )
    sparse = Constraint(sys2, tuple(reversed(vars_)), {top: 1.0}, default=0.0)
    assert dense.support() == frozenset(vars_)
    assert dense.canonical_key() == sparse.canonical_key()
    assert dense == sparse and hash(dense) == hash(sparse)
    assert pointwise_eq(dense, sparse)
    assert dense != Constraint(sys2, vars_, {top: 0.5}, default=0.0)


def test_key_equality_matches_pointwise_eq_across_a_rounding_boundary():
    # a hair apart across what was a 1e-9 grid boundary, a hair apart within
    # one grid cell, and one value reached by a product or sum that floats
    # round: keys, ==, hashing and pointwise_eq must all give the same answer
    P, W = PROBABILISTIC, WEIGHTED
    for s, lo, hi, same in (
        (FUZZY, 0.1234567894999, 0.1234567895001, False),
        (FUZZY, 0.1234567894001, 0.1234567894999, False),
        (FUZZY, 0.5, 0.5 + 1e-12, False),
        (P, P.combine(P.check(0.1), P.check(0.3)), P.check(0.03), True),
        (W, W.combine(W.check(0.1), W.check(0.2)), W.check(0.3), True),
    ):
        sys2 = ConstraintSystem(s, ("a", "b"))
        for default in (None, 0.3):
            rows = {("b",): 0.3} if default is None else {}
            c1 = Constraint(sys2, ("x",), {("a",): lo, **rows}, default)
            c2 = Constraint(sys2, ("x",), {("a",): hi, **rows}, default)
            assert s.eq(lo, hi) == same
            assert pointwise_eq(c1, c2) == same
            assert (c1.canonical_key() == c2.canonical_key()) == same
            assert (c1 == c2) == same
            assert len({c1, c2}) == (1 if same else 2)
    # large costs stand for themselves
    big = ConstraintSystem(WEIGHTED, ("a", "b"))
    c1 = Constraint(big, ("x",), {("a",): 1e300, ("b",): math.inf})
    c2 = Constraint(big, ("x",), {("a",): 1e300, ("b",): 2e300})
    assert c1 == Constraint(big, ("x",), {("a",): 1e300}, default=math.inf)
    assert not pointwise_eq(c1, c2) and c1.canonical_key() != c2.canonical_key()


# -- golden values ------------------------------------------------------


def test_crossword_combination_golden():
    sys2 = crossword_system()
    c1, c2, c3 = crossword_constraints(sys2)
    joint = tensor_all([c1, c2, c3], sys2)
    expect = {
        ("a", "a"): 0.8,
        ("a", "b"): 0.2,
        ("b", "a"): 0.0,
        ("b", "b"): 0.0,
    }
    for (x, y), v in expect.items():
        assert joint.eval({"x": x, "y": y}) == pytest.approx(v)
    best_x = project(joint, ["x"])
    assert best_x.eval({"x": "a"}) == pytest.approx(0.8)
    assert best_x.eval({"x": "b"}) == pytest.approx(0.0)
    blevel = project(joint, [])
    assert blevel.scalar() == pytest.approx(0.8)


def test_closeness_order_golden():
    sysd = distance_system()
    gentle = closeness(sysd, 1)  # 1 / (1 + |x-y|)
    steep = closeness(sysd, 2)  # 1 / (1 + 2|x-y|)
    assert leqc(steep, gentle)
    assert not leqc(gentle, steep)
    assert strictly_below(steep, gentle)
    # the unary step bound is not forced by the gentle closeness constraint
    bound = step_bound(sysd)
    assert not entails([gentle], bound)
    w = entails_witness([gentle], bound)
    assert w is not None
    assert refutes_entailment([gentle], bound, w)
    # any diagonal-ish pair beyond the cutoff refutes it too
    assert refutes_entailment([gentle], bound, {"x": 11, "y": 10})
    assert refutes_entailment([gentle], bound, {"x": 11, "y": 11})
    # a constraint does entail anything it sits below
    assert entails([steep], gentle)
    assert entails_witness([steep], gentle) is None


def test_projection_of_closeness():
    sysd = distance_system()
    gentle = closeness(sysd, 1)
    onto_x = project(gentle, ["x"])
    for i in sysd.domain:
        assert onto_x.eval({"x": i}) == pytest.approx(1.0)  # best y is y = x
    assert project(gentle, []).scalar() == pytest.approx(1.0)


# -- semiring laws lifted to constraints -------------------------------


def test_constraint_semiring_laws():
    cases = 0
    for system in small_systems():
        s = system.semiring
        rng = random.Random(repr((s.kind, len(system.domain))))
        zero_c = system.constant(s.zero)
        one_c = system.constant(s.one)
        for _ in range(30):
            a = rand_constraint(system, rng)
            b = rand_constraint(system, rng)
            c = rand_constraint(system, rng)
            assert pointwise_eq(oplus(a, b), oplus(b, a))
            assert pointwise_eq(oplus(oplus(a, b), c), oplus(a, oplus(b, c)))
            assert pointwise_eq(oplus(a, a), a)
            assert pointwise_eq(oplus(a, zero_c), a)
            assert pointwise_eq(oplus(a, one_c), one_c)
            assert pointwise_eq(tensor(a, b), tensor(b, a))
            assert pointwise_eq(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))
            assert pointwise_eq(tensor(a, one_c), a)
            assert pointwise_eq(tensor(a, zero_c), zero_c)
            assert pointwise_eq(
                tensor(a, oplus(b, c)), oplus(tensor(a, b), tensor(a, c))
            )
            # order facts
            assert leqc(a, oplus(a, b))
            assert leqc(tensor(a, b), a)
            assert leqc(zero_c, a) and leqc(a, one_c)
            if s.idempotent_times:
                assert pointwise_eq(tensor(a, a), a)
            cases += 1
    assert cases >= 200


def test_order_antisymmetry_and_transitivity():
    for system in small_systems():
        rng = random.Random(len(system.domain) * 7 + len(system.semiring.kind))
        for _ in range(25):
            a = rand_constraint(system, rng)
            b = rand_constraint(system, rng)
            c = rand_constraint(system, rng)
            if leqc(a, b) and leqc(b, a):
                assert pointwise_eq(a, b)
            if leqc(a, b) and leqc(b, c):
                assert leqc(a, c)
            assert not strictly_below(a, a)


# the order-based definitions the canonical key replaced: equality as the
# order checked both ways, and a store below phi unless phi is below it too
def ref_pointwise_eq(c1, c2):
    return c1.canonical_key() == c2.canonical_key() or (leqc(c1, c2) and leqc(c2, c1))


def ref_strictly_below(c1, c2):
    return leqc(c1, c2) and c1.canonical_key() != c2.canonical_key() and not leqc(c2, c1)


def ref_below_cut(store, phi):
    return store.entails(phi) and not leqc(phi, store.materialize())


def _nudged(c, rng):
    """c with every value moved a hair in its carrier's own arithmetic, kept
    inside the carrier: fuzzy floats and probabilistic decimals scale by
    1 +- 1e-13, weighted decimals shift by +- 1e-13."""
    s = c.system.semiring

    def nudge(v):
        if isinstance(v, bool):
            return v
        if s.kind == "fuzzy":
            w = v * rng.choice((1 + 1e-13, 1 - 1e-13))
            return v * (1 - 1e-13) if w > 1 else w
        if s.kind == "probabilistic":
            w = s.combine(v, rng.choice((Decimal("1.0000000000001"), Decimal("0.9999999999999"))))
            return s.combine(v, Decimal("0.9999999999999")) if w > 1 else w
        w = s.combine(v, rng.choice((Decimal("1e-13"), Decimal("-1e-13"))))
        return s.combine(v, Decimal("1e-13")) if w < 0 else w

    default = None if c.default is None else nudge(c.default)
    return Constraint(c.system, c.vars, {k: nudge(v) for k, v in c.table.items()}, default)


def _with_constant_column(c, var="w"):
    """c as a function of one more variable that it ignores."""
    table = {k + (a,): v for k, v in c.table.items() for a in c.system.domain}
    return Constraint(c.system, c.vars + (var,), table, c.default)


def test_key_equality_agrees_with_the_order_both_ways():
    pairs = below = 0
    outcomes = {True: 0, False: 0}
    for system in small_systems():
        rng = random.Random(repr(("equality", system.semiring.kind, len(system.domain))))
        for _ in range(30):
            a, b = rand_constraint(system, rng), rand_constraint(system, rng)
            near = _nudged(a, rng)
            for c1, c2 in (
                (a, b),
                (a, near),
                (a, _with_constant_column(a)),
                (_with_constant_column(near), a),
                (tensor(a, b), a),
                (a, oplus(a, b)),
                (a, a),
            ):
                for x, y in ((c1, c2), (c2, c1)):
                    eq = pointwise_eq(x, y)
                    assert eq == ref_pointwise_eq(x, y) == (leqc(x, y) and leqc(y, x))
                    assert strictly_below(x, y) == ref_strictly_below(x, y)
                    outcomes[eq] += 1
                    pairs += 1
            # stores told seeded constraints, against cuts below, at and above them
            store = Store(system)
            for c in (a, b, rand_constraint(system, rng))[: rng.randrange(1, 4)]:
                store = store.tell(c)
            m = store.materialize()
            for phi in (a, b, m, _nudged(m, rng), oplus(m, b), rand_constraint(system, rng)):
                assert store.below_cut(phi) == ref_below_cut(store, phi)
                below += store.below_cut(phi)
    assert pairs >= 3000 and min(outcomes.values()) > 500 and below > 200


# -- cylindrification ---------------------------------------------------


def test_hide_axioms():
    cases3 = 0
    for system in small_systems():
        s = system.semiring
        rng = random.Random(repr(("hide", s.kind, len(system.domain))))
        for _ in range(30):
            c = rand_constraint(system, rng)
            c1 = rand_constraint(system, rng)
            c2 = rand_constraint(system, rng)
            x, y = "x", "y"
            # hiding can only improve: c below (exists x)c
            assert leqc(c, hide(c, x))
            assert x not in hide(c, x).support()
            # monotone: build a pair with c1a below c2a by construction
            c2a = oplus(c1, c2)
            assert leqc(hide(c1, x), hide(c2a, x))
            # hides commute
            assert pointwise_eq(hide(hide(c, x), y), hide(hide(c, y), x))
            # hiding a variable outside the support changes nothing
            assert pointwise_eq(hide(c, "w"), c)
            if s.idempotent_times:
                # exists x (c1 x exists x c2) = exists x c1 x exists x c2
                lhs = hide(tensor(c1, hide(c2, x)), x)
                rhs = tensor(hide(c1, x), hide(c2, x))
                assert pointwise_eq(lhs, rhs)
                cases3 += 1
    assert cases3 >= 100


def test_hide_is_projection():
    for system in small_systems():
        rng = random.Random(len(system.semiring.kind))
        for _ in range(20):
            c = rand_constraint(system, rng)
            for x in ("x", "y", "z"):
                keep = [v for v in c.vars if v != x]
                assert pointwise_eq(hide(c, x), project(c, keep))


def test_projection_laws():
    for system in small_systems():
        rng = random.Random(99 + len(system.domain))
        for _ in range(20):
            c = rand_constraint(system, rng)
            assert pointwise_eq(project(c, c.vars), c)
            assert project(c, ["x"]).support() <= {"x"}
            assert pointwise_eq(
                project(project(c, ["x", "y"]), ["x"]), project(c, ["x"])
            )
            # projection is monotone in the constraint order
            d = rand_constraint(system, rng)
            hi = oplus(c, d)
            assert leqc(project(c, ["x"]), project(hi, ["x"]))


# -- diagonals -----------------------------------------------------------


def test_diagonal_axioms():
    for system in small_systems():
        s = system.semiring
        rng = random.Random(repr(("diag", s.kind, len(system.domain))))
        dxx = system.diagonal("x", "x")
        assert pointwise_eq(dxx, system.constant(s.one))
        dxy = system.diagonal("x", "y")
        # d_xy = exists z (d_xz x d_zy) with z not in {x, y}
        via_z = hide(tensor(system.diagonal("x", "z"), system.diagonal("z", "y")), "z")
        assert pointwise_eq(dxy, via_z)
        # substitution: d_xy x exists x (c x d_xy) below c
        for _ in range(25):
            c = rand_constraint(system, rng)
            lhs = tensor(dxy, hide(tensor(c, dxy), "x"))
            assert leqc(lhs, c)
        # diagonal values
        for ax in system.domain:
            for ay in system.domain:
                want = s.one if ax == ay else s.zero
                assert s.eq(dxy.eval({"x": ax, "y": ay}), want)


def test_rename():
    sys2 = crossword_system()
    c1, c2, _ = crossword_constraints(sys2)
    r = rename(c2, {"x": "u", "y": "v"})
    assert r.vars == ("u", "v")
    assert r.eval({"u": "a", "v": "b"}) == pytest.approx(0.2)
    assert pointwise_eq(rename(r, {"u": "x", "v": "y"}), c2)
    assert pointwise_eq(rename(c1, {}), c1)
    # renaming onto an existing variable keeps the diagonal rows
    folded = rename(c2, {"x": "y"})
    assert folded.vars == ("y",)
    assert folded.eval({"y": "a"}) == pytest.approx(0.8)
    assert folded.eval({"y": "b"}) == pytest.approx(0.0)


# -- factored combination ------------------------------------------------


def test_combine_project_matches_naive():
    for system in small_systems():
        rng = random.Random(repr(("cp", system.semiring.kind, len(system.domain))))
        for _ in range(15):
            # four variables and up to six factors of at most three each, so
            # buckets often hold factors that share nothing
            factors = [
                rand_constraint(system, rng, pool=("x", "y", "z", "w"))
                for _ in range(rng.randrange(1, 7))
            ]
            for keep in ([], ["x"], ["x", "y"], ["x", "y", "z"], ["x", "y", "z", "w"]):
                fast = combine_project(factors, keep, system)
                slow = project(tensor_all(factors, system), keep)
                assert pointwise_eq(fast, slow)
                assert set(fast.support()) <= set(keep)


def _shaped(system, rng, vs, shape):
    """A seeded table over vs: "dense", or sparse with a "zero" or a
    "nonzero" default; a sparse table sometimes lists one value only."""
    s = system.semiring
    keys = itertools.product(system.domain, repeat=len(vs))
    if shape == "dense":
        return Constraint(system, vs, {k: s.sample(rng) for k in keys})
    default = s.zero
    while shape == "nonzero" and s.eq(default, s.zero):
        default = s.sample(rng)
    one_value = s.sample(rng) if rng.random() < 0.3 else None
    listed = {k: s.sample(rng) if one_value is None else one_value for k in keys if rng.random() < 0.6}
    return Constraint(system, vs, listed, default=default)


def _cells_of(system, vs):
    for key in itertools.product(system.domain, repeat=len(vs)):
        yield dict(zip(vs, key))


def _second_support(rng, v1, kind, pool):
    """c2's support against c1's, by the relation named by kind."""
    others = [v for v in pool if v not in v1]
    if kind == "same":
        return v1
    if kind == "permuted":
        return v1[::-1]
    if kind == "inside":
        return tuple(rng.sample(v1, rng.randrange(1, len(v1))))
    if kind == "containing":
        return tuple(rng.sample(v1 + (others[0],), len(v1) + 1))
    if kind == "overlapping":
        return (others[0], v1[rng.randrange(len(v1))])
    if kind == "disjoint":
        return tuple(others[: rng.randrange(1, 3)])
    return ()


def test_kernels_match_their_cellwise_definitions():
    # tensor, support, pruned, combine_project and canonical keys against
    # their definitions, cell by cell through eval: the joins, the early
    # exits and the skipped reorderings and votes all keep the function
    pool = ("x", "y", "z", "w")
    kinds = ("same", "permuted", "inside", "containing", "overlapping", "disjoint", "empty")
    shapes = ("dense", "zero", "nonzero")
    # each kind of pair meets every shape of c1, and all nine pairs of
    # shapes occur, with c2's shapes turned one step per kind
    cases = [
        (kind, sh1, sh2)
        for n, kind in enumerate(kinds)
        for sh1, sh2 in zip(shapes, shapes[n % 3 :] + shapes[: n % 3])
    ]
    for system in small_systems():
        s = system.semiring
        rng = random.Random(repr(("kernels", s.kind, len(system.domain))))
        for kind, sh1, sh2 in cases:
            v1 = tuple(rng.sample(pool, 2))
            c1 = _shaped(system, rng, v1, sh1)
            c2 = _shaped(system, rng, _second_support(rng, v1, kind, pool), sh2)
            union = tuple(dict.fromkeys(c1.vars + c2.vars))
            both = tensor(c1, c2)
            for a in _cells_of(system, union):
                assert s.eq(both.eval(a), s.combine(c1.eval(a), c2.eval(a)))
            for c in (c1, c2, both):
                live = {
                    v
                    for a in _cells_of(system, c.vars)
                    for v in c.vars
                    for atom in system.domain
                    if not s.eq(c.eval(a), c.eval({**a, v: atom}))
                }
                assert c.support() == live
                for a in _cells_of(system, c.vars):
                    assert s.eq(c.pruned().eval(a), c.eval(a))
            c3 = rand_constraint(system, rng, pool=pool)
            for factors in ([c1], [c1, c2], [c2, c1, c3]):
                joint = tuple(dict.fromkeys(v for f in factors for v in f.vars))
                cells = [(a, s.combine_all(f.eval(a) for f in factors)) for a in _cells_of(system, joint)]
                for keep in ((), v1[:1], v1, pool):
                    got = combine_project(factors, keep, system)
                    sums = {}
                    for a, p in cells:
                        k = tuple(a[v] for v in joint if v in keep)
                        sums[k] = s.sum(sums[k], p) if k in sums else p
                    for a, _ in cells:
                        assert s.eq(got.eval(a), sums[tuple(a[v] for v in joint if v in keep)])
            # c1 listed densely, over its variables reversed and over one more
            # variable it ignores; c1 pruned; and other functions
            wider = v1 + (next(v for v in pool if v not in v1),)
            forms = [
                Constraint(system, vs, {tuple(a[v] for v in vs): c1.eval(a) for a in _cells_of(system, vs)})
                for vs in (v1, v1[::-1], wider)
            ] + [c1.pruned(), c2, both]
            for other in forms:
                cells = _cells_of(system, tuple(dict.fromkeys(c1.vars + other.vars)))
                same = all(s.eq(c1.eval(a), other.eval(a)) for a in cells)
                assert (c1.canonical_key() == other.canonical_key()) == same


def test_empty_folds():
    sys2 = crossword_system()
    assert tensor_all([], sys2).scalar() == pytest.approx(1.0)
    assert oplus_all([], sys2).scalar() == pytest.approx(0.0)
    assert combine_project([], [], sys2).scalar() == pytest.approx(1.0)


def test_too_large_guard():
    big = ConstraintSystem(FUZZY, tuple(range(10)))
    cs = [
        Constraint(
            big,
            (f"v{i}", f"v{i+1}"),
            {(j, j): 1.0 for j in big.domain},
            default=0.5,
        )
        for i in range(7)
    ]
    # the chain joins over its listed rows: ten rows over eight variables,
    # the diagonal, and the default 0.5 everywhere else
    joint = tensor_all(cs, big)
    assert len(joint.table) == 10 and joint.default == 0.5
    rng = random.Random("chain")
    names = [f"v{i}" for i in range(8)]
    samples = [dict.fromkeys(names, j) for j in big.domain]
    for _ in range(200):
        a = {v: rng.choice(big.domain) for v in names}
        samples += [a, {**a, rng.choice(names): a["v0"]}]
    for a in samples:
        assert joint.eval(a) == min(c.eval(a) for c in cs)
    # the same function listed densely really joins past MAX_CELLS, at
    # 10^6 rows over six variables, and is refused before they are built
    pairs = list(itertools.product(big.domain, repeat=2))
    dense = [Constraint(big, c.vars, {k: c.eval(dict(zip(c.vars, k))) for k in pairs}) for c in cs]
    with pytest.raises(TooLargeError, match="tensor over 6 variables is too large"):
        tensor_all(dense, big)
    # variable elimination keeps the same query affordable
    out = combine_project(cs, ["v0"], big)
    assert out.eval({"v0": 3}) == pytest.approx(1.0)


def test_row_wise_join_counts_its_rows_against_the_bound(monkeypatch):
    # dense tables join row by row, bucketed by the variable they share;
    # the output is counted first, so a join past MAX_CELLS raises instead
    # of building its rows, and one just inside the bound builds them all
    three = ConstraintSystem(FUZZY, ("a", "b", "c"))
    rng = random.Random("row-wise-bound")

    def dense(vs):
        rows = itertools.product("abc", repeat=2)
        return Constraint(three, vs, {k: rng.choice((0.2, 0.5, 0.9)) for k in rows})

    c1, c2 = dense(("x", "y")), dense(("y", "z"))  # 9 rows each, 27 rows out
    monkeypatch.setattr(constraints, "MAX_CELLS", 26)
    with pytest.raises(TooLargeError, match="tensor over 3 variables is too large"):
        tensor(c1, c2)
    monkeypatch.setattr(constraints, "MAX_CELLS", 27)
    got = tensor(c1, c2)
    assert len(got.table) == 27
    for x, y, z in itertools.product("abc", repeat=3):
        want = min(c1.eval({"x": x, "y": y}), c2.eval({"y": y, "z": z}))
        assert got.eval({"x": x, "y": y, "z": z}) == want


def test_joins_match_their_cells():
    # tensor, oplus and glb of two tables, and project of each onto every
    # subset of its variables, against their definitions cell by cell: the
    # row-wise join and projection fill in the defaults of either side, for
    # every relation of supports and all nine pairs of shapes
    pool = ("x", "y", "z", "w")
    kinds = ("same", "permuted", "inside", "containing", "overlapping", "disjoint", "empty")
    shapes = ("dense", "zero", "nonzero")
    for system in small_systems():
        s = system.semiring
        rng = random.Random(repr(("joins", s.kind, len(system.domain))))

        def meet(a, b):
            return b if s.leq(b, a) else a

        for kind, (sh1, sh2) in itertools.product(kinds, itertools.product(shapes, repeat=2)):
            v1 = tuple(rng.sample(pool, 2))
            c1 = _shaped(system, rng, v1, sh1)
            c2 = _shaped(system, rng, _second_support(rng, v1, kind, pool), sh2)
            union = tuple(dict.fromkeys(c1.vars + c2.vars))
            joins = ((tensor(c1, c2), s.combine), (oplus(c1, c2), s.sum), (glb([c1, c2], system), meet))
            for got, op in joins:
                for a in _cells_of(system, union):
                    assert got.eval(a) == op(c1.eval(a), c2.eval(a)), (kind, sh1, sh2, op)
            for c in (c1, c2):
                for n in range(len(c.vars) + 1):
                    for keep in itertools.combinations(c.vars, n):
                        sums = {}
                        for a in _cells_of(system, c.vars):
                            k, p = tuple(a[v] for v in keep), c.eval(a)
                            sums[k] = s.sum(sums[k], p) if k in sums else p
                        got = project(c, keep)
                        for a in _cells_of(system, c.vars):
                            assert got.eval(a) == sums[tuple(a[v] for v in keep)], (c.vars, keep)


def _lowered(c1, c2, cells):
    """c1 combined, cell by cell, with the least value c2 takes over the
    cell's extensions, and its default with the least value of c2 anywhere;
    x is intensive, so the result lies below c2.  cells are the assignments
    of the union of supports."""
    system = c1.system
    s = system.semiring
    least = {}
    for a in cells:
        k, v = tuple(a[x] for x in c1.vars), c2.eval(a)
        if k not in least or s.leq(v, least[k]):
            least[k] = v
    floor = functools.reduce(lambda v, w: w if s.leq(w, v) else v, least.values())
    table = {k: s.combine(v, least[k]) for k, v in c1.table.items()}
    default = None if c1.default is None else s.combine(c1.default, floor)
    return Constraint(system, c1.vars, table, default)


def _raised(c, rng):
    """c with one listed value, or its default, set to the one."""
    s = c.system.semiring
    table, default = dict(c.table), c.default
    if table and (default is None or rng.random() < 0.5):
        table[rng.choice(sorted(table))] = s.one
    else:
        default = s.one
    return Constraint(c.system, c.vars, table, default)


def test_order_matches_its_cellwise_definition():
    # leqc against c1 <= c2 at every cell of the union of supports, on
    # seeded pairs in every semiring, over one to three atoms and zero to
    # three variables each, dense and with zero and nonzero defaults:
    # random pairs, c1 lowered under c2, and such a c1 with one row or its
    # default raised to the one
    pool = ("x", "y", "z")
    shapes = ("dense", "zero", "nonzero")
    outcomes = {True: 0, False: 0}
    for s in ALL_SEMIRINGS:
        for n in (1, 2, 3):
            system = ConstraintSystem(s, ("a", "b", "c")[:n])
            rng = random.Random(repr(("order", s.kind, n)))
            for i in range(1000):
                c1, c2 = (
                    _shaped(system, rng, tuple(rng.sample(pool, rng.randrange(4))), rng.choice(shapes))
                    for _ in range(2)
                )
                cells = list(_cells_of(system, tuple(dict.fromkeys(c1.vars + c2.vars))))
                if i % 3:
                    c1 = _lowered(c1, c2, cells)
                if i % 3 == 2:
                    c1 = _raised(c1, rng)
                want = all(s.leq(c1.eval(a), c2.eval(a)) for a in cells)
                assert leqc(c1, c2) == want, (c1.vars, c1.table, c1.default, c2.vars, c2.table, c2.default)
                outcomes[want] += 1
    assert min(outcomes.values()) > 4000


# -- order and equality on wide sparse tables ----------------------------
# Twenty two-atom variables give 2^20 tuples, past the enumeration cap.
# The order compares rows with the least value over their extensions and
# counts the keys it does not list, so it answers at any width.


def wide_vars(n=20):
    return tuple(f"s{i}" for i in range(n))


def wide_rows(n=20, k=4):
    # all-a tuples with a single b, one per position
    return [tuple("b" if i == j else "a" for i in range(n)) for j in range(k)]


def test_wide_sparse_order_and_strictness():
    system = crossword_system()
    vs = wide_vars()
    rows = wide_rows()
    low = Constraint(system, vs, {r: 0.3 for r in rows}, default=0.0)
    high = Constraint(system, vs, {r: 0.8 for r in rows}, default=0.0)
    assert leqc(low, high)
    assert not leqc(high, low)
    assert strictly_below(low, high)
    assert not pointwise_eq(low, high)
    twin = Constraint(system, vs, {r: 0.3 for r in rows}, default=0.0)
    assert pointwise_eq(low, twin)
    assert not strictly_below(low, twin)


def test_wide_sparse_equality_answers_from_one_direction():
    # c2 is nonzero off its rows, so c2 below c1 has no row-wise check; c1
    # below c2 fails at the listed row, and that settles equality
    system = crossword_system()
    vs = wide_vars()
    row = wide_rows()[0]
    c1 = Constraint(system, vs, {row: 0.8}, default=0.0)
    c2 = Constraint(system, vs, {row: 0.3}, default=0.5)
    assert not pointwise_eq(c1, c2)
    assert not strictly_below(c1, c2)


def test_wide_sparse_against_scalars():
    system = crossword_system()
    vs = wide_vars()
    c = Constraint(system, vs, {r: 0.6 for r in wide_rows()}, default=0.0)
    assert leqc(system.constant(0.0), c)
    assert not leqc(c, system.constant(0.0))
    assert leqc(c, system.constant(1.0))
    # the top scalar is nonzero almost everywhere c is zero
    assert not leqc(system.constant(1.0), c)


def test_wide_sparse_across_arities():
    system = crossword_system()
    vs = wide_vars()
    wide = Constraint(system, vs, {r: 0.3 for r in wide_rows()}, default=0.0)
    covers = Constraint(
        system,
        (vs[0], vs[1]),
        {("b", "a"): 0.9, ("a", "b"): 0.9, ("a", "a"): 0.9},
        default=0.0,
    )
    # every wide row lands on a listed pair with a bigger value
    assert leqc(wide, covers)
    # a narrow nonzero row has extensions the wide table leaves at zero
    assert not leqc(covers, wide)


def test_wide_sparse_weighted_costs():
    system = ConstraintSystem(WEIGHTED, ("a", "b"))
    vs = wide_vars()
    rows = wide_rows()
    cheap = Constraint(system, vs, {r: 1.0 for r in rows}, default=math.inf)
    dear = Constraint(system, vs, {r: 5.0 for r in rows}, default=math.inf)
    # higher cost sits lower in the order
    assert leqc(dear, cheap)
    assert not leqc(cheap, dear)
    assert strictly_below(dear, cheap)


def test_wide_nonzero_default_against_one_variable():
    system = crossword_system()
    vs = wide_vars()
    # rows at both atoms of s0, below the default
    wide = Constraint(system, vs, {r: 0.3 for r in wide_rows()}, default=0.5)

    def narrow(a, b):
        return Constraint(system, (vs[0],), {("a",): a, ("b",): b})

    # the wide default meets the narrow table at both of its atoms
    assert leqc(wide, narrow(0.5, 0.6)) and strictly_below(wide, narrow(0.5, 0.6))
    assert not leqc(wide, narrow(0.4, 1.0))
    assert not leqc(wide, narrow(1.0, 0.4))
    # the narrow table meets the least wide value over each atom's extensions
    assert leqc(narrow(0.3, 0.2), wide)
    assert not leqc(narrow(0.3, 0.4), wide)
    high_rows = Constraint(system, vs, {r: 0.8 for r in wide_rows()}, default=0.5)
    assert not leqc(high_rows, narrow(0.5, 0.6))
    assert leqc(high_rows, narrow(0.8, 0.8))
    # against a table over the same twenty variables, the defaults meet on
    # the keys neither lists
    above = Constraint(system, vs, {r: 0.9 for r in wide_rows()}, default=0.5)
    below = Constraint(system, vs, {r: 0.9 for r in wide_rows()}, default=0.4)
    assert leqc(wide, above) and strictly_below(wide, above)
    assert not leqc(wide, below)


def test_wide_zero_default_tables_with_many_rows():
    system = crossword_system()
    vs = wide_vars()
    rng = random.Random("many rows")
    rows = set()
    while len(rows) < 801:
        rows.add(tuple(rng.choice("ab") for _ in vs))
    rows = sorted(rows)
    low = Constraint(system, vs, {r: 0.3 for r in rows[:800]}, default=0.0)
    high = Constraint(system, vs, {r: 0.6 for r in rows[:800]}, default=0.0)
    assert leqc(low, high) and strictly_below(low, high)
    assert not leqc(high, low) and not strictly_below(high, low)
    # one row that high leaves at zero breaks the order
    moved = Constraint(system, vs, {r: 0.3 for r in rows[1:]}, default=0.0)
    assert not leqc(moved, high) and not strictly_below(moved, high)


def test_oplus_zero_function_is_the_unit():
    system = crossword_system()
    vs = wide_vars()
    c = Constraint(system, vs, {r: 0.4 for r in wide_rows()}, default=0.0)
    z = system.constant(0.0)
    assert pointwise_eq(oplus(z, c), c)
    assert pointwise_eq(oplus(c, z), c)
    # and on small tables the identity agrees with the dense sum
    small = Constraint(system, ("x",), {("a",): 0.2, ("b",): 0.7})
    assert pointwise_eq(oplus(system.constant(0.0), small), small)


def test_glb_is_pointwise_min():
    for system in small_systems():
        s = system.semiring
        rng = random.Random(repr(("glb", s.kind, len(system.domain))))
        for _ in range(10):
            cs = [rand_constraint(system, rng) for _ in range(3)]
            g = glb(cs, system)
            for c in cs:
                assert leqc(g, c)
            union = []
            for c in cs:
                union.extend(v for v in c.vars if v not in union)
            for key in itertools.product(system.domain, repeat=len(union)):
                env = dict(zip(union, key))
                vals = [c.eval(env) for c in cs]
                low = vals[0]
                for v in vals[1:]:
                    if s.leq(v, low):
                        low = v
                assert s.eq(g.eval(env), low)
    sys2 = crossword_system()
    assert glb([], sys2).scalar() == pytest.approx(1.0)


# -- entailment ----------------------------------------------------------


def test_entailment_reflexive_in_any_semiring():
    for system in small_systems():
        rng = random.Random(repr(("refl", system.semiring.kind)))
        for _ in range(20):
            cs = [rand_constraint(system, rng) for _ in range(rng.randrange(1, 4))]
            for c in cs:
                assert entails(cs, c)
                assert entails_witness(cs, c) is None


def test_entailment_transitive_when_combination_idempotent():
    for sr in IDEMPOTENT:
        system = ConstraintSystem(sr, ("a", "b"))
        rng = random.Random(repr(("trans", sr.kind)))
        checked = 0
        for _ in range(1200):
            c1 = [rand_constraint(system, rng, max_vars=2) for _ in range(2)]
            c2 = [rand_constraint(system, rng, max_vars=2) for _ in range(2)]
            c = rand_constraint(system, rng, max_vars=2)
            if all(entails(c1, d) for d in c2) and entails(c2, c):
                assert entails(c1, c)
                checked += 1
        assert checked >= 50


def test_entailment_not_transitive_for_weighted():
    system = ConstraintSystem(WEIGHTED, ("a", "b"))
    c1 = [system.constant(3.0)]
    cost2_u = Constraint(system, ("u",), {("a",): 2.0, ("b",): 2.0})
    cost2_v = Constraint(system, ("v",), {("a",): 2.0, ("b",): 2.0})
    c2 = [cost2_u, cost2_v]
    goal = system.constant(4.0)
    assert entails(c1, cost2_u)  # cost 3 forces any bound of cost 2
    assert entails(c1, cost2_v)
    assert entails(c2, goal)  # together the two bounds cost 4
    assert not entails(c1, goal)  # but cost 3 does not reach cost 4
    w = entails_witness(c1, goal)
    assert w is not None and refutes_entailment(c1, goal, w)


def test_witness_is_the_first_counterexample_in_domain_order():
    # seeded sets over domains declared out of rank order: the witness is
    # the first refuting cell of the union of supports, walked in sorted
    # variable order and in the order the domain declares its atoms
    found = 0
    for s in ALL_SEMIRINGS:
        for domain in (("c", "a", "b"), (2, "a", 0)):
            system = ConstraintSystem(s, domain)
            rng = random.Random(repr(("witness", s.kind, domain)))
            for _ in range(40):
                cs = [rand_constraint(system, rng) for _ in range(rng.randrange(1, 4))]
                c = rand_constraint(system, rng)
                union = sorted({v for f in cs + [c] for v in f.vars})
                cells = (dict(zip(union, key)) for key in itertools.product(domain, repeat=len(union)))
                first = next((a for a in cells if refutes_entailment(cs, c, a)), None)
                assert entails_witness(cs, c) == first
                found += first is not None
    assert found > 100


def test_entails_empty_set_rejected():
    sys2 = crossword_system()
    with pytest.raises(ConstraintError):
        entails([], sys2.constant(0.5))


def test_entailment_monotone_in_the_set():
    for sr in IDEMPOTENT:
        system = ConstraintSystem(sr, ("a", "b"))
        rng = random.Random(repr(("mono", sr.kind)))
        hits = 0
        for _ in range(400):
            cs = [rand_constraint(system, rng, max_vars=2) for _ in range(2)]
            c = rand_constraint(system, rng, max_vars=2)
            if entails(cs, c):
                extra = rand_constraint(system, rng, max_vars=2)
                assert entails(cs + [extra], c)
                hits += 1
        assert hits >= 40


def test_weighted_values_combine_additively():
    system = ConstraintSystem(WEIGHTED, ("a", "b"))
    u = Constraint(system, ("x",), {("a",): 1.0, ("b",): 4.0})
    v = Constraint(system, ("x",), {("a",): 2.5, ("b",): math.inf})
    t = tensor(u, v)
    assert t.eval({"x": "a"}) == pytest.approx(3.5)
    assert t.eval({"x": "b"}) == math.inf
    best = project(t, [])
    assert best.scalar() == pytest.approx(3.5)  # min cost wins the projection


def test_probabilistic_combination():
    system = ConstraintSystem(PROBABILISTIC, ("a", "b"))
    u = Constraint(system, ("x",), {("a",): 0.5, ("b",): 1.0})
    t = tensor(u, u)
    assert t.eval({"x": "a"}) == pytest.approx(0.25)  # not idempotent
    assert t.eval({"x": "b"}) == pytest.approx(1.0)
