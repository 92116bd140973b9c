"""Problems: solve, best level, consistency bars."""

import itertools
import random

import pytest

from softcc import (
    ALL_SEMIRINGS,
    ConsistencyCut,
    Constraint,
    ConstraintError,
    ConstraintSystem,
    FUZZY,
    Problem,
    blevel,
    consistent,
    is_consistent,
    pointwise_eq,
    project,
    solve,
    tensor_all,
)

from test_constraints import (
    crossword_constraints,
    crossword_system,
    rand_constraint,
)


def crossword_problem():
    sys2 = crossword_system()
    c1, c2, c3 = crossword_constraints(sys2)
    return Problem(sys2, (c1, c2, c3), ("x",))


def test_solve_golden():
    p = crossword_problem()
    best = solve(p)
    assert best.eval({"x": "a"}) == pytest.approx(0.8)
    assert best.eval({"x": "b"}) == pytest.approx(0.0)
    assert blevel(p) == pytest.approx(0.8)
    assert is_consistent(p)


def test_solve_matches_naive_on_random_problems():
    for sr in ALL_SEMIRINGS:
        for dom in (("a", "b"), ("a", "b", "c")):
            system = ConstraintSystem(sr, dom)
            rng = random.Random(repr(("prob", sr.kind, len(dom))))
            for _ in range(12):
                cs = [rand_constraint(system, rng) for _ in range(rng.randrange(1, 5))]
                for interest in ((), ("x",), ("x", "y")):
                    p = Problem(system, cs, interest)
                    naive = project(tensor_all(cs, system), interest)
                    assert pointwise_eq(solve(p), naive)
                s = system.semiring
                assert s.eq(blevel(p), project(tensor_all(cs, system), []).scalar())


def test_empty_problem():
    sys2 = crossword_system()
    p = Problem(sys2, (), ("x",))
    assert solve(p).scalar() == pytest.approx(1.0)
    assert blevel(p) == pytest.approx(1.0)
    assert is_consistent(p)


def test_inconsistent_problem():
    sys2 = crossword_system()
    p = Problem(sys2, (sys2.constant(0.0),), ())
    assert blevel(p) == pytest.approx(0.0)
    assert not is_consistent(p)


def test_interest_validation():
    sys2 = crossword_system()
    with pytest.raises(ConstraintError):
        Problem(sys2, (), ("x", "x"))
    other = ConstraintSystem(FUZZY, ("p", "q"))
    foreign = other.constant(0.5)
    with pytest.raises(ConstraintError):
        Problem(sys2, (foreign,), ())


def test_level_consistency():
    p = crossword_problem()
    assert consistent(p, ConsistencyCut(level=0.5))
    assert consistent(p, ConsistencyCut(level=0.8))
    assert not consistent(p, ConsistencyCut(level=0.9))
    # the zero bar is free
    assert consistent(p, ConsistencyCut(level=0.0))


def test_cut_consistency():
    p = crossword_problem()
    sys2 = p.system
    loose = sys2.constant(0.1)
    tight = sys2.constant(0.9)
    assert consistent(p, ConsistencyCut(cut=loose))
    assert not consistent(p, ConsistencyCut(cut=tight))
    # a cut that is incomparable with the combination also passes
    c1, c2, c3 = p.constraints
    mixed = Constraint(
        sys2,
        ("x", "y"),
        {("a", "a"): 0.1, ("a", "b"): 0.9, ("b", "a"): 0.9, ("b", "b"): 0.9},
    )
    assert consistent(p, ConsistencyCut(cut=mixed))


def test_cut_validation():
    sys2 = crossword_system()
    with pytest.raises(ConstraintError):
        ConsistencyCut()
    with pytest.raises(ConstraintError):
        ConsistencyCut(level=0.5, cut=sys2.constant(0.5))


def test_consistency_monotone_in_levels():
    p = crossword_problem()
    rng = random.Random(7)
    for _ in range(200):
        lo = round(rng.random(), 2)
        hi = round(rng.uniform(lo, 1.0), 2)
        if consistent(p, ConsistencyCut(level=hi)):
            assert consistent(p, ConsistencyCut(level=lo))


def test_adding_constraints_cannot_raise_blevel():
    for sr in ALL_SEMIRINGS:
        system = ConstraintSystem(sr, ("a", "b"))
        s = system.semiring
        rng = random.Random(repr(("monop", sr.kind)))
        for _ in range(40):
            cs = [rand_constraint(system, rng) for _ in range(2)]
            extra = rand_constraint(system, rng)
            before = blevel(Problem(system, cs, ()))
            after = blevel(Problem(system, cs + [extra], ()))
            assert s.leq(after, before)
