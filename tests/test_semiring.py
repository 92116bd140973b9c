"""Axioms and order laws for the built-in semirings, on random samples."""

import math
import random
from decimal import Decimal

import pytest

from softcc import (
    ALL_SEMIRINGS,
    BOOLEAN,
    CarrierError,
    ConsistencyCut,
    Constraint,
    ConstraintSystem,
    FUZZY,
    PROBABILISTIC,
    Problem,
    ProgramError,
    WEIGHTED,
    by_name,
    consistent,
    parse_program,
)
N = 1200


def _samples(s, rng, n=N):
    return [s.sample(rng) for _ in range(n)]


def test_constants_in_carrier():
    for s in ALL_SEMIRINGS:
        s.check(s.zero)
        s.check(s.one)


def test_sum_laws():
    for s in ALL_SEMIRINGS:
        rng = random.Random(101)
        xs = _samples(s, rng)
        for i in range(N):
            a, b, c = xs[i], xs[(i * 7 + 1) % N], xs[(i * 13 + 5) % N]
            assert s.eq(s.sum(a, b), s.sum(b, a))
            assert s.eq(s.sum(s.sum(a, b), c), s.sum(a, s.sum(b, c)))
            assert s.eq(s.sum(a, a), a)  # + is idempotent
            assert s.eq(s.sum(a, s.zero), a)  # zero is the unit of +
            assert s.eq(s.sum(a, s.one), s.one)  # one absorbs +


def test_combine_laws():
    for s in ALL_SEMIRINGS:
        rng = random.Random(202)
        xs = _samples(s, rng)
        for i in range(N):
            a, b, c = xs[i], xs[(i * 11 + 3) % N], xs[(i * 17 + 7) % N]
            assert s.eq(s.combine(a, b), s.combine(b, a))
            assert s.eq(
                s.combine(s.combine(a, b), c), s.combine(a, s.combine(b, c))
            )
            assert s.eq(s.combine(a, s.one), a)  # one is the unit of ×
            assert s.eq(s.combine(a, s.zero), s.zero)  # zero absorbs ×
            # × distributes over +
            assert s.eq(
                s.combine(a, s.sum(b, c)), s.sum(s.combine(a, b), s.combine(a, c))
            )


def test_idempotent_combine_flag():
    assert BOOLEAN.idempotent_times and FUZZY.idempotent_times
    assert not PROBABILISTIC.idempotent_times and not WEIGHTED.idempotent_times
    for s in (BOOLEAN, FUZZY):
        rng = random.Random(3)
        for a in _samples(s, rng, 300):
            assert s.eq(s.combine(a, a), a)
    # and a witness that the others are genuinely not idempotent
    half, cost = PROBABILISTIC.check(0.5), WEIGHTED.check(1.0)
    assert not PROBABILISTIC.eq(PROBABILISTIC.combine(half, half), half)
    assert not WEIGHTED.eq(WEIGHTED.combine(cost, cost), cost)


def test_order_laws():
    for s in ALL_SEMIRINGS:
        rng = random.Random(404)
        xs = _samples(s, rng)
        for i in range(N):
            a, b, c = xs[i], xs[(i * 5 + 2) % N], xs[(i * 19 + 11) % N]
            assert s.leq(a, a)
            # total on these chains
            assert s.leq(a, b) or s.leq(b, a)
            if s.leq(a, b) and s.leq(b, a):
                assert s.eq(a, b)
            if s.leq(a, b) and s.leq(b, c):
                assert s.leq(a, c)
            # extremes
            assert s.leq(s.zero, a)
            assert s.leq(a, s.one)
            # + is the lub, × is intensive
            assert s.leq(a, s.sum(a, b)) and s.leq(b, s.sum(a, b))
            assert s.leq(s.combine(a, b), a)
            # monotonicity
            if s.leq(a, b):
                assert s.leq(s.sum(a, c), s.sum(b, c))
                assert s.leq(s.combine(a, c), s.combine(b, c))
            # strict order is irreflexive and consistent with leq
            assert not s.lt(a, a)
            if s.lt(a, b):
                assert s.leq(a, b) and not s.eq(a, b)


def test_example_values():
    P, W = PROBABILISTIC.check, WEIGHTED.check
    assert FUZZY.combine(0.9, 0.8) == pytest.approx(0.8)
    assert PROBABILISTIC.combine(P(0.5), P(0.5)) == P(0.25)
    assert WEIGHTED.combine(W(2.0), W(3.5)) == W(5.5)
    assert WEIGHTED.sum(W(2.0), W(3.5)) == W(2.0)  # lower cost preferred
    assert BOOLEAN.sum(False, True) is True
    assert BOOLEAN.combine(True, False) is False
    # weighted constants: one is the no-cost element, zero the impossible one
    assert WEIGHTED.one == W(0.0) and WEIGHTED.zero == W(math.inf)
    assert WEIGHTED.leq(W(math.inf), W(0.0)) and not WEIGHTED.leq(W(0.0), W(math.inf))


def test_eq_is_exact():
    # every carrier is exact: values a hair apart differ, and the decimal
    # carriers neither round a sum or product nor lose a float literal
    P, W = PROBABILISTIC.check, WEIGHTED.check
    assert not FUZZY.eq(0.5, 0.5 + 5e-10)
    assert not FUZZY.eq(0.5, 0.5 + 1e-6)
    assert WEIGHTED.eq(W(math.inf), WEIGHTED.zero)
    assert not WEIGHTED.eq(WEIGHTED.zero, W(1e12))
    # boolean equality is exact, no coercion
    assert BOOLEAN.eq(True, True) and not BOOLEAN.eq(True, False)
    assert WEIGHTED.eq(WEIGHTED.combine(W(0.1), W(0.2)), W(0.3))  # 0.30000000000000004 in floats
    assert PROBABILISTIC.eq(PROBABILISTIC.combine(P(0.1), P(0.3)), P(0.03))  # 0.030000000000000002
    assert not PROBABILISTIC.eq(P(0.5), P(0.5 + 5e-10))
    assert P(0.15) == Decimal("0.15") and W(3) == Decimal(3) and W(math.inf).is_infinite()


def test_eq_is_exact_at_every_magnitude():
    # the float grid this replaced merged values up to 2e-9 apart, and at
    # large magnitudes even more; now two checked floats are equal exactly
    # when the floats are, and a cost added to a large one is not lost
    W = WEIGHTED.check
    a, b = 100000000.00000001, 100000000.00000003  # adjacent floats, 1.5e-8 apart
    assert W(a) != W(b) and not WEIGHTED.eq(W(a), W(b))
    rng = random.Random(5)
    for _ in range(20000):
        a = rng.choice((rng.uniform(0, 10), rng.uniform(1e6, 1e12), 10 ** rng.uniform(12, 300)))
        b = a + rng.uniform(-3, 3) * 1e-9 if rng.random() < 0.3 else a
        for _ in range(rng.randrange(40)):
            b = math.nextafter(b, rng.choice((0.0, math.inf)))
        for x, y in ((a, b), (b, a), (a, math.inf), (math.inf, a)):
            assert WEIGHTED.eq(W(x), W(y)) == (x == y), (x, y)
        if b != math.inf:
            assert WEIGHTED.combine(W(b), W(1e-9)) != W(b)


def test_carrier_validation():
    with pytest.raises(CarrierError):
        FUZZY.check(1.5)
    with pytest.raises(CarrierError):
        FUZZY.check(-0.1)
    with pytest.raises(CarrierError):
        PROBABILISTIC.check(2.0)
    with pytest.raises(CarrierError):
        WEIGHTED.check(-1.0)
    with pytest.raises(CarrierError):
        WEIGHTED.check(float("nan"))
    with pytest.raises(CarrierError):
        BOOLEAN.check(0.5)
    with pytest.raises(CarrierError):
        FUZZY.check(True)  # booleans are not fuzzy values
    WEIGHTED.check(math.inf)
    FUZZY.check(0.0)
    FUZZY.check(1.0)


def _fuzzy_problem():
    system = ConstraintSystem(FUZZY, ("a", "b"))
    return Problem(system, (Constraint(system, ("x",), {("a",): 0.5}, default=0.0),), ("x",))


# Every place a value enters the library checks it; the operations do not.
ENTRY_POINTS = {
    "constant": lambda: ConstraintSystem(FUZZY, ("a",)).constant(1.5),
    "default": lambda: Constraint(ConstraintSystem(FUZZY, ("a",)), ("x",), {}, default=1.5),
    "const-in-agent": lambda: parse_program(
        "semiring fuzzy;\ndomain {a};\nvar x;\nagent = tell(const(1.5)) -> stop;\n"
    ),
    "level-threshold": lambda: parse_program(
        "semiring fuzzy;\ndomain {a};\nvar x;\nagent = tell(const(0.5)) ->^1.5 stop;\n"
    ),
    "consistency-level": lambda: consistent(_fuzzy_problem(), ConsistencyCut(level=1.5)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_values_checked_on_entry(entry):
    with pytest.raises((CarrierError, ProgramError)):
        ENTRY_POINTS[entry]()
    # checked values pass through the boolean operations unchanged
    assert BOOLEAN.combine(True, True) is True
    assert BOOLEAN.sum(False, False) is False


def test_by_name():
    assert by_name("fuzzy") is FUZZY
    assert by_name("boolean") is BOOLEAN
    assert by_name("probabilistic") is PROBABILISTIC
    assert by_name("weighted") is WEIGHTED
    with pytest.raises(CarrierError):
        by_name("lexicographic")
