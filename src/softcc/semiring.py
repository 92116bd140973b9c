"""C-semirings: the value structure underneath every soft constraint.

A c-semiring is a tuple <A, +, x, 0, 1> where + (choice) is commutative,
associative, idempotent, has unit 0 and absorbing element 1, and x
(combination) is commutative, associative, distributes over +, has unit 1
and absorbing element 0.  The induced order a <= b iff a + b = b reads
"b is at least as good as a"; + is the lub of that order.

Values are plain Python scalars: bool for the boolean instance, float for
fuzzy, probabilistic and weighted.  Instances are frozen singletons.

Values are checked once, where they enter: ``Constraint`` rows and
defaults, ``ConstraintSystem.constant``, the parser's ``const(...)`` and
level thresholds, and the level of a ``ConsistencyCut``.  The operations
below trust their arguments and do not check them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

Value = Union[bool, float]

# Floats are compared on a grid of this spacing; booleans and inf compare
# exactly.
TOL = 1e-9


def quantize(v: Value) -> Value:
    """The grid point a value stands for, the nearest multiple of TOL.  Value
    equality and ``Constraint.canonical_key`` both go through it."""
    if isinstance(v, bool) or not -1e290 < v < 1e290:
        return v  # inf, and floats too large to divide by TOL, far apart anyway
    return round(v / TOL)


class CarrierError(ValueError):
    """A value lies outside the carrier of the active semiring."""


@dataclass(frozen=True)
class Semiring:
    """One c-semiring instance; all operations live here as methods."""

    kind: str
    zero: Value
    one: Value
    idempotent_times: bool

    def __repr__(self) -> str:
        return f"Semiring({self.kind})"

    def check(self, v: Value) -> Value:
        """Validate and normalize a carrier value, raising CarrierError otherwise."""
        if self.kind == "boolean":
            if not isinstance(v, bool):
                raise CarrierError(f"boolean semiring needs true/false, got {v!r}")
            return v
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise CarrierError(f"{self.kind} semiring needs a number, got {v!r}")
        try:
            f = float(v)
        except OverflowError:  # an int too large for a float, too large to print as one
            raise CarrierError(f"{self.kind} semiring value does not fit a float") from None
        if math.isnan(f):
            raise CarrierError("NaN is not a semiring value")
        if self.kind in ("fuzzy", "probabilistic"):
            if not 0.0 <= f <= 1.0:
                raise CarrierError(f"{self.kind} values live in [0,1], got {f!r}")
        else:  # weighted: costs in [0, +inf]
            if f < 0.0:
                raise CarrierError(f"weighted values live in [0,+inf], got {f!r}")
        return f

    def sum(self, a: Value, b: Value) -> Value:
        """The + of the semiring: choice between values, lub of the order."""
        return min(a, b) if self.kind == "weighted" else max(a, b)

    def combine(self, a: Value, b: Value) -> Value:
        """The x of the semiring: combination of values."""
        if self.kind == "probabilistic":
            return a * b
        if self.kind == "weighted":
            return a + b  # costs add
        return min(a, b)  # boolean, fuzzy

    def combine_all(self, values, start: Value | None = None) -> Value:
        acc = self.one if start is None else start
        for v in values:
            acc = self.combine(acc, v)
        return acc

    def eq(self, a: Value, b: Value) -> bool:
        """Value equality: the same grid point under ``quantize``."""
        # values more than 2 TOL apart, beyond what a / TOL rounds off at
        # their magnitude, never share a grid point
        return a == b or (abs(a - b) <= 2 * TOL + 1e-15 * abs(a) and quantize(a) == quantize(b))

    def leq(self, a: Value, b: Value) -> bool:
        """The induced order: a <= b iff a + b = b."""
        return self.eq(self.sum(a, b), b)

    def lt(self, a: Value, b: Value) -> bool:
        """Strict order: a < b iff a <= b and not a = b."""
        return self.leq(a, b) and not self.eq(a, b)

    def sample(self, rng) -> Value:
        """Draw a random carrier value; endpoints show up often on purpose."""
        if self.kind == "boolean":
            return rng.random() < 0.5
        r = rng.random()
        if self.kind == "weighted":
            if r < 0.1:
                return 0.0
            if r < 0.2:
                return math.inf
            if r < 0.5:
                return float(rng.randrange(1, 10))
            return rng.uniform(0.0, 12.0)
        if r < 0.1:
            return 0.0
        if r < 0.2:
            return 1.0
        if r < 0.5:
            return round(rng.uniform(0.0, 1.0), 1)
        return rng.uniform(0.0, 1.0)


BOOLEAN = Semiring("boolean", False, True, True)
FUZZY = Semiring("fuzzy", 0.0, 1.0, True)
PROBABILISTIC = Semiring("probabilistic", 0.0, 1.0, False)
# The constants follow from the axioms: 0 must be the unit of min and
# absorbing for +, so it is +inf; 1 is the cost 0.
WEIGHTED = Semiring("weighted", math.inf, 0.0, False)

ALL_SEMIRINGS = (BOOLEAN, FUZZY, PROBABILISTIC, WEIGHTED)
_BY_NAME = {s.kind: s for s in ALL_SEMIRINGS}


def by_name(name: str) -> Semiring:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise CarrierError(
            f"unknown semiring {name!r}; pick one of {sorted(_BY_NAME)}"
        ) from None
