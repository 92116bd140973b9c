"""C-semirings: the value structure underneath every soft constraint.

A c-semiring is a tuple <A, +, x, 0, 1> where + (choice) is commutative,
associative, idempotent, has unit 0 and absorbing element 1, and x
(combination) is commutative, associative, distributes over +, has unit 1
and absorbing element 0.  The induced order a <= b iff a + b = b reads
"b is at least as good as a"; + is the lub of that order.

Values are exact in every instance, so value equality is ``==``: bool
for boolean, float for fuzzy (min and max never round), and
``decimal.Decimal`` for probabilistic and weighted, whose x runs in the
private context ``_EXACT``: largest precision and exponent range and
``Inexact`` trapped, so no product or sum rounds, and the thread's own
context is never read.  Weighted's zero is ``Decimal('Infinity')``.
Instances are frozen singletons.

Values are checked once, where they enter: ``Constraint`` rows and
defaults, ``ConstraintSystem.constant``, the parser's ``const(...)`` and
level thresholds, and the level of a ``ConsistencyCut``.  ``check``
returns the carrier value, so a float such as ``0.15`` enters as the
decimal it prints as.  The operations below trust their arguments and do
not check them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation
from typing import Union

Value = Union[bool, float, Decimal]

_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, InvalidOperation])


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
        """Validate a value and return it as a carrier value, raising
        CarrierError otherwise.  Probabilistic and weighted values become
        decimals: an int exactly, a float as the decimal it prints as."""
        if self.kind == "boolean":
            if not isinstance(v, bool):
                raise CarrierError(f"boolean semiring needs true/false, got {v!r}")
            return v
        if isinstance(v, bool) or not isinstance(v, (int, float, Decimal)):
            raise CarrierError(f"{self.kind} semiring needs a number, got {v!r}")
        try:
            x = float(v)
        except OverflowError:  # an int too large for a float, too large to print as one
            raise CarrierError(f"{self.kind} semiring value does not fit a float") from None
        if self.kind != "fuzzy":
            x = v if isinstance(v, Decimal) else Decimal(repr(v) if isinstance(v, float) else v)
        if x != x:
            raise CarrierError("NaN is not a semiring value")
        if self.kind == "weighted":
            if x < 0:
                raise CarrierError(f"weighted values live in [0,+inf], got {v!r}")
        elif not 0 <= x <= 1:
            raise CarrierError(f"{self.kind} values live in [0,1], got {v!r}")
        return x.copy_abs() if isinstance(x, Decimal) else abs(x)  # -0 enters as 0

    def sum(self, a: Value, b: Value) -> Value:
        """The + of the semiring: choice between values, lub of the order."""
        return min(a, b) if self.kind == "weighted" else max(a, b)

    def combine(self, a: Value, b: Value) -> Value:
        """The x of the semiring: combination of values, exact in ``_EXACT``."""
        if self.kind == "probabilistic":
            return _EXACT.multiply(a, b)
        if self.kind == "weighted":
            return _EXACT.add(a, b)  # costs add
        return min(a, b)  # boolean, fuzzy

    def combine_all(self, values, start: Value | None = None) -> Value:
        acc = self.one if start is None else start
        for v in values:
            acc = self.combine(acc, v)
        return acc

    def eq(self, a: Value, b: Value) -> bool:
        """Value equality: every carrier is exact, so plain ``==``."""
        return a == b

    def leq(self, a: Value, b: Value) -> bool:
        """The induced order: a <= b iff a + b = b."""
        return self.sum(a, b) == b

    def lt(self, a: Value, b: Value) -> bool:
        """Strict order: a < b iff a <= b and not a = b."""
        return a != b and self.sum(a, b) == b

    def sample(self, rng) -> Value:
        """Draw a random carrier value; endpoints show up often on purpose."""
        if self.kind == "boolean":
            return rng.random() < 0.5
        r, weighted = rng.random(), self.kind == "weighted"
        if r < 0.2:
            v = 0.0 if r < 0.1 else math.inf if weighted else 1.0
        elif r < 0.5:
            v = float(rng.randrange(1, 10)) if weighted else round(rng.uniform(0.0, 1.0), 1)
        else:
            v = rng.uniform(0.0, 12.0 if weighted else 1.0)
        return self.check(v)


BOOLEAN = Semiring("boolean", False, True, True)
FUZZY = Semiring("fuzzy", 0.0, 1.0, True)
PROBABILISTIC = Semiring("probabilistic", Decimal(0), Decimal(1), False)
# The constants follow from the axioms: 0 must be the unit of min and
# absorbing for +, so it is +inf; 1 is the cost 0.
WEIGHTED = Semiring("weighted", Decimal("Infinity"), Decimal(0), False)

ALL_SEMIRINGS = (BOOLEAN, FUZZY, PROBABILISTIC, WEIGHTED)
_BY_NAME = {s.kind: s for s in ALL_SEMIRINGS}


def by_name(name: str) -> Semiring:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise CarrierError(
            f"unknown semiring {name!r}; pick one of {sorted(_BY_NAME)}"
        ) from None
