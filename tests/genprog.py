"""Seeded generators of small programs for property tests.

``gen_programs`` makes terminating programs; ``gen_cyclic_programs`` makes
programs whose runs may not end (see ``gen_cyclic_program_text``).

Every program ``gen_programs`` makes is loop-free (no procedure calls), so
every run terminates.  Thresholds are either eventual (bare arrow) or cut-style
(``->[tz]`` where tz is an all-zero constraint), never level thresholds,
so the programs stay inside the branch-and-bound fragment.  Asks only
re-ask constraints told earlier in the same component, so they fire in
every semiring; the eventual-only variant may also ask for constraints
nobody tells, which suspends.
"""

import itertools
import random

from softcc import parse_program

SEMIRINGS = ["fuzzy", "probabilistic", "weighted", "boolean"]
ATOMS = ("a", "b")
VARS = ("u", "v", "w")

ZERO_LIT = {"fuzzy": "0", "probabilistic": "0", "weighted": "inf", "boolean": "false"}
ONE_LIT = {"fuzzy": "1", "probabilistic": "1", "weighted": "0", "boolean": "true"}


def rand_value(rng, semiring):
    if semiring == "boolean":
        return "true" if rng.random() < 0.8 else "false"
    if semiring == "weighted":
        return str(rng.randrange(0, 7))
    return str(round(rng.uniform(0.05, 1.0), 2))


def constraint_decl(rng, name, semiring):
    arity = 1 if rng.random() < 0.6 else 2
    vars_ = rng.sample(VARS, arity)
    rows = []
    for tup in itertools.product(ATOMS, repeat=arity):
        rows.append(f"  ({', '.join(tup)}) = {rand_value(rng, semiring)};")
    sig = f"{name}({', '.join(vars_)})"
    body = "\n".join(rows)
    return sig, f"constraint {sig} {{\n{body}\n}}"


def arrow(rng, eventual_only):
    if eventual_only or rng.random() < 0.7:
        return "->"
    return "->[tz]"


def ordered_pair_decls(rng, semiring):
    """Two unary constraints on the same variable, one pointwise better."""
    var = rng.choice(VARS)
    if semiring == "boolean":
        hi = ["true", "true"]
        lo = ["true" if rng.random() < 0.5 else "false", "false"]
    elif semiring == "weighted":
        base = [rng.randrange(0, 4) for _ in ATOMS]
        hi = [str(v) for v in base]
        lo = [str(v + rng.randint(1, 4)) for v in base]
    else:
        base = [round(rng.uniform(0.4, 1.0), 2) for _ in ATOMS]
        hi = [str(v) for v in base]
        lo = [str(round(v - rng.uniform(0.15, 0.35), 2)) for v in base]
    decls = []
    for name, vals in (("hi", hi), ("lo", lo)):
        rows = "\n".join(f"  ({a}) = {v};" for a, v in zip(ATOMS, vals))
        decls.append(f"constraint {name}({var}) {{\n{rows}\n}}")
    return f"hi({var})", f"lo({var})", decls


def sum_component(rng, hi_sig, lo_sig, semiring, eventual_only):
    """Two ask-guarded branches; one branch's tell strictly dominates."""
    one = ONE_LIT[semiring]
    branches = [
        f"ask(const({one})) -> tell({hi_sig}) {arrow(rng, eventual_only)} stop",
        f"ask(const({one})) -> tell({lo_sig}) {arrow(rng, eventual_only)} stop",
    ]
    return " + ".join(branches)


def chain_component(rng, size, sigs, eventual_only, allow_hang):
    told = []
    parts = []
    for _ in range(size):
        roll = rng.random()
        if told and roll < 0.35:
            parts.append(f"ask({rng.choice(told)}) {arrow(rng, eventual_only)}")
        elif allow_hang and roll < 0.45:
            parts.append(f"ask({rng.choice(sigs)}) ->")
        else:
            sig = rng.choice(sigs)
            told.append(sig)
            parts.append(f"tell({sig}) {arrow(rng, eventual_only)}")
    return " ".join(parts) + " stop"


def gen_program_text(rng, eventual_only=False, allow_hang=False):
    semiring = rng.choice(SEMIRINGS)
    lines = [f"semiring {semiring};", "domain {a, b};", f"var {', '.join(VARS)};"]
    sigs = []
    for i in range(rng.randint(2, 4)):
        sig, decl = constraint_decl(rng, f"c{i}", semiring)
        sigs.append(sig)
        lines.append(decl)
    zero = ZERO_LIT[semiring]
    lines.append(f"constraint tz(u) {{\n  (a) = {zero};\n  (b) = {zero};\n}}")

    with_sum = rng.random() < 0.85
    if with_sum:
        # the sum costs four actions (two guards, two tells); a parallel
        # chain spends the rest of the six-action budget
        hi_sig, lo_sig, pair_decls = ordered_pair_decls(rng, semiring)
        lines.extend(pair_decls)
        ncomp = rng.choices([2, 3], weights=[65, 35])[0]
        chain_sizes = [2] if ncomp == 2 else [1, 1]
    else:
        ncomp = rng.choices([1, 2, 3], weights=[20, 55, 25])[0]
        chain_sizes = [rng.randint(1, 3) for _ in range(ncomp)]

    comps = []
    if with_sum:
        comps.append(sum_component(rng, hi_sig, lo_sig, semiring, eventual_only))
    for size in chain_sizes:
        comps.append(chain_component(rng, size, sigs, eventual_only, allow_hang))
    rng.shuffle(comps)
    body = comps[0]
    for comp in comps[1:]:
        body = f"( {body} || {comp} )"
    lines.append(f"agent = {body};")
    return "\n".join(lines) + "\n"


def gen_programs(seed, count, eventual_only=False, allow_hang=False):
    """Return `count` (text, parsed program) pairs for a fixed seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = gen_program_text(rng, eventual_only, allow_hang)
        out.append((text, parse_program(text)))
    return out


# -- programs with every agent form ---------------------------------------


def exact_value(rng, semiring):
    """A carrier value: fuzzy and probabilistic values are multiples of
    1/16, booleans even odds, weighted ones ``rand_value``'s costs.  Every
    carrier is exact (probabilistic and weighted values are decimals), so
    every order of folding one multiset of tells reaches the same store and
    the same key whatever the values; the multiples of 1/16 date from float
    values and stay so that each seed draws the programs it always drew."""
    if semiring in ("fuzzy", "probabilistic"):
        return str(rng.randrange(1, 17) / 16)
    if semiring == "boolean":
        return rng.choice(("true", "false"))
    return rand_value(rng, semiring)


def gen_cyclic_program_text(rng, semiring):
    """A program with every agent form, whose runs need not end.

    A recursive procedure opens an exists in its body, the main agent nests
    ``||``, a choice has an ask branch that can wait forever, and the arrows
    take all three threshold kinds: eventual, ``->^v`` levels and ``->[t]``
    cuts, each at least once.
    """
    lines = [f"semiring {semiring};", "domain {a, b};", "var x, y;"]
    for name, formals in (("c0", "x"), ("c1", "x"), ("c2", "x"), ("r", "x, y"), ("t", "x")):
        rows = " ".join(
            f"({', '.join(tup)}) = {exact_value(rng, semiring)};"
            for tup in itertools.product(ATOMS, repeat=formals.count(",") + 1)
        )
        lines.append(f"constraint {name}({formals}) {{ {rows} }}")
    kinds = ["->", f"->^{exact_value(rng, semiring)}", "->[t]"]
    pending = rng.sample(kinds, 3)

    def arrow():
        return pending.pop() if pending else rng.choice(kinds)

    def con(v, w=None):
        return f"r({v}, {w})" if w is not None and rng.random() < 0.4 else f"c{rng.randrange(3)}({v})"

    def guard(v):
        return f"const({ONE_LIT[semiring]})" if rng.random() < 0.5 else con(v)

    fresh = f"exists z . tell({con('z', 'v')}) {arrow()}"
    if rng.random() < 0.5:  # recursion on a fresh variable
        body = f"ask({guard('v')}) {arrow()} stop + ask({guard('v')}) {arrow()} {fresh} p(z)"
    else:  # recursion on the same variable, which can repeat a configuration
        body = f"ask({guard('v')}) {arrow()} p(v) + ask({guard('v')}) {arrow()} {fresh} stop"
    lines.append(f"proc p(v) :: {body};")
    lines.append(f"proc q(v) :: exists z . tell({con('z', 'v')}) {arrow()} stop;")
    # the first branch may wait for what is never told; the other two meet
    # again with different fresh counters, which name the variable q opens
    again = guard("y")
    choice = (
        f"ask({con('x', 'y')}) {arrow()} stop + ask({guard('x')}) {arrow()} q(y)"
        f" + ask({again}) {arrow()} exists z . ask({again}) {arrow()} q(y)"
    )
    comps = [rng.choice(("p(x)", "p(y)")), choice, "stop"]
    rng.shuffle(comps)
    nested = f"( {comps[1]} || {comps[2]} )"
    main = rng.choice((f"( {comps[0]} || {nested} )", f"( {nested} || {comps[0]} )"))
    lines.append(f"agent = {main};")
    return "\n".join(lines) + "\n"


def gen_cyclic_programs(seed, count, semiring):
    """Return `count` (text, parsed program) pairs in one semiring for a fixed seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = gen_cyclic_program_text(rng, semiring)
        out.append((text, parse_program(text)))
    return out
