"""Frozen copy of the seeded program generator behind the genprog workload.

It produces, draw for draw, the same program texts as
``tests/genprog.py``'s ``gen_program_text`` did when the benchmark was
defined.  It lives here so that an edit to the test helper cannot
silently change what the benchmark measures: the recorded behaviour
counts in ``baseline.json`` pin the programs it makes.

Every program is loop-free, so every run terminates, and uses only
eventual or cut-style thresholds, so it stays inside the fragment that
branch and bound handles.
"""

import itertools
import random

SEMIRINGS = ["fuzzy", "probabilistic", "weighted", "boolean"]
ATOMS = ("a", "b")
VARS = ("u", "v", "w")

ZERO_LIT = {"fuzzy": "0", "probabilistic": "0", "weighted": "inf", "boolean": "false"}
ONE_LIT = {"fuzzy": "1", "probabilistic": "1", "weighted": "0", "boolean": "true"}


def _rand_value(rng, semiring):
    if semiring == "boolean":
        return "true" if rng.random() < 0.8 else "false"
    if semiring == "weighted":
        return str(rng.randrange(0, 7))
    return str(round(rng.uniform(0.05, 1.0), 2))


def _constraint_decl(rng, name, semiring):
    arity = 1 if rng.random() < 0.6 else 2
    vars_ = rng.sample(VARS, arity)
    rows = [
        f"  ({', '.join(tup)}) = {_rand_value(rng, semiring)};"
        for tup in itertools.product(ATOMS, repeat=arity)
    ]
    sig = f"{name}({', '.join(vars_)})"
    return sig, f"constraint {sig} {{\n" + "\n".join(rows) + "\n}"


def _arrow(rng):
    return "->" if rng.random() < 0.7 else "->[tz]"


def _ordered_pair_decls(rng, semiring):
    """Two unary constraints on one variable, the first pointwise better."""
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


def _sum_component(rng, hi_sig, lo_sig, semiring):
    one = ONE_LIT[semiring]
    return " + ".join(
        f"ask(const({one})) -> tell({sig}) {_arrow(rng)} stop" for sig in (hi_sig, lo_sig)
    )


def _chain_component(rng, size, sigs):
    told = []
    parts = []
    for _ in range(size):
        roll = rng.random()
        if told and roll < 0.35:
            parts.append(f"ask({rng.choice(told)}) {_arrow(rng)}")
        else:
            sig = rng.choice(sigs)
            told.append(sig)
            parts.append(f"tell({sig}) {_arrow(rng)}")
    return " ".join(parts) + " stop"


def program_text(rng):
    """One program: 2-4 random constraints and 1-3 parallel components."""
    semiring = rng.choice(SEMIRINGS)
    lines = [f"semiring {semiring};", "domain {a, b};", f"var {', '.join(VARS)};"]
    sigs = []
    for i in range(rng.randint(2, 4)):
        sig, decl = _constraint_decl(rng, f"c{i}", semiring)
        sigs.append(sig)
        lines.append(decl)
    zero = ZERO_LIT[semiring]
    lines.append(f"constraint tz(u) {{\n  (a) = {zero};\n  (b) = {zero};\n}}")

    with_sum = rng.random() < 0.85
    if with_sum:
        # the sum costs four actions; a parallel chain spends the rest of
        # the six-action budget
        hi_sig, lo_sig, pair_decls = _ordered_pair_decls(rng, semiring)
        lines.extend(pair_decls)
        ncomp = rng.choices([2, 3], weights=[65, 35])[0]
        chain_sizes = [2] if ncomp == 2 else [1, 1]
    else:
        ncomp = rng.choices([1, 2, 3], weights=[20, 55, 25])[0]
        chain_sizes = [rng.randint(1, 3) for _ in range(ncomp)]

    comps = []
    if with_sum:
        comps.append(_sum_component(rng, hi_sig, lo_sig, semiring))
    comps.extend(_chain_component(rng, size, sigs) for size in chain_sizes)
    rng.shuffle(comps)
    body = comps[0]
    for comp in comps[1:]:
        body = f"( {body} || {comp} )"
    lines.append(f"agent = {body};")
    return "\n".join(lines) + "\n"


def program_texts(seed, count):
    rng = random.Random(seed)
    return [program_text(rng) for _ in range(count)]
