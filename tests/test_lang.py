"""Program text: parsing, validation, free variables, substitution, printing."""

import gc
import math
import pathlib
import random
from decimal import Decimal

import pytest

from softcc import (
    Ask,
    Call,
    ConstRef,
    Cut,
    DiagRef,
    Eventual,
    Exists,
    Level,
    Par,
    ProgramError,
    Ref,
    Stop,
    Sum,
    Tell,
    free_vars,
    parse_program,
    pretty,
    pretty_program,
    substitute,
)
from softcc import lang
from softcc.lang import Template, walk
from softcc.observe import observe

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

HEADER = "semiring fuzzy;\ndomain {a, b};\nvar x, y, z;\n"


def parse_agent(agent_text, extra=""):
    return parse_program(HEADER + extra + f"agent = {agent_text};\n").main


# -- parsing shapes ------------------------------------------------------


def test_parse_stop():
    p = parse_program("semiring fuzzy;\ndomain {a};\nvar x;\nagent = stop;\n")
    assert p.main == Stop()
    assert p.semiring.kind == "fuzzy"
    assert p.domain == ("a",)
    assert p.variables == ("x",)
    assert p.interest is None


def test_parse_tell_ask_chain():
    extra = "constraint c(x) { (a) = 0.9; (b) = 0.1; }\n"
    a = parse_agent("tell(c(x)) ->^0.5 ask(c(x)) -> stop", extra)
    assert isinstance(a, Tell)
    assert a.con == Ref("c", ("x",))
    assert a.threshold == Level(0.5)
    assert isinstance(a.body, Ask)
    assert a.body.threshold == Eventual()
    assert a.body.body == Stop()


def test_parse_threshold_forms():
    extra = (
        "constraint c(x) { (a) = 0.9; (b) = 0.1; }\n"
        "constraint bar(x) { (a) = 1; (b) = 0; }\n"
    )
    a = parse_agent("tell(c(x)) ->[bar] stop", extra)
    t = a.threshold
    assert isinstance(t, Cut) and t.name == "bar"
    assert t.constraint is not None  # resolved during validation
    assert t.constraint.eval({"x": "a"}) == pytest.approx(1.0)
    assert not t.raised


def test_parse_bare_template_and_builtins():
    extra = "constraint c(x, y) { default = 0.5; }\n"
    a = parse_agent("tell(c) -> (tell(diag(x, y)) -> stop || tell(const(0.25)) -> stop)", extra)
    assert a.con == Ref("c", ("x", "y"))  # bare use takes the template params
    par = a.body
    assert isinstance(par, Par)
    assert par.left.con == DiagRef("x", "y")
    assert par.right.con == ConstRef(0.25)


def test_parse_sum_and_par():
    extra = "constraint c(x) { default = 1; }\n"
    a = parse_agent("ask(c(x)) -> stop + ask(c(y)) -> stop", extra)
    assert isinstance(a, Sum) and len(a.branches) == 2
    a = parse_agent("(stop || exists q . tell(c(q)) -> stop)", extra)
    assert isinstance(a, Par)
    assert isinstance(a.right, Exists) and a.right.var == "q"


def test_parse_proc_and_call():
    text = (
        HEADER
        + "constraint c(x) { default = 1; }\n"
        + "proc p(u) :: tell(c(u)) -> stop;\n"
        + "agent = p(x);\n"
    )
    p = parse_program(text)
    assert p.main == Call("p", ("x",))
    assert p.decls["p"].params == ("u",)
    assert isinstance(p.decls["p"].body, Tell)


def test_parse_values():
    text = (
        "semiring weighted;\ndomain {a};\nvar x;\n"
        "constraint w(x) { (a) = inf; }\n"
        "constraint v(x) { (a) = 2.5; }\n"
        "agent = tell(w(x)) -> tell(const(3)) -> stop;\n"
    )
    p = parse_program(text)
    assert p.templates["w"].table[("a",)] == math.inf
    assert p.templates["v"].table[("a",)] == pytest.approx(2.5)
    text = (
        "semiring boolean;\ndomain {a};\nvar x;\n"
        "constraint t(x) { (a) = true; }\n"
        "constraint f(x) { (a) = false; }\n"
    )
    p = parse_program(text)
    assert p.templates["t"].table[("a",)] is True
    assert p.templates["f"].table[("a",)] is False


def test_parse_integer_atoms():
    text = (
        "semiring fuzzy;\ndomain {0, 1, 2};\nvar x;\n"
        "constraint c(x) { (0) = 1; (1) = 0.5; (2) = 0; }\n"
        "agent = tell(c(x)) -> stop;\n"
    )
    p = parse_program(text)
    assert p.domain == (0, 1, 2)
    assert p.resolve(Ref("c", ("x",))).eval({"x": 1}) == pytest.approx(0.5)


def test_comments_and_whitespace():
    text = (
        "// leading comment\n"
        "semiring fuzzy; // trailing\n"
        "domain {a};\nvar x;\n\n\n"
        "agent = stop;\n"
    )
    assert parse_program(text).main == Stop()


def test_nodes_are_interned():
    extra = "constraint c(x) { default = 0.5; }\n"
    a = parse_agent("(tell(c(x)) -> stop || ask(const(1)) -> stop)", extra)
    assert a is parse_agent("(tell(c(x)) -> stop || ask(const(1)) -> stop)", extra)
    assert a.left is Tell(Ref("c", ("x",)), Eventual(), Stop())
    assert hash(a) == hash(Par(a.left, a.right))
    # values keep their type, and the cut's raised flag is part of identity
    assert ConstRef(True) is not ConstRef(1.0) and Level(True) is not Level(1)
    c = parse_program(HEADER + extra).resolve(Ref("c", ("x",)))
    assert Cut(c, None, True) is not Cut(c, None, False)
    assert Cut(c, None, True).raised and not Cut(c, None, False).raised
    with pytest.raises(AttributeError):
        a.left = Stop()


def test_node_table_keeps_only_live_nodes():
    live = lang._live
    gc.collect()
    before = len(live)
    agent = Stop()
    for i in range(2000):
        agent = Par(Tell(Ref("c", (f"v{i}",)), Eventual(), Stop()), agent)
    assert len(live) >= before + 3 * 2000
    del agent
    gc.collect()
    assert len(live) == before
    # a node rebuilt after its first copy died is interned again, and the
    # dead copy's callback, run late, leaves the new entry alone
    left, right = Stop(), Call("p", ("x",))
    first = Par(left, right)
    (ref,) = [r for r in live.values() if r() is first]
    gone, key = ref.__callback__, ref.key
    del first
    assert ref() is None and key not in live
    again = Par(left, right)
    assert Par(left, right) is again
    gone(ref)
    assert live[key]() is again and Par(left, right) is again
    del again
    assert key not in live


def test_error_position_is_per_parse():
    # a live program holding the same node does not lend it its position
    ok = parse_program(HEADER + "proc q(u) :: stop;\n\n\nagent = q(x);\n")
    bad(HEADER + "agent = q(x);\n", "unknown proc", line=4)
    assert ok.main == Call("q", ("x",))


# -- validation errors, with positions -----------------------------------


def bad(text, needle, line=None):
    with pytest.raises(ProgramError) as e:
        parse_program(text)
    msg = str(e.value)
    assert needle in msg, f"expected {needle!r} in {msg!r}"
    if line is not None:
        assert f"line {line}," in msg, f"expected line {line} in {msg!r}"


def test_error_unknown_constraint():
    bad(HEADER + "agent = tell(nope(x)) -> stop;\n", "unknown constraint", line=4)


def test_error_arity():
    bad(
        HEADER + "constraint c(x) { default = 1; }\nagent = tell(c(x, y)) -> stop;\n",
        "takes 1 arguments, got 2",
        line=5,
    )


def test_error_duplicate_definitions():
    bad(
        HEADER + "constraint c(x) { default = 1; }\nconstraint c(y) { default = 1; }\n",
        "constraint defined twice: c",
        line=5,
    )
    bad(
        HEADER + "proc p() :: stop;\nproc p() :: stop;\n",
        "procedure defined twice: p",
        line=5,
    )


def test_error_incomplete_table():
    bad(
        HEADER + "constraint c(x) { (a) = 0.5; }\n",
        "constraint 'c'",
        line=4,
    )


def test_error_duplicate_row_and_default():
    bad(HEADER + "constraint c(x) { (a) = 1; (a) = 0.5; default = 0; }\n", "duplicate row")
    bad(HEADER + "constraint c(x) { default = 1; default = 0; }\n", "duplicate default")


def test_error_bad_value_for_semiring():
    bad(HEADER + "constraint c(x) { default = 1.5; }\n", "live in [0,1]")
    bad(HEADER + "agent = tell(const(1)) ->^1.5 stop;\n", "live in [0,1]")
    bad(
        "semiring boolean;\ndomain {a};\nvar x;\nconstraint c(x) { (a) = 0.5; }\n",
        "true/false",
    )


def test_error_scope():
    bad(HEADER + "agent = tell(const(1)) -> q(x);\n", "unknown proc")
    bad(
        HEADER + "proc p(u) :: tell(d(u, v)) -> stop;\nconstraint d(x, y) { default = 1; }\n",
        "non-parameter variables ['v']",
    )
    bad(HEADER + "constraint c(x) { default = 1; }\nagent = tell(c(w)) -> stop;\n",
        "undeclared variables ['w']")
    bad(HEADER + "interest {w};\n", "undeclared")
    bad(HEADER + "interest {x, x};\n", "repeats")


def test_error_choice_guards():
    bad(
        HEADER + "agent = ask(const(1)) -> stop + stop;\n",
        "ask-guarded",
    )
    bad(
        HEADER + "agent = tell(const(1)) -> stop + ask(const(1)) -> stop;\n",
        "ask-guarded",
    )


def test_sum_takes_two_or_more_ask_guarded_branches():
    extra = "constraint c(x) { default = 0.5; }\n"
    ask = parse_agent("ask(c(x)) -> stop", extra)
    assert Sum((ask, ask)).branches == (ask, ask)
    unguarded = (
        parse_agent("tell(c(x)) -> stop", extra),
        Par(ask, ask),
        Exists("y", ask),
        Sum((ask, ask)),
        Stop(),
    )
    for b in unguarded:
        for branches in ((ask, b), (b, ask)):
            with pytest.raises(ProgramError, match="choice branches must be ask-guarded"):
                Sum(branches)
    for few in ((), (ask,)):
        with pytest.raises(ProgramError, match="two or more branches"):
            Sum(few)
    # deep library-built nests of unguarded choice fail at construction,
    # at the first level that is not ask-guarded, not in a RecursionError
    for wrap in (lambda a: Exists("y", a), lambda a: a):
        a, levels = ask, 0
        with pytest.raises(ProgramError, match="ask-guarded"):
            for _ in range(3000):
                a = Sum((ask, wrap(a)))
                levels += 1
        assert levels <= 1


def test_error_reserved_hash():
    # '#' cannot even be tokenized, so machine-made names stay unwritable
    with pytest.raises(ProgramError):
        parse_program("semiring fuzzy;\ndomain {a};\nvar x#0;\nagent = stop;\n")


def test_error_unknown_cut_name():
    bad(HEADER + "agent = tell(const(1)) ->[nope] stop;\n", "unknown cut constraint")


def test_error_keywords_as_names():
    bad(HEADER + "constraint ask(x) { default = 1; }\n", "keyword")
    bad(HEADER + "proc stop() :: stop;\n", "keyword")
    bad("semiring nosuch;\ndomain {a};\nvar x;\n", "unknown semiring")


def test_error_trailing_input():
    bad(HEADER + "agent = stop;\nwhat\n", "unexpected trailing input")


def test_parse_error_position_is_exact():
    cases = [
        ("semiring fuzzy;\ndomain {a};\nvar x;\nagent = tell(zzz(x)) -> stop;\n", "line 4, column 14"),
        # the end of input is named as such, and a comment advances the column
        (
            "semiring fuzzy; domain {a}; var x; agent = stop // trailing note",
            "line 1, column 65: expected ';', found end of input",
        ),
        (
            "semiring fuzzy;\ndomain {a};\nvar x;\nagent = tell(",
            "line 4, column 14: expected a constraint, found end of input",
        ),
        # a finite literal past the largest float is refused, not read as inf
        (
            "semiring weighted;\ndomain {a};\nvar x;\nconstraint c(x) { (a) = 1e400; }\n",
            "line 4, column 25: number 1e400 does not fit a float",
        ),
        # repeated header names are reported where they repeat
        ("semiring fuzzy;\ndomain {a};\nvar x, y, x;\n", "line 3, column 11: duplicate variable 'x'"),
        ("semiring fuzzy;\ndomain {a, b, a};\n", "line 2, column 15: duplicate domain atom 'a'"),
        (
            "semiring fuzzy;\ndomain {a};\nvar x;\nproc p() :: stop;\nconstraint p(x) { default = 1; }\n",
            "line 5, column 1: 'p' names both a constraint and a proc",
        ),
        ("semiring 3;\n", "line 1, column 10: expected a semiring name"),
        (
            "semiring weighted;\ndomain {a};\nvar x;\nconstraint c(x) { (a) = zzz; }\n",
            "line 4, column 25: expected a value, found 'zzz'",
        ),
        # an exponent with its sign is part of the number
        (
            "semiring weighted;\ndomain {a};\nvar x;\nconstraint c(x) { (a) = 2E+1 }\n",
            "line 4, column 30: expected ';', found '}'",
        ),
        # a misplaced number is named as written
        (
            "semiring fuzzy;\ndomain {a};\nvar x;\nagent = tell(const(0.5)) 2E+1;\n",
            "line 4, column 26: expected '->', found 2E+1",
        ),
    ]
    for text, where in cases:
        with pytest.raises(ProgramError) as e:
            parse_program(text)
        assert where in str(e.value)
    text = "semiring weighted;\ndomain {a, b};\nvar x;\nconstraint c(x) { (a) = 1e-3; (b) = 2E+1; }\n"
    table = parse_program(text).templates["c"].table
    assert table == {("a",): Decimal("0.001"), ("b",): Decimal("20")}
    assert all(type(v) is Decimal for v in table.values())


def test_misplaced_number_is_named_as_written():
    # not by the float or the decimal it reads as: 0.1, 1e-05 and 20.0
    for lit in ("0.1000000000000000000001", "1e-5", "2E+1", "0.50"):
        text = f"semiring fuzzy;\ndomain {{a}};\nvar x;\nagent = tell(const(0.5)) {lit};\n"
        with pytest.raises(ProgramError) as e:
            parse_program(text)
        assert str(e.value).endswith(f"line 4, column 26: expected '->', found {lit}")


# -- free variables ------------------------------------------------------


def test_free_vars():
    extra = "constraint c(x, y) { default = 0.5; }\nproc p(u) :: tell(c(u, u)) -> stop;\n"
    assert free_vars(Stop()) == frozenset()
    a = parse_agent("tell(c(x, y)) -> stop", extra)
    assert free_vars(a) == {"x", "y"}
    a = parse_agent("exists q . tell(c(q, y)) -> stop", extra)
    assert free_vars(a) == {"y"}
    a = parse_agent("(p(x) || ask(diag(y, z)) -> stop)", extra)
    assert free_vars(a) == {"x", "y", "z"}
    a = parse_agent("tell(const(0.5)) -> stop", extra)
    assert free_vars(a) == frozenset()


def test_free_vars_ignore_thresholds():
    extra = (
        "constraint c(x) { default = 0.5; }\n"
        "constraint bar(y) { (a) = 1; (b) = 0; }\n"
    )
    a = parse_agent("tell(c(x)) ->[bar] stop", extra)
    assert free_vars(a) == {"x"}  # y from the cut does not leak in


# -- substitution --------------------------------------------------------


def test_substitute_basic():
    extra = "constraint c(x, y) { default = 0.5; }\n"
    a = parse_agent("tell(c(x, y)) -> ask(diag(x, z)) -> stop", extra)
    b = substitute(a, {"x": "z"})
    assert b.con == Ref("c", ("z", "y"))
    assert b.body.con == DiagRef("z", "z")
    # identity substitution returns the same shape
    assert substitute(a, {}) == a
    assert substitute(a, {"w": "q"}) == a


def test_substitute_respects_binding():
    extra = "constraint c(x) { default = 0.5; }\n"
    a = parse_agent("exists x . tell(c(x)) -> stop", extra)
    assert substitute(a, {"x": "y"}) == a  # x is bound here


def test_substitute_avoids_capture():
    extra = "constraint c(x, y) { default = 0.5; }\n"
    a = parse_agent("exists y . tell(c(x, y)) -> stop", extra)
    b = substitute(a, {"x": "y"})
    assert isinstance(b, Exists)
    assert b.var != "y"  # binder renamed away from the incoming name
    assert b.body.con.args == ("y", b.var)
    assert free_vars(b) == {"y"}


def test_substitute_swap():
    extra = "constraint c(x, y) { default = 0.5; }\n"
    a = parse_agent("tell(c(x, y)) -> stop", extra)
    b = substitute(a, {"x": "y", "y": "x"})
    assert b.con == Ref("c", ("y", "x"))


def test_substitute_preserves_free_var_law():
    extra = "constraint c(x, y) { default = 0.5; }\nproc p(u) :: tell(c(u, u)) -> stop;\n"
    rng = random.Random(11)
    agents = [
        parse_agent(t, extra)
        for t in (
            "tell(c(x, y)) -> stop",
            "exists y . tell(c(x, y)) -> ask(c(y, z)) -> stop",
            "(p(x) || exists x . tell(c(x, y)) -> stop)",
            "ask(c(x, x)) -> stop + ask(diag(y, z)) -> stop",
        )
    ]
    names = ["x", "y", "z"]
    for a in agents:
        for _ in range(25):
            src = rng.choice(names)
            dst = rng.choice(names)
            got = free_vars(substitute(a, {src: dst}))
            fv = free_vars(a)
            want = (fv - {src}) | ({dst} if src in fv else set())
            assert got == want, (pretty(a), src, dst)


# -- pretty printing -----------------------------------------------------


def test_pretty_round_trip_inline():
    extra = "constraint c(x, y) { default = 0.5; }\nproc p(u) :: tell(c(u, u)) -> stop;\n"
    for t in (
        "stop",
        "tell(c(x, y)) ->^0.5 stop",
        "ask(const(1)) -> stop + ask(diag(x, y)) -> stop",
        "(stop || exists q . tell(c(q, q)) -> p(x))",
        "exists q . ask(c(q, y)) -> stop + ask(c(y, q)) -> stop",
    ):
        a = parse_agent(t, extra)
        again = parse_agent(pretty(a), extra)
        assert again == a, pretty(a)
    # choices built through the library whose ask bodies open || or exists
    ask = parse_agent("ask(c(x, y)) -> stop", extra)
    local = parse_agent("exists q . tell(c(q, x)) -> p(q)", extra)

    def guard(body):
        return Ask(ask.con, Level(0.5), body)

    for a in (
        Sum((guard(Par(local, Stop())), ask)),
        Sum((ask, guard(local))),
        Sum((guard(Par(Stop(), Exists("q", guard(local)))), ask, guard(Exists("z", Par(local, ask))))),
    ):
        again = parse_agent(pretty(a), extra)
        assert again is a, pretty(a)


def test_pretty_rejects_what_the_text_cannot_group():
    extra = "constraint c(x, y) { default = 0.5; }\n"
    ask = parse_agent("ask(c(x, y)) -> stop", extra)
    local = Exists("q", Stop())
    for a in (
        Ask(ask.con, Eventual(), Sum((ask, ask))),  # would read as a choice of two
        Tell(ask.con, Eventual(), Sum((ask, ask))),  # would not parse
        Sum((Ask(ask.con, Eventual(), local), ask)),  # would read as exists q . (stop + …)
        Sum((ask, Ask(ask.con, Eventual(), Tell(ask.con, Eventual(), local)), ask)),
    ):
        with pytest.raises(ProgramError, match="cannot print"):
            pretty(a)
    # the last branch may end in exists, and a choice may be an exists body
    for a in (
        Sum((ask, Ask(ask.con, Eventual(), local))),
        Tell(ask.con, Eventual(), Exists("q", Sum((ask, ask)))),
    ):
        assert parse_agent(pretty(a), extra) is a


def _ungroupable(a) -> bool:
    """The two shapes pretty must reject, read off the definition."""
    for n in walk(a):
        if isinstance(n, (Tell, Ask)) and isinstance(n.body, Sum):
            return True
        if isinstance(n, Sum):
            for end in n.branches[:-1]:  # the end of each arrow chain but the last
                while isinstance(end, (Tell, Ask)):
                    end = end.body
                if isinstance(end, Exists):
                    return True
    return False


def test_pretty_round_trips_library_built_agents():
    # random agents built with the node classes, in every shape: each either
    # prints as text that parses back to the same node, or is one of the two
    # shapes the text cannot group and raises
    extra = "constraint c(x, y) { default = 0.5; }\nproc p(u) :: stop;\n"
    cut = parse_agent("tell(c(x, y)) ->[c] stop", extra).threshold
    rng = random.Random("pretty-round-trip")
    thresholds = (Eventual(), Level(0.5), cut)
    cons = (Ref("c", ("x", "y")), Ref("c", ("z", "x")), DiagRef("y", "z"), ConstRef(1.0))

    def agent(depth):
        pick = rng.randrange(7 if depth else 2)
        if pick == 0:
            return Stop()
        if pick == 1:
            return Call("p", (rng.choice("xyz"),))
        if pick == 2:
            return Exists(rng.choice("qx"), agent(depth - 1))
        if pick == 3:
            return Par(agent(depth - 1), agent(depth - 1))
        if pick == 4:
            return Sum(tuple(guarded(depth - 1, Ask) for _ in range(rng.randrange(2, 4))))
        return guarded(depth - 1, Tell if pick == 5 else Ask)

    def guarded(depth, node):
        return node(rng.choice(cons), rng.choice(thresholds), agent(depth))

    printed = rejected = 0
    for _ in range(400):
        a = agent(rng.randrange(1, 6))
        if _ungroupable(a):
            with pytest.raises(ProgramError, match="cannot print"):
                pretty(a)
            rejected += 1
        else:
            assert parse_agent(pretty(a), extra) is a, pretty(a)
            printed += 1
    assert printed > 100 and rejected > 20


def test_pretty_program_sorts_template_rows_by_atom_rank():
    text = (
        "semiring fuzzy; domain {10, 2, b, A}; var x;"
        " constraint c(x) { (b) = 0.5; (A) = 0.4; (10) = 0.3; (2) = 0.2; }"
        " agent = tell(c(x)) -> stop;"
    )
    printed = pretty_program(parse_program(text))
    rows = [line.split(")")[0].strip(" (") for line in printed.splitlines() if " = 0." in line]
    assert rows == ["2", "10", "A", "b"]


def test_pretty_program_round_trip_fixtures():
    for path in sorted(FIXTURES.glob("*.scc")):
        if path.name.startswith("bad_"):
            continue
        p1 = parse_program(path.read_text())
        text = pretty_program(p1)
        p2 = parse_program(text)
        assert p2.semiring is p1.semiring
        assert p2.domain == p1.domain
        assert p2.variables == p1.variables
        assert p2.templates == p1.templates, path.name
        assert p2.decls == p1.decls, path.name
        assert p2.main == p1.main, path.name
        assert p2.interest == p1.interest


def test_template_tables_are_built_once(monkeypatch):
    # validation checks each template by building its table; resolve reuses it
    built = []
    base_constraint = Template.base_constraint

    def counted(tpl, system):
        built.append(tpl.name)
        return base_constraint(tpl, system)

    monkeypatch.setattr(Template, "base_constraint", counted)
    p = parse_program((FIXTURES / "network.scc").read_text())
    observe(p)
    assert sorted(built) == sorted(p.templates) and len(p.templates) == 9
