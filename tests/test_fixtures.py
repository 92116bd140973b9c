"""The shipped example programs: their tables, documented behaviors."""

import itertools
import math
import pathlib

import pytest

from softcc import (
    Problem,
    ProgramError,
    Ref,
    blevel,
    leqc,
    observe,
    parse_program,
    pointwise_eq,
    refutes_entailment,
    run_all,
    solve,
    solve_bb,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    return parse_program((FIXTURES / name).read_text())


def test_shipped_fixtures_are_the_seven_files():
    assert sorted(p.name for p in FIXTURES.glob("*.scc")) == [
        "bad_dup_proc.scc",
        "dominated_choice.scc",
        "example5_cpp.scc",
        "example5_cprime.scc",
        "fig1.scc",
        "network.scc",
        "network_weighted.scc",
    ]


# The tabulated constraints and the formulas they were written from.  Each
# formula takes the semiring and one row, and uses the float expression
# the table was written with, so a cell such as 0.10000000000000009 must
# match exactly.


def closeness(k):
    return lambda s, i, j: 1.0 / (1.0 + k * abs(i - j))


def moves(cost):
    """A row over {go, idle} is worth cost(its idle slots); any other row is the zero."""
    return lambda s, *row: cost(row.count("idle")) if set(row) <= {"go", "idle"} else s.zero


def network_tables(cost):
    tables = {name: moves(cost) for name in ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8")}
    return {**tables, "is_true": lambda s, f: s.one if f == "true" else s.zero}


TABLES = {
    "example5_cprime.scc": {"c": closeness(1), "bound10": lambda s, x: 1 if x <= 10 else 0},
    "example5_cpp.scc": {"c": closeness(1), "steep": closeness(2)},
    "network.scc": network_tables(lambda idles: 1.0 - 0.3 * idles),
    "network_weighted.scc": network_tables(lambda idles: idles),
}


def test_fixture_tables_equal_their_formulas():
    for fixture, formulas in TABLES.items():
        p = load(fixture)
        assert sorted(p.templates) == sorted(formulas), fixture
        s = p.semiring
        for name, formula in formulas.items():
            params = p.templates[name].params
            con = p.resolve(Ref(name, None))
            wrong = []
            for row in itertools.product(p.domain, repeat=len(params)):
                got, want = con.eval(dict(zip(params, row))), s.check(formula(s, *row))
                if got != want or type(got) is not type(want):
                    wrong.append((row, got, want))
            assert not wrong, (fixture, name, wrong[:3])


def test_fig1_problem():
    p = load("fig1.scc")
    assert p.interest == ("x",)
    cons = [p.resolve(Ref(name, None)) for name in p.templates]
    prob = Problem(p.system, cons, p.interest)
    best = solve(prob)
    assert best.eval({"x": "a"}) == pytest.approx(0.8)
    assert best.eval({"x": "b"}) == pytest.approx(0.0)
    assert blevel(prob) == pytest.approx(0.8)


def test_threshold_hang_fixture():
    p = load("example5_cprime.scc")
    res = run_all(p)
    assert len(res.records) == 1
    rec = res.records[0]
    assert rec.kind == "hang"
    assert [r for r, _ in rec.trace] == ["valued-tell", "valued-ask-hang"]
    # the store keeps the closeness constraint; the asked bound is not
    # entailed, and the engine can point at an assignment showing it
    asked = rec.config.blocked[0]
    w = rec.store.witness(asked)
    assert w is not None
    assert refutes_entailment(list(rec.store.factors), asked, w)
    # the pair just past the cutoff also refutes it
    assert refutes_entailment(list(rec.store.factors), asked, {"x": 11, "y": 10})
    obs = observe(p)
    assert obs.hang and not obs.fail and obs.success_set == []


def test_threshold_entail_fixture_hangs_too():
    p = load("example5_cpp.scc")
    gentle = p.resolve(Ref("c", None))
    steep = p.resolve(Ref("steep", None))
    # the steeper preference sits below the gentler one, not the other
    # way around, so a store holding only the gentle one cannot entail
    # the steep one and the ask waits forever
    assert leqc(steep, gentle)
    assert not leqc(gentle, steep)
    res = run_all(p)
    assert [r.kind for r in res.records] == ["hang"]
    assert [r for r, _ in res.records[0].trace] == ["valued-tell", "valued-ask-hang"]


def test_threshold_entail_swapped_succeeds():
    # telling the steep constraint and asking the gentle one is the
    # direction entailment does license
    text = (FIXTURES / "example5_cpp.scc").read_text()
    swapped = text.replace(
        "agent = tell(c) ->^0.4 ask(steep) ->^0.8 stop;",
        "agent = tell(steep) ->^0.4 ask(c) ->^0.8 stop;",
    )
    assert swapped != text
    p = parse_program(swapped)
    res = run_all(p)
    assert len(res.records) == 1
    rec = res.records[0]
    assert rec.kind == "success"
    assert [r for r, _ in rec.trace] == ["valued-tell", "valued-ask", "stop"]
    # the ask moved nothing: the final store is exactly the steep table
    steep = p.resolve(Ref("steep", None))
    assert pointwise_eq(rec.store.materialize(), steep)


def test_network_fixture():
    p = load("network.scc")
    res = run_all(p)
    succ = [r for r in res.records if r.kind == "success"]
    assert len(succ) == 1
    assert {r.kind for r in res.records} == {"success"}
    # a huge number of schedules collapses onto a small state graph
    assert res.total_runs > 10**6
    assert res.expansions < 2000
    obs = observe(p)
    dk = obs.dk_solution
    go = {v: "go" for v in ("x_a", "y_a", "y_b", "z_b", "x_c", "z_c", "x_d", "y_d", "z_d")}
    ends = {v: "true" for v in ("end_a", "end_b", "end_c", "end_d")}
    assert dk.eval({**go, **ends}) == pytest.approx(1.0)
    # the synchronization forces the tied variables to agree
    broken = dict(go)
    broken["x_a"], broken["x_c"] = "go", "idle"
    assert dk.eval({**broken, **ends}) == pytest.approx(0.0)
    # and nothing counts before every site has raised its flag
    unflagged = dict(ends)
    unflagged["end_d"] = "false"
    assert dk.eval({**go, **unflagged}) == pytest.approx(0.0)
    # each idling group drops the preference a step
    idle_z = dict(go)
    for v in ("z_b", "z_c", "z_d"):
        idle_z[v] = "idle"
    assert dk.eval({**idle_z, **ends}) == pytest.approx(0.7)
    values = sorted({v for _, v in dk.rows_sorted()})
    assert values == pytest.approx([0.1, 0.4, 0.7, 1.0])


def test_network_weighted_fixture():
    p = load("network_weighted.scc")
    res = run_all(p)
    assert {r.kind for r in res.records} == {"success"}
    obs = observe(p)
    dk = obs.dk_solution
    go = {v: "go" for v in ("x_a", "y_a", "y_b", "z_b", "x_c", "z_c", "x_d", "y_d", "z_d")}
    ends = {v: "true" for v in ("end_a", "end_b", "end_c", "end_d")}
    assert dk.eval({**go, **ends}) == pytest.approx(0.0)  # all-go costs nothing
    assert dk.default == math.inf
    costs = sorted({v for _, v in dk.rows_sorted()})
    assert costs == pytest.approx([0.0, 3.0, 5.0, 8.0, 10.0, 13.0])


def test_duplicate_proc_fixture_is_rejected():
    with pytest.raises(ProgramError) as e:
        load("bad_dup_proc.scc")
    assert "procedure defined twice" in str(e.value)


def test_dominated_choice_fixture_prunes():
    p = load("dominated_choice.scc")
    obs = observe(p)
    assert len(obs.success_set) == 2
    dk, stats = solve_bb(p)
    assert pointwise_eq(dk, obs.dk_solution)
    # the better store is found on the first pass and the raised cut
    # fails the other branch early
    assert stats.iterations == 1
    assert stats.runs_pruned > 0
    best = max(
        obs.success_set, key=lambda c: c.eval({"u": "a", "v": "a"})
    )
    assert pointwise_eq(dk, best)
    assert dk.eval({"u": "a", "v": "a"}) == pytest.approx(0.7)
    assert dk.eval({"u": "b", "v": "b"}) == pytest.approx(0.6)
