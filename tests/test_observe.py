"""Observables, success-set filters, the cut transform, branch and bound."""

import math
import pathlib
import re

import pytest
from genprog import SEMIRINGS, gen_cyclic_programs, gen_programs

from softcc import (
    Ask,
    BBStats,
    Constraint,
    ConstraintSystem,
    Cut,
    Eventual,
    FUZZY,
    Level,
    ObserveError,
    RunLimits,
    Sum,
    Tell,
    constraint_json,
    constraint_text,
    cut_agent,
    cut_program,
    dk_solution,
    filter_success_set,
    iter_runs,
    leqc,
    observables_json,
    observation_vars,
    observe,
    oplus,
    parse_program,
    pointwise_eq,
    run_all,
    run_one,
    run_record_json,
    solve_bb,
    strictly_below,
    success_set,
)

H = "semiring fuzzy;\ndomain {a, b};\nvar x, y, z;\n"


def prog(body, extra="", header=H):
    return parse_program(header + extra + f"agent = {body};\n")


FOUR_WAY = (
    "constraint low(x) { (a) = 0.2; (b) = 0.1; }\n"
    "constraint mid(x) { (a) = 0.5; (b) = 0.3; }\n"
    "constraint high(x) { (a) = 0.9; (b) = 0.8; }\n"
    "constraint inc(x) { (a) = 0.1; (b) = 0.9; }\n"
)


def four_way_program():
    branches = " + ".join(
        f"ask(const(1)) -> tell({name}(x)) -> stop" for name in ("low", "mid", "high", "inc")
    )
    return prog(branches, FOUR_WAY)


# -- observables ---------------------------------------------------------


def test_stop_observables():
    obs = observe(prog("stop"))
    assert len(obs.success_set) == 1
    assert obs.success_set[0].scalar() == pytest.approx(1.0)
    assert obs.dk_solution.scalar() == pytest.approx(1.0)
    assert not (obs.fail or obs.fail_dk or obs.hang or obs.divergent or obs.bound_exceeded)
    assert obs.obs_vars == ()


def test_dk_folds_over_branches():
    p = prog(
        "ask(const(1)) -> tell(const(0.3)) -> stop"
        " + ask(const(1)) -> tell(const(0.7)) -> stop"
    )
    obs = observe(p)
    assert len(obs.success_set) == 2
    assert obs.dk_solution.scalar() == pytest.approx(0.7)
    assert not obs.fail


def test_success_set_projects_onto_observation_vars():
    extra = "constraint c(x, y) { (a, a) = 0.8; (a, b) = 0.2; (b, a) = 0; (b, b) = 0; }\n"
    p = prog("exists q . tell(c(x, q)) -> stop", extra)
    assert observation_vars(p) == ("x",)
    obs = observe(p)
    assert len(obs.success_set) == 1
    got = obs.success_set[0]
    assert set(got.support()) <= {"x"}
    assert got.eval({"x": "a"}) == pytest.approx(0.8)  # best q for x = a
    assert got.eval({"x": "b"}) == pytest.approx(0.0)


def test_success_set_dedupes_pointwise_equal_stores():
    # both schedules reach the same store; stores that spell it
    # differently still collapse to one observable
    p = prog(
        "(tell(const(0.5)) -> stop || tell(const(0.7)) -> tell(const(0.5)) -> stop)"
    )
    obs = observe(p)
    assert len(obs.success_set) == 1
    assert obs.success_set[0].scalar() == pytest.approx(0.5)


def test_fail_flags():
    obs = observe(prog("tell(const(0.2)) ->^0.5 stop"))
    assert obs.fail and obs.fail_dk
    assert obs.success_set == []
    assert obs.dk_solution.scalar() == pytest.approx(0.0)  # empty choice
    # mixed: one branch fails, one succeeds: fail yes, fail_dk no
    obs = observe(
        prog(
            "ask(const(1)) -> tell(const(0.2)) ->^0.5 stop"
            " + ask(const(1)) -> tell(const(0.8)) -> stop"
        )
    )
    assert obs.fail and not obs.fail_dk
    assert len(obs.success_set) == 1


def test_hang_divergent_bound_flags():
    obs = observe(prog("ask(const(0.5)) -> stop"))
    assert obs.hang and not obs.fail and obs.success_set == []
    extra = "proc loop() :: tell(const(0.5)) -> loop();\n"
    obs = observe(prog("loop()", extra))
    assert obs.divergent
    obs = observe(prog("tell(const(0.9)) -> tell(const(0.8)) -> stop"), RunLimits(max_steps=2))
    assert obs.bound_exceeded


def test_filters():
    p = four_way_program()
    obs_all = observe(p, mode="all")
    assert len(obs_all.success_set) == 4
    best = observe(p, mode="best").success_set
    assert sorted(c.eval({"x": "a"}) for c in best) == pytest.approx([0.1, 0.9])
    worst = observe(p, mode="worst").success_set
    assert sorted(c.eval({"x": "a"}) for c in worst) == pytest.approx([0.1, 0.2])
    frontier = observe(p, mode="frontier").success_set
    assert len(frontier) == 3  # high, inc, low; inc sits on both frontiers
    with pytest.raises(ObserveError):
        observe(p, mode="median")


def test_filter_success_set_directly():
    sysf = ConstraintSystem(FUZZY, ("a", "b"))
    lo = sysf.constant(0.2)
    hi = sysf.constant(0.9)
    assert filter_success_set([lo, hi], "best") == [hi]
    assert filter_success_set([lo, hi], "worst") == [lo]
    assert filter_success_set([lo, hi], "frontier") == [hi, lo]
    assert filter_success_set([], "best") == []
    assert filter_success_set([lo], "all") == [lo]


def test_dk_matches_fold_of_success_set():
    p = four_way_program()
    obs = observe(p)
    dk = obs.dk_solution
    for xa in ("a", "b"):
        want = max(c.eval({"x": xa}) for c in obs.success_set)
        assert dk.eval({"x": xa}) == pytest.approx(want)
    assert pointwise_eq(dk_solution(p), dk)
    assert [c.canonical_key() for c in success_set(p)] == [
        c.canonical_key() for c in obs.success_set
    ]


# -- the cut transform ---------------------------------------------------


def test_cut_with_zero_bound_is_identity():
    extra = "constraint bar(x) { (a) = 0.6; (b) = 0.6; }\n"
    p = prog("tell(const(0.5)) ->[bar] ask(const(0.9)) -> stop", extra)
    zero = p.system.constant(0.0)
    assert cut_agent(p.main, zero) == p.main


def test_cut_raises_dominated_thresholds():
    extra = "constraint bar(x) { (a) = 0.6; (b) = 0.6; }\n"
    p = prog("tell(const(0.5)) ->[bar] stop", extra)
    psi = p.system.constant(0.8)
    out = cut_agent(p.main, psi)
    t = out.threshold
    assert isinstance(t, Cut) and t.raised
    assert pointwise_eq(t.constraint, psi)


def test_cut_leaves_higher_or_incomparable_thresholds_alone():
    extra = (
        "constraint bar(x) { (a) = 0.6; (b) = 0.6; }\n"
        "constraint inc(x) { (a) = 0.1; (b) = 0.9; }\n"
    )
    p = prog("tell(const(0.9)) ->[bar] tell(const(0.8)) ->[inc] stop", extra)
    psi_low = p.system.constant(0.3)
    out = cut_agent(p.main, psi_low)
    assert out.threshold == p.main.threshold  # 0.6 bar sits above 0.3
    psi_mid = p.system.constant(0.5)
    out = cut_agent(p.main, psi_mid)
    inner = out.body.threshold
    assert inner == p.main.body.threshold  # inc is incomparable with 0.5
    assert not inner.raised


def test_cut_raises_eventual_to_the_bound():
    p = prog("tell(const(0.9)) -> stop")
    psi = p.system.constant(0.4)
    out = cut_agent(p.main, psi)
    t = out.threshold
    assert isinstance(t, Cut) and t.raised
    assert pointwise_eq(t.constraint, psi)
    # level thresholds are out of the cut's reach
    p = prog("tell(const(0.9)) ->^0.2 stop")
    out = cut_agent(p.main, psi)
    assert out.threshold == Level(0.2)


def test_cut_program_reaches_procedure_bodies():
    extra = "proc p() :: tell(const(0.9)) -> stop;\n"
    p = prog("p()", extra)
    psi = p.system.constant(0.4)
    q = cut_program(p, psi)
    assert q.system is p.system  # the cut shares the program's state
    t = q.decls["p"].body.threshold
    assert isinstance(t, Cut) and t.raised
    assert q.main == p.main  # a call has no thresholds of its own
    # the original program is untouched
    assert p.decls["p"].body.threshold == Eventual()


def test_cut_execution_prunes_dominated_runs():
    p = four_way_program()
    # with the dk solution as the bound every run is at or below it
    dk = dk_solution(p)
    q = cut_program(p, dk)
    res = run_all(q)
    succ = [r for r in res.records if r.kind == "success"]
    fails = [r for r in res.records if r.kind == "fail"]
    assert fails and all(r.pruned for r in fails)
    # survivors are exactly the stores not strictly below the bound
    for r in succ:
        assert not strictly_below(r.store.project(("x",)), dk)


# -- branch and bound ----------------------------------------------------


def test_bb_single_run():
    p = prog("tell(const(0.6)) -> stop")
    psi, stats = solve_bb(p)
    assert psi.scalar() == pytest.approx(0.6)
    assert stats.iterations == 1
    assert stats.runs_explored == 2  # the finding pass and the closing pass
    assert stats.runs_pruned == 0


def test_bb_matches_dk_and_prunes():
    p = four_way_program()
    psi, stats = solve_bb(p)
    assert pointwise_eq(psi, dk_solution(p))
    assert stats.iterations >= 2
    assert stats.runs_pruned >= 2  # low and mid die at the raised bound
    assert stats.runs_explored > 0


def test_bb_rejects_level_thresholds():
    p = prog("tell(const(0.9)) ->^0.5 stop")
    with pytest.raises(ObserveError):
        solve_bb(p)
    extra = "proc p() :: tell(const(0.9)) ->^0.5 stop;\n"
    with pytest.raises(ObserveError):
        solve_bb(prog("p()", extra))
    with pytest.raises(ObserveError):
        solve_bb(parse_program(H))  # no agent at all


def test_bb_on_failing_program_returns_zero():
    extra = "constraint bar(x) { (a) = 0.6; (b) = 0.6; }\n"
    p = prog("tell(const(0.5)) ->[bar] stop", extra)
    psi, stats = solve_bb(p)
    assert psi.scalar() == pytest.approx(0.0)
    assert stats.iterations == 0


def test_bb_unfolds_each_pass_of_its_own():
    # the first pass unfolds p(x) uncut and finds lo; the bound hi, found
    # by the second, raises the cut threshold inside p's body, so the
    # third pass unfolds the same call to another body, whose tell of lo
    # fails there and is pruned
    extra = (
        "constraint lo(x) { (a) = 0.2; (b) = 0.2; }\n"
        "constraint hi(x) { (a) = 0.8; (b) = 0.6; }\n"
        "constraint t(x) { (a) = 0.1; (b) = 0.1; }\n"
        "proc p(x) :: tell(lo(x)) ->[t] stop;\n"
    )
    p = prog("ask(const(1)) -> p(x) + ask(const(1)) -> tell(hi(x)) -> stop", extra)
    psi, stats = solve_bb(p)
    assert psi.vars == ("x",)
    assert [psi.eval({"x": a}) for a in ("a", "b")] == pytest.approx([0.8, 0.6])
    assert stats == BBStats(iterations=2, runs_pruned=1, runs_explored=5)
    want_psi, want = reference_bb(p, RunLimits())
    assert stats == want and pointwise_eq(psi, want_psi)


def reference_bb(program, limits):
    """Branch and bound by path enumeration: each pass walks the cut
    program's runs leftmost first up to the first success not below psi."""
    obs = observation_vars(program)
    psi = program.system.constant(program.semiring.zero)
    stats = BBStats()
    while True:
        found = None
        for rec in iter_runs(cut_program(program, psi), limits):
            stats.runs_explored += 1
            stats.runs_pruned += rec.pruned
            if rec.kind == "success":
                proj = rec.store.project(obs)
                if not leqc(proj, psi):
                    found = proj
                    break
        if found is None:
            return psi, stats
        psi = oplus(psi, found)
        stats.iterations += 1


def test_bb_agrees_with_path_enumeration():
    fixtures = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    programs = [p for _, p in gen_programs(7, 40)]
    for path in sorted(fixtures.glob("*.scc")):
        if "network" in path.name:
            continue  # too many schedules to enumerate
        try:
            programs.append(parse_program(path.read_text()))
        except ValueError:
            continue  # the fixture of a rejected program
    extra = "constraint c(x) { (a) = 0.9; (b) = 0.4; }\nconstraint d(x) { (a) = 0.5; (b) = 0.7; }\n"
    chain = "ask(const(1)) -> tell(c(x)) -> tell(d(x)) -> stop"
    programs += [
        prog("( p(x) || p(y) )", "proc p(x) :: ask(const(1)) -> p(x) + ask(const(1)) -> stop;\n"),
        prog(f"{chain} + ask(const(1)) -> {chain}", extra),
        prog(
            "( p(x) || tell(d(y)) ->[t] stop )",
            extra
            + "constraint t(x) { (a) = 0.3; (b) = 0.2; }\n"
            "proc p(x) :: ask(const(1)) -> tell(c(x)) ->[t] p(x)"
            " + ask(const(1)) -> tell(d(x)) ->[t] stop;\n",
        ),
    ]
    checked = 0
    for p in programs:
        for limits in (RunLimits(), RunLimits(max_steps=7, max_fresh_vars=3)):
            try:
                psi, stats = solve_bb(p, limits)
            except ObserveError:
                break  # a level threshold, or no agent to run
            want_psi, want = reference_bb(p, limits)
            assert stats == want
            assert pointwise_eq(psi, want_psi)
            checked += 1
    # recursive programs with binders, nested || and a choice that can hang,
    # under every step bound; solve_bb rejects level thresholds, so those
    # arrows become plain ones
    pruned = 0
    for semiring in SEMIRINGS:
        for text, _ in gen_cyclic_programs(f"walk-{semiring}", 3, semiring):
            p = parse_program(re.sub(r"->\^\S+", "->", text))
            for n in range(1, 10):
                limits = RunLimits(max_steps=n, max_fresh_vars=1)
                psi, stats = solve_bb(p, limits)
                want_psi, want = reference_bb(p, limits)
                assert stats == want, (text, n)
                assert pointwise_eq(psi, want_psi), (text, n)
                pruned += stats.runs_pruned
                checked += 1
    # gen_programs, dominated_choice, the three above, the cyclic programs
    assert checked == 2 * (40 + 1 + 3) + len(SEMIRINGS) * 3 * 9
    assert pruned > 0


# -- serialization -------------------------------------------------------


def test_observables_json_shape():
    p = four_way_program()
    doc = observables_json(observe(p))
    assert list(doc) == [
        "success_set",
        "dk_solution",
        "fail",
        "fail_dk",
        "hang",
        "divergent",
        "bound_exceeded",
        "bb",
    ]
    assert doc["bb"] is None
    assert doc["fail"] is False
    assert len(doc["success_set"]) == 4
    doc = observables_json(observe(p), BBStats(iterations=3, runs_pruned=7))
    assert doc["bb"] == {"iterations": 3, "runs_pruned": 7}


def test_constraint_json_values():
    from softcc import WEIGHTED

    sysw = ConstraintSystem(WEIGHTED, ("a", "b"))
    c = Constraint(sysw, ("x",), {("a",): 2.0, ("b",): math.inf})
    doc = constraint_json(c)
    assert doc["vars"] == ["x"]
    assert doc["support"] == ["x"]
    assert doc["rows"] == [
        {"assignment": ["a"], "value": 2.0},
        {"assignment": ["b"], "value": "inf"},
    ]
    assert doc["default"] is None
    sparse = Constraint(sysw, ("x",), {("a",): 1.0}, default=math.inf)
    assert constraint_json(sparse)["default"] == "inf"


def test_run_record_json_shape():
    p = prog("tell(const(0.5)) -> stop")
    rec = run_one(p, "leftmost")
    doc = run_record_json(rec)
    assert doc["terminal"] == "success"
    assert doc["rule_trace"] == ["eventual-tell", "stop"]
    assert doc["steps"] == 2
    assert doc["final_store"]["rows"] == [{"assignment": [], "value": 0.5}]
    extra = "proc loop() :: tell(const(0.5)) -> loop();\n"
    rec = run_one(prog("loop()", extra), "leftmost")
    doc = run_record_json(rec)
    assert doc["terminal"] == "divergent"
    assert doc["final_store"] is None


def test_constraint_text():
    sysf = ConstraintSystem(FUZZY, ("a", "b"))
    c = Constraint(sysf, ("x",), {("a",): 0.9, ("b",): 0.0})
    assert constraint_text(c) == "x: (a)=0.9 (b)=0"
    sparse = Constraint(sysf, ("x", "y"), {("a", "a"): 0.8}, default=0.0)
    assert constraint_text(sparse) == "x,y: (a,a)=0.8 default=0"
    assert constraint_text(sysf.constant(1.0)) == "(): ()=1"
