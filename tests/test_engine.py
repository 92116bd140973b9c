"""Small-step execution: rules, interleaving, termination verdicts."""

import gc
import importlib
import itertools
import pathlib
import random
import sys
import time
import weakref
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from typing import Dict, List, Optional

import pytest
from genprog import SEMIRINGS, gen_cyclic_programs, gen_programs
from test_constraints import _shaped, rand_constraint, small_systems
from test_observe import reference_bb

from softcc import (
    Configuration,
    Constraint,
    EngineError,
    FUZZY,
    RunLimits,
    Store,
    ConstraintSystem,
    combine_project,
    cut_program,
    initial_configuration,
    iter_runs,
    leqc,
    observables_of,
    observation_vars,
    observe,
    oplus,
    oplus_all,
    parse_program,
    pointwise_eq,
    pretty_program,
    project,
    refutes_entailment,
    run_all,
    run_one,
    solve_bb,
    step,
    strictly_below,
    tensor_all,
)
from softcc import constraints
from softcc.engine import _Answers, _Context, _Session
from softcc.lang import (
    Agent,
    Ask,
    Call,
    ConstRef,
    Cut,
    Eventual,
    Exists,
    Level,
    Par,
    Program,
    ProgramError,
    Stop,
    Sum,
    Tell,
    substitute,
    walk,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
H = "semiring fuzzy;\ndomain {a, b};\nvar x, y, z;\n"


def prog(body, extra="", header=H):
    return parse_program(header + extra + f"agent = {body};\n")


def rules_of(rec):
    return [r for r, _ in rec.trace]


def single(result, kind):
    recs = [r for r in result.records if r.kind == kind]
    assert len(recs) == 1, [(r.kind, r.paths) for r in result.records]
    return recs[0]


# -- single rules --------------------------------------------------------


def test_stop_succeeds():
    res = run_all(prog("stop"))
    rec = single(res, "success")
    assert res.total_runs == 1
    assert rules_of(rec) == ["stop"]
    assert rec.steps == 1
    assert rec.store.blevel() == pytest.approx(1.0)


def test_eventual_tell():
    res = run_all(prog("tell(const(0.5)) -> stop"))
    rec = single(res, "success")
    assert rules_of(rec) == ["eventual-tell", "stop"]
    assert rec.store.blevel() == pytest.approx(0.5)


def test_valued_tell_passes():
    res = run_all(prog("tell(const(0.7)) ->^0.5 stop"))
    rec = single(res, "success")
    assert rules_of(rec) == ["valued-tell", "stop"]
    assert rec.store.blevel() == pytest.approx(0.7)


def test_valued_tell_fails_below_level():
    res = run_all(prog("tell(const(0.2)) ->^0.5 stop"))
    rec = single(res, "fail")
    assert rules_of(rec) == ["valued-tell-fail"]
    # the failing tell leaves no trace in the store
    assert rec.store.blevel() == pytest.approx(1.0)
    assert not [r for r in res.records if r.kind == "success"]


def test_hand_built_level_reads_as_a_parsed_one():
    # the parser turns ->^0.2 into the decimal 0.2; a Level built through
    # the library holds the float 0.2, a hair above it, and must not fail
    p = prog("tell(const(0.2)) ->^0.2 stop", header="semiring probabilistic;\ndomain {a, b};\nvar x;\n")
    assert rules_of(single(run_all(p), "success")) == ["valued-tell", "stop"]
    p.main = Tell(ConstRef(0.2), Level(0.2), Stop())
    assert isinstance(p.main.threshold.value, float)
    assert rules_of(single(run_all(p), "success")) == ["valued-tell", "stop"]


def test_valued_ask_fires_when_entailed():
    res = run_all(prog("tell(const(0.3)) -> ask(const(0.5)) ->^0.2 stop"))
    rec = single(res, "success")
    assert rules_of(rec) == ["eventual-tell", "valued-ask", "stop"]
    assert rec.store.blevel() == pytest.approx(0.3)  # asks never move the store


def test_valued_ask_fails_below_level():
    res = run_all(prog("tell(const(0.3)) -> ask(const(0.5)) ->^0.4 stop"))
    rec = single(res, "fail")
    assert rules_of(rec) == ["eventual-tell", "valued-ask-fail"]


def test_ask_hangs_when_not_entailed():
    res = run_all(prog("tell(const(0.3)) -> ask(const(0.1)) -> stop"))
    rec = single(res, "hang")
    assert rules_of(rec) == ["eventual-tell", "eventual-ask-hang"]
    blocked = rec.config.blocked
    assert len(blocked) == 1
    assert blocked[0].scalar() == pytest.approx(0.1)
    # and the store genuinely does not entail what the ask wanted
    assert not rec.store.entails(blocked[0])
    assert rec.store.witness(blocked[0]) is not None


@pytest.mark.parametrize("default", [None, 0.05])
def test_witness_answers_on_the_eight_variable_ring(default):
    # eight tells round a ring of twelve atoms, then an ask they do not
    # entail: the witness pins one variable at a time, so it answers
    # without the 12^8 cells of the joint table, dense or with a default
    n = 12
    rows = " ".join(
        f"({i}, {j}) = {round(1 / (1 + abs(i - j)), 3)};" for i in range(n) for j in range(n)
    )
    tail = "" if default is None else f" default = {default};"
    tells = " -> ".join(f"tell(c(x{k}, x{(k + 1) % 8}))" for k in range(8))
    p = parse_program(
        f"semiring fuzzy;\ndomain {{{', '.join(map(str, range(n)))}}};\n"
        f"var {', '.join(f'x{k}' for k in range(8))};\n"
        f"constraint c(x, y) {{ {rows}{tail} }}\n"
        f"agent = {tells} -> ask(c(x0, x4)) -> stop;\n"
    )
    rec = single(run_all(p), "hang")
    (asked,) = rec.config.blocked
    w = rec.store.witness(asked)
    assert sorted(w) == [f"x{k}" for k in range(8)]
    assert refutes_entailment(list(rec.store.factors), asked, w)


def test_cut_threshold_tell():
    extra = "constraint bar(x) { (a) = 0.6; (b) = 0.6; }\n"
    res = run_all(prog("tell(const(0.5)) ->[bar] stop", extra))
    rec = single(res, "fail")
    assert rules_of(rec) == ["tell-fail"]
    assert not rec.pruned  # a source-level cut is not a raised bound
    res = run_all(prog("tell(const(0.7)) ->[bar] stop", extra))
    rec = single(res, "success")
    assert rules_of(rec) == ["tell", "stop"]


def test_cut_threshold_ask():
    extra = "constraint bar(x) { (a) = 0.6; (b) = 0.6; }\n"
    res = run_all(prog("tell(const(0.5)) -> ask(const(0.9)) ->[bar] stop", extra))
    rec = single(res, "fail")
    assert rules_of(rec) == ["eventual-tell", "ask-fail"]
    res = run_all(prog("tell(const(0.7)) -> ask(const(0.9)) ->[bar] stop", extra))
    rec = single(res, "success")
    assert rules_of(rec) == ["eventual-tell", "ask", "stop"]


# -- choice --------------------------------------------------------------


def test_choice_takes_any_firing_branch():
    res = run_all(
        prog(
            "ask(const(1)) -> tell(const(0.3)) -> stop"
            " + ask(const(1)) -> tell(const(0.7)) -> stop"
        )
    )
    assert res.total_runs == 2
    stores = sorted(r.store.blevel() for r in res.records if r.kind == "success")
    assert stores == [pytest.approx(0.3), pytest.approx(0.7)]


def test_choice_fails_when_all_branches_fail():
    res = run_all(
        prog(
            "tell(const(0.3)) -> "
            "(ask(const(1)) ->^0.5 stop + ask(const(1)) ->^0.6 stop || stop)"
        )
    )
    rec = single(res, "fail")
    assert "choice-fail" in rules_of(rec)


def test_choice_hangs_when_some_branch_hangs():
    # after the tell, one branch fails its level check and the other
    # waits forever: the choice stays open, so the verdict is hang
    res = run_all(
        prog(
            "(tell(const(0.3)) -> stop"
            " || ask(const(0.5)) ->^0.4 stop + ask(const(0.1)) -> stop)"
        )
    )
    rec = single(res, "hang")
    assert rules_of(rec) == ["eventual-tell", "stop", "choice-hang"]
    assert len(rec.config.blocked) == 1
    assert rec.config.blocked[0].scalar() == pytest.approx(0.1)


def test_choice_two_blocked_branches_is_quiescence():
    res = run_all(
        prog("ask(const(0.5)) -> stop + ask(const(0.2)) -> stop")
    )
    rec = single(res, "hang")
    assert rules_of(rec) == ["quiescence"]
    assert len(rec.config.blocked) == 2


# -- parallel composition ------------------------------------------------


def test_par_success_lifts_to_sibling():
    res = run_all(prog("(stop || tell(const(0.5)) -> stop)"))
    rec = single(res, "success")
    assert rec.store.blevel() == pytest.approx(0.5)
    assert res.total_runs == 2  # stop first or tell first


def test_par_interleaves_and_merges():
    res = run_all(prog("(tell(const(0.3)) -> stop || tell(const(0.7)) -> stop)"))
    rec = single(res, "success")
    # each component takes a tell step and a stop step; the schedules
    # that differ only in which finished side gets lifted first collapse,
    # leaving 4 of the 6 raw interleavings
    assert rec.paths == 4
    assert res.total_runs == 4
    assert rec.store.blevel() == pytest.approx(0.3)


def test_par_fail_propagates():
    res = run_all(prog("(tell(const(0.2)) ->^0.5 stop || tell(const(0.9)) -> stop)"))
    kinds = {r.kind for r in res.records}
    assert kinds == {"fail"}
    # fail immediately, or after the right tell, or after tell and lift
    assert res.total_runs == 3
    stores = sorted(r.store.blevel() for r in res.records)
    assert stores == [pytest.approx(0.9), pytest.approx(1.0)]


def test_par_commutes():
    left = "tell(const(0.3)) -> ask(const(0.5)) -> stop"
    right = "tell(const(0.8)) -> stop"
    r1 = run_all(prog(f"({left} || {right})"))
    r2 = run_all(prog(f"({right} || {left})"))
    assert r1.total_runs == r2.total_runs
    s1 = {r.store.materialize().canonical_key() for r in r1.records if r.kind == "success"}
    s2 = {r.store.materialize().canonical_key() for r in r2.records if r.kind == "success"}
    assert s1 == s2


def test_deep_interleaving_counts():
    body = "tell(const(0.9)) -> tell(const(0.8)) -> tell(const(0.45)) -> stop"
    other = "tell(const(0.7)) -> tell(const(0.6)) -> tell(const(0.35)) -> stop"
    p = prog(f"({body} || {other})")
    res = run_all(p)
    rec = single(res, "success")
    assert rec.paths == res.total_runs == 50
    # the dedup explores far fewer states than there are runs
    assert res.expansions < res.total_runs
    assert sum(1 for _ in iter_runs(p)) == res.total_runs


# -- local variables and calls ------------------------------------------


def test_exists_runs_on_fresh_name():
    extra = "constraint c(x) { (a) = 0.9; (b) = 0.4; }\n"
    res = run_all(prog("exists q . tell(c(q)) -> stop", extra))
    rec = single(res, "success")
    assert rec.store.vars() == ("q#0",)
    assert rec.config.fresh == (("q", 1),)
    assert rec.store.blevel() == pytest.approx(0.9)


def test_parallel_exists_get_distinct_names():
    extra = "constraint c(x) { (a) = 0.9; (b) = 0.4; }\n"
    res = run_all(
        prog("(exists q . tell(c(q)) -> stop || exists q . tell(c(q)) -> stop)", extra)
    )
    rec = single(res, "success")
    assert set(rec.store.vars()) == {"q#0", "q#1"}
    assert rec.config.fresh == (("q", 2),)


def test_exists_shadows_declared_variable():
    extra = "constraint c(x) { (a) = 0.9; (b) = 0.4; }\n"
    res = run_all(prog("exists x . tell(c(x)) -> stop", extra))
    rec = single(res, "success")
    assert rec.store.vars() == ("x#0",)  # the declared x stays untouched


def test_call_unfolds_with_substitution():
    extra = (
        "constraint c(x) { (a) = 0.9; (b) = 0.4; }\n"
        "proc p(u) :: tell(c(u)) -> stop;\n"
    )
    res = run_all(prog("p(y)", extra))
    rec = single(res, "success")
    assert rules_of(rec) == ["call", "eventual-tell", "stop"]
    assert rec.store.vars() == ("y",)


def test_step_api():
    p = prog("tell(const(0.5)) -> stop")
    cfg = initial_configuration(p)
    edges = step(cfg, p)
    assert len(edges) == 1
    assert edges[0].rule == "eventual-tell"
    nxt = edges[0].target
    assert nxt.kind == "running"
    assert step(step(nxt, p)[0].target, p) == []  # terminals have no successors
    with pytest.raises(EngineError):
        initial_configuration(parse_program(H))  # no agent


# -- divergence and bounds ----------------------------------------------


def test_divergence_detected():
    extra = "proc loop() :: tell(const(0.5)) -> loop();\n"
    res = run_all(prog("loop()", extra))
    recs = [r for r in res.records if r.kind == "divergent"]
    assert len(recs) == 1
    assert not [r for r in res.records if r.kind == "success"]


def test_growing_store_hits_step_bound():
    # weighted tells accumulate cost, so the state never repeats and the
    # step limit is what stops the run
    extra = "proc loop() :: tell(const(1)) -> loop();\n"
    p = parse_program(
        "semiring weighted;\ndomain {a};\nvar x;\n" + extra + "agent = loop();\n"
    )
    res = run_all(p, RunLimits(max_steps=40))
    kinds = {r.kind for r in res.records}
    assert kinds == {"bound_exceeded"}


def test_fresh_bound():
    extra = (
        "constraint c(x) { (a) = 0.9; (b) = 0.4; }\n"
        "proc loop() :: exists q . tell(c(q)) -> loop();\n"
    )
    p, limits = prog("loop()", extra), RunLimits(max_steps=100_000, max_fresh_vars=5)
    res = run_all(p, limits)
    kinds = {r.kind for r in res.records}
    assert kinds == {"bound_exceeded"}
    assert [r.kind for r in iter_runs(p, limits)] == ["bound_exceeded"]
    assert run_one(p, limits=limits).kind == "bound_exceeded"


# -- stores --------------------------------------------------------------


def test_store_idempotent_tell_is_noop():
    sysf = ConstraintSystem(FUZZY, ("a", "b"))
    s = Store(sysf)
    c = sysf.constant(0.5)
    s1 = s.tell(c)
    s2 = s1.tell(c)
    assert s2 is s1  # same factor set, recognized as a repeat
    assert len(s1.factors) == 1


def test_store_weighted_tell_accumulates():
    from softcc import WEIGHTED

    sysw = ConstraintSystem(WEIGHTED, ("a",))
    s = Store(sysw)
    c = sysw.constant(1.0)
    s1 = s.tell(c)
    s2 = s1.tell(c)
    assert s2.blevel() == pytest.approx(2.0)  # + is not idempotent: both count
    assert s1 != s2


def test_store_fold_matches_the_dense_joint_table():
    # tell folds each constraint into one factor; the store must stay the
    # tensor of everything told, in every semiring, over supports that nest
    # ({x} in {x, y}) and that overlap without nesting ({x, y} and {y, z})
    rng = random.Random("store-fold")
    for system in small_systems():
        s = system.semiring
        for _ in range(15):
            store, told = Store(system), []
            for _ in range(rng.randrange(1, 7)):
                c = rand_constraint(system, rng, pool=("w", "x", "y", "z"))
                store = store.tell(c)
                told.append(c)
            joint = tensor_all(told, system)
            assert pointwise_eq(store.materialize(), joint)
            assert s.eq(store.blevel(), project(joint, ()).scalar())
            # every told constraint is entailed, so the shortcut is exact
            for c in told + [rand_constraint(system, rng) for _ in range(3)]:
                assert store.entails(c) == leqc(joint, c)
            if s.idempotent_times:
                assert store.tell(rng.choice(told)) is store
            supports = [frozenset(f.vars) for f in store.factors]
            assert not any(
                a <= b for i, a in enumerate(supports) for j, b in enumerate(supports) if i != j
            )
            assert len(supports) <= len({frozenset(c.vars) for c in told})
            keep = rng.sample(("w", "x", "y", "z"), rng.randrange(0, 5))
            assert pointwise_eq(store.project(keep), project(joint, keep))


def test_store_memo_matches_a_fresh_fold():
    # tells from a pool, repeated from the same stores, give what a fresh
    # store over the same factors computes; the pool holds copies of one
    # function under a permuted variable tuple, which fold to different factors
    rng = random.Random("store-memo")

    def shape(store):
        return store.key(), store.told, tuple((f.vars, f.canonical_key()) for f in store.factors)

    for system in small_systems():
        pool = [rand_constraint(system, rng, pool=("w", "x", "y", "z")) for _ in range(5)]
        for c in list(pool):
            if len(c.vars) > 1:
                order = c.vars[::-1]
                table = {k[::-1]: v for k, v in c.table.items()}
                pool.append(Constraint(system, order, table, c.default))
        stores = [Store(system)]
        for _ in range(40):
            store, c = rng.choice(stores), rng.choice(pool)
            got = store.tell(c)
            assert shape(got) == shape(Store(system, store.factors, store.told).tell(c))
            stores.append(got)
    # one variable per tell, past the pointwise cap: factor-keyed stores
    sysf = ConstraintSystem(FUZZY, ("a", "b"))
    wide = [Constraint(sysf, (f"v{i}",), {("a",): 0.9, ("b",): 0.8}) for i in range(13)]
    store = Store(sysf)
    for c in wide + wide[:3]:
        got = store.tell(c)
        assert shape(got) == shape(Store(sysf, store.factors, store.told).tell(c))
        store = got
    assert store.key()[0] == "fs"


def count_calls(monkeypatch, original):
    """Count calls of a function, or of a method, under every name softcc's
    modules and classes bind it to."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "softcc" or name.startswith("softcc."):
            owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        monkeypatch.setattr(owner, attr, counted)
    return calls


def test_observe_on_the_network_fixture_reuses_store_transitions(monkeypatch):
    # every interleaving tells onto the same stores; the memo makes each
    # distinct (store, constraint) tell once.  The work is counted, not timed.
    calls = count_calls(monkeypatch, constraints.tensor)
    p = parse_program((ROOT / "fixtures" / "network.scc").read_text())
    got = observe(p)
    assert got.result.expansions == 526
    assert calls[0] <= 400  # 807 when every interleaving recomputed its tells


def test_observe_on_the_network_fixture_reuses_component_levels(monkeypatch):
    # each missed ask waits on an end flag that no factor mentions, so every
    # component enters as its best level, and a tell changes one component:
    # the others' levels come from the root's table.  The work is counted.
    calls = count_calls(monkeypatch, constraints.project)
    p = parse_program((ROOT / "fixtures" / "network.scc").read_text())
    got = observe(p)
    assert got.result.expansions == 526
    assert calls[0] <= 100  # 410 when every miss projected the whole store


def test_observe_on_the_network_fixture_keys_no_store(monkeypatch):
    # a billion schedules reach each state through stores told alike, which
    # compare equal by their shared record: no store is materialized for a
    # key.  The work is counted.
    calls = count_calls(monkeypatch, Store.materialize)
    p = parse_program((ROOT / "fixtures" / "network.scc").read_text())
    got = observe(p)
    assert got.result.expansions == 526
    assert calls[0] == 0  # 25 when every configuration was hashed by its store's key


def test_run_all_compares_few_stores_at_a_head_with_many(monkeypatch):
    # each weighted tell lowers the store, so one head meets thousands of
    # stores; looking each up must stay linear.  The calls are counted.
    calls = count_calls(monkeypatch, Store.__eq__)
    p = prog(
        "p(x)",
        "constraint c(x) { (a) = 1; (b) = 2; }\nproc p(x) :: tell(c(x)) -> p(x);\n",
        "semiring weighted;\ndomain {a, b};\nvar x;\n",
    )
    got = run_all(p, RunLimits(max_steps=4_000))
    assert [r.kind for r in got.records] == ["bound_exceeded"]
    assert got.expansions == 4_000
    assert calls[0] <= 2 * got.expansions


def test_solve_bb_on_the_network_fixture_bounds_its_tensor_calls(monkeypatch):
    # two passes over a billion schedules tell and ask on a few hundred
    # stores; the leaf memo, the shared answers and the component levels
    # keep the work per store small.  The work is counted, not timed.
    calls = count_calls(monkeypatch, constraints.tensor)
    p = parse_program((ROOT / "fixtures" / "network.scc").read_text())
    _, stats = solve_bb(p)
    assert (stats.iterations, stats.runs_explored) == (1, 1_220_424_505)
    assert calls[0] <= 1_000  # 362; 753 when stores told alike share no answers


def test_solve_bb_frees_its_session_stores(monkeypatch):
    observe_module = importlib.import_module("softcc.observe")
    original = observe_module.run_all
    roots = []

    def recording(*args, _session, **kwargs):
        roots.append((id(_session.root), weakref.ref(_session.root)))
        return original(*args, _session=_session, **kwargs)

    monkeypatch.setattr(observe_module, "run_all", recording)
    p, stats = prog(*BB_CALL_PROGRAMS[0]), []
    kinds = freed_without_the_collector(monkeypatch, lambda: stats.append(solve_bb(p)[1]))
    assert kinds["_Session"] == 1 and kinds["_Answers"] >= 3
    assert stats[0].iterations >= 1
    assert len(roots) == stats[0].iterations + 1
    assert len({root_id for root_id, _ in roots}) == 1  # one root store for every pass


def test_solve_bb_cuts_only_at_a_raised_bound(monkeypatch):
    # at the zero bound the cut raises nothing, so the first pass runs the
    # program itself and every later pass runs one cut
    observe_module = importlib.import_module("softcc.observe")
    original, programs = observe_module.run_all, []

    def recording(program, *args, **kwargs):
        programs.append(program)
        return original(program, *args, **kwargs)

    monkeypatch.setattr(observe_module, "run_all", recording)
    p = prog(*BB_CALL_PROGRAMS[0])
    _, stats = solve_bb(p)
    assert stats.iterations >= 1 and len(programs) == stats.iterations + 1
    assert programs[0] is p and all(q is not p for q in programs[1:])


def test_solve_bb_projects_each_store_it_tests_once(monkeypatch):
    # the stop test projects each success it meets onto the observed
    # variables, and the bound takes the accepted one's projection as it
    # is: solve_bb projects no store again.  The calls are counted per pass.
    observe_module = importlib.import_module("softcc.observe")
    original_run_all, original_project = observe_module.run_all, Store.project
    passes = []  # per pass: [stop tests, projections made by solve_bb itself]
    exploring = [False]  # inside run_all, outside its stop test

    def project(store, keep):
        if not exploring[0]:
            passes[-1][1] += 1
        return original_project(store, keep)

    def recording(program, limits, stop, **kwargs):
        def counted(store):
            passes[-1][0] += 1
            exploring[0] = False
            try:
                return stop(store)
            finally:
                exploring[0] = True

        passes.append([0, 0])
        exploring[0] = True
        try:
            return original_run_all(program, limits, stop=counted, **kwargs)
        finally:
            exploring[0] = False

    monkeypatch.setattr(Store, "project", project)
    monkeypatch.setattr(observe_module, "run_all", recording)
    _, stats = solve_bb(prog(*BB_CALL_PROGRAMS[0]))
    assert stats.iterations >= 1 and len(passes) == stats.iterations + 1
    for tests, projections in passes:
        assert tests >= 1
        assert projections == tests  # not again for the bound, nor to filter the records


def test_run_all_without_an_agent_is_an_error():
    p = parse_program(H)
    for session in (None, _Session(p.system)):
        with pytest.raises(EngineError, match="no agent to run"):
            run_all(p, _session=session)


def test_store_key_regimes():
    sysf = ConstraintSystem(FUZZY, ("a", "b"))
    small = Store(sysf).tell(
        sysf.diagonal("x", "y")
    )
    assert small.key()[0] == "pw"
    big = Store(sysf)
    from softcc import Constraint

    for i in range(13):  # 2^13 cells is past the pointwise comparison cap
        big = big.tell(Constraint(sysf, (f"v{i}",), {("a",): 0.9, ("b",): 0.8}))
    assert big.key()[0] == "fs"
    # pointwise-equal small stores built differently still collide
    t1 = Store(sysf).tell(sysf.constant(0.5))
    t2 = Store(sysf).tell(sysf.constant(0.7)).tell(sysf.constant(0.5))
    assert t1 == t2  # fuzzy: min(0.7, 0.5) = 0.5 pointwise


def test_store_key_counts_repeated_factors():
    # x is not idempotent here, so each tell of c lowers the store and no
    # state repeats.  Six variables over two atoms fit the pointwise key;
    # over five atoms (15625 cells) the store is keyed by its factors, and
    # c told twice must not look like c told once.
    for semiring in ("weighted", "probabilistic"):
        for domain in ("a, b", "a, b, c, d, e"):
            p = parse_program(
                f"semiring {semiring};\ndomain {{{domain}}};\n"
                "var x1, x2, x3, x4, x5, x6;\n"
                "constraint big(x1, x2, x3, x4, x5, x6) { (a, a, a, a, a, a) = 0.5; default = 0; }\n"
                "constraint c(x) { (a) = 0.5; (b) = 0.7; default = 0.6; }\n"
                "proc p(x) :: tell(c(x)) -> p(x);\n"
                "agent = tell(big) -> p(x1);\n"
            )
            res = run_one(p, limits=RunLimits(max_steps=50))
            assert (res.kind, res.steps) == ("bound_exceeded", 50), (semiring, domain)


def test_store_below_cut_matches_the_joint_table():
    # below_cut asks entailment first; it must agree with comparing the
    # joint table, in every semiring, on bounds above, below, equal to and
    # beside the store
    rng = random.Random("below-cut")
    verdicts = set()
    for system in small_systems():
        for _ in range(20):
            store = Store(system)
            for _ in range(rng.randrange(1, 4)):
                store = store.tell(rand_constraint(system, rng))
            joint = store.materialize()
            kept = tuple(v for v in joint.vars if rng.random() < 0.6)
            for phi in (
                rand_constraint(system, rng),
                project(joint, kept),
                oplus(project(joint, kept), rand_constraint(system, rng)),
                joint,
            ):
                want = strictly_below(joint, phi)
                assert Store(system, store.factors).below_cut(phi) == want
                assert store.entails(phi) == leqc(joint, phi)
                verdicts.add(want)
    assert verdicts == {True, False}


def _components(factors) -> list:
    """The variable sets of the factors' connected components."""
    comps = []
    for f in factors:
        vs = set(f.vars)
        for k in [k for k in comps if not vs.isdisjoint(k)]:
            comps.remove(k)
            vs |= k
        comps.append(vs)
    return comps


def test_store_components_answer_as_the_whole_store():
    # entailment and best level take each component that c does not touch
    # as its best level, from a table every store of one session shares;
    # they must agree with projecting the whole factor list, on stores of
    # 2-4 components grown by tells that change one component or merge two.
    # Off a session, as in iter_runs and run_one, a store projects whole.
    rng = random.Random("store-components")
    groups = (("p", "q"), ("r",), ("s", "t"), ("u",))
    checked = merged = split = 0
    for system in small_systems():
        s = system.semiring

        def con(vs):
            return _shaped(system, rng, vs, rng.choice(("dense", "zero", "nonzero")))

        plain = Store(system).tell(con(("p",))).tell(con(("r",)))
        assert plain._split(()) is None
        for _ in range(3):
            session = _Session(system)
            store = session.root
            for g in rng.sample(groups, rng.randrange(2, 5)):
                store = store.tell(con(g), _answers=session.answers)
            stores = [store]
            for _ in range(10):
                store = rng.choice(stores)
                comps = _components(store.factors)
                if len(comps) > 2 and rng.random() < 0.3:
                    a, b = rng.sample(comps, 2)
                    vs = (rng.choice(sorted(a)), rng.choice(sorted(b)))
                    merged += 1
                else:
                    g = sorted(rng.choice(comps))
                    vs = tuple(rng.sample(g, rng.randrange(1, len(g) + 1)))
                stores.append(store.tell(con(vs), _answers=session.answers))
            for store in stores:
                factors, comps = store.factors, _components(store.factors)
                assert 2 <= len(comps) <= 4
                assert store.blevel() == combine_project(factors, (), system).scalar()
                one, (a, b) = sorted(rng.choice(comps)), rng.sample(comps, 2)
                for c in (
                    con(("w",)),  # disjoint from the store
                    system.constant(s.sample(rng)),
                    con((rng.choice(one),)),  # touches one component
                    con((rng.choice(sorted(a)), rng.choice(sorted(b)))),  # touches two
                ):
                    want = leqc(combine_project(factors, c.vars, system), c)
                    split += store._split(c.vars) is not None
                    assert store.entails(c) == want
                    checked += 1
    assert merged > 10 and checked > 1000 and split > 300


def test_stores_told_alike_share_pointwise_answers():
    # tell sequences in permuted orders, from one session's root and through
    # its answers table as an exploration tells, give every store the key,
    # entailment and cut answers of the same fold from an unshared root and
    # of the dense joint table; stores told the same multiset share one
    # record, and repeats count where x is not idempotent.  A direct tell
    # shares no record
    rng = random.Random("shared-answers")
    for system in small_systems():
        session, idempotent = _Session(system), system.semiring.idempotent_times
        root = session.root

        def tell(store, c):
            return store.tell(c, _answers=session.answers)

        for _ in range(6):
            told = [rand_constraint(system, rng) for _ in range(rng.randrange(1, 5))]
            told += rng.sample(told, rng.randrange(0, 2))  # a repeat, now and then
            probes = [rand_constraint(system, rng) for _ in range(3)]
            finals = []
            for _ in range(3):
                order = rng.sample(told, len(told))
                shared, alone = root, Store(system)
                for i, c in enumerate(order, 1):
                    shared, alone = tell(shared, c), alone.tell(c)
                    joint = tensor_all(order[:i], system)
                    assert shared.key() == alone.key() == ("pw", joint.canonical_key())
                    for phi in probes + [project(joint, ("x",)), joint]:
                        assert shared.entails(phi) == alone.entails(phi) == leqc(joint, phi)
                        want = strictly_below(joint, phi)
                        assert shared.below_cut(phi) == alone.below_cut(phi) == want
                finals.append(shared)
                assert alone._ans.levels is None
            assert len({id(f._ans) for f in finals}) == 1  # one record for every order
            direct = root.tell(order[0])
            assert direct._ans is not tell(root, order[0])._ans and direct._ans.levels is None
        if not idempotent:
            c = rand_constraint(system, rng)
            once, twice = tell(root, c), tell(tell(root, c), c)
            assert once._ans is not twice._ans
            d = rand_constraint(system, rng)
            assert tell(tell(once, d), c)._ans is tell(twice, d)._ans
            assert tell(tell(root, d), c)._ans is not tell(twice, d)._ans


def test_wide_stores_told_alike_keep_their_own_factor_keys():
    # past the pointwise cap the key follows the factors, so two folding
    # orders of one multiset key apart, although they share their record
    sysf = ConstraintSystem(FUZZY, ("a", "b"))

    def con(*vs):
        rows = itertools.product("ab", repeat=len(vs))
        return Constraint(sysf, vs, {k: 0.5 + 0.1 * i for i, k in enumerate(rows)})

    a, b, c = con("x", "y"), con("y", "z"), con("y")
    wide = [con(f"v{i}") for i in range(12)]
    session = _Session(sysf)
    stores = []
    for order in ([a, b, c], [b, c, a]):
        store = session.root
        for t in wide + order:
            store = store.tell(t, _answers=session.answers)
        stores.append(store)
    s1, s2 = stores
    assert s1._ans is s2._ans and pointwise_eq(s1.materialize(), s2.materialize())
    assert {frozenset(f.vars) for f in s1.factors} == {frozenset(f.vars) for f in s2.factors}
    assert s1.key()[0] == s2.key()[0] == "fs" and s1.key() != s2.key()
    for s in stores:
        assert s.key() == ("fs", frozenset(Counter(f.canonical_key() for f in s.factors).items()))


def test_only_explorations_share_answers():
    p = prog("(tell(c(x)) -> stop || tell(c(y)) -> stop)", DEEP_EXTRA)
    for rec in list(iter_runs(p)) + [run_one(p)]:
        assert all(cfg.store._ans.levels is None for _, cfg in rec.trace)
    assert initial_configuration(p).store._ans.levels is None
    # every store of one exploration reads its session's one levels table
    levels = {id(cfg.store._ans.levels) for rec in run_all(p).records for _, cfg in rec.trace}
    assert len(levels) == 1 and id(None) not in levels


def test_session_stores_answer_as_plain_stores_do():
    # every store of an exploration answers through its session: a record
    # shared by the stores told alike, and its components' best levels from
    # the session's table.  The same factors outside a session project
    # whole, and the joint table decides the cut answers of both
    checked = Counter()
    for semiring in SEMIRINGS:
        for text, p in gen_cyclic_programs(f"cyclic-{semiring}", 4, semiring):
            for n in (6, 10):
                records = run_all(p, RunLimits(max_steps=n, max_fresh_vars=3)).records
                configs = [cfg for rec in records for _, cfg in rec.trace]
                told, cuts = {}, {}  # canonical key -> constraint
                for cfg in configs:
                    for node in walk(cfg.agent) if cfg.agent is not None else ():
                        if isinstance(node, (Tell, Ask)):
                            c = p.resolve(node.con)
                            told[c.canonical_key()] = c
                            if isinstance(node.threshold, Cut):
                                phi = p.threshold_constraint(node.threshold)
                                cuts[phi.canonical_key()] = phi
                for store in {id(cfg.store): cfg.store for cfg in configs}.values():
                    plain = Store(p.system, store.factors)
                    joint = plain.materialize()
                    assert store.blevel() == plain.blevel(), text
                    for c in told.values():
                        checked["split"] += store._split(c.vars) is not None
                        assert store.entails(c) == plain.entails(c), text
                    # a told constraint can equal the store: below_cut's key test
                    for phi in [*cuts.values(), *told.values()]:
                        want = strictly_below(joint, phi)
                        assert store.below_cut(phi) == plain.below_cut(phi) == want, text
                        checked[want] += 1
    assert checked["split"] > 30 and checked[True] > 30 and checked[False] > 30


def freed_without_the_collector(monkeypatch, explore):
    """Call explore() with the cycle collector off and drop its result:
    every session it made, the session's root store and answers table, and
    each record that table was given must be freed by reference counting
    alone, and a collection then finds no store, record or session.
    Returns how many objects of each kind were watched."""
    watched = []  # (kind, weak reference)

    def watch(obj):
        watched.append((type(obj).__name__, weakref.ref(obj)))

    class Answers(dict):  # watches each record it is given
        def __setitem__(self, key, record):
            watch(record)
            super().__setitem__(key, record)

    made = _Session.__init__

    def init(self, system):
        made(self, system)
        self.answers = Answers()
        for obj in (self, self.root, self.answers):
            watch(obj)

    monkeypatch.setattr(_Session, "__init__", init)
    gc.collect()
    gc.disable()
    try:
        result = explore()
        del result
        assert [kind for kind, ref in watched if ref() is not None] == []
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        assert [o for o in gc.garbage if isinstance(o, (Store, _Answers, _Session))] == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return Counter(kind for kind, _ in watched)


def check_trace_stores(seed, count) -> Counter:
    """Replay each trace of run_all, on ``count`` cyclic programs per
    semiring at two step bounds, off-session through the public step,
    taking the edge whose rule and agent match the next configuration.
    Each store along the trace must have the replayed store's key and best
    level, and pointwise equal the product of the constraints told along
    the trace, repeats included.  Returns the count of stores checked and
    of repeated tells."""
    checked, told_by = Counter(), {}  # id(store a tell returned) -> the constraint told
    plain_tell = Store.tell

    def tell(store, c, **kwargs):
        new = plain_tell(store, c, **kwargs)
        told_by[id(new)] = c
        return new

    # a cyclic program tells only on fresh variables, so never the same
    # constraint twice; the terminating programs repeat tells
    programs = gen_programs(seed, 4 * count)
    for semiring in SEMIRINGS:
        programs += gen_cyclic_programs(f"{seed}-{semiring}", count, semiring)
    for text, p in programs:
        for n in (6, 10):
            for rec in run_all(p, RunLimits(max_steps=n, max_fresh_vars=3)).records:
                cur, told = initial_configuration(p), []
                for rule, cfg in rec.trace:
                    told_by.clear()
                    Store.tell = tell
                    try:
                        edges = step(cur, p)
                    finally:
                        Store.tell = plain_tell
                    head = rule, cfg.kind, cfg.agent, cfg.fresh
                    [cur] = [e.target for e in edges if (e.rule, *e.target[:2], e.target.fresh) == head]
                    if rule in ("tell", "valued-tell", "eventual-tell"):
                        c = told_by[id(cur.store)]
                        checked["repeat"] += c.canonical_key() in {t.canonical_key() for t in told}
                        told.append(c)
                    store = cfg.store
                    assert store.key() == cur.store.key(), text
                    assert store.blevel() == cur.store.blevel(), text
                    assert pointwise_eq(store.materialize(), tensor_all(told, p.system)), text
                    checked["store"] += 1
    return checked


def test_stores_along_run_all_traces_are_their_told_products():
    # a larger draw runs as a CI step of its own
    checked = check_trace_stores("trace-stores", 3)
    assert checked["store"] > 400 and checked["repeat"] >= 5, checked


def check_determinate_confluence(seed, count) -> Counter:
    """On the choice-free programs among ``count`` generated ones (eventual
    thresholds, asks that may wait), every maximal run ends in one kind and
    one projection onto the observed variables: tells commute, and an
    entailed ask stays entailed.  Returns the count of programs checked per
    semiring, and of those with more than one run."""
    checked = Counter()
    for text, p in gen_programs(seed, count, eventual_only=True, allow_hang=True):
        if any(isinstance(node, Sum) for node in walk(p.main)):
            continue
        obs, ends = observation_vars(p), set()
        runs = list(iter_runs(p))
        for r in runs:
            ends.add((r.kind, r.store.project(obs).canonical_key()))
        assert len(ends) == 1, text
        checked[text.split(";")[0].split()[1]] += 1  # "semiring <name>;"
        checked["runs > 1"] += len(runs) > 1
    return checked


def test_determinate_programs_are_confluent():
    # a larger draw runs as a CI step of its own
    checked = check_determinate_confluence("determinate", 300)
    assert all(checked[s] >= 5 for s in SEMIRINGS) and checked["runs > 1"] >= 15, checked


def test_run_all_frees_its_stores_and_records(monkeypatch):
    # a record points at its session's levels table, which points at no
    # record, so nothing an exploration made waits for the cycle collector
    p = prog("(tell(c(x)) -> stop || tell(c(y)) -> stop)", DEEP_EXTRA)
    kinds = freed_without_the_collector(monkeypatch, lambda: run_all(p))
    assert kinds["_Session"] == kinds["Store"] == kinds["Answers"] == 1
    assert kinds["_Answers"] >= 3
    network = parse_program((ROOT / "fixtures" / "network.scc").read_text())
    kinds = freed_without_the_collector(monkeypatch, lambda: observe(network))
    assert kinds["_Session"] == 1 and kinds["_Answers"] > 50


def test_store_monotone_along_every_trace():
    extra = "constraint c(x) { (a) = 0.9; (b) = 0.4; }\n"
    programs = [
        prog("(tell(c(x)) -> stop || tell(const(0.5)) -> tell(diag(x, y)) -> stop)", extra),
        prog("ask(const(1)) -> tell(c(y)) -> stop + ask(const(1)) -> stop", extra),
    ]
    for p in programs:
        for rec in iter_runs(p):
            prev = None
            for _, cfg in rec.trace:
                cur = cfg.store.materialize()
                if prev is not None:
                    assert leqc(cur, prev)
                prev = cur


def kind_counts(records):
    out = {}
    for r in records:
        out[r.kind] = out.get(r.kind, 0) + r.paths
    return out


def test_iter_runs_agrees_with_run_all():
    extra = "constraint c(x) { (a) = 0.9; (b) = 0.4; }\nconstraint d(x) { (a) = 0.5; (b) = 0.7; }\n"
    chain = "ask(const(1)) -> tell(c(x)) -> tell(d(x)) -> stop"
    cases = [
        (prog("stop"), RunLimits()),
        (prog("(tell(c(x)) -> stop || tell(const(0.5)) -> stop)", extra), RunLimits()),
        (
            prog(
                "(ask(const(1)) -> tell(const(0.3)) -> stop"
                " + ask(const(1)) -> tell(const(0.7)) -> stop || tell(c(y)) -> stop)",
                extra,
            ),
            RunLimits(),
        ),
        (prog("tell(const(0.3)) -> ask(const(0.1)) -> stop"), RunLimits()),
        # runs that met an on-path repeat depend on the path, so their
        # configurations must not be reused from the memo on another path
        (
            prog(
                "( p(x) || p(y) )",
                "proc p(x) :: ask(const(1)) -> p(x) + ask(const(1)) -> stop;\n",
            ),
            RunLimits(),
        ),
        # the same configuration one step deeper meets the step bound
        (prog(f"{chain} + ask(const(1)) -> {chain}", extra), RunLimits(max_steps=4)),
    ]
    for p, limits in cases:
        assert_stop_matches_prefix(p, limits)


def assert_stop_matches_prefix(p, limits) -> List[int]:
    """run_all against iter_runs' list of runs: the same kind counts, and,
    stopped at each distinct success store, the counts of the runs up to
    and including its first.  Returns the stopping run counts."""
    listed = list(iter_runs(p, limits))
    res = run_all(p, limits)
    assert len(listed) == res.total_runs
    assert kind_counts(res.records) == kind_counts(listed)
    ends = []
    for target in {r.store for r in listed if r.kind == "success"}:
        end = 1 + next(i for i, r in enumerate(listed) if r.kind == "success" and r.store == target)
        res = run_all(p, limits, stop=lambda store: store == target)
        assert res.total_runs == end
        assert kind_counts(res.records) == kind_counts(listed[:end])
        ends.append(end)
    return ends


def test_run_all_stops_where_path_enumeration_meets_the_store():
    # every agent form, on- and off-path repeats and the step bound: each
    # stop ends the run count at the first run that reaches its store.
    # Successes are rare within nine steps; where two stores stop at
    # different runs, a stop that ignored its test would show
    stops, apart = 0, set()
    for semiring in SEMIRINGS:
        for text, p in gen_cyclic_programs(f"stop-prefix-4-{semiring}", 2, semiring):
            for n in range(1, 10):
                ends = assert_stop_matches_prefix(p, RunLimits(max_steps=n, max_fresh_vars=2))
                stops += len(ends)
                if len(set(ends)) > 1:
                    apart.add((semiring, text))
    assert stops > 10 and len(apart) >= 2, (stops, len(apart))


# -- the leaf memo against path enumeration -------------------------------

MEMO_EXTRA = (
    "constraint c(x) { (a) = 0.9; (b) = 0.4; }\n"
    "constraint d(x) { (a) = 0.5; (b) = 0.7; }\n"
    "constraint t(x) { (a) = 0.3; (b) = 0.2; }\n"
)
# procedures with cut thresholds: each bb pass unfolds p(x) to another body
BB_CALL_PROGRAMS = [
    (
        "( p(x) || tell(d(y)) ->[t] stop )",
        MEMO_EXTRA + "proc p(x) :: ask(const(1)) -> tell(c(x)) ->[t] p(x)"
        " + ask(const(1)) -> tell(d(x)) ->[t] stop;\n",
    ),
    (
        "( p(x) || ( p(x) || exists y . p(y) ) )",
        MEMO_EXTRA + "proc p(x) :: ask(const(1)) -> tell(c(x)) ->[t] stop"
        " + ask(const(1)) -> tell(d(x)) -> stop;\n",
    ),
]


def built_program(build):
    """A program whose main agent ``build`` assembles from the bodies of
    procedures a, b and w: an ask whose body is a choice has no concrete
    syntax."""
    p = prog(
        "stop",
        MEMO_EXTRA + "proc a() :: ask(const(1)) -> stop;\n"
        "proc b(y) :: tell(c(y)) -> stop;\n"
        "proc w(y) :: ask(c(y)) -> stop;\n",
    )
    p.main = build(*(p.decls[n].body for n in ("a", "b", "w")))
    return p


def run_classes(records):
    """Paths per (kind, final store key, blocked constraints)."""
    out = {}
    for r in records:
        blocked = tuple((c.vars, c.canonical_key()) for c in r.config.blocked) if r.config else ()
        key = (r.kind, r.store.key() if r.store is not None else None, blocked)
        out[key] = out.get(key, 0) + r.paths
    return out


def test_leaf_memo_agrees_with_path_enumeration():
    # each program meets one leaf at one store in components with different
    # fresh counters (one side runs under exists y), and the leaf's moves
    # lead into an exists that each component opens on its own counters: a
    # lifted move given the wrong counters shows up as a wrong store or
    # blocked constraint; the leaf's moves are reused across the components
    def twice(s):
        return Par(s, Exists("y", s))

    def guard(a, body):
        return Ask(a.con, a.threshold, body)

    programs = [
        # an ask body that opens exists, under a choice nested in an ask body
        built_program(lambda a, b, w: twice(Sum((a, guard(a, Sum((a, guard(a, Exists("y", b))))))))),
        # an ask body that opens ||
        built_program(lambda a, b, w: twice(Sum((a, guard(a, Par(Exists("y", b), Stop())))))),
        # a waiting ask under exists under an ask: it blocks on c(y#k)
        built_program(lambda a, b, w: twice(Sum((w, guard(a, Exists("y", w)))))),
        # procedure calls, reused across components and passes
        *(prog(*args) for args in BB_CALL_PROGRAMS),
        # ->^v level thresholds that fail, one leaf in two components
        prog(
            "( tell(c(x)) ->^0.6 stop || ( tell(d(x)) ->^0.6 stop || tell(d(x)) ->^0.6 stop ) )",
            MEMO_EXTRA,
        ),
    ]
    for p in programs:
        for limits in (RunLimits(), RunLimits(max_steps=5)):
            listed = list(iter_runs(p, limits))
            res = run_all(p, limits)
            assert res.total_runs == len(listed)
            assert run_classes(res.records) == run_classes(listed)
            obs = observation_vars(p)
            dk = oplus_all([r.store.project(obs) for r in listed if r.kind == "success"], p.system)
            assert pointwise_eq(observables_of(p, res).dk_solution, dk)
    for args in BB_CALL_PROGRAMS:
        p = prog(*args)
        psi, stats = solve_bb(p)
        assert pointwise_eq(psi, observe(p).dk_solution)
        assert stats == reference_bb(p, RunLimits())[1] and stats.iterations >= 1


def test_cyclic_programs_agree_with_path_enumeration():
    # recursion through exists, nested ||, choices that can hang and all
    # three threshold kinds, cut at every small step bound: on-path repeats,
    # step-bound cuts and fresh counters all decide what run_all memoises
    kinds = set()
    for semiring in SEMIRINGS:
        for text, p in gen_cyclic_programs(f"cyclic-{semiring}", 3, semiring):
            obs = observation_vars(p)
            for n in range(1, 10):
                limits = RunLimits(max_steps=n, max_fresh_vars=1)
                listed = list(iter_runs(p, limits))
                res = run_all(p, limits)
                assert res.total_runs == len(listed), (text, n)
                assert run_classes(res.records) == run_classes(listed), (text, n)
                dk = oplus_all([r.store.project(obs) for r in listed if r.kind == "success"], p.system)
                assert pointwise_eq(observables_of(p, res).dk_solution, dk), (text, n)
                kinds.update(r.kind for r in listed)
    assert kinds == {"success", "fail", "hang", "divergent", "bound_exceeded"}


def exact_slice_text(rng, semiring):
    """``( chain of 3 || chain of 2 )`` of ``tell(const(v))``: probabilistic
    values are odd multiples of 0.05, so five factors land on a half-way
    point of the old 1e-9 grid, and weighted values are two-decimal costs."""

    def value():
        if semiring == "probabilistic":
            return f"{rng.randrange(1, 20, 2) * 5 / 100:.2f}"
        return f"{rng.randrange(0, 1000) / 100:.2f}"

    def chain(n):
        return " -> ".join(f"tell(const({value()}))" for _ in range(n)) + " -> stop"

    return (
        f"semiring {semiring};\ndomain {{a, b}};\nvar x;\n"
        f"agent = ( {chain(3)} || {chain(2)} );\n"
    )


def test_run_classes_agree_on_two_decimal_values():
    # every interleaving folds one multiset of exact values, so the merged
    # exploration and path enumeration see one store; floats gave two
    # orders of one product different bits, and run_all merged what
    # iter_runs kept apart
    rng = random.Random("exact-slice")
    for i in range(300):
        text = exact_slice_text(rng, ("probabilistic", "weighted")[i % 2])
        p = parse_program(text)
        assert run_classes(run_all(p).records) == run_classes(iter_runs(p)), text
    p = parse_program(
        "semiring probabilistic;\ndomain {a, b};\nvar x;\n"
        "agent = ( tell(const(0.15)) -> tell(const(0.15)) -> tell(const(0.15)) -> stop"
        " || tell(const(0.35)) -> tell(const(0.55)) -> stop );\n"
    )
    (rec,) = run_all(p).records
    assert rec.kind == "success" and rec.paths == 25
    assert run_classes(iter_runs(p)) == {("success", rec.store.key(), ()): 25}
    assert rec.store.blevel() == Decimal("0.0006496875")


def test_descending_probabilistic_store_is_not_a_loop():
    # 0.9**n and 0.8**n fall forever; on the old grid they rounded to one
    # point after 360 steps and the run was reported divergent there
    p = prog(
        "p(x)",
        "constraint c(x) { (a) = 0.9; (b) = 0.8; }\nproc p(x) :: tell(c(x)) -> p(x);\n",
        "semiring probabilistic;\ndomain {a, b};\nvar x;\n",
    )
    limits = RunLimits(max_steps=1000)
    one = run_one(p, "leftmost", limits=limits)
    assert one.kind == "bound_exceeded" and one.steps == 1000
    (rec,) = run_all(p, limits).records
    assert rec.kind == "bound_exceeded" and rec.paths == 1
    assert one.trace[-1][1].store.blevel() == Decimal(f"{9 ** 500}e-500")  # 500 tells


# -- scheduling policies -------------------------------------------------


def test_run_one_leftmost_is_deterministic():
    p = prog(
        "ask(const(1)) -> tell(const(0.3)) -> stop"
        " + ask(const(1)) -> tell(const(0.7)) -> stop"
    )
    a = run_one(p, "leftmost")
    b = run_one(p, "leftmost")
    assert rules_of(a) == rules_of(b)
    assert a.store.blevel() == pytest.approx(0.3)  # first branch wins


def test_run_one_random_is_seed_reproducible():
    p = prog(
        "(tell(const(0.3)) -> stop || tell(const(0.7)) -> tell(const(0.2)) -> stop)"
    )
    a = run_one(p, "random", seed=5)
    b = run_one(p, "random", seed=5)
    assert [r for r, _ in a.trace] == [r for r, _ in b.trace]
    assert a.kind == b.kind == "success"
    seqs = {tuple(rules_of(run_one(p, "random", seed=s))) for s in range(20)}
    assert len(seqs) > 1  # different seeds do schedule differently


def follow_first_edges(program, limits=RunLimits()):
    """run_one's leftmost policy as its definition: follow the first edge
    of the full step."""
    cfg = initial_configuration(program)
    seen, trace = {cfg}, []
    while len(trace) < limits.max_steps:
        edge = step(cfg, program)[0]
        cfg = edge.target
        trace.append((edge.rule, cfg))
        if cfg.kind != "running":
            return cfg.kind, cfg, trace
        if cfg in seen:
            return "divergent", None, trace
        if cfg.fresh_total() > limits.max_fresh_vars:
            return "bound_exceeded", None, trace
        seen.add(cfg)
    return "bound_exceeded", None, trace


def fixture_programs():
    """The fixtures that parse and have an agent."""
    out = []
    for path in sorted((ROOT / "fixtures").glob("*.scc")):
        try:
            p = parse_program(path.read_text())
        except ProgramError:
            continue
        if p.main is not None:
            out.append(p)
    return out


def test_run_one_leftmost_follows_the_first_edge():
    programs = [p for _, p in gen_programs(7, 40)] + fixture_programs()
    programs += [walk_program(semiring, body) for semiring in sorted(WALK_VALUES) for body in WALK_AGENTS]
    programs += [prog(body, DEEP_EXTRA) for body in ("( stop || " * 50 + "stop" + " )" * 50, DEEP_EXISTS)]
    limits = RunLimits(max_steps=60, max_fresh_vars=20_000)
    for p in programs:
        one = run_one(p, "leftmost", limits=limits)
        assert (one.kind, one.config, list(one.trace)) == follow_first_edges(p, limits)


def test_run_one_policy_validation():
    p = prog("stop")
    with pytest.raises(EngineError):
        run_one(p, "random")  # no seed
    with pytest.raises(EngineError):
        run_one(p, "fastest")


# -- deep programs: no walker recurses once per agent node ---------------


def tell_chain(links):
    return " -> ".join(["tell(c(x))"] * links)


DEEP_EXTRA = "constraint c(x) { (a) = 0.5; (b) = 0.7; }\n"


def test_long_arrow_chain_parses_prints_and_runs():
    p = prog(tell_chain(10_000) + " -> stop", DEEP_EXTRA)
    text = pretty_program(p)
    assert text.count("tell(c(x)) ->") == 10_000
    again = parse_program(text)
    assert again.main is p.main  # interned: the same object
    assert pretty_program(again) == text
    one = run_one(p)
    assert one.kind == "success" and one.steps == 10_001
    result = run_all(p)
    assert single(result, "success").paths == 1
    assert result.total_runs == 1


def test_run_all_trace_is_linear_in_depth():
    # records share their trace tails, so run_all is not quadratic in depth
    p = prog(tell_chain(10_000) + " -> stop", DEEP_EXTRA)
    rec = single(run_all(p), "success")
    assert rec.steps == 10_001 and rec.trace == run_one(p).trace

    def best_of_3(links):
        q = prog(tell_chain(links) + " -> stop", DEEP_EXTRA)
        times = []
        for _ in range(3):
            # the cyclic collector's passes grow with the live objects, which
            # adds a superlinear term that is not run_all's own
            gc.disable()
            try:
                start = time.perf_counter()
                run_all(q)
                times.append(time.perf_counter() - start)
            finally:
                gc.enable()
        return min(times)

    assert best_of_3(20_000) <= 8 * best_of_3(5_000)


def test_deep_recursive_proc_is_divergent():
    p = prog("p(y)", DEEP_EXTRA + f"proc p(x) :: {tell_chain(2000)} -> p(x);\n")
    assert run_one(p).kind == "divergent"
    result = run_all(p)
    assert [r.kind for r in result.records] == ["divergent"]


DEEP_PAR = "( stop || " * 10_000 + "stop" + " )" * 10_000
DEEP_EXISTS = "exists x . " * 10_000 + "tell(c(x)) -> stop"
# only the innermost stop can move; then every sibling waits
DEEP_WAITING = "( ask(c(x)) -> stop || " * 10_000 + "stop" + " )" * 10_000


def test_deep_nesting_parses_and_prints():
    for body, head in ((DEEP_PAR, "Par(left=Stop(), right=Par("), (DEEP_EXISTS, "Exists(var='x'")):
        p = prog(body, DEEP_EXTRA)
        assert parse_program(pretty_program(p)).main is p.main
        assert repr(p.main).startswith(head)


def test_deep_exists_opens_in_one_step():
    p = prog(DEEP_EXISTS, DEEP_EXTRA)
    limits = RunLimits(max_fresh_vars=20_000)
    one = run_one(p, limits=limits)
    assert one.kind == "success" and rules_of(one) == ["eventual-tell", "stop"]
    assert one.trace[0][1].fresh == (("x", 10_000),)
    result = run_all(p, limits)
    assert single(result, "success").paths == 1
    assert result.total_runs == 1


def test_deep_waiting_siblings_hang():
    p = prog(DEEP_WAITING, DEEP_EXTRA)
    one = run_one(p)
    assert one.kind == "hang" and rules_of(one) == ["stop", "quiescence"]
    assert len(one.config.blocked) == 10_000
    result = run_all(p)
    assert single(result, "hang").paths == 1
    assert result.total_runs == 1


# -- the step walk against the recursive definition ----------------------


@dataclass
class RefMove:
    rule: str
    kind: str  # run | success | fail
    agent: Optional[Agent]
    store: Store
    fresh: Dict[str, int]
    pruned: bool = False


def reference_moves(agent: Agent, store: Store, fresh: Dict[str, int], program: Program):
    """The transition rules as one recursive case analysis: (moves, hang-candidates)."""
    if isinstance(agent, Stop):
        return [RefMove("stop", "success", None, store, fresh)], []

    if isinstance(agent, Tell):
        c = program.resolve(agent.con)
        new = store.tell(c)
        t = agent.threshold
        if isinstance(t, Eventual):
            return [RefMove("eventual-tell", "run", agent.body, new, fresh)], []
        if isinstance(t, Level):
            s = store.system.semiring
            if s.lt(new.blevel(), t.value):
                return [RefMove("valued-tell-fail", "fail", None, store, fresh)], []
            return [RefMove("valued-tell", "run", agent.body, new, fresh)], []
        phi = program.threshold_constraint(t)
        if new.below_cut(phi):
            return [RefMove("tell-fail", "fail", None, store, fresh, pruned=t.raised)], []
        return [RefMove("tell", "run", agent.body, new, fresh)], []

    if isinstance(agent, Ask):
        c = program.resolve(agent.con)
        t = agent.threshold
        if isinstance(t, Level):
            s = store.system.semiring
            if s.lt(store.blevel(), t.value):
                return [RefMove("valued-ask-fail", "fail", None, store, fresh)], []
            if store.entails(c):
                return [RefMove("valued-ask", "run", agent.body, store, fresh)], []
            return [], [("valued-ask-hang", c)]
        if isinstance(t, Cut):
            phi = program.threshold_constraint(t)
            if store.below_cut(phi):
                return [RefMove("ask-fail", "fail", None, store, fresh, pruned=t.raised)], []
            if store.entails(c):
                return [RefMove("ask", "run", agent.body, store, fresh)], []
            return [], [("ask-hang", c)]
        if store.entails(c):
            return [RefMove("eventual-ask", "run", agent.body, store, fresh)], []
        return [], [("eventual-ask-hang", c)]

    if isinstance(agent, Sum):
        proceeds: List[RefMove] = []
        fails: List[RefMove] = []
        hangs = []
        for b in agent.branches:
            m, h = reference_moves(b, store, fresh, program)
            for mv in m:
                (proceeds if mv.kind == "run" else fails).append(mv)
            hangs.extend(h)
        if proceeds:
            return proceeds, []
        if not hangs:
            pruned = any(mv.pruned for mv in fails)
            return [RefMove("choice-fail", "fail", None, store, fresh, pruned=pruned)], []
        return [], [("choice-hang", c) for _, c in hangs]

    if isinstance(agent, Par):
        out: List[RefMove] = []
        hangs = []
        for i, (side, other) in enumerate(((agent.left, agent.right), (agent.right, agent.left))):
            moves, waiting = reference_moves(side, store, fresh, program)
            hangs += waiting
            for mv in moves:
                if mv.kind == "success":  # continue as the other side
                    mv = RefMove(mv.rule, "run", other, mv.store, mv.fresh)
                elif mv.kind == "run":
                    pair = (mv.agent, other) if i == 0 else (other, mv.agent)
                    mv = RefMove(mv.rule, "run", Par(*pair), mv.store, mv.fresh)
                out.append(mv)
        return out, hangs

    if isinstance(agent, Exists):
        base = agent.var
        k = fresh.get(base, 0)
        y = f"{base}#{k}"
        bumped = dict(fresh)
        bumped[base] = k + 1
        inner = substitute(agent.body, {base: y})
        return reference_moves(inner, store, bumped, program)

    if isinstance(agent, Call):
        d = program.decls[agent.name]
        body = substitute(d.body, dict(zip(d.params, agent.args)))
        return [RefMove("call", "run", body, store, fresh)], []

    raise EngineError(f"not an agent: {agent!r}")


def assert_step_matches_reference(cfg, program, ctx):
    """Compare step with the reference at cfg, without a context and with
    ``ctx``, an exploration context as run_all keeps one: its state table
    numbers each edge's target, a different number for each edge.  Returns
    the edges taken with ``ctx``."""
    moves, hangs = reference_moves(cfg.agent, cfg.store, dict(cfg.fresh), program)
    want = []
    for mv in moves:
        kind = "running" if mv.kind == "run" else mv.kind
        target = Configuration(kind, mv.agent, mv.store, tuple(sorted(mv.fresh.items())))
        if target not in [t for _, t, _ in want]:
            want.append((mv.rule, target, mv.pruned))
    in_ctx, nums = step(cfg, program, _ctx=ctx)
    assert len(set(nums)) == len(nums) == len(in_ctx)
    assert all(ctx.cfgs[n] == e.target for e, n in zip(in_ctx, nums))
    for edges in (step(cfg, program), in_ctx):
        if want:
            assert [(e.rule, e.target, e.pruned) for e in edges] == want
            continue
        assert len(edges) == 1 and edges[0].target.kind == "hang"
        assert edges[0].rule == (hangs[0][0] if len(hangs) == 1 else "quiescence")
        assert edges[0].target.blocked == tuple(c for _, c in hangs)
    return in_ctx


def assert_walk_matches_reference(program, limits=RunLimits(max_steps=60)):
    """Compare step with the reference on every configuration reachable
    within the limits: the configurations iter_runs meets, each once.  One
    context serves the whole walk from its session's root, so leaves met
    again at a store, and calls and binders met again anywhere, are looked
    up, and stores told alike share their records, as in run_all."""
    ctx = _Context(_Session(program.system))
    init = initial_configuration(program)._replace(store=ctx.session.root)
    seen, todo = {init}, [(init, 0)]
    while todo:
        cfg, depth = todo.pop()
        for e in assert_step_matches_reference(cfg, program, ctx):
            nxt = e.target
            if nxt.kind == "running" and nxt not in seen and depth + 1 < limits.max_steps:
                if nxt.fresh_total() <= limits.max_fresh_vars:
                    seen.add(nxt)
                    todo.append((nxt, depth + 1))
    return len(seen)


# per semiring: two values for table rows, a level between them, and zero
WALK_VALUES = {
    "fuzzy": ("0.9", "0.4", "0.5", "0"),
    "probabilistic": ("0.9", "0.4", "0.5", "0"),
    "weighted": ("1", "5", "3", "inf"),
    "boolean": ("true", "false", "true", "false"),
}

WALK_AGENTS = [
    # nested parallel composition, all three threshold kinds
    "( tell(c(x)) -> stop || ( ask(c(x)) ->^L tell(d(y)) -> stop || tell(d(z)) ->[cz] stop ) )",
    "( ( tell(c(x)) ->^L stop || ask(c(x)) ->[cz] stop ) || ( tell(d(y)) -> stop || stop ) )",
    # sibling binders draw the same fresh name, each on its own side
    "( exists y . tell(c(y)) -> ask(c(y)) -> stop || exists y . tell(d(y)) -> stop )",
    # shadowing binders, directly nested and across a parallel composition
    "exists x . exists x . tell(e(x, y)) -> stop",
    "exists x . exists y . exists x . ( tell(e(x, y)) -> stop || exists y . tell(e(y, x)) -> stop )",
    "exists x . ( tell(c(x)) -> stop || exists x . ( tell(d(x)) -> stop || exists z . tell(e(z, x)) -> stop ) )",
    # choices whose branches fire, fail or hang
    "( ask(c(x)) ->^L stop + ask(d(y)) -> stop || tell(c(x)) -> tell(d(y)) -> stop )",
    "ask(d(x)) ->^H stop + ask(c(x)) ->^H stop",
    "( tell(c(x)) -> stop || ask(g(x)) -> stop + ask(g(y)) ->[cz] stop )",
    "( ask(c(x)) ->^H stop + ask(c(x)) ->[cz] stop || tell(d(x)) ->^H stop )",
    "( ask(g(x)) -> stop || ( ask(g(y)) ->^L stop || ask(g(z)) ->[cz] stop ) )",
    "( tell(g(x)) -> stop || ask(c(x)) ->^L stop + ask(d(x)) ->^L stop )",
    "( tell(g(x)) ->[ch] stop || ask(c(x)) ->[ch] stop + ask(g(y)) ->^L stop )",
    "( tell(g(x)) ->^H stop || ( ask(g(y)) ->^L stop || tell(g(z)) -> stop ) )",
    "( tell(g(x)) -> stop || ask(g(y)) ->^L stop )",
    "( tell(g(x)) -> stop || ask(c(y)) ->[ch] stop )",
    "( tell(g(x)) ->^Z stop || ask(c(x)) -> stop + ask(d(x)) -> stop )",
    "ask(g(x)) -> stop",
    "ask(g(x)) ->^L stop",
    "ask(g(x)) ->[cz] stop",
    # calls, recursive and under binders
    "( p(x) || exists z . p(z) )",
    "( q(x) || tell(d(x)) -> stop )",
]


def walk_program(semiring, body):
    hi, lo, level, zero = WALK_VALUES[semiring]
    text = (
        f"semiring {semiring};\ndomain {{a, b}};\nvar x, y, z;\n"
        f"constraint c(x) {{ (a) = {hi}; (b) = {lo}; }}\n"
        f"constraint d(x) {{ (a) = {lo}; (b) = {hi}; }}\n"
        f"constraint g(x) {{ (a) = {lo}; (b) = {lo}; }}\n"
        f"constraint e(x, y) {{ (a, a) = {hi}; default = {lo}; }}\n"
        f"constraint cz(x) {{ (a) = {zero}; (b) = {zero}; }}\n"
        f"constraint ch(x) {{ (a) = {hi}; (b) = {hi}; }}\n"
        f"proc p(x) :: tell(c(x)) -> ask(c(x)) ->^L stop;\n"
        f"proc q(x) :: ask(c(x)) -> q(x) + ask(d(x)) -> tell(c(x)) -> stop;\n"
        f"agent = {body};\n"
    )
    for mark, value in (("^L", level), ("^H", hi), ("^Z", zero)):
        text = text.replace(mark, "^" + value)
    return parse_program(text)


@pytest.mark.parametrize("semiring", sorted(WALK_VALUES))
def test_step_walk_matches_reference_by_hand(semiring):
    for body in WALK_AGENTS:
        p = walk_program(semiring, body)
        assert_walk_matches_reference(p)
        # cut at one, every threshold is raised, so failures carry pruned
        assert_walk_matches_reference(cut_program(p, p.system.constant(p.semiring.one)))


def test_step_walk_matches_reference_on_generated_programs():
    for _, p in gen_programs(7, 40):
        assert_walk_matches_reference(p)


def test_step_walk_matches_reference_on_cyclic_programs():
    # recursive procs open an exists in their bodies, so run_all's unfold
    # memo meets each call and binder again, at other stores and counters
    for semiring in SEMIRINGS:
        for _, p in gen_cyclic_programs(f"walk-{semiring}", 3, semiring):
            assert_walk_matches_reference(p, RunLimits(max_steps=20))


def test_step_walk_matches_reference_on_fixtures():
    for p in fixture_programs():
        assert_walk_matches_reference(p)
