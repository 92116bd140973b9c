"""Small-step execution: rules, interleaving, termination verdicts."""

import gc
import importlib
import pathlib
import random
import sys
import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional

import pytest
from genprog import gen_programs
from test_constraints import rand_constraint, small_systems
from test_observe import reference_bb

from softcc import (
    Configuration,
    Constraint,
    EngineError,
    FUZZY,
    RunLimits,
    Store,
    ConstraintSystem,
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
    run_all,
    run_one,
    solve_bb,
    step,
    strictly_below,
    tensor_all,
)
from softcc import constraints
from softcc.lang import (
    Agent,
    Ask,
    Call,
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
    res = run_all(prog("loop()", extra), RunLimits(max_steps=100_000, max_fresh_vars=5))
    kinds = {r.kind for r in res.records}
    assert kinds == {"bound_exceeded"}


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
            # one projection cache per store, keyed by the set kept
            keep = rng.sample(("w", "x", "y", "z"), rng.randrange(0, 5))
            assert pointwise_eq(store.project(keep), project(joint, keep))
            assert store.project(keep) is store.project(tuple(reversed(keep)))
            assert store.materialize() is store.project(store.vars())


def test_store_tells_are_memoised():
    sysf = ConstraintSystem(FUZZY, ("a", "b"))
    s = Store(sysf)
    c = sysf.constant(0.5)
    assert s.tell(c) is s.tell(c)
    s1 = s.tell(c)
    assert s1.tell(c) is s1  # the idempotent re-tell comes before the memo
    # the memo holds its results weakly: nothing outlives the last holder
    gone = weakref.ref(s.tell(sysf.constant(0.7)))
    gc.collect()
    assert gone() is None
    assert s.tell(sysf.constant(0.7)).blevel() == pytest.approx(0.7)


def test_store_memo_matches_a_fresh_fold():
    # tells from a pool, repeated from the same stores, give what a store
    # with an empty memo computes; the pool holds copies of one function
    # under a permuted variable tuple, which fold to different factors
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
        assert store.tell(c) is got
        store = got
    assert store.key()[0] == "fs"


def count_tensor_calls(monkeypatch):
    """Count calls of constraints.tensor under every name softcc binds it to."""
    calls = [0]
    original = constraints.tensor

    def counted(*args):
        calls[0] += 1
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "softcc" or name.startswith("softcc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_observe_on_the_network_fixture_reuses_store_transitions(monkeypatch):
    # every interleaving tells onto the same stores; the memo makes each
    # distinct (store, constraint) tell once.  The work is counted, not timed.
    calls = count_tensor_calls(monkeypatch)
    p = parse_program((ROOT / "fixtures" / "network.scc").read_text())
    got = observe(p)
    assert got.result.expansions == 526
    assert calls[0] <= 400  # 807 when every interleaving recomputed its tells


def test_solve_bb_on_the_network_fixture_passes_warm_stores(monkeypatch):
    # the second pass re-tells onto the stores the first pass reached, kept
    # alive by the session.  The work is counted, not timed.
    calls = count_tensor_calls(monkeypatch)
    p = parse_program((ROOT / "fixtures" / "network.scc").read_text())
    _, stats = solve_bb(p)
    assert (stats.iterations, stats.runs_explored) == (1, 1_220_424_505)
    assert calls[0] <= 1_000  # 1,116 when every pass started from a cold root store


def test_solve_bb_frees_its_session_stores(monkeypatch):
    observe_module = importlib.import_module("softcc.observe")
    original = observe_module.run_all
    roots = []

    def recording(*args, _session, **kwargs):
        roots.append((id(_session.root), weakref.ref(_session.root)))
        return original(*args, _session=_session, **kwargs)

    monkeypatch.setattr(observe_module, "run_all", recording)
    _, stats = solve_bb(prog(*BB_CALL_PROGRAMS[0]))
    assert stats.iterations >= 1
    assert len(roots) == stats.iterations + 1
    assert len({root_id for root_id, _ in roots}) == 1  # one root store for every pass
    gc.collect()
    assert roots[0][1]() is None


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
        listed = list(iter_runs(p, limits))
        res = run_all(p, limits)
        assert len(listed) == res.total_runs
        assert kind_counts(res.records) == kind_counts(listed)
        # stopped at a success, run_all counts the runs met up to it
        for target in {r.store for r in listed if r.kind == "success"}:
            end = 1 + next(i for i, r in enumerate(listed) if r.kind == "success" and r.store == target)
            res = run_all(p, limits, stop=lambda store: store == target)
            assert res.total_runs == end
            assert kind_counts(res.records) == kind_counts(listed[:end])


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
            start = time.perf_counter()
            run_all(q)
            times.append(time.perf_counter() - start)
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


def assert_step_matches_reference(cfg, program):
    moves, hangs = reference_moves(cfg.agent, cfg.store, dict(cfg.fresh), program)
    want = []
    for mv in moves:
        kind = "running" if mv.kind == "run" else mv.kind
        target = Configuration(kind, mv.agent, mv.store, tuple(sorted(mv.fresh.items())))
        if target not in [t for _, t, _ in want]:
            want.append((mv.rule, target, mv.pruned))
    edges = step(cfg, program)
    if want:
        assert [(e.rule, e.target, e.pruned) for e in edges] == want
        return
    assert len(edges) == 1 and edges[0].target.kind == "hang"
    assert edges[0].rule == (hangs[0][0] if len(hangs) == 1 else "quiescence")
    assert edges[0].target.blocked == tuple(c for _, c in hangs)


def assert_walk_matches_reference(program, limits=RunLimits(max_steps=60)):
    """Compare step with the reference on every configuration reachable
    within the limits: the configurations iter_runs meets, each once."""
    init = initial_configuration(program)
    seen, todo = {init}, [(init, 0)]
    while todo:
        cfg, depth = todo.pop()
        assert_step_matches_reference(cfg, program)
        for e in step(cfg, program):
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


def test_step_walk_matches_reference_on_fixtures():
    for p in fixture_programs():
        assert_walk_matches_reference(p)
