"""The scc command line: commands, formats, exit codes."""

import contextlib
import errno
import hashlib
import io
import json
import os
import pathlib
import random
import re
import resource
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal

import pytest
from genprog import SEMIRINGS, gen_cyclic_program_text, gen_program_text

from softcc import PROBABILISTIC, WEIGHTED, cli, value_json
from softcc.lang import format_value

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

CHOICE = (
    "semiring fuzzy;\n"
    "domain {a, b};\n"
    "var x;\n"
    "constraint low(x) { (a) = 0.2; (b) = 0.1; }\n"
    "constraint high(x) { (a) = 0.9; (b) = 0.8; }\n"
    "agent = ask(const(1)) -> tell(low(x)) -> stop"
    " + ask(const(1)) -> tell(high(x)) -> stop;\n"
)


def write(tmp_path, text, name="prog.scc"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def arrow_chain(links):
    return (
        "semiring fuzzy;\ndomain {a, b};\nvar x;\n"
        "constraint c(x) { (a) = 0.5; (b) = 0.7; }\n"
        "agent = " + " -> ".join(["tell(c(x))"] * links) + " -> stop;\n"
    )


# -- check ---------------------------------------------------------------


def test_check_ok(capsys):
    code, out, err = run_main(capsys, "check", str(FIXTURES / "fig1.scc"))
    assert code == 0
    assert out.strip() == "ok"
    assert err == ""


def test_check_long_arrow_chain(tmp_path, capsys):
    # the parser reads arrow chains in a loop, not one frame per link
    code, out, err = run_main(capsys, "check", write(tmp_path, arrow_chain(600)))
    assert (code, out.strip(), err) == (0, "ok", "")


def run_subprocess(*args, timeout=None, stdout=subprocess.PIPE, preexec_fn=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "softcc.cli", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


def test_run_long_arrow_chain(tmp_path):
    got = run_subprocess("run", write(tmp_path, arrow_chain(10_000)))
    assert got.returncode == 0, got.stderr
    assert got.stdout.startswith("terminal: success")


def test_run_recursive_weighted_tell_reaches_the_step_limit(tmp_path):
    # every tell folds into the one factor over x, so each step costs the
    # same and the run gets to its step limit instead of slowing down
    text = (
        "semiring weighted;\ndomain {a, b};\nvar x;\n"
        "constraint c(x) { (a) = 1; (b) = 2; }\n"
        "proc p(x) :: tell(c(x)) -> p(x);\nagent = p(x);\n"
    )
    got = run_subprocess("run", write(tmp_path, text), "--max-steps", "20000", timeout=60)
    assert got.returncode == 4, got.stderr
    assert got.stdout.startswith("terminal: bound_exceeded")
    assert "Traceback" not in got.stderr


def test_run_descending_probabilistic_store_reaches_the_step_limit(tmp_path, capsys):
    # 0.9**n and 0.8**n fall at every tell, so no store repeats and the run
    # is not a loop; rounded to a grid they met after 360 steps (exit 3)
    text = (
        "semiring probabilistic;\ndomain {a, b};\nvar x;\n"
        "constraint c(x) { (a) = 0.9; (b) = 0.8; }\n"
        "proc p(x) :: tell(c(x)) -> p(x);\nagent = p(x);\n"
    )
    code, out, err = run_main(capsys, "run", write(tmp_path, text), "--max-steps", "1000")
    assert code == 4, err
    assert out.startswith("terminal: bound_exceeded\nsteps: 1000\n")


def test_no_value_prints_as_another(tmp_path, capsys):
    # a cost past the largest float is not the zero cost inf, and a
    # probability below the smallest float is not the zero probability 0
    for semiring, first, second, shown in (
        ("weighted", "1e308", "1e308", "2" + "0" * 308),
        ("probabilistic", "1e-200", "3e-200", "3e-400"),
    ):
        text = (
            f"semiring {semiring};\ndomain {{a, b}};\nvar x;\n"
            f"agent = tell(const({first})) -> tell(const({second})) -> stop;\n"
        )
        path = write(tmp_path, text)
        zero = "inf" if semiring == "weighted" else "0"
        code, out, _ = run_main(capsys, "run", path)
        assert code == 0 and f"store: (): ()={shown} default={zero}\n" in out
        code, out, _ = run_main(capsys, "run", "--format", "json", path)
        store = json.loads(out)["final_store"]
        assert store["rows"] == [{"assignment": [], "value": shown}]
        assert store["default"] == ("inf" if semiring == "weighted" else 0.0)


def test_number_literals_are_read_exactly(tmp_path, capsys):
    # a literal is not rounded to a float on its way in: 1e-400 is not the
    # zero probability, and a level a hair above 0.5 is not 0.5
    head = "semiring probabilistic;\ndomain {a};\nvar x;\n"
    for agent in (
        "tell(const(1e-400)) ->^1e-399 stop",
        "tell(const(0.5)) ->^0.5000000000000000001 stop",
    ):
        code, out, err = run_main(capsys, "run", write(tmp_path, f"{head}agent = {agent};\n"))
        assert code == 2 and out.startswith("terminal: fail\n"), (agent, out, err)
    path = write(tmp_path, f"{head}agent = tell(const(0.1000000000000000000001)) -> stop;\n")
    code, out, _ = run_main(capsys, "run", path)
    assert code == 0 and "store: (): ()=0.1000000000000000000001\n" in out
    code, out, _ = run_main(capsys, "run", "--format", "json", path)
    assert json.loads(out)["final_store"]["rows"] == [
        {"assignment": [], "value": "0.1000000000000000000001"}
    ]


def test_values_print_exactly():
    # text reads back as the value itself; JSON writes a number where its
    # float reads back as the value, and the text otherwise
    rng = random.Random(9)
    numbers = texts = 0
    for s in (PROBABILISTIC, WEIGHTED):
        for _ in range(2000):
            v = s.sample(rng)
            for _ in range(rng.randrange(4)):
                v = s.combine(v, s.sample(rng))
            text, js = format_value(v), value_json(v)
            if text == "inf":
                assert v == s.zero and js == "inf"
                continue
            assert Decimal(text) == v, (v, text)
            if isinstance(js, float):
                assert Decimal(repr(js)) == v and float(text) == js
                numbers += 1
            else:
                assert js == text
                texts += 1
    assert numbers > 500 and texts > 500


def test_too_deep_program_is_a_clean_error(tmp_path):
    # nesting depth is bounded by no recursion limit: 2,000 nested
    # ( stop || … ) check ok
    text = (
        "semiring fuzzy;\ndomain {a, b};\nvar x;\n"
        "agent = " + "(stop || " * 2000 + "stop" + ")" * 2000 + ";\n"
    )
    got = run_subprocess("check", write(tmp_path, text))
    assert (got.returncode, got.stdout.strip(), got.stderr) == (0, "ok", "")
    # 10,000 waiting siblings: only the innermost stop moves, then all hang
    text = (
        "semiring fuzzy;\ndomain {a, b};\nvar x;\n"
        "constraint c(x) { (a) = 0.5; (b) = 0.7; }\n"
        "agent = " + "( ask(c(x)) -> stop || " * 10_000 + "stop" + " )" * 10_000 + ";\n"
    )
    got = run_subprocess("run", write(tmp_path, text), timeout=120)
    assert got.returncode == 3, got.stderr
    assert got.stdout.startswith("terminal: hang")
    assert "Traceback" not in got.stderr


def test_run_deep_parallel_stops(tmp_path):
    # every component can move at every step; the leftmost policy builds
    # only the moves of the first one, so 2,001 steps take a walk each
    text = (
        "semiring fuzzy;\ndomain {a, b};\nvar x;\n"
        "agent = " + "(stop || " * 2000 + "stop" + ")" * 2000 + ";\n"
    )
    got = run_subprocess("run", write(tmp_path, text), timeout=120)
    assert got.returncode == 0, got.stderr
    assert got.stdout.startswith("terminal: success\nsteps: 2001\n")


def test_dense_ring_too_large_is_a_clean_error_under_a_memory_cap(tmp_path):
    # eight dense tables told round a ring: the hang's joins would grow past
    # MAX_CELLS row by row (about 3M rows at the third), so the bucketed
    # join must count its output and refuse before allocating it
    n = 12
    rows = " ".join(
        f"({i}, {j}) = {round(1 / (1 + abs(i - j)), 3)};" for i in range(n) for j in range(n)
    )
    tells = " -> ".join(f"tell(c(x{k}, x{(k + 1) % 8}))" for k in range(8))
    text = (
        f"semiring fuzzy;\ndomain {{{', '.join(map(str, range(n)))}}};\n"
        f"var {', '.join(f'x{k}' for k in range(8))};\n"
        f"constraint c(x, y) {{ {rows} }}\n"
        f"agent = {tells} -> ask(c(x0, x4)) -> stop;\n"
    )

    def cap_memory():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    got = run_subprocess("run", write(tmp_path, text), timeout=120, preexec_fn=cap_memory)
    assert got.returncode == 1, got.stderr
    assert "Traceback" not in got.stderr
    lines = got.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("scc: error: "), got.stderr


def test_check_duplicate_proc(capsys):
    code, out, err = run_main(capsys, "check", str(FIXTURES / "bad_dup_proc.scc"))
    assert code == 1
    assert "procedure defined twice" in err
    assert out == ""


def test_check_missing_file(capsys):
    code, out, err = run_main(capsys, "check", "no_such_file.scc")
    assert code == 1
    assert "no_such_file.scc" in err


HEAD = "semiring weighted;\ndomain {a, b};\nvar x;\n"
TOO_BIG = "1" + "0" * 400  # an integer no float holds


@pytest.mark.parametrize(
    "cmd, text",
    [
        ("check", HEAD + "agent = tell(const(\u00b2)) -> stop;\n"),  # a digit int() rejects
        ("check", HEAD + "agent = tell(const(1\u00b2)) -> stop;\n"),
        ("check", HEAD + "agent = tell(const(" + "1" * 5000 + ")) -> stop;\n"),
        ("check", HEAD + f"agent = tell(const({TOO_BIG})) -> stop;\n"),
        ("check", HEAD + f"constraint c(x) {{ (a) = {TOO_BIG}; (b) = 1; }}\nagent = stop;\n"),
        ("run", HEAD + f"agent = tell(const(1)) ->^{TOO_BIG} stop;\n"),
        ("run", b"\xff" + HEAD.encode() + b"agent = stop;\n"),  # not UTF-8
    ],
)
def test_odd_literals_and_encodings_are_clean_errors(tmp_path, cmd, text):
    path = tmp_path / "prog.scc"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    got = run_subprocess(cmd, str(path), timeout=60)
    assert got.returncode == 1
    assert "Traceback" not in got.stderr
    lines = got.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("scc: error: "), got.stderr


# seeded text mutations: each is truncated, loses, repeats or swaps a token,
# or takes in a literal no float or int holds, or one that is rounded to zero
TEXT_MUTATIONS = ("truncate", "delete", "duplicate", "swap", "literal")
ODD_LITERALS = ("1e400", "1e-400", "2e308", "9" * 5000)
_TOKEN = re.compile(r"::|->|\|\||[\w.]+|\S")


def mutated_texts(seed, count):
    """count seeded mutations of the fixtures and of generated programs,
    each of a source drawn at random; the kinds of mutation take turns, and
    so do the literals, so a short draw meets every kind and literal."""
    rng = random.Random(seed)
    sources = [f.read_text(encoding="utf-8") for f in sorted(FIXTURES.glob("*.scc"))]
    sources += [gen_program_text(rng, allow_hang=True) for _ in range(4)]
    sources += [gen_cyclic_program_text(rng, semiring) for semiring in SEMIRINGS]
    for i in range(count):
        text = rng.choice(sources)
        spans = [m.span() for m in _TOKEN.finditer(text)]
        (a, b), (c, d) = sorted(rng.sample(spans, 2))
        kind = TEXT_MUTATIONS[i % len(TEXT_MUTATIONS)]
        if kind == "truncate":
            yield text[: rng.randrange(len(text))]
        elif kind == "delete":
            yield text[:a] + text[b:]
        elif kind == "duplicate":
            yield text[:b] + " " + text[a:b] + text[b:]
        elif kind == "swap":
            yield text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
        else:
            numbers = [(a, b) for a, b in spans if text[a].isdecimal()] or spans
            a, b = rng.choice(numbers)
            yield text[:a] + ODD_LITERALS[i // len(TEXT_MUTATIONS) % len(ODD_LITERALS)] + text[b:]


def check_mutated_texts(directory, seed, count) -> Counter:
    """``scc check`` in process on each of ``mutated_texts(seed, count)``:
    it prints ok and exits 0, or prints one ``scc: error:`` line and exits
    1, and raises nothing.  Returns the count of each exit code."""
    path = pathlib.Path(directory) / "mutated.scc"
    codes = Counter()
    for text in mutated_texts(seed, count):
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", str(path)])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert (out.getvalue(), lines) == ("ok\n", []), text
        else:
            assert code == 1 and len(lines) == 1 and lines[0].startswith("scc: error: "), text
        codes[code] += 1
    return codes


def test_mutated_texts_check_cleanly(tmp_path):
    # a larger draw runs as a CI step of its own
    codes = check_mutated_texts(tmp_path, "text-mutations", 150)
    assert codes[1] > 100 and codes[0] > 0


def test_check_syntax_error_position(tmp_path, capsys):
    path = write(tmp_path, "semiring fuzzy;\ndomain {a};\nvar x;\nagent = tell(;\n")
    code, out, err = run_main(capsys, "check", path)
    assert code == 1
    assert "line 4" in err


# -- solve ---------------------------------------------------------------


def test_solve_text_golden(capsys):
    code, out, err = run_main(capsys, "solve", str(FIXTURES / "fig1.scc"))
    assert code == 0
    assert out.strip() == "x: a=0.8 b=0 ; blevel=0.8"


def test_solve_json(capsys):
    code, out, err = run_main(
        capsys, "solve", str(FIXTURES / "fig1.scc"), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"solution", "blevel"}
    assert doc["blevel"] == 0.8
    rows = {tuple(r["assignment"]): r["value"] for r in doc["solution"]["rows"]}
    assert rows[("a",)] == 0.8


def test_solve_empty_interest_heads_its_line_as_a_constraint_does(tmp_path, capsys):
    text = (
        "semiring fuzzy;\ndomain {a, b};\nvar x;\n"
        "constraint c(x) { (a) = 0.5; (b) = 0.2; }\ninterest {};\n"
    )
    code, out, err = run_main(capsys, "solve", write(tmp_path, text))
    assert (code, out, err) == (0, "(): ()=0.5 ; blevel=0.5\n", "")


def test_solve_needs_interest(tmp_path, capsys):
    path = write(tmp_path, "semiring fuzzy;\ndomain {a};\nvar x;\nagent = stop;\n")
    code, out, err = run_main(capsys, "solve", path)
    assert code == 1
    assert "interest" in err


# -- run -----------------------------------------------------------------


def test_run_hang_exit_code(capsys):
    path = str(FIXTURES / "example5_cprime.scc")
    code, out, err = run_main(capsys, "run", path)
    assert code == 3
    assert "terminal: hang" in out
    code2, out2, _ = run_main(capsys, "run", path)
    assert (code2, out2) == (code, out)  # leftmost is deterministic


def test_run_success_json(tmp_path, capsys):
    path = write(tmp_path, "semiring fuzzy;\ndomain {a};\nvar x;\nagent = tell(const(0.5)) -> stop;\n")
    code, out, err = run_main(capsys, "run", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["terminal"] == "success"
    assert doc["rule_trace"] == ["eventual-tell", "stop"]
    assert doc["steps"] == 2


def test_run_random_needs_seed(tmp_path, capsys):
    path = write(tmp_path, CHOICE)
    code, out, err = run_main(capsys, "run", path, "--policy", "random")
    assert code == 1
    assert "requires --seed" in err
    code, out, err = run_main(capsys, "run", path, "--seed", "3")
    assert code == 1
    assert "only applies" in err


def test_run_random_seed_reproducible(tmp_path, capsys):
    path = write(tmp_path, CHOICE)
    code1, out1, _ = run_main(capsys, "run", path, "--policy", "random", "--seed", "11")
    code2, out2, _ = run_main(capsys, "run", path, "--policy", "random", "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2


def test_run_no_agent(capsys):
    code, out, err = run_main(capsys, "run", str(FIXTURES / "fig1.scc"))
    assert code == 1
    assert "no agent" in err


def test_run_step_limit_flag(tmp_path, capsys):
    path = write(tmp_path, "semiring fuzzy;\ndomain {a};\nvar x;\n"
                           "agent = tell(const(0.9)) -> tell(const(0.8)) -> stop;\n")
    code, out, err = run_main(capsys, "run", path, "--max-steps", "2")
    assert code == 4
    assert "terminal: bound_exceeded" in out
    code, out, err = run_main(capsys, "run", path, "--max-steps", "10")
    assert code == 0


@pytest.mark.parametrize("command", ["observe", "bb"])
def test_observe_step_limit_flag(tmp_path, capsys, command):
    path = write(tmp_path, "semiring fuzzy;\ndomain {a};\nvar x;\n"
                           "agent = tell(const(0.9)) -> tell(const(0.8)) -> stop;\n")
    code, out, err = run_main(capsys, command, path, "--max-steps", "2")
    assert code == 4
    assert "bound_exceeded=true" in out


def test_step_limit_env(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "semiring fuzzy;\ndomain {a};\nvar x;\n"
                           "agent = tell(const(0.9)) -> tell(const(0.8)) -> stop;\n")
    monkeypatch.setenv("SCC_MAX_STEPS", "2")
    code, out, err = run_main(capsys, "run", path)
    assert code == 4
    # an explicit flag wins over the environment
    code, out, err = run_main(capsys, "run", path, "--max-steps", "50")
    assert code == 0


def test_bad_limits(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "semiring fuzzy;\ndomain {a};\nvar x;\nagent = stop;\n")
    code, out, err = run_main(capsys, "run", path, "--max-steps", "0")
    assert code == 1
    assert "positive" in err
    monkeypatch.setenv("SCC_MAX_STEPS", "abc")
    code, out, err = run_main(capsys, "observe", str(FIXTURES / "dominated_choice.scc"))
    assert (code, out) == (1, "")
    assert err.startswith("scc: error:") and "SCC_MAX_STEPS" in err
    assert len(err.strip().splitlines()) == 1


# -- observe -------------------------------------------------------------


def test_observe_success(tmp_path, capsys):
    path = write(tmp_path, CHOICE)
    code, out, err = run_main(capsys, "observe", path)
    assert code == 0
    assert "success_set: 2 store(s)" in out
    assert "fail=false" in out


def test_observe_hang_exit_code(capsys):
    code, out, err = run_main(
        capsys, "observe", str(FIXTURES / "example5_cprime.scc"), "--format", "json"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["hang"] is True
    assert doc["success_set"] == []
    assert doc["bb"] is None


def test_observe_fail_exit_code(tmp_path, capsys):
    path = write(tmp_path, "semiring fuzzy;\ndomain {a};\nvar x;\n"
                           "agent = tell(const(0.2)) ->^0.5 stop;\n")
    code, out, err = run_main(capsys, "observe", path, "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc["fail"] is True and doc["fail_dk"] is True


def test_observe_filter(tmp_path, capsys):
    path = write(tmp_path, CHOICE)
    code, out, err = run_main(capsys, "observe", path, "--filter", "best")
    assert code == 0
    assert "success_set: 1 store(s)" in out


# -- bb ------------------------------------------------------------------


def test_bb_json(tmp_path, capsys):
    path = write(tmp_path, CHOICE)
    code, out, err = run_main(capsys, "bb", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["bb"]["iterations"], int)
    assert isinstance(doc["bb"]["runs_pruned"], int)
    assert doc["bb"]["iterations"] >= 1
    rows = {tuple(r["assignment"]): r["value"] for r in doc["dk_solution"]["rows"]}
    assert rows.get(("a",)) == 0.9


def test_bb_text(tmp_path, capsys):
    path = write(tmp_path, CHOICE)
    code, out, err = run_main(capsys, "bb", path)
    assert code == 0
    assert "bb: iterations=" in out
    assert "dk: " in out


def test_bb_dominated_choice_fixture(capsys):
    code, out, err = run_main(capsys, "bb", str(FIXTURES / "dominated_choice.scc"))
    assert code == 0
    assert "bb: iterations=1 runs_pruned=6" in out
    assert "(a,a)=0.7" in out


def test_bb_network_fixture_finishes():
    path = str(FIXTURES / "network.scc")
    with ThreadPoolExecutor(2) as pool:
        bb, observed = pool.map(lambda cmd: run_subprocess(cmd, path, timeout=120), ("bb", "observe"))
    assert bb.returncode == 0, bb.stderr
    lines = bb.stdout.splitlines()
    assert "bb: iterations=1 runs_pruned=1220424504" in lines
    dk = [ln for ln in lines if ln.startswith("dk: ")]
    assert dk and dk == [ln for ln in observed.stdout.splitlines() if ln.startswith("dk: ")]


# exit code and the first 16 hex digits of the SHA-256 of stdout, text then
# json, of each command on each fixture; e3b0c44298fc1c14 is empty output.
# The bb hashes are as printed when bb ran a cold observe after solve_bb.
ERROR = (1, "e3b0c44298fc1c14", "e3b0c44298fc1c14")  # the message goes to stderr
CHECKED = (0, "dc51b8c96c2d745d", "dc51b8c96c2d745d")  # "ok"
OUTPUT = {
    "bad_dup_proc": dict.fromkeys(("check", "solve", "run", "observe", "bb"), ERROR),
    "dominated_choice": {
        "check": CHECKED,
        "solve": ERROR,
        "run": (0, "f77d5c0b61cc083a", "346ac74708eee708"),
        "observe": (0, "7ab6cee838a5a821", "a462f1f1e2a6cf15"),
        "bb": (0, "23c8afa654a6fbb2", "f88bc1d62176fd26"),
    },
    "example5_cpp": {
        "check": CHECKED,
        "solve": ERROR,
        "run": (3, "fa88455027858cda", "7f0416da30e9a844"),
        "observe": (3, "afba6435570b7754", "823e0dda0a1016e1"),
        "bb": ERROR,
    },
    "example5_cprime": {
        "check": CHECKED,
        "solve": ERROR,
        "run": (3, "fa88455027858cda", "7f0416da30e9a844"),
        "observe": (3, "afba6435570b7754", "823e0dda0a1016e1"),
        "bb": ERROR,
    },
    "fig1": {
        "check": CHECKED,
        "solve": (0, "c30305f27952c074", "5861185e0c40c151"),
        "run": ERROR,
        "observe": ERROR,
        "bb": ERROR,
    },
    "network": {
        "check": CHECKED,
        "solve": ERROR,
        "run": (0, "5f8ee7805911c8dc", "3567a548c9b1f06e"),
        "observe": (0, "148dcbbc3d821022", "ea7d979a01bcff91"),
        "bb": (0, "f616e4d13b4bac0b", "6f475822cf227175"),
    },
    "network_weighted": {
        "check": CHECKED,
        "solve": ERROR,
        "run": (0, "9ef07f52eac301b3", "95e98ef58628e06f"),
        "observe": (0, "10fb735221fbda54", "66757ee2f53ec9c5"),
        "bb": (0, "240bb04ed7a1985c", "00f604c672e3031f"),
    },
}


def test_output_is_pinned_on_every_fixture(capsys):
    # what each command prints, and its exit code, stay byte for byte
    assert sorted(OUTPUT) == sorted(p.stem for p in FIXTURES.glob("*.scc"))
    for name, commands in OUTPUT.items():
        for command, (want_code, *want) in commands.items():
            got = []
            for fmt in ("text", "json"):
                code, out, err = run_main(capsys, command, str(FIXTURES / f"{name}.scc"), "--format", fmt)
                assert code == want_code, (name, command, fmt, err)
                got.append(hashlib.sha256(out.encode()).hexdigest()[:16])
            assert got == want, (name, command)


def wide_program(n=20, rows=800):
    """Fuzzy, over n two-atom variables: a choice to tell one of two tables
    that list the same distinct random rows, at 0.3 and 0.6, and are zero
    elsewhere; every variable stays in the support."""
    rng = random.Random("wide program")
    vs = ", ".join(f"x{i}" for i in range(n))
    keys = set()
    while len(keys) < rows:
        keys.add(", ".join(rng.choice("ab") for _ in range(n)))

    def table(name, value):
        body = "".join(f"  ({k}) = {value};\n" for k in sorted(keys))
        return f"constraint {name}({vs}) {{\n{body}  default = 0;\n}}\n"

    return (
        f"semiring fuzzy;\ndomain {{a, b}};\nvar {vs};\n" + table("low", 0.3) + table("high", 0.6)
        + f"agent = ask(const(1)) -> tell(low({vs})) -> stop + ask(const(1)) -> tell(high({vs})) -> stop;\n"
    )


def test_wide_stores_are_ordered_by_observe_and_bb(tmp_path, capsys):
    # 2^20 cells, past the enumeration cap: the order still answers
    path = write(tmp_path, wide_program())
    code, observed, err = run_main(capsys, "observe", path, "--filter", "best")
    assert (code, err) == (0, "")
    lines = observed.splitlines()
    assert lines[0] == "success_set: 1 store(s)"
    assert "=0.6" in lines[1] and "=0.3" not in lines[1]
    code, out, err = run_main(capsys, "bb", path)
    assert (code, err) == (0, "")
    dk = [ln for ln in out.splitlines() if ln.startswith("dk: ")]
    assert dk and dk == [ln for ln in lines if ln.startswith("dk: ")]


def test_wide_tables_with_nonzero_defaults_join_over_their_rows(tmp_path, capsys):
    # two 50-row tables over the same 20 variables, listed in opposite
    # orders, with defaults 0.5 and 0.7: their product, and the sum of the
    # two stores that tell one each, list the rows of either and take the
    # defaults' product or sum elsewhere, without walking 2^20 cells
    rng = random.Random("wide defaults")
    names = [f"x{i}" for i in range(20)]

    def table(name, vs, default):
        keys = {", ".join(rng.choice("ab") for _ in vs) for _ in range(50)}
        body = "".join(f"  ({k}) = {rng.choice((0.2, 0.6, 0.9))};\n" for k in sorted(keys))
        return f"constraint {name}({', '.join(vs)}) {{\n{body}  default = {default};\n}}\n"

    backward = names[::-1]
    head = (
        f"semiring fuzzy;\ndomain {{a, b}};\nvar {', '.join(names)};\n"
        + table("c", names, 0.5) + table("d", backward, 0.7)
    )
    c, d = f"tell(c({', '.join(names)}))", f"tell(d({', '.join(backward)}))"
    both = write(tmp_path, head + f"agent = {c} -> {d} -> stop;\n", "both.scc")
    either = write(tmp_path, head + f"agent = ask(const(1)) -> {c} -> stop + ask(const(1)) -> {d} -> stop;\n")
    for command, path, default in (("run", both, 0.5), ("observe", both, 0.5), ("observe", either, 0.7)):
        code, out, err = run_main(capsys, command, path)
        assert (code, err) == (0, ""), command
        assert f" default={default}" in out.splitlines()[-2 if command == "observe" else -1], command


def test_split_support_tables_with_nonzero_defaults_join_over_their_rows(tmp_path, capsys):
    # two 50-row tables over twelve variables each, sharing four, with
    # defaults 0.5 and 0.7: each row meets the other's rows and default
    # over its 2^8 extensions, without walking the 2^20 cells of the union
    rng = random.Random("split defaults")
    names = [f"v{i}" for i in range(20)]
    lines = [f"semiring fuzzy;\ndomain {{a, b}};\nvar {', '.join(names)};"]
    tells = []
    for name, vs, default in (("c", names[:12], 0.5), ("d", names[8:], 0.7)):
        keys = {", ".join(rng.choice("ab") for _ in vs) for _ in range(50)}
        rows = " ".join(f"({k}) = {rng.choice((0.2, 0.6, 0.9))};" for k in sorted(keys))
        lines.append(f"constraint {name}({', '.join(vs)}) {{ {rows} default = {default}; }}")
        tells.append(f"tell({name}({', '.join(vs)}))")
    lines.append(f"agent = {' -> '.join(tells)} -> stop;")
    path = write(tmp_path, "\n".join(lines) + "\n")
    for command in ("run", "observe", "bb"):
        code, out, err = run_main(capsys, command, path)
        assert (code, err) == (0, ""), command
        (joint,) = [ln for ln in out.splitlines() if ln.startswith(("store: ", "dk: "))]
        assert joint.endswith(" default=0.5"), command


def test_bb_rejects_level_thresholds(tmp_path, capsys):
    path = write(tmp_path, "semiring fuzzy;\ndomain {a};\nvar x;\n"
                           "agent = tell(const(0.9)) ->^0.5 stop;\n")
    code, out, err = run_main(capsys, "bb", path)
    assert code == 1
    assert "level threshold" in err


# -- usage ---------------------------------------------------------------


def assert_one_error_line(got, message):
    assert got.returncode == 1
    assert got.stderr.splitlines() == [f"scc: error: cannot write the output: {message}"], got.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_full_stdout_is_a_clean_error():
    with open("/dev/full", "w") as full:
        got = run_subprocess("observe", str(FIXTURES / "network.scc"), timeout=120, stdout=full)
    assert_one_error_line(got, os.strerror(errno.ENOSPC))
    # output that fits in the buffer fails at the flush, not at exit
    with open("/dev/full", "w") as full:
        got = run_subprocess("check", str(FIXTURES / "fig1.scc"), timeout=60, stdout=full)
    assert_one_error_line(got, os.strerror(errno.ENOSPC))


def test_closed_pipe_is_a_clean_error():
    read, write_end = os.pipe()
    os.close(read)  # nobody will read: every write fails with EPIPE
    try:
        got = run_subprocess("observe", str(FIXTURES / "network.scc"), timeout=120, stdout=write_end)
    finally:
        os.close(write_end)
    assert_one_error_line(got, os.strerror(errno.EPIPE))


def test_closed_stdout_is_a_clean_error():
    # started with fd 1 closed, Python sets sys.stdout to None and print
    # drops every line, so the output would vanish with exit 0
    got = run_subprocess("check", str(FIXTURES / "fig1.scc"), timeout=60, preexec_fn=lambda: os.close(1))
    assert got.stdout == ""
    assert_one_error_line(got, "stdout is closed")


def test_usage_errors(capsys):
    assert cli.main(["frobnicate", "x.scc"]) == 1
    capsys.readouterr()
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["observe"]) == 1
    capsys.readouterr()


def test_installed_entry_point():
    # run the console script this checkout declares, the way the wrapper
    # that pip generates for it does, so no install is needed
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["scc"]
    module, attr = entry.split(":")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    got = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())",
            "solve",
            str(FIXTURES / "fig1.scc"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert got.returncode == 0
    assert got.stdout.strip() == "x: a=0.8 b=0 ; blevel=0.8"
