"""The scc command line: commands, formats, exit codes."""

import errno
import hashlib
import json
import os
import pathlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from softcc import cli

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
# json, of `scc bb` on each fixture, as printed when bb ran a cold observe
# after solve_bb; e3b0c44298fc1c14 is empty output
BB_OUTPUT = {
    "bad_dup_proc": (1, "e3b0c44298fc1c14", "e3b0c44298fc1c14"),
    "dominated_choice": (0, "23c8afa654a6fbb2", "f88bc1d62176fd26"),
    "example5_cpp": (1, "e3b0c44298fc1c14", "e3b0c44298fc1c14"),
    "example5_cprime": (1, "e3b0c44298fc1c14", "e3b0c44298fc1c14"),
    "fig1": (1, "e3b0c44298fc1c14", "e3b0c44298fc1c14"),
    "network": (0, "f616e4d13b4bac0b", "6f475822cf227175"),
    "network_weighted": (0, "240bb04ed7a1985c", "00f604c672e3031f"),
}


def test_bb_output_is_pinned_on_every_fixture(capsys):
    # observe and bb share one session; what they print stays byte for byte
    assert sorted(BB_OUTPUT) == sorted(p.stem for p in FIXTURES.glob("*.scc"))
    for name, (want_code, *want) in BB_OUTPUT.items():
        got = []
        for fmt in ("text", "json"):
            code, out, err = run_main(capsys, "bb", str(FIXTURES / f"{name}.scc"), "--format", fmt)
            assert code == want_code, (name, fmt, err)
            got.append(hashlib.sha256(out.encode()).hexdigest()[:16])
        assert got == want, name


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
