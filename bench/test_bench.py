"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest -q bench

Checks that each run prints, as its last line, the JSON result with
exactly the metrics BENCHMARK.json names, each with its unit, that the
report names every end-to-end figure with its unit, and that no operation
failed.  The repository's own test suite (``testpaths = ["tests"]``) does
not collect this file; run it on its own.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "network": [],  # the fixtures are fixed; one pass takes a few seconds
    "genprog": ["--programs", "5"],
    "deep_tell": ["--steps", "20"],
}
# the report's own figures, by workload: "<name> <value> <unit>"
REPORTED = {
    "network": [("observe_s", "s"), ("observe_p50_ms", "ms")],
    "genprog": [("observe_s", "s"), ("observe_p50_ms", "ms"), ("bb_s", "s"), ("bb_p50_ms", "ms")],
    "deep_tell": [("run_s", "s"), ("run_p50_ms", "ms")],
}


def run_bench(cwd, *args):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def reported(stdout):
    """(name, unit) of every "<name> <number> <unit>" figure in the report."""
    words = stdout.split()
    out = set()
    for name, value, unit in zip(words, words[1:], words[2:]):
        try:
            float(value)
        except ValueError:
            continue
        out.add((name, unit))
    return out


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), *TINY[workload])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    figures = reported(proc.stdout)
    assert ("error_rate", "ratio") in figures
    assert "error_rate 0 ratio" in proc.stdout
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name
    if not trace:
        assert set(REPORTED[workload]) <= figures


def test_without_sources_fails_without_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "deep_tell", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
