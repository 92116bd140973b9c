"""The package is the runtime only: every import in it names either softcc
itself or a module of the standard library, and every module in it is one
the library or the command line loads."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "softcc"


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"softcc"}
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert not outside


def test_package_holds_only_modules_the_runtime_loads():
    # in a fresh interpreter, as the test suite itself imports more
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    code = "import softcc, softcc.cli, sys; print(*sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(run.stdout.split())
    files = sorted(SRC.glob("*.py"))
    assert files
    names = {p.name: "softcc" if p.stem == "__init__" else f"softcc.{p.stem}" for p in files}
    assert not [f for f, module in names.items() if module not in loaded]
    # and only the command line runs as a script
    scripts = [
        path.name
        for path in files
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert scripts == ["cli.py"]
