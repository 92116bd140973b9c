"""The runtime stays stdlib-only: every import in the package names either
softcc itself or a module of the standard library."""

import ast
import pathlib
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
