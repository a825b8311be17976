"""Module boundaries: no tghnet module imports another's private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tghnet"


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "tghnet"
            offenders += [
                f"{path.relative_to(PACKAGE)}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if internal and alias.name.startswith("_")
            ]
    assert offenders == []
