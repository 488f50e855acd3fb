"""Package layout: modules reach each other only through public names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracsobolev"


def _private_imports(path: Path) -> list:
    """(line, module, name) for each underscore name imported from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "fracsobolev":
            continue
        found.extend(
            (node.lineno, module, alias.name)
            for alias in node.names
            if alias.name.startswith("_")
        )
    return found


def test_no_private_imports_across_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    offences = [
        f"{path.name}:{line}: {name} from {module or '.'}"
        for path in modules
        for line, module, name in _private_imports(path)
    ]
    assert offences == []
