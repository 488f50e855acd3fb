"""Package layout: modules reach each other only through public names,
keep no import, local variable or function they do not use, define no
module-level name twice, leave spatial search to the cluster tree, and
load no scipy module a sweep does not use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracsobolev"
TESTS = Path(__file__).resolve().parent


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


def _exported(node) -> list:
    """The names an ``__all__ = [...]`` assignment lists; [] for any other node."""
    if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        return ast.literal_eval(node.value)
    return []


def _unused_imports(path: Path) -> list:
    """(line, name) for each imported name the module never reads.

    Names listed in ``__all__`` count as read, so re-exports pass.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        used.update(_exported(node))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    offences = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in _unused_imports(path)
    ]
    assert offences == []


def _dead_locals(path: Path) -> list:
    """(line, function, name) for each local a package function assigns
    but never reads.

    Reads anywhere in the function count, nested functions included;
    names starting with ``_`` and names declared global or nonlocal are
    exempt.
    """
    found = set()
    for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read, shared = {}, set(), set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Name) and not node.id.startswith("_"):
                stored.setdefault(node.id, node.lineno)
        found.update(
            (line, func.name, name)
            for name, line in stored.items()
            if name not in read and name not in shared
        )
    return sorted(found)


def test_no_dead_locals():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    offences = [
        f"{path.name}:{line}: {name} in {func}"
        for path in modules
        for line, func, name in _dead_locals(path)
    ]
    assert offences == []


def _uncalled_definitions(paths) -> list:
    """(module, line, name) for each module-level function or class that
    no module of the package references and no ``__all__`` lists.

    A reference is any read of the name, plain or as an attribute.
    """
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            used.update(_exported(node))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, kinds) and node.name not in used
    )


def test_no_uncalled_functions():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    offences = [
        f"{module}:{line} {name}" for module, line, name in _uncalled_definitions(modules)
    ]
    assert offences == []


def _redefinitions(path: Path) -> list:
    """(line, name) for each module-level function or class defined a second time."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    seen, found = set(), []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, kinds):
            if node.name in seen:
                found.append((node.lineno, node.name))
            seen.add(node.name)
    return found


def test_no_module_level_redefinitions():
    # a second definition shadows the first for every later reference
    modules = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE} or {TESTS}"
    offences = [
        f"{path.parent.name}/{path.name}:{line}: {name}"
        for path in modules
        for line, name in _redefinitions(path)
    ]
    assert offences == []


def _spatial_imports(path: Path) -> list:
    """(line, module) for each import of scipy.spatial or of a module under it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module]
        else:
            continue
        found.extend(
            (node.lineno, name)
            for name in names
            if name == "scipy.spatial" or name.startswith("scipy.spatial.")
        )
    return found


def test_no_spatial_search_but_the_cluster_tree():
    # mesh.cluster_tree and its block walk find every close element pair
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    offences = [
        f"{path.name}:{line}: {name}" for path in modules for line, name in _spatial_imports(path)
    ]
    assert offences == []


_SWEEP_IMPORTS = """
import sys
import fracsobolev, fracsobolev.cli
from fracsobolev import discrete_constant_sweep, upper_bound_sweep
discrete_constant_sweep(1, 0.25, [2, 3, 4])
upper_bound_sweep(2, 0.5, [0, 1, 2])
print(" ".join(sorted(name for name in sys.modules if name.startswith("scipy."))))
"""


def test_sweeps_load_no_quadrature_or_optimization_module():
    # the radial norm runs on the package's Gauss rule and fit_manifold
    # imports scipy.optimize when called, so importing the package and
    # the CLI and running both sweeps leave out scipy.integrate and
    # scipy.optimize, about 19 MiB of a process, and scipy.spatial,
    # which they pulled in
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_IMPORTS], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {".".join(name.split(".")[:2]) for name in proc.stdout.split()}
    assert "scipy.linalg" in loaded
    assert sorted(loaded & {"scipy.integrate", "scipy.optimize", "scipy.spatial"}) == []
