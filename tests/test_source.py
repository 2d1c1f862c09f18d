"""Static checks over the library source."""

import ast
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rse_lab"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a runtime check must raise instead
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads (__all__ entries count as reads)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_library_modules_use_every_import():
    # __init__.py imports to re-export, so it is left out
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    found = {path.name: unused for path in modules
             if (unused := _unused_imports(ast.parse(path.read_text(), filename=str(path))))}
    assert not found, f"unused imports in the library: {found}"


def test_closed_loop_step_loop_builds_no_per_run_operators():
    # pseudoinverses, least-squares solves and the powers of A are fixed for a
    # run: run_closed_loop builds them once, never in its per-step loop
    tree = ast.parse((SRC / "sim.py").read_text())
    (fn,) = [n for n in ast.walk(tree)
             if isinstance(n, ast.FunctionDef) and n.name == "run_closed_loop"]
    loops = [n for n in ast.walk(fn)
             if isinstance(n, ast.For) and ast.unparse(n.iter) == "range(T_meas)"]
    assert len(loops) == 1
    banned = {"lstsq", "pinv", "powers"}
    found = [f"{ast.unparse(n.func)} (line {n.lineno})" for n in ast.walk(loops[0])
             if isinstance(n, ast.Call)
             and getattr(n.func, "attr", getattr(n.func, "id", None)) in banned]
    assert not found, f"per-run operators built in the step loop: {found}"


def test_public_names_resolve():
    # a name left in __all__ after its definition is gone breaks `import *`
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__main__")
    assert modules
    missing = []
    for name in modules:
        dotted = "rse_lab" if name == "__init__" else f"rse_lab.{name}"
        module = importlib.import_module(dotted)
        missing += [f"{dotted}.{e}" for e in getattr(module, "__all__", ())
                    if not hasattr(module, e)]
    assert not missing, f"__all__ entries that do not exist: {missing}"


BENCH = SRC.parent.parent / "bench"


def _chain(node) -> list[str] | None:
    """The names of an attribute chain rooted at the name r, e.g. r.sim.NoiseSpec
    -> ["sim", "NoiseSpec"]; None for any other expression."""
    names = []
    while isinstance(node, ast.Attribute):
        names.insert(0, node.attr)
        node = node.value
    return names if isinstance(node, ast.Name) and node.id == "r" else None


def _resolve(names: list[str]):
    """Look the names up from rse_lab, a class attribute in the class's own
    __dict__ as the bench's tracer does; KeyError or AttributeError if one is gone."""
    obj = importlib.import_module("rse_lab")
    for name in names:
        obj = obj.__dict__[name] if isinstance(obj, type) else getattr(obj, name)
    return obj


def test_bench_names_exist():
    # the bench reaches the library by name: a rename that it does not follow
    # would fail only when the bench runs
    wanted = set()
    for node in ast.walk(ast.parse((BENCH / "run.py").read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch" and ast.unparse(node.func.value) == "tracer"):
            owner, attr = node.args[:2]
            wanted.add((*_chain(owner), attr.value))
    assert len(wanted) >= 10, wanted
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text())):
        if isinstance(node, ast.Attribute) and _chain(node):
            wanted.add(tuple(_chain(node)))
    assert ("sim", "AuthPolicy", "auth_set") in wanted and ("vtf_scenario",) in wanted
    missing = []
    for names in sorted(wanted):
        try:
            _resolve(names)
        except (KeyError, AttributeError):
            missing.append("r." + ".".join(names))
    assert not missing, f"names the bench uses that rse_lab lacks: {missing}"
