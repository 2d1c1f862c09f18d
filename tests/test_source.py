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


def test_closed_loop_reads_the_attack_once():
    # the attack is one array over the run's steps, as the reference is: one
    # call on np.arange(T_meas), never a call per step
    tree = ast.parse((SRC / "sim.py").read_text())
    (fn,) = [n for n in ast.walk(tree)
             if isinstance(n, ast.FunctionDef) and n.name == "run_closed_loop"]
    calls = [n for n in ast.walk(fn)
             if isinstance(n, ast.Call) and ast.unparse(n.func) == "attack"]
    assert [ast.unparse(n) for n in calls] == ["attack(np.arange(T_meas))"]
    repeated = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
                ast.GeneratorExp, ast.Lambda)
    inside = [n.lineno for n in ast.walk(fn) if isinstance(n, repeated)
              for m in ast.walk(n) if m is calls[0]]
    assert not inside, f"attack called inside a loop or comprehension at lines {inside}"


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


def _bench_names() -> set[tuple[str, ...]]:
    """The library names the bench reaches, as name chains from rse_lab: the
    names bench/run.py patches by string and the r.a.b chains of
    bench/workloads.py."""
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
    return wanted


def test_bench_names_exist():
    # the bench reaches the library by name: a rename that it does not follow
    # would fail only when the bench runs
    wanted = _bench_names()
    assert ("sim", "AuthPolicy", "auth_set") in wanted and ("vtf_scenario",) in wanted
    missing = []
    for names in sorted(wanted):
        try:
            _resolve(names)
        except (KeyError, AttributeError):
            missing.append("r." + ".".join(names))
    assert not missing, f"names the bench uses that rse_lab lacks: {missing}"


def _names_read(nodes) -> set[str]:
    """Names the nodes read or import from another module."""
    found = set()
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                found |= {a.name for a in node.names}
    return found


def _defines(node, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else []
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _library_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")
            if p.stem not in ("__init__", "__main__")}


def _public(tree: ast.Module) -> list[str]:
    """The module's __all__, empty when it has none."""
    return next((ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and _defines(node, "__all__")), [])


def test_public_names_have_library_callers():
    # a public name that only tests reach is a second copy of something, or
    # dead: each one is read by another library module, by its own module
    # outside its definition, or by the bench
    trees = _library_trees()
    bench = {name for chain in _bench_names() for name in chain}
    orphans = []
    for stem, tree in sorted(trees.items()):
        public = _public(tree)
        others = _names_read(t for s, t in trees.items() if s != stem)
        for name in public:
            own = _names_read(node for node in tree.body if not _defines(node, name))
            if name not in others | own | bench:
                orphans.append(f"{stem}.{name}")
    assert not orphans, f"public names with no caller in src/ or bench/: {orphans}"


def test_public_methods_have_library_readers():
    # the same for the methods, properties and classmethods of every class in
    # a module's __all__: each is read as an attribute somewhere in src/ or
    # reached by the bench as Class.method.  The match is by attribute name
    # alone, so a method named like an attribute read elsewhere passes
    # (SystemModel.sensors() once hid behind AuthPolicy.sensors); dataclass
    # fields are data, not methods, and are exempt
    trees = _library_trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    bench = {chain[-2:] for chain in _bench_names()}
    orphans = [f"{stem}.{cls.name}.{fn.name}"
               for stem, tree in sorted(trees.items())
               for cls in tree.body
               if isinstance(cls, ast.ClassDef) and cls.name in _public(tree)
               for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
               and fn.name not in read and (cls.name, fn.name) not in bench]
    assert not orphans, f"public methods with no reader in src/ or bench/: {orphans}"


def test_synth_searches_no_witness_itself():
    # synthesis builds from the attackability record of its compromised set;
    # a search of its own would find a witness the verdict already found
    searches = {"null_basis", "unstable_chain", "unstable_eigenstructure",
                "build_overlap_stack"}
    tree = ast.parse((SRC / "synth.py").read_text())
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    found = sorted((_names_read([tree]) | attrs) & searches)
    assert not found, f"synth.py reaches witness searches: {found}"


def _method(path: str, cls: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / path).read_text())
    (owner,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
    (fn,) = [n for n in owner.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return fn


def test_window_decoder_keeps_no_cache_of_its_own():
    # per-set operators live in the model's records, one cache for the
    # decoder and the verdicts: the decoder's constructor stores no dict
    fn = _method("decoder.py", "WindowDecoder", "__init__")
    stores = [n for n in ast.walk(fn) if isinstance(n, (ast.Assign, ast.AnnAssign))]
    assert stores
    found = [f"{ast.unparse(n)} (line {n.lineno})" for n in stores
             if isinstance(n.value, (ast.Dict, ast.DictComp))
             or ast.unparse(n.value).startswith("dict(")]
    assert not found, f"dict caches stored by WindowDecoder.__init__: {found}"


def test_decode_builds_no_sensor_set_per_support():
    # the search walks prebuilt clean sets, and only the accepted one is
    # complemented into its support: no sensor set is built per tested support
    fn = _method("decoder.py", "WindowDecoder", "decode")
    loops = [n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.While))]
    assert loops
    banned = ("complement", "SensorSet", "SensorSet.of")
    found = sorted({f"{ast.unparse(n.func)} (line {n.lineno})" for loop in loops
                    for n in ast.walk(loop) if isinstance(n, ast.Call)
                    and (ast.unparse(n.func) in banned
                         or getattr(n.func, "attr", None) == "complement")})
    assert not found, f"sensor sets built inside decode's loops: {found}"
