import ast
import pathlib

import cancelkit
from cancelkit.fields import PrimeField
from cancelkit.ring import Ring


def _unused_imports(path):
    """Names a module imports and never references; an import line
    marked `# noqa` is an intended re-export."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*":
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    src = pathlib.Path(cancelkit.__file__).parent
    tests = pathlib.Path(__file__).parent
    paths = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(tests.glob("*.py"))
    offenders = [o for p in paths for o in _unused_imports(p)]
    assert offenders == []


def _names(tree):
    """Every name a module mentions: variables, attributes, and string
    constants that are identifiers (``getattr`` targets, the benchmark's
    span tables)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def test_no_unreferenced_functions():
    """Every function and class defined in the package is referenced by
    name in src/ or perfbench/: code that only tests call lives in
    tests/.  Dunder methods are called by the language, and the
    interpreter finds its cmd_/op_ handlers with getattr."""
    src = pathlib.Path(cancelkit.__file__).parent
    root = pathlib.Path(__file__).parent.parent
    paths = sorted(src.glob("*.py"))
    referenced = set()
    for path in paths + sorted((root / "perfbench").glob("*.py")):
        referenced.update(_names(ast.parse(path.read_text())))
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or name.startswith(("cmd_", "op_"))):
                continue
            if name not in referenced:
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def _call_sites(node, name, scope, owner=None):
    """The dotted scope (module, classes, functions) of every call of
    `name` under node, as a plain name or as an attribute; with an
    owner, only as an attribute of a value named owner (`owner.name()`
    or `x.owner.name()`)."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif isinstance(child, ast.Call):
            func = child.func
            if owner is None:
                called = name in (getattr(func, "id", None),
                                  getattr(func, "attr", None))
            else:
                value = getattr(func, "value", None)
                called = getattr(func, "attr", None) == name \
                    and owner in (getattr(value, "id", None),
                                  getattr(value, "attr", None))
            if called:
                yield scope
        yield from _call_sites(child, name, inner, owner)


def test_block_orders_are_built_in_two_places():
    """A block order is constructed only for an elimination
    (ideals._elimination_ring) and for a free module (Ring.module_ring),
    so the choice of block order is made in one place each."""
    src = pathlib.Path(cancelkit.__file__).parent
    sites = {site for path in sorted(src.glob("*.py"))
             for site in _call_sites(ast.parse(path.read_text()), "Block",
                                     path.stem)}
    assert sites == {"ideals._elimination_ring", "ring.Ring.module_ring"}


def test_coefficients_are_held_in_one_place():
    """Only the fields know how coefficients are held: the engine (gb),
    polynomial arithmetic (ring) and the disk cache (cache) read no field
    kind and import no fractions; the canonical integer form comes from
    from_ints, the engine's working form from to_ints, and a field
    element from element."""
    src = pathlib.Path(cancelkit.__file__).parent
    offenders = []
    for name in ("cache.py", "gb.py", "ring.py"):
        for node in ast.walk(ast.parse((src / name).read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "kind":
                offenders.append(f"{name}:{node.lineno} .kind")
            elif isinstance(node, ast.ImportFrom) \
                    and node.module == "fractions" \
                    or isinstance(node, ast.Import) \
                    and any(a.name == "fractions" for a in node.names):
                offenders.append(f"{name}:{node.lineno} fractions")
    assert offenders == []


def test_monomials_compare_in_one_place():
    """An order's matrix is read only by Ring.__init__ (and by a block
    order from its two parts), and a ring keeps one per-monomial memo,
    its packed key: every sort, heap and leading-monomial choice reads
    that one key."""
    src = pathlib.Path(cancelkit.__file__).parent
    sites = {site for path in sorted(src.glob("*.py"))
             for site in _call_sites(ast.parse(path.read_text()), "rows",
                                     path.stem)}
    assert sites == {"ring.Ring.__init__", "orders.Block.rows"}
    ring = Ring(PrimeField(32003), ["x", "y"])
    assert [a for a in vars(ring) if a.endswith("_memo")] == ["_key_memo"]


def test_expressions_are_parsed_in_one_place():
    """A parser is built only for a whole script: the interpreter
    evaluates the trees it is handed and never reads tokens again."""
    src = pathlib.Path(cancelkit.__file__).parent
    sites = {site for path in sorted(src.glob("*.py"))
             for site in _call_sites(ast.parse(path.read_text()), "_Parser",
                                     path.stem)}
    assert sites == {"script.parse_script"}


def test_bases_enter_the_store_in_one_place():
    """A reduced basis enters the job's store (cache.basis) only from
    gb.buchberger: the one engine entry point decides what is computed
    and under which key it is kept."""
    src = pathlib.Path(cancelkit.__file__).parent
    sites = {site for path in sorted(src.glob("*.py"))
             for site in _call_sites(ast.parse(path.read_text()), "basis",
                                     path.stem)}
    assert sites == {"gb.buchberger"}


def test_the_store_is_read_only_in_cache():
    """The job's store is looked up (active_store.get) only in the cache
    module, by its two forks between a call in a job and one outside:
    cache.recall for any result and cache.basis for a basis, which
    reads the disk cache behind the store."""
    src = pathlib.Path(cancelkit.__file__).parent
    sites = {site for path in sorted(src.glob("*.py"))
             for site in _call_sites(ast.parse(path.read_text()), "get",
                                     path.stem, owner="active_store")}
    assert sites == {"cache.recall", "cache.basis"}
