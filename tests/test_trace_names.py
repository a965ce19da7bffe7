"""The names the benchmark's tracer wraps (the FUNCTIONS and METHODS
tables of perfbench/spans.py) resolve in cancelkit, and the bindings its
own tests check are there: a simplification that drops one fails here,
not only in the slower benchmark suite.  The tables are read with ast;
nothing under perfbench/ is executed or written."""

import ast
import importlib
import pathlib

SPANS = pathlib.Path(__file__).parent.parent / "perfbench" / "spans.py"


def _tables():
    tables = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id in ("FUNCTIONS", "METHODS"):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_traced_names_resolve():
    tables = _tables()
    assert tables["FUNCTIONS"] and tables["METHODS"]
    for name, module, attr in tables["FUNCTIONS"]:
        assert callable(getattr(importlib.import_module(module), attr,
                                None)), name
    for name, module, cls, attr in tables["METHODS"]:
        owner = getattr(importlib.import_module(module), cls, None)
        assert owner is not None and attr in vars(owner), name


def test_traced_bindings():
    from cancelkit import (cancellation, gb, ideals, modules, rees,
                           resolutions)
    assert ideals.buchberger is gb.buchberger
    assert rees.buchberger is gb.buchberger
    assert cancellation.cohomology_summary is \
        resolutions.cohomology_summary
    assert resolutions.module_buchberger is modules.module_buchberger
