"""The worked examples' ideals, read from the scripts under examples/, so
that each example ideal has one definition."""

import pathlib

from cancelkit.script import Interpreter, RunFlags, parse_script

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def example_path(tag):
    return EXAMPLES / f"{tag}.ck"


def example_ideal(tag, field=None):
    """The first ideal an example script binds, from its statements up
    to that binding; `field` plays the part of --field."""
    script = parse_script(example_path(tag).read_text())
    interp = Interpreter(RunFlags(field=field))
    for index, stmt in enumerate(script.statements):
        interp.execute(stmt, index)
        if stmt[0] == "ideal":
            return interp.bindings[stmt[1]]
    raise ValueError(f"example {tag} binds no ideal")
