import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("reach", Path(__file__).resolve().parents[1] / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

FIXTURE = '''"""A module docstring
over two lines."""

import math  # a comment after code


def sign(x):
    """Docstring of sign."""
    # a comment line
    if x < 0:
        return -1

    return 1


class Box:
    """A class docstring."""

    def size(self):
        return math.inf


def unused():
    return 0
'''


def test_unreached_lines_are_counted_and_grouped_by_function(tmp_path):
    path = (tmp_path / "reach_fixture.py").resolve()
    path.write_text(FIXTURE)
    # no docstring, comment or blank line; a def line belongs to its function
    assert reach.executable_lines(path) == {
        4: "<module>",
        7: "sign",
        10: "sign",
        11: "sign",
        13: "sign",
        16: "Box",
        19: "Box.size",
        20: "Box.size",
        23: "unused",
        24: "unused",
    }
    spec = importlib.util.spec_from_file_location("reach_fixture", path)
    module = importlib.util.module_from_spec(spec)
    with reach.LineTracer(tmp_path) as tracer:
        spec.loader.exec_module(module)
        module.sign(1)
    assert reach.unreached([path], tracer.reached) == {
        path: {"sign": [(11, "return -1")], "Box.size": [(20, "return math.inf")], "unused": [(24, "return 0")]}
    }
    assert reach.unreached([path], tracer.reached | {(str(path), 11), (str(path), 20), (str(path), 24)}) == {}
