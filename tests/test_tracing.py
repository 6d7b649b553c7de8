"""The benchmark tracer's contract with the package.

`perfbench/child.py` wraps every name in its TRACED table before a traced
round: a plain function through `getattr`, a `Class.attr` property
through `property.fget`.  A name that no longer resolves, or a property
that is not a plain `property` (a `functools.cached_property` has no
`fget`), fails every traced round; here it fails the suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return [(mod, name) for mod, names in child.TRACED.items() for name in names]


@pytest.mark.parametrize("modname,name", traced_names())
def test_traced_name_resolves(modname, name):
    module = importlib.import_module(f"cvpqc.{modname}")
    if "." in name:
        cls_name, attr = name.split(".")
        prop = vars(getattr(module, cls_name))[attr]
        assert type(prop) is property and prop.fget is not None
    else:
        assert callable(getattr(module, name))
