"""The public names and the names the tracing harness wraps resolve."""

import ast
import importlib
from pathlib import Path

import nislie

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_resolves():
    assert nislie.__all__
    for name in nislie.__all__:
        assert getattr(nislie, name, None) is not None, name


def traced_names():
    """(module, attribute) of every entry of SPANNED and COUNTED in
    perfbench/tracing.py, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                found[target.id] = [
                    (entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts
                ]
    assert set(found) == {"SPANNED", "COUNTED"} and all(found.values())
    return found["SPANNED"] + found["COUNTED"]


def test_every_traced_name_resolves_in_the_package():
    for module_name, attr in traced_names():
        module = importlib.import_module(module_name)
        assert Path(module.__file__).resolve().is_relative_to(ROOT / "src"), module_name
        owner = module
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{module_name}.{attr}"
        assert callable(owner), f"{module_name}.{attr}"
