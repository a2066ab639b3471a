"""The public names and the names the tracing harness wraps resolve, and
every definition of the package has a caller outside the tests."""

import ast
import importlib
from collections import Counter
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


def references(node):
    """How often each name is referred to inside node: identifiers,
    attribute and imported names, and the parts of dotted-name strings
    (the tracing harness and __all__ name what they use in strings)."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                found.update(parts)
    return found


def test_every_definition_in_the_package_has_a_caller():
    """Each module-level function and class of src/nislie is referred to in
    src/, demos/ or perfbench/ outside its own body, or is public."""
    trees = {
        path: ast.parse(path.read_text())
        for folder in ("src", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    total = sum((references(tree) for tree in trees.values()), Counter())
    uncalled = []
    for path in sorted((ROOT / "src" / "nislie").glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in nislie.__all__:
                continue
            if total[node.name] == references(node)[node.name]:
                uncalled.append(f"{path.stem}.{node.name}")
    assert uncalled == []


def test_only_gf2_touches_the_echelon_rows():
    """The rows of SpanBasis are private to gf2: no other module of
    src/nislie reads or writes ._rows or .pivot_rows."""
    touching = [
        f"{path.stem}:{node.lineno}"
        for path in sorted((ROOT / "src" / "nislie").glob("*.py"))
        if path.name != "gf2.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("_rows", "pivot_rows")
    ]
    assert touching == []


def test_only_the_subspace_toolkit_calls_kernel_basis():
    """Outside gf2, kernel_basis() is called only by
    superalgebra.centralizer and forms.BilinearForm.orthogonal_complement:
    every other subspace composes them with gf2.dependencies and
    squares_span instead of a hand-written elimination."""
    calling = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "kernel_basis"
            ):
                calling.append(owner)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{owner}.{child.name}" if named else owner)

    for path in sorted((ROOT / "src" / "nislie").glob("*.py")):
        if path.name != "gf2.py":
            visit(ast.parse(path.read_text()), path.stem)
    assert sorted(calling) == [
        "forms.BilinearForm.orthogonal_complement",
        "superalgebra.centralizer",
    ]


def test_only_derivations_and_isometry_call_adjointness_defect():
    """forms.adjointness_defect is called only by
    derivations.self_adjoint_values, which defines self-adjointness for
    compatible_subspace and check_conditions alike, and by
    isometry._adjointness_defect_rank."""
    calling = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and "adjointness_defect" in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None),
            ):
                calling.append(owner)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{owner}.{child.name}" if named else owner)

    for path in sorted((ROOT / "src" / "nislie").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert sorted(calling) == [
        "derivations.self_adjoint_values",
        "isometry._adjointness_defect_rank",
    ]


def test_the_cli_reads_the_paper_data_from_the_catalog():
    """The CLI names no cocycle tables of its own: of nislie.catalog it
    imports only the entry lookups."""
    tree = ast.parse((ROOT / "src" / "nislie" / "cli.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module in ("catalog", "nislie.catalog")
        for alias in node.names
    }
    assert imported <= {"cocycles_for", "entry_names", "named", "registry"}


def test_no_module_writes_around_a_cached_property():
    """No module of src/nislie calls vars(...): a cached value is filled
    by its own cached_property, never by a hand-written __dict__ entry."""
    calling = [
        f"{path.stem}:{node.lineno}"
        for path in sorted((ROOT / "src" / "nislie").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "vars"
    ]
    assert calling == []
