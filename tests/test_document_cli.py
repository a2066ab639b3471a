import dataclasses
import functools
import io
import json
import random
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nislie import catalog, cli, derivations, isometry, superalgebra
from nislie.catalog import named
from nislie.cli import build_parser, main
from nislie.derivations import CASES
from nislie.document import (
    AlgebraDocument,
    DocumentError,
    derivation_from_data,
    derivation_to_data,
    dumps,
    extension_meta,
    loads,
    quadratic_from_data,
    recipe_to_meta,
    save,
)
from nislie.extension import ExtensionRecipe
from nislie.forms import BilinearForm
from nislie.gf2 import GF2Matrix
from nislie.superalgebra import SuperAlgebra
from oracles import relabel, to_dict


def test_document_roundtrip_bit_identical():
    for name in ("hei-double", "h1-0-4", "h104-D7ext", "tilde-po-0-5"):
        obj = named(name)
        doc = AlgebraDocument(obj.algebra, obj.form, {"catalog": name})
        text = dumps(doc)
        again = dumps(loads(text))
        assert text == again
        back = loads(text)
        assert back.algebra == obj.algebra
        assert back.form.gram == obj.form.gram
        assert back.form.parity == obj.form.parity


def test_document_rejects_malformed():
    with pytest.raises(DocumentError):
        loads("not json")
    with pytest.raises(DocumentError):
        loads(json.dumps({"format_version": 99}))
    with pytest.raises(DocumentError):
        loads(
            json.dumps(
                {
                    "format_version": 1,
                    "basis": [{"name": "a", "parity": 2}],
                }
            )
        )
    with pytest.raises(DocumentError):
        loads(
            json.dumps(
                {
                    "format_version": 1,
                    "basis": [{"name": "a", "parity": 0}],
                    "bracket": [[0, 0, 0]],
                }
            )
        )


@pytest.mark.parametrize(
    "field, value",
    [
        ("bracket", 5),
        ("squaring", 7),
        ("degrees", ["x"]),
        ("form", []),
        # JSON numbers that are not integers, booleans and strings
        pytest.param("bracket", [[0, True, 2]], id="bracket-true"),
        pytest.param("squaring", [[False, 2]], id="squaring-false"),
        pytest.param("basis.0.parity", 1.7, id="parity-1.7"),
        pytest.param("basis.0.parity", "1", id="parity-string"),
        pytest.param("degrees", [1.9], id="degrees-1.9"),
        pytest.param("form.parity", True, id="form-parity-true"),
    ],
)
def test_document_fields_of_the_wrong_type_are_document_errors(
    field, value, tmp_path, capsys
):
    """field is a dotted path into the document; a degrees value is
    repeated once per basis vector."""
    obj = named("hei-double")
    data = json.loads(dumps(AlgebraDocument(obj.algebra, obj.form)))
    if field == "degrees":
        value = value * obj.algebra.dim
    *path, key = field.split(".")
    owner = data
    for step in path:
        owner = owner[int(step) if step.isdigit() else step]
    owner[key] = value
    text = json.dumps(data)
    with pytest.raises(DocumentError):
        loads(text)
    path = tmp_path / "typed.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "triple, message",
    [
        ([0, 1.0, 2], "malformed document: basis index 1.0 outside 0..5"),
        ([-1, 1, 2], "malformed document: basis index -1 outside 0..5"),
        ([0, 1, 6], "malformed document: basis index 6 outside 0..5"),
        ([0, "1", 2], "malformed document: basis index '1' outside 0..5"),
        ([1, 1, 0], "bracket triples must have i < j"),
        ([2, 1, 0], "bracket triples must have i < j"),
    ],
)
def test_bad_bracket_triples_keep_their_document_errors(
    triple, message, tmp_path, capsys
):
    # hei-double has dimension 6; the first bad index is named, before i < j
    obj = named("hei-double")
    data = json.loads(dumps(AlgebraDocument(obj.algebra, obj.form)))
    data["bracket"].append(triple)
    text = json.dumps(data)
    with pytest.raises(DocumentError) as exc:
        loads(text)
    assert str(exc.value) == message
    path = tmp_path / "triple.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {path}: {message}\n"


def recipe_from_meta(meta, dim):
    """The recipe written by recipe_to_meta (`nislie reduce --recipe-out`)."""
    alpha = quadratic_from_data(meta["alpha"]) if "alpha" in meta else None
    a0 = None
    if "a0" in meta:
        a0 = 0
        for i in meta["a0"]:
            a0 |= 1 << i
    return ExtensionRecipe(
        meta["case"],
        derivation_from_data(meta["derivation"], dim),
        alpha=alpha,
        a0=a0,
        m=meta.get("m"),
        beta_star=meta.get("beta_star"),
    ).normalized()


def test_recipe_meta_roundtrip():
    for name in ("h104-D7ext", "hei-oddD-ext", "po05-m1"):
        obj = named(name)
        rec = obj.extension.recipe.normalized()
        meta = recipe_to_meta(rec)
        back = recipe_from_meta(
            json.loads(json.dumps(meta)), obj.algebra.dim - 2
        )
        assert back == rec
        d = rec.derivation
        data = json.loads(json.dumps(derivation_to_data(d)))
        assert derivation_from_data(data, d.dim) == d


def test_recipe_meta_refuses_a_polar_pair_on_the_diagonal():
    meta = recipe_to_meta(named("h104-D7ext").extension.recipe)
    meta["alpha"]["polar"].append([2, 2])
    with pytest.raises(ValueError, match="on the diagonal"):
        recipe_from_meta(meta, named("h1-0-4").algebra.dim)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@functools.cache
def catalog_document(name):
    """The text `nislie catalog export` writes for a catalog entry."""
    obj = named(name)
    meta = {"catalog": name}
    if obj.extension is not None:
        meta["extension"] = extension_meta(obj.extension)
    return dumps(AlgebraDocument(obj.algebra, obj.form, meta))


def json_positions(node, path=()):
    """Every position in a JSON tree, the root included, as a key path."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from json_positions(child, path + (key,))


def mutate(draw, data):
    """data with one to three positions replaced by arbitrary JSON, moved
    by one (integers) or deleted."""
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(json_positions(data))))
        owner = data
        for key in path[:-1]:
            owner = owner[key]
        value = owner[path[-1]] if path else data
        action = draw(st.sampled_from(["replace", "nudge", "delete"]))
        if action == "delete" and path:
            del owner[path[-1]]
            continue
        if action == "nudge" and type(value) is int:
            value += draw(st.sampled_from([-1, 1]))
        else:
            value = draw(JSON_VALUES)
        if path:
            owner[path[-1]] = value
        else:
            data = value
    return data


@st.composite
def mutated_documents(draw):
    """A small catalog document, mutated."""
    data = json.loads(
        catalog_document(draw(st.sampled_from(["hei-double", "ba-double", "hei-oddD-ext"])))
    )
    return json.dumps(mutate(draw, data))


NAMES = st.text(st.characters() | st.sampled_from('"\\/\n\u00e9\u2028\U0001d11e'), max_size=4)


@st.composite
def documents(draw):
    """Small documents: names with quotes, backslashes and non-ASCII,
    empty or full bracket and squaring lists, with and without degrees
    or a form, and nested metadata."""
    n = draw(st.integers(1, 5))
    names = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    values = st.integers(0, 2**n - 1) if draw(st.booleans()) else st.just(0)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = draw(values)
    g = SuperAlgebra(
        names=tuple(names),
        parity=tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))),
        bracket_table=tuple(map(tuple, table)),
        squaring=tuple(draw(st.lists(values, min_size=n, max_size=n))),
        degrees=draw(st.none() | st.tuples(*[st.integers(-3, 9)] * n)),
    )
    form = None
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, 2**n - 1), min_size=n, max_size=n))
        form = BilinearForm(GF2Matrix(rows, n), draw(st.integers(0, 1)))
    metadata = draw(st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=3))
    return AlgebraDocument(g, form, metadata)


@given(documents())
@settings(max_examples=100, deadline=None)
def test_dumps_writes_the_json_layout_byte_for_byte(doc):
    assert dumps(doc) == json.dumps(to_dict(doc), indent=1, sort_keys=True) + "\n"


def test_dumps_writes_every_catalog_document_as_json_does():
    for name in catalog.entry_names():
        obj = named(name)
        for form in (obj.form, None):
            doc = AlgebraDocument(obj.algebra, form, {"catalog": {"name": name}})
            assert dumps(doc) == json.dumps(to_dict(doc), indent=1, sort_keys=True) + "\n"


def exit_code_and_stderr(argv):
    """The exit code of `nislie argv` and what it wrote to stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@given(mutated_documents())
@settings(max_examples=100, deadline=None)
def test_fuzzed_documents_load_or_fail_as_input_errors(text):
    try:
        loads(text)
        loaded = True
    except DocumentError:
        loaded = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.json"
        path.write_text(text)
        for command in ("validate", "outer"):
            code, err = exit_code_and_stderr([command, str(path)])
            assert code in (0, 1, 2) and (loaded or code == 2), (command, code)
            assert "Traceback" not in err


def test_cli_validate_exit_codes(tmp_path):
    assert main(["validate", "hei-double"]) == 0
    assert main(["validate", "catalog:po05-m0"]) == 1
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["validate", str(bad)]) == 2


def test_cli_validate_corrupted_document(tmp_path, capsys):
    obj = named("hei-double")
    from nislie.document import save

    doc = AlgebraDocument(obj.algebra, obj.form, {})
    data = to_dict(doc)
    # corrupt one Jacobi-relevant bracket triple: drop [p, q] = z
    data["bracket"] = [t for t in data["bracket"] if t != [0, 1, 2]]
    p = tmp_path / "corrupt.json"
    p.write_text(json.dumps(data))
    rc = main(["validate", str(p)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out or "invariant" in out


def test_cli_outer_and_match(capsys):
    assert main(["outer", "hei-double", "--match-paper"]) == 0
    out = capsys.readouterr().out
    assert "11 classes (7 even, 4 odd)" in out
    assert "underlining discrepancies: none" in out
    assert main(["outer", "gl-2-2"]) == 0
    out = capsys.readouterr().out
    assert "1 classes" in out


def test_cli_outer_on_invalid_algebra_is_a_negative(capsys):
    # po05-m0 fails Jacobi, so some ad_t is not a derivation
    assert main(["outer", "po05-m0"]) == 1
    captured = capsys.readouterr()
    assert "an inner map is not a derivation" in captured.err
    assert "(ad(thetaxi1) is not in the derivation space: leibniz" in captured.err
    assert "nislie validate" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("name", ["po05-m0", "po05-m1", "po-0-5"])
def test_cli_outer_stops_at_the_first_failing_inner_map(
    name, monkeypatch, tmp_path, capsys
):
    # the exported document fails before any derivation system is built
    def refuse(*args):
        raise AssertionError("the derivation system was built")

    monkeypatch.setattr(derivations, "_fine_blocks", refuse)
    obj = named(name)
    path = tmp_path / f"{name}.json"
    save(AlgebraDocument(obj.algebra, obj.form, {"catalog": name}), path)
    assert main(["outer", str(path)]) == 1
    assert capsys.readouterr() == (
        "",
        "error: an inner map is not a derivation (ad(thetaxi1) is not in the"
        " derivation space: leibniz fails at (theta, eta1)), so the input fails"
        " the axioms; run `nislie validate` on it\n",
    )


def test_cli_extend_reduce_roundtrip(tmp_path, capsys):
    out1 = tmp_path / "ext.json"
    rc = main(
        [
            "extend",
            "catalog:h1-0-4",
            "--case",
            "evenB-evenD",
            "--derivation",
            "D7",
            "--alpha",
            "alpha7",
            "--out",
            str(out1),
        ]
    )
    assert rc == 0
    back = tmp_path / "red.json"
    rc = main(
        ["reduce", str(out1), "--center-element", "x", "--out", str(back)]
    )
    assert rc == 0
    red = json.loads(back.read_text())
    base = json.loads(dumps(AlgebraDocument(named("h1-0-4").algebra, named("h1-0-4").form)))
    assert red["bracket"] == base["bracket"]
    assert red["squaring"] == base["squaring"]
    recipe_sidecar = json.loads((tmp_path / "red.json.recipe.json").read_text())
    assert recipe_sidecar["case"] == "evenB-evenD"


# catalog extension entry -> the `nislie extend` arguments that rebuild it
CATALOG_EXTENSIONS = {
    "h104-D2ext": ["h1-0-4", "--case", "evenB-evenD", "--derivation", "D2",
                   "--alpha", "alpha2", "--beta-star", "0"],
    "h104-D6ext": ["h1-0-4", "--case", "evenB-evenD", "--derivation", "D6",
                   "--alpha", "alpha6", "--beta-star", "1"],
    "h104-D7ext": ["h1-0-4", "--case", "evenB-evenD", "--derivation", "D7",
                   "--alpha", "alpha7", "--beta-star", "0"],
    "tilde-po-0-5": ["h1-0-5", "--case", "oddB-evenD", "--derivation", "D1"],
    "po05-m0": ["h1-0-5", "--case", "oddB-oddD", "--derivation", "D6",
                "--alpha", "alpha6", "--a0", "0", "--m", "0", "--unchecked"],
    "po05-m1": ["h1-0-5", "--case", "oddB-oddD", "--derivation", "D6",
                "--alpha", "alpha6", "--a0", "0", "--m", "1", "--unchecked"],
    "hei-oddD-ext": ["hei-double", "--case", "evenB-oddD", "--derivation", "D6",
                     "--a0", "0"],
    "ba-oddD-ext": ["ba-double", "--case", "evenB-oddD", "--derivation", "D4",
                    "--a0", "0"],
}


@pytest.mark.parametrize("via", ["name", "document"])
@pytest.mark.parametrize("name", CATALOG_EXTENSIONS)
def test_cli_extend_writes_the_catalog_extension(name, via, tmp_path, capsys):
    base, *args = CATALOG_EXTENSIONS[name]
    if via == "document":
        # a document equal to its entry resolves the entry's names too
        path = tmp_path / "base.json"
        path.write_text(catalog_document(base))
        base = str(path)
    out = tmp_path / "ext.json"
    assert main(["extend", base, *args, "--out", str(out)]) == 0
    built = json.loads(out.read_text())
    entry = json.loads(catalog_document(name))
    built.pop("metadata")
    entry.pop("metadata")
    assert built == entry


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "h1-0-4", "--case", "evenB-evenD", "--derivation", "D7",
         "--alpha", "alpha7", "--beta-star", "0"],
        ["outer", "h1-0-5", "--match-paper"],
    ],
    ids=["extend", "match-paper"],
)
def test_cli_builds_the_catalog_entry_once(argv, monkeypatch, tmp_path, capsys):
    calls = []
    build = catalog.hamiltonian

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(catalog, "hamiltonian", counted)
    if argv[0] == "extend":
        argv = [*argv, "--out", str(tmp_path / "ext.json")]
    assert main(argv) == 0
    assert len(calls) == 1


def test_cli_report_h05_builds_each_entry_once(monkeypatch, capsys):
    calls = []
    build = catalog.hamiltonian

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(catalog, "hamiltonian", counted)
    assert main(["report", "--table", "h05"]) == 0
    # h1-0-5, po05-m0 and po05-m1: the adapted-isometry row reuses the
    # extensions of the rows above it
    assert len(calls) == 3


def test_cli_extend_rejects_incompatible(capsys):
    rc = main(
        [
            "extend",
            "catalog:h1-0-5",
            "--case",
            "oddB-evenD",
            "--derivation",
            "D5",
            "--out",
            "/tmp/never-written.json",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "4D1" in err


# the flags of the recipe fields each case has (README, "The four extension
# cases"), and a base and derivation that the case accepts
CASE_FLAGS = {
    "evenB-evenD": ({"--alpha", "--beta-star"}, "h1-0-4", "D7"),
    "evenB-oddD": ({"--a0"}, "hei-double", "D6"),
    "oddB-oddD": ({"--alpha", "--a0", "--m"}, "h1-0-5", "D6"),
    "oddB-evenD": (set(), "h1-0-5", "D1"),
}
FLAG_VALUES = {"--alpha": "alpha7", "--a0": "0", "--m": "1", "--beta-star": "1"}


@pytest.mark.parametrize(
    "case,flag",
    [(c, f) for c in CASES for f in FLAG_VALUES if f not in CASE_FLAGS[c][0]],
)
def test_cli_extend_refuses_a_flag_the_case_has_no_field_for(
    case, flag, tmp_path, capsys
):
    _, base, d = CASE_FLAGS[case]
    out = tmp_path / "ext.json"
    argv = ["extend", base, "--case", case, "--derivation", d, "--out", str(out)]
    assert main([*argv, flag, FLAG_VALUES[flag]]) == 2
    assert capsys.readouterr().err == f"error: {flag} does not apply to case {case}\n"
    assert not out.exists()
    # without the flag the same call is no input error
    assert main(argv) in (0, 1)


def test_cli_reduce_has_no_case_option(tmp_path, capsys):
    # the case of a reduction follows from the form and x; it is not chosen
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "h104-D7ext", "--center-element", "x", "--case",
              "evenB-evenD", "--out", str(tmp_path / "red.json")])
    assert exc.value.code == 2


def test_cli_isometry_modes(tmp_path, capsys):
    assert (
        main(
            [
                "isometry",
                "catalog:po05-m1",
                "catalog:po05-m0",
                "--mode",
                "adapted",
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "not found (proved)" in out
    assert (
        main(
            [
                "isometry",
                "catalog:h104-D7ext",
                "catalog:h104-D7ext",
                "--mode",
                "adapted",
            ]
        )
        == 0
    )
    # general mode on a small pair
    assert main(["isometry", "hei-double", "hei-double", "--budget", "50000"]) == 0
    # invariant screen
    assert main(["isometry", "hei-double", "ba-double", "--budget", "1000"]) in (0, 1, 3)


def test_cli_report_tables(capsys):
    assert main(["report", "--table", "h04"]) == 0
    out = capsys.readouterr().out
    assert "out = 5" in out and "out = 1" in out and "out = 3" in out
    assert main(["report", "--table", "h05p"]) == 0
    assert main(["report", "--table", "h05"]) == 0
    out = capsys.readouterr().out
    assert "m=1 vs m=0 adapted isometry: not-found ok" in out


def test_cli_report_h04_draws_no_conclusion_from_equal_dimensions(
    monkeypatch, capsys
):
    # every row as expected, but all three out-dimensions equal
    entries = {
        name: dataclasses.replace(e, out_dim=1) for name, e in catalog.registry().items()
    }
    one = type("Outer", (), {"dim": 1})
    zero = type("Outer", (), {"dim": 0})
    monkeypatch.setattr(cli, "registry", lambda: entries)
    monkeypatch.setattr(cli, "outer_derivations", lambda g: (one, zero))
    assert main(["report", "--table", "h04"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" not in out and "non-isomorphic" not in out
    assert out.splitlines()[-1] == "out-dimensions coincide, so they do not separate the three"


def test_cli_report_h05_fails_when_a_refuted_recipe_passes(monkeypatch, capsys):
    # the po(0|5;m) recipes are refuted: literal data that passed the
    # axioms would not reproduce the table
    assert main(["report", "--table", "h05"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out
    monkeypatch.setattr(cli, "validate", lambda g: superalgebra.ValidationReport())
    assert main(["report", "--table", "h05"]) == 1
    rows = [ln for ln in capsys.readouterr().out.splitlines() if "axioms" in ln]
    assert len(rows) == 2 and all(ln.endswith(" axioms pass MISMATCH") for ln in rows)


@pytest.mark.parametrize("argv", [["report", "--table", "h99"], ["catalog", "frob"]])
def test_cli_refuses_an_unknown_table_or_action(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "hei-double" in out and "defective" in out


def test_cli_unknown_catalog_name(capsys):
    assert main(["catalog", "export", "nope", "--out", "/tmp/x.json"]) == 2


def test_cli_budget_exhausted_exit_code(tmp_path, capsys):
    # an unseeded 16-dim search with a tiny budget cannot finish
    rc = main(
        [
            "isometry",
            "catalog:h104-D2ext",
            "catalog:h104-D6ext",
            "--budget",
            "3",
        ]
    )
    assert rc in (1, 3)
    if rc == 3:
        assert "budget exhausted" in capsys.readouterr().out


def test_cli_adapted_budget_exhausted_prints_the_reason(tmp_path, capsys):
    paths = {}
    for label, derivation, a0 in (("d6", "D6", "0"), ("d67", "D6+D7", "z")):
        paths[label] = str(tmp_path / f"{label}.json")
        assert main(
            ["extend", "hei-double", "--case", "evenB-oddD", "--derivation",
             derivation, "--a0", a0, "--out", paths[label]]
        ) == 0
    capsys.readouterr()
    argv = ["isometry", paths["d6"], paths["d67"], "--mode", "adapted"]
    assert main(argv) == 1
    assert main(argv + ["--budget", "1"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "budget exhausted: isometry enumeration exceeded 1 nodes"


def test_cli_seed_off_the_generators_gets_a_note(capsys):
    assert main(["isometry", "hei-double", "hei-double", "--seed", "z=z"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "found (8 nodes); verified: True\n"
    assert captured.err == (
        "note: ignoring --seed z=z: only seeds on the generators"
        " p, q, zstar steer the search\n"
    )
    assert main(["isometry", "hei-double", "hei-double", "--seed", "p=p"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_seed_builds_the_generating_sequence_once(monkeypatch, capsys):
    # the seed filter and the search read the same cached sequence
    calls = []
    build = superalgebra._generating_sequence

    def counted(g):
        calls.append(g)
        return build(g)

    monkeypatch.setattr(superalgebra, "_generating_sequence", counted)
    assert main(["isometry", "hei-double", "hei-double", "--seed", "p=p"]) == 0
    assert capsys.readouterr().out == "found (8 nodes); verified: True\n"
    assert len(calls) == 1


def test_cli_verifies_a_found_witness_once(monkeypatch, capsys):
    # the search verifies its leaf; the CLI reports that check, not a second
    calls = []
    verify = isometry.verify_isometry

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(isometry, "verify_isometry", counted)
    monkeypatch.setattr(cli, "verify_isometry", counted, raising=False)
    assert main(["isometry", "hei-double", "hei-double"]) == 0
    assert capsys.readouterr().out == "found (8 nodes); verified: True\n"
    assert len(calls) == 1


def test_cli_isometry_json_general_mode(capsys):
    argv = ["isometry", "hei-double", "hei-double", "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {
        "status": "found", "nodes": 8, "reason": "",
        "verified": True,
    }
    assert main(["isometry", "gl-1-1", "purely-odd-ext", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "status": "not-found", "nodes": 3,
        "reason": "generator-image search exhausted",
    }
    argv = ["isometry", "hei-double", "ba-double", "--budget", "5", "--json"]
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().out) == {
        "status": "budget-exhausted", "nodes": 6,
        "reason": "isometry enumeration exceeded 5 nodes",
    }


def test_cli_isometry_json_adapted_mode(capsys):
    argv = ["isometry", "po05-m1", "po05-m0", "--mode", "adapted", "--json"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "not-found" and report["reason"]
    assert set(report) == {"status", "nodes", "reason"}
    argv = ["isometry", "hei-oddD-ext", "hei-oddD-ext", "--mode", "adapted",
            "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {
        "status": "found", "nodes": 3, "reason": "",
    }


def test_cli_unsound_table_exits_3_naming_it(tmp_path, capsys):
    # the triple [0, 1, 0] makes [p, q] = z + p, which is not graded: the
    # search ends within its budget, and the exhausted search is no proof
    bad = tmp_path / "bad.json"
    assert main(["catalog", "export", "hei-double", "--out", str(bad)]) == 0
    data = json.loads(bad.read_text())
    data["bracket"].append([0, 1, 0])
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    reason = "a bracket table is not symmetric, alternating and graded"
    assert main(["isometry", str(bad), "hei-double"]) == 3
    assert capsys.readouterr().out == (
        f"budget exhausted after 215 nodes: {reason}\n"
    )
    assert main(["isometry", str(bad), "hei-double", "--json"]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "status": "budget-exhausted", "nodes": 215, "reason": reason,
    }


def test_cli_outer_json(capsys):
    assert main(["outer", "h1-0-5", "--json"]) == 0
    import json as _json

    data = _json.loads(capsys.readouterr().out)
    assert data["dim_even"] == 5 and data["dim_odd"] == 1
    # the Leibniz rows of 10 generators built the system, not all 30 vectors
    assert data["leibniz_sources"] == 10
    # the rule rows inserted into the block spans, per parity
    assert data["rows"]["even"] > 0 and data["rows"]["odd"] > 0
    degs = [
        r.get("degree") for r in data["representatives"] if r["parity"] == 1
    ]
    assert degs and all(d is not None for d in degs)


def test_cli_validate_json_says_how_jacobi_was_decided(capsys):
    assert main(["validate", "h1-0-5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["axioms"] is True and data["jacobi_generators"] == 10
    assert main(["validate", "catalog:po05-m0", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["failures"][0]["axiom"] == "jacobi"
    assert data["jacobi_generators"] is None


def test_cli_outer_names_declared_degrees_that_do_not_grade(tmp_path, capsys):
    # gl(1|1) passes the axioms, but degrees (0, 3, 0, 3) split ad(E12)
    # across two shifts: a negative about the degrees, not the axioms
    obj = named("gl-1-1")
    g = dataclasses.replace(obj.algebra, degrees=(0, 3, 0, 3))
    path = tmp_path / "gl11-degrees.json"
    save(AlgebraDocument(g, obj.form), path)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["outer", str(path)]) == 1
    err = capsys.readouterr().err
    assert "the declared degrees do not respect the bracket: ad(E12)" in err
    assert "fails the axioms" not in err and "Traceback" not in err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return f"@{path}"


def with_metadata(tmp_path, metadata):
    obj = named("hei-double")
    path = tmp_path / "meta.json"
    save(AlgebraDocument(obj.algebra, obj.form, metadata), path)
    return str(path)


def with_extension_meta(tmp_path, meta):
    return with_metadata(tmp_path, {"extension": meta})


def relabelled_as_catalog_entry(tmp_path, name):
    """A relabelling of the entry, saved with the entry's catalog metadata:
    the document no longer carries the entry's basis."""
    obj = named(name)
    algebra, form = relabel(obj.algebra, obj.form, random.Random(1))
    path = tmp_path / "relabelled.json"
    save(AlgebraDocument(algebra, form, {"catalog": name}), path)
    return str(path)


MALFORMED = {
    "seed without =": lambda tmp: [
        "isometry", "hei-double", "hei-double", "--seed", "foo"],
    "seed with two =": lambda tmp: [
        "isometry", "hei-double", "hei-double", "--seed", "x=y=z"],
    "missing derivation file": lambda tmp: [
        "extend", "hei-double", "--case", "evenB-oddD",
        "--derivation", f"@{tmp / 'missing.json'}", "--out", str(tmp / "o.json")],
    "derivation file not JSON": lambda tmp: [
        "extend", "hei-double", "--case", "evenB-oddD",
        "--derivation", write(tmp, "d.json", "{images"), "--out", str(tmp / "o.json")],
    "derivation file without images": lambda tmp: [
        "extend", "hei-double", "--case", "evenB-oddD",
        "--derivation", write(tmp, "d.json", '{"parity": 1}'),
        "--out", str(tmp / "o.json")],
    "derivation index out of range": lambda tmp: [
        "extend", "hei-double", "--case", "evenB-oddD",
        "--derivation", write(tmp, "d.json", '{"images": [[0, 9]], "parity": 1}'),
        "--out", str(tmp / "o.json")],
    "alpha file without polar": lambda tmp: [
        "extend", "h1-0-4", "--case", "evenB-evenD", "--derivation", "D7",
        "--alpha", write(tmp, "a.json", '{"n": 8}'), "--out", str(tmp / "o.json")],
    "alpha polar pair on the diagonal": lambda tmp: [
        "extend", "hei-double", "--case", "evenB-evenD", "--derivation", "D9+D10",
        "--alpha", write(tmp, "a.json", '{"n": 4, "polar": [[0, 0]], "diag": []}'),
        "--out", str(tmp / "o.json")],
    "alpha polar pair on the diagonal, unchecked": lambda tmp: [
        "extend", "hei-double", "--case", "evenB-evenD", "--derivation", "D9+D10",
        "--alpha", write(tmp, "a.json", '{"n": 4, "polar": [[0, 0]], "diag": []}'),
        "--unchecked", "--out", str(tmp / "o.json")],
    "named derivations of mixed parity": lambda tmp: [
        "extend", "hei-double", "--case", "evenB-evenD", "--derivation", "D1+D3",
        "--out", str(tmp / "o.json")],
    "named cocycles on a relabelled entry, match-paper": lambda tmp: [
        "outer", relabelled_as_catalog_entry(tmp, "hei-double"), "--match-paper"],
    "named cocycles on a relabelled entry, extend": lambda tmp: [
        "extend", relabelled_as_catalog_entry(tmp, "hei-double"),
        "--case", "evenB-oddD", "--derivation", "D6", "--a0", "0",
        "--out", str(tmp / "o.json")],
    "named cocycles on a document whose catalog metadata is not a name": lambda tmp: [
        "extend", with_metadata(tmp, {"catalog": ["hei-double"]}),
        "--case", "evenB-oddD", "--derivation", "D6", "--a0", "0",
        "--out", str(tmp / "o.json")],
    "named alpha of an entry without a cocycle table": lambda tmp: [
        "extend", "gl-1-1", "--case", "evenB-evenD",
        "--derivation", write(tmp, "d.json", '{"parity": 0, "images": []}'),
        "--alpha", "alpha1", "--out", str(tmp / "o.json")],
    "extension metadata without x_index": lambda tmp: [
        "isometry", with_extension_meta(tmp, {}), "hei-oddD-ext",
        "--mode", "adapted"],
    "extension metadata naming a non-central x": lambda tmp: [
        "isometry", with_extension_meta(tmp, {
            "x_index": 0, "star_index": 1, "recipe": {"case": "evenB-oddD"}}),
        "hei-oddD-ext", "--mode", "adapted"],
    "negative budget": lambda tmp: [
        "isometry", "hei-double", "hei-double", "--budget", "-1"],
    "negative budget, adapted": lambda tmp: [
        "isometry", "hei-oddD-ext", "hei-oddD-ext", "--mode", "adapted",
        "--budget", "-1"],
    "output directory missing": lambda tmp: [
        "catalog", "export", "hei-double", "--out", str(tmp / "no" / "x.json")],
    "center element zero": lambda tmp: [
        "reduce", "h104-D7ext", "--center-element", "0",
        "--out", str(tmp / "r.json")],
    "center element of mixed parity": lambda tmp: [
        "reduce", "h104-D7ext", "--center-element", "x+xi1",
        "--out", str(tmp / "r.json")],
}


@pytest.mark.parametrize("case", MALFORMED)
def test_cli_malformed_input_exits_2(case, tmp_path, capsys):
    assert main(MALFORMED[case](tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert "Traceback" not in captured.err
    if case.startswith("extension metadata"):
        assert "extension metadata does not reduce the input" in captured.err
    if case.startswith("named cocycles on a relabelled entry"):
        assert "pass @file" in captured.err
    if case == "center element zero":
        assert captured.err == "error: center element must be nonzero\n"
    if case == "center element of mixed parity":
        assert captured.err == "error: center element must be parity-homogeneous\n"


@functools.cache
def hei_double_extension(derivation):
    """The document `nislie extend hei-double --case evenB-oddD` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ext.json"
        argv = ["extend", "hei-double", "--case", "evenB-oddD",
                "--derivation", derivation, "--out", str(path)]
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return path.read_text()


@pytest.mark.parametrize("x_index", [268435456, True], ids=["huge", "true"])
def test_cli_adapted_refuses_an_x_index_that_is_not_a_basis_index(
    x_index, tmp_path, capsys
):
    data = json.loads(hei_double_extension("D6"))
    data["metadata"]["extension"]["x_index"] = x_index
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data))
    tracemalloc.start()
    try:
        code = main(["isometry", str(path), "hei-oddD-ext", "--mode", "adapted"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"x_index {x_index!r} outside 0..7" in captured.err
    # the index is refused before 1 << x_index is formed (32 MB here)
    assert peak < 4 * 2**20


# positions of the extension metadata that adapted mode reads or carries;
# () is the whole "extension" object
ADAPTED_FIELDS = [("x_index",), ("star_index",), ("recipe", "case"), ("recipe",), ()]
METADATA_VALUES = (
    JSON_VALUES
    | st.integers(0, 9)
    | st.integers(2**20, 2**64)
    | st.integers(-(2**64), -1)
    | st.sampled_from(CASES)
)


@given(
    st.lists(
        st.tuples(
            st.sampled_from([0, 1]),
            st.sampled_from(ADAPTED_FIELDS),
            st.none() | st.tuples(METADATA_VALUES),  # None deletes the field
        ),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=100, deadline=None)
def test_fuzzed_extension_metadata_gives_an_exit_code(mutations):
    docs = [json.loads(hei_double_extension(d)) for d in ("D6", "D7")]
    for which, field, value in mutations:
        owner, key = docs[which]["metadata"], "extension"
        for step in field:
            owner = owner.get(key) if isinstance(owner, dict) else None
            key = step
        if not isinstance(owner, dict) or (value is None and key not in owner):
            continue
        if value is None:
            del owner[key]
        else:
            owner[key] = value[0]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, data in enumerate(docs):
            paths.append(Path(tmp) / f"ext{k}.json")
            paths[-1].write_text(json.dumps(data))
        code, err = exit_code_and_stderr(
            ["isometry", *map(str, paths), "--mode", "adapted", "--budget", "2000"]
        )
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@functools.cache
def h104_d7_spec_files():
    """The derivation and alpha of h104-D7ext as @file JSON."""
    meta = recipe_to_meta(named("h104-D7ext").extension.recipe)
    return {"derivation": meta["derivation"], "alpha": meta["alpha"]}


def extend_h104_with_spec_files(files):
    """Exit code and stderr of `nislie extend h1-0-4` with the recipe of
    h104-D7ext read from --derivation and --alpha @files."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["extend", "h1-0-4", "--case", "evenB-evenD", "--beta-star", "0",
                "--out", str(Path(tmp) / "ext.json")]
        for key, value in files.items():
            path = Path(tmp) / f"{key}.json"
            path.write_text(value)
            argv += [f"--{key}", f"@{path}"]
        return exit_code_and_stderr(argv)


def test_extend_reads_spec_files():
    files = {key: json.dumps(value) for key, value in h104_d7_spec_files().items()}
    assert extend_h104_with_spec_files(files) == (0, "")


@given(st.sets(st.sampled_from(["derivation", "alpha"]), min_size=1), st.data())
@settings(max_examples=100, deadline=None)
def test_fuzzed_extend_spec_files_give_an_exit_code(which, data):
    files = {}
    for key, value in h104_d7_spec_files().items():
        if key in which:
            value = mutate(data.draw, json.loads(json.dumps(value)))
        files[key] = json.dumps(value)
    code, err = extend_h104_with_spec_files(files)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


SEED_TOKENS = st.sampled_from(
    ["p", "q", "z", "pstar", "qstar", "zstar", "0", "", " ", "x", "P", "+", "=", ",", "-p"]
) | st.text(max_size=3)


@given(
    st.lists(
        st.tuples(st.lists(SEED_TOKENS, max_size=3), st.lists(SEED_TOKENS, max_size=3)),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from(["hei-double", "ba-double"]),
)
@settings(max_examples=100, deadline=None)
def test_fuzzed_isometry_seeds_give_an_exit_code(pairs, target):
    text = ",".join(f"{'+'.join(a)}={'+'.join(b)}" for a, b in pairs)
    code, err = exit_code_and_stderr(
        ["isometry", "hei-double", target, f"--seed={text}", "--budget", "500"]
    )
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


def run_cli(parse, argv, capsys):
    """Exit code and stdout of one command, through the given parser."""
    args = parse(argv)
    code = args.fn(args)
    return code, capsys.readouterr().out


def test_cli_parser_is_reused_without_carrying_options(capsys):
    # one process, flags that differ from call to call: each call answers
    # as a fresh parser does, so no option sticks to the shared parser
    calls = [
        ["validate", "hei-double", "--json"],
        ["validate", "hei-double"],
        ["isometry", "hei-double", "ba-double", "--budget", "5"],
        ["isometry", "hei-double", "ba-double"],
        ["outer", "hei-double", "--match-paper"],
        ["outer", "hei-double"],
    ]
    for argv in calls:
        code = main(argv)
        out = capsys.readouterr().out
        fresh = run_cli(build_parser().parse_args, argv, capsys)
        assert (code, out) == fresh, argv
    assert main(["validate", "hei-double"]) == 0
    assert not capsys.readouterr().out.startswith("{")


def element_tokens(names):
    """Basis names, near misses and junk, joined the way elements are
    written ("p + q")."""
    token = st.sampled_from([*names, "0", "", " ", "+", "-", "x0", "P"]) | st.text(
        max_size=3
    )
    return st.lists(token, max_size=4).map("+".join)


def parses(g, text):
    """Whether text names an element of g ("0" and "" name zero)."""
    if text.strip() in ("0", ""):
        return True
    try:
        g.element(text)
    except ValueError:
        return False
    return True


@given(element_tokens(named("hei-double").algebra.names))
@settings(max_examples=100, deadline=None)
def test_fuzzed_a0_gives_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = exit_code_and_stderr(
            ["extend", "hei-double", "--case", "evenB-oddD", "--derivation", "D6",
             f"--a0={text}", "--out", str(Path(tmp) / "ext.json")]
        )
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if not parses(named("hei-double").algebra, text):
        assert code == 2


# a command per option: argparse reads --opt=-- as an empty list, past
# choices and type
DASH_VALUE_COMMANDS = {
    "extend": ["extend", "hei-double", "--case", "evenB-oddD", "--derivation", "D6",
               "--a0", "0", "--out", "OUT"],
    "reduce": ["reduce", "hei-double", "--center-element", "z", "--out", "OUT"],
    "isometry": ["isometry", "hei-double", "hei-double"],
    "report": ["report", "--table", "h04"],
}


@pytest.mark.parametrize(
    "command, option",
    [("extend", o) for o in ("--case", "--derivation", "--a0", "--alpha", "--m",
                             "--out")]
    + [("reduce", o) for o in ("--center-element", "--out", "--recipe-out")]
    + [("isometry", o) for o in ("--mode", "--budget", "--seed")]
    + [("report", "--table")],
)
def test_an_option_value_of_two_dashes_is_refused(command, option, tmp_path):
    out = tmp_path / "out.json"
    argv = [str(out) if a == "OUT" else a for a in DASH_VALUE_COMMANDS[command]]
    argv.append(f"{option}=--")
    code, err = exit_code_and_stderr(argv)
    assert (code, err) == (2, f"error: argument {option}: '--' is not a value\n")
    assert not out.exists()


@given(element_tokens(named("h104-D7ext").algebra.names))
@example("--")
@settings(max_examples=100, deadline=None)
def test_fuzzed_center_element_gives_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = exit_code_and_stderr(
            ["reduce", "h104-D7ext", f"--center-element={text}",
             "--out", str(Path(tmp) / "red.json")]
        )
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if not parses(named("h104-D7ext").algebra, text):
        assert code == 2
