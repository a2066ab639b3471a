"""JSON exchange format for algebras, forms, and extension metadata.

Sparse, canonical, and version-tagged: brackets as ascending (i, j, k)
triples with i < j, squaring as ascending (i, k) pairs, Gram entries as
ascending (i, j) pairs with i <= j.  Deserializing then serializing a
canonical document is the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .derivations import Derivation
from .errors import NisLieError
from .extension import ExtensionRecipe, ExtensionResult
from .forms import BilinearForm, QuadraticForm
from .gf2 import GF2Matrix, bits
from .superalgebra import SuperAlgebra

FORMAT_VERSION = 1


class DocumentError(NisLieError):
    pass


@dataclass
class AlgebraDocument:
    algebra: SuperAlgebra
    form: BilinearForm | None = None
    metadata: dict = field(default_factory=dict)


def _sparse_matrix(m: GF2Matrix, symmetric: bool) -> list[list[int]]:
    out = []
    for i, row in enumerate(m.rows):
        for j in bits(row):
            if symmetric and j < i:
                continue
            out.append([i, j])
    return sorted(out)


def _index(i, n: int, what: str = "basis index") -> int:
    """i when it is an integer in 0..n-1; JSON true, 1.0 and "1" are not."""
    if type(i) is not int or not 0 <= i < n:
        raise ValueError(f"{what} {i!r} outside 0..{n - 1}")
    return i


def from_dict(data: dict) -> AlgebraDocument:
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    if data.get("format_version") != FORMAT_VERSION:
        raise DocumentError("missing or unsupported format_version")
    basis = data.get("basis")
    if not isinstance(basis, list) or not basis:
        raise DocumentError("missing basis")
    names, parity = [], []
    for entry in basis:
        try:
            names.append(str(entry["name"]))
            parity.append(_index(entry["parity"], 2, "parity"))
        except (TypeError, KeyError, ValueError) as exc:
            raise DocumentError(f"bad basis entry: {entry!r}") from exc
    n = len(names)
    if len(set(names)) != n:
        raise DocumentError("basis names must be distinct")
    table = [[0] * n for _ in range(n)]
    for triple in data.get("bracket", []):
        if not isinstance(triple, list) or len(triple) != 3:
            raise DocumentError(f"bad bracket triple {triple!r}")
        i, j, k = triple
        if not (
            type(i) is type(j) is type(k) is int and 0 <= i < j < n and 0 <= k < n
        ):
            for t in triple:
                _index(t, n)  # raises on the first bad index
            raise DocumentError("bracket triples must have i < j")
        table[i][j] ^= 1 << k
        table[j][i] ^= 1 << k
    squaring = [0] * n
    for pair in data.get("squaring", []):
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(f"bad squaring pair {pair!r}")
        i, k = (_index(t, n) for t in pair)
        squaring[i] ^= 1 << k
    degrees = data.get("degrees")
    if degrees is not None:
        if len(degrees) != n:
            raise DocumentError("degrees length mismatch")
        if any(type(d) is not int for d in degrees):
            raise DocumentError(f"degrees must be integers: {degrees!r}")
        degrees = tuple(degrees)
    g = SuperAlgebra(
        names=tuple(names),
        parity=tuple(parity),
        bracket_table=tuple(tuple(r) for r in table),
        squaring=tuple(squaring),
        degrees=degrees,
    )
    form = None
    if "form" in data:
        fdata = data["form"]
        p = _index(fdata.get("parity"), 2, "form parity")
        rows = [0] * n
        for pair in fdata.get("gram", []):
            if not isinstance(pair, list) or len(pair) != 2:
                raise DocumentError(f"bad gram pair {pair!r}")
            i, j = (_index(t, n) for t in pair)
            if i > j:
                raise DocumentError("gram pairs must have i <= j")
            rows[i] |= 1 << j
            if i != j:
                rows[j] |= 1 << i
        form = BilinearForm(GF2Matrix(rows, n), p)
    meta = data.get("metadata", {})
    if not isinstance(meta, dict):
        raise DocumentError("metadata must be an object")
    return AlgebraDocument(g, form, meta)


def _array(items: list[str], depth: int) -> str:
    """A JSON array in the layout of json.dumps(indent=1) at indentation
    depth, from its items already laid out one level deeper."""
    if not items:
        return "[]"
    pad = " " * (depth + 1)
    return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{' ' * depth}]"


def _int_lists(lists, width: int, depth: int) -> str:
    """_array of tuples of width integers, one integer a line."""
    pad = " " * (depth + 2)
    item = "[\n" + ",\n".join([pad + "%d"] * width) + f"\n{' ' * (depth + 1)}]"
    return _array(list(map(item.__mod__, lists)), depth)


def dumps(doc: AlgebraDocument) -> str:
    """The canonical text, byte for byte json.dumps(value, indent=1,
    sort_keys=True) + "\\n" of the document's JSON value, written straight
    from the structure; json encodes only the names and the metadata."""
    g = doc.algebra
    brackets = [
        (i, j, k)
        for i, row in enumerate(g.bracket_table)
        for j, v in enumerate(row[i + 1 :], i + 1)
        if v
        for k in bits(v)
    ]
    squaring = [(i, k) for i, v in enumerate(g.squaring) for k in bits(v)]
    basis = [
        f'{{\n   "name": {json.dumps(name)},\n   "parity": {p}\n  }}'
        for name, p in zip(g.names, g.parity)
    ]
    fields = [("basis", _array(basis, 1)), ("bracket", _int_lists(brackets, 3, 1))]
    if g.degrees is not None:
        fields.append(("degrees", _array(list(map(str, g.degrees)), 1)))
    if doc.form is not None:
        rows = doc.form.gram.rows
        gram = _int_lists([(i, j) for i, r in enumerate(rows) for j in bits(r >> i << i)], 2, 2)
        fields.append(
            ("form", f'{{\n  "gram": {gram},\n  "parity": {doc.form.parity}\n }}')
        )
    fields.append(("format_version", str(FORMAT_VERSION)))
    if doc.metadata:
        meta = json.dumps(doc.metadata, indent=1, sort_keys=True)
        fields.append(("metadata", meta.replace("\n", "\n ")))
    fields.append(("squaring", _int_lists(squaring, 2, 1)))
    return "{\n" + ",\n".join(f' "{key}": {text}' for key, text in fields) + "\n}\n"


def loads(text: str) -> AlgebraDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    try:
        return from_dict(data)
    except (AttributeError, TypeError, ValueError) as exc:
        # a field of the wrong JSON type, such as a number for a list
        raise DocumentError(f"malformed document: {exc}") from exc


def save(doc: AlgebraDocument, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def load(path) -> AlgebraDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# ---------------------------------------------------------------------------
# Extension metadata embedding
# ---------------------------------------------------------------------------


def recipe_to_meta(recipe: ExtensionRecipe) -> dict:
    """The JSON metadata of a recipe; a field the case does not have raises
    FieldNotInCase, as in extend."""
    recipe = recipe.strictly_normalized()
    meta: dict[str, Any] = {
        "case": recipe.case,
        "derivation": derivation_to_data(recipe.derivation),
    }
    if recipe.alpha is not None:
        meta["alpha"] = {
            "n": recipe.alpha.n,
            "diag": sorted(bits(recipe.alpha.diag)),
            "polar": _sparse_matrix(recipe.alpha.polar, symmetric=True),
        }
    if recipe.a0 is not None:
        meta["a0"] = sorted(bits(recipe.a0))
    if recipe.m is not None:
        meta["m"] = recipe.m
    if recipe.beta_star is not None:
        meta["beta_star"] = recipe.beta_star
    return meta


def extension_meta(res: ExtensionResult) -> dict:
    """The metadata entry "extension" of a document holding res.algebra."""
    return {
        "x_index": res.x_index,
        "star_index": res.star_index,
        "recipe": recipe_to_meta(res.recipe),
    }


def derivation_to_data(d: Derivation) -> dict:
    """The inverse of derivation_from_data."""
    return {
        "parity": d.parity,
        "images": sorted(
            [j, i] for j, im in enumerate(d.images) for i in bits(im)
        ),
    }


def derivation_from_data(data: dict, dim: int) -> Derivation:
    """{"images": [[j, i], ...], "parity": p}: e_i is a term of D(e_j)."""
    images = [0] * dim
    for j, i in data["images"]:
        images[_index(j, dim)] |= 1 << _index(i, dim)
    return Derivation(tuple(images), _index(data["parity"], 2, "parity"))


def quadratic_from_data(data: dict) -> QuadraticForm:
    """{"n": k, "polar": [[i, j], ...], "diag": [i, ...]}: each polar pair
    sets entries (i, j) and (j, i), and i = j is refused (polar forms are
    alternating); diag lists the basis vectors where the form is 1."""
    k = data["n"]
    rows = [0] * k
    for i, j in data["polar"]:
        if _index(i, k) == _index(j, k):
            raise ValueError(f"polar pair [{i}, {j}] on the diagonal")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    diag = 0
    for i in data.get("diag", []):
        diag |= 1 << _index(i, k)
    return QuadraticForm(k, diag, GF2Matrix(rows, k))
