"""Constructors for the worked examples: doubles, Hamiltonian and Poisson
algebras, matrix algebras, named cocycles, and the named-extension recipes.

The registry is the one owner of the paper's named data.  Each entry
builds its object and carries its named cocycles and quadratic forms
(`tables`) and the cocycle labels the paper underlines (`underlined`); an
extension entry is its base entry plus a recipe on the base's tables.

The derivation tables of the monomial algebras read four operators:
`mult_op` (var d/d(dvar)), `weight_op` (a grading by variable weights),
`top_bracket` (the bracket with the top monomial h'(0|m) drops) and
`contraction` (the sum of d^2/(d xi_i d eta_i)).

Basis conventions (fixed so that Gram matrices and cocycle matrices come out
bit-exactly):

* Manin doubles list the original basis first, then the duals, in order.
* Monomial algebras order the basis by ascending degree, lexicographically
  within a degree, with theta before xi1 < xi2 < eta1 < eta2 when present;
  complementation then reverses the order and the pairing form is
  antidiag(1, ..., 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .derivations import Derivation
from .errors import OutOfRange, UnknownName
from .extension import ExtensionRecipe, ExtensionResult, extend
from .forms import BilinearForm, QuadraticForm
from .gf2 import GF2Matrix, restrict
from .superalgebra import SuperAlgebra


def _algebra(names, parity, brackets):
    """A superalgebra with zero squaring from its named nonzero brackets."""
    n = len(names)
    idx = {nm: i for i, nm in enumerate(names)}
    table = [[0] * n for _ in range(n)]
    for (u, v), words in brackets.items():
        i, j = idx[u], idx[v]
        val = 0
        for w in words.split():
            val ^= 1 << idx[w]
        table[i][j] ^= val
        table[j][i] ^= val
    return SuperAlgebra(
        names=tuple(names),
        parity=tuple(parity),
        bracket_table=tuple(tuple(r) for r in table),
        squaring=(0,) * n,
    )


def heisenberg_0_2() -> SuperAlgebra:
    """hei(0|2): p, q odd and z even with [p, q] = z."""
    return _algebra(
        ["p", "q", "z"], [1, 1, 0], {("p", "q"): "z"}
    )


def ba_1() -> SuperAlgebra:
    """ba(1): theta, z odd and q even with [q, theta] = z."""
    return _algebra(
        ["theta", "q", "z"], [1, 0, 1], {("q", "theta"): "z"}
    )


def manin_double(
    h: SuperAlgebra, odd_dual: bool = False
) -> tuple[SuperAlgebra, BilinearForm]:
    """h + h* (or h + Pi(h*)) with the evaluation pairing.

    The dual copy is abelian; h acts on it by the coadjoint action, and the
    squaring of h extends by s(h + pi) = s(h) + pi o ad_h.
    """
    n = h.dim
    names = tuple(h.names) + tuple(f"{nm}star" for nm in h.names)
    dual_shift = 1 if odd_dual else 0
    parity = tuple(h.parity) + tuple((p + dual_shift) & 1 for p in h.parity)
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            table[i][j] = h.bracket_table[i][j]
    for i in range(n):
        for j in range(n):
            # [e_i, e_j*] = sum_k c[i][k][j] e_k*
            val = 0
            for k in range(n):
                if (h.bracket_table[i][k] >> j) & 1:
                    val |= 1 << (n + k)
            table[i][n + j] = val
            table[n + j][i] = val
    squaring = [0] * (2 * n)
    for i in h.odd_indices():
        squaring[i] = h.squaring[i]
    gram = [1 << (n + i) for i in range(n)] + [1 << i for i in range(n)]
    g = SuperAlgebra(
        names=names,
        parity=parity,
        bracket_table=tuple(tuple(r) for r in table),
        squaring=tuple(squaring),
    )
    return g, BilinearForm(GF2Matrix(gram, 2 * n), 1 if odd_dual else 0)


def purely_odd() -> tuple[SuperAlgebra, BilinearForm]:
    """Two odd generators, zero bracket and squaring, B(a,b) = 1."""
    g = _algebra(["a", "b"], [1, 1], {})
    return g, BilinearForm(GF2Matrix([2, 1], 2), 0)


# ---------------------------------------------------------------------------
# Monomial algebras: h(0|m), its derived algebra, and the Poisson algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonomialBasis:
    m: int
    var_names: tuple[str, ...]
    monomials: tuple[frozenset, ...]
    index: dict
    conj_pairs: tuple[tuple[int, int], ...]
    theta: int | None

    def name(self, s: frozenset) -> str:
        if not s:
            return "1"
        return "".join(self.var_names[v] for v in sorted(s))

    def find(self, text: str) -> int:
        """Index of a monomial given as e.g. 'xi1 eta2 theta'."""
        rev = {nm: v for v, nm in enumerate(self.var_names)}
        s = frozenset(rev[t] for t in text.split())
        return self.index[s]


def monomial_basis(
    m: int, include_constant: bool, include_top: bool = True
) -> MonomialBasis:
    if not 1 <= m <= 12:
        raise OutOfRange("monomial algebras supported for 1 <= m <= 12")
    k = m // 2
    # variable order: theta (for odd m) < xi1 < ... < xik < eta1 < ... < etak
    names = (["theta"] if m % 2 else []) + [
        f"xi{i+1}" for i in range(k)
    ] + [f"eta{i+1}" for i in range(k)]
    off = 1 if m % 2 else 0
    conj = tuple((off + i, off + k + i) for i in range(k))
    theta_pos = 0 if m % 2 else None

    monos = []
    lo = 0 if include_constant else 1
    for d in range(lo, m + 1 if include_top else m):
        for combo in combinations(range(m), d):
            monos.append(frozenset(combo))
    index = {s: i for i, s in enumerate(monos)}
    return MonomialBasis(
        m=m,
        var_names=tuple(names),
        monomials=tuple(monos),
        index=index,
        conj_pairs=conj,
        theta=theta_pos,
    )


def _mask(s: frozenset) -> int:
    return sum(1 << v for v in s)


def _poisson_terms(basis: MonomialBasis, a_mask: int):
    """(B, T) for each term T of the Poisson bracket {A, B}, monomials as
    variable masks: per direction (a, b), a conjugate pair either way round
    or (theta, theta), with a in A, B runs over B' | b for the submasks B' of
    the variables outside (A - a) | {b}, and T = (A - a) | B'.  The
    coefficient of T in {A, B} is the number of times (B, T) comes, mod 2."""
    full = (1 << basis.m) - 1
    directions = [d for a, b in basis.conj_pairs for d in ((a, b), (b, a))]
    if basis.theta is not None:
        directions.append((basis.theta, basis.theta))
    for a, b in directions:
        if not a_mask >> a & 1:
            continue
        rest = a_mask ^ 1 << a
        free = full & ~(rest | 1 << b)
        sub = free
        while True:
            yield sub | 1 << b, rest | sub
            if not sub:
                break
            sub = (sub - 1) & free


def mult_op(g: SuperAlgebra, basis: MonomialBasis, var: str, dvar: str) -> Derivation:
    """The multiplication operator var d/d(dvar): s |-> s - dvar + var when
    dvar is in s and var is not, else 0."""
    v, dv = basis.var_names.index(var), basis.var_names.index(dvar)
    images = [0] * g.dim
    for i, s in enumerate(basis.monomials):
        if dv in s and v not in s:
            images[i] = 1 << basis.index[s - {dv} | {v}]
    return Derivation(tuple(images), 0)


def weight_op(
    g: SuperAlgebra, basis: MonomialBasis, names: tuple[str, ...]
) -> Derivation:
    """The grading derivation s |-> (w(s) + c) s, where w(s) counts the
    variables of s in names and c is the weight of a conjugate pair.  A
    term of {A, B} drops one pair, so w(T) + c = w(A) + w(B): it is a
    derivation when every pair, and (theta, theta), weighs c mod 2."""
    weighted = frozenset(map(basis.var_names.index, names))
    a, b = basis.conj_pairs[0]
    c = (a in weighted) + (b in weighted)
    images = [
        1 << i if (len(s & weighted) + c) & 1 else 0
        for i, s in enumerate(basis.monomials)
    ]
    return Derivation(tuple(images), 0)


def top_bracket(g: SuperAlgebra, basis: MonomialBasis) -> Derivation:
    """Bracketing with the top monomial, which h'(0|m) drops: of degree
    m - 2 and parity m mod 2, read off the terms of _poisson_terms."""
    pos = {_mask(s): i for i, s in enumerate(basis.monomials)}
    images = [0] * g.dim
    for b_mask, t_mask in _poisson_terms(basis, (1 << basis.m) - 1):
        if b_mask in pos and t_mask in pos:
            images[pos[b_mask]] ^= 1 << pos[t_mask]
    return Derivation(tuple(images), basis.m & 1)


def contraction(g: SuperAlgebra, basis: MonomialBasis) -> Derivation:
    """sum_i d^2/(d xi_i d eta_i), of degree -2: s |-> the sum of
    s - {xi_i, eta_i} over the conjugate pairs inside s."""
    images = [0] * g.dim
    for i, s in enumerate(basis.monomials):
        for a, b in basis.conj_pairs:
            t = s - {a, b}
            if len(t) == len(s) - 2 and t in basis.index:
                images[i] ^= 1 << basis.index[t]
    return Derivation(tuple(images), 0)


def _monomial_algebra(
    basis: MonomialBasis, squaring_top: int = 0
) -> SuperAlgebra:
    """The Poisson bracket on the monomials of the basis, built from its
    nonzero terms; a term T or a B outside the basis (the constant or the
    top monomial, when dropped) is left out."""
    monos = basis.monomials
    n = len(monos)
    # position and unit vector by variable mask: a dropped B goes to the
    # spare column n, cut off below, and a dropped T is the zero vector
    pos = [n] * (1 << basis.m)
    unit = [0] * (1 << basis.m)
    for i, s in enumerate(monos):
        pos[_mask(s)], unit[_mask(s)] = i, 1 << i
    table = [[0] * (n + 1) for _ in range(n)]
    for i, s in enumerate(monos):
        row = table[i]
        for b_mask, t_mask in _poisson_terms(basis, _mask(s)):
            row[pos[b_mask]] ^= unit[t_mask]
        row[i] = 0  # the table is alternating; squares live in squaring
        row.pop()
    squaring = [0] * n
    if squaring_top and frozenset(range(basis.m)) in basis.index:
        squaring[basis.index[frozenset(range(basis.m))]] = 1 << basis.index[
            frozenset()
        ]
    return SuperAlgebra(
        names=tuple(basis.name(s) for s in monos),
        parity=tuple(len(s) & 1 for s in monos),
        bracket_table=tuple(tuple(r) for r in table),
        squaring=tuple(squaring),
        degrees=tuple(len(s) for s in monos),
    )


def _complement_form(basis: MonomialBasis, g: SuperAlgebra) -> BilinearForm:
    full = frozenset(range(basis.m))
    n = g.dim
    rows = [0] * n
    for i, s in enumerate(basis.monomials):
        partner = full - s
        j = basis.index.get(partner)
        if j is not None:
            rows[i] |= 1 << j
    return BilinearForm(GF2Matrix(rows, n), basis.m & 1)


def hamiltonian(m: int, derived: bool = True):
    """h(0|m) on the nonconstant monomials, or its derived algebra h'(0|m),
    the span of the monomials of degrees 1..m-1.

    Returns (algebra, form, basis).  The pairing form reads off the
    coefficient of the top monomial in a product; it is non-degenerate
    exactly on the derived algebra (the top monomial pairs with nothing
    once constants are gone).  The top monomial is no term of a bracket
    of h(0|m): its terms cancel in pairs.  So the brackets of h'(0|m) are
    those of h(0|m) on its monomials, and the walk drops every B or T
    outside them.
    """
    if not 2 <= m <= 10:
        raise OutOfRange("hamiltonian(m) supported for 2 <= m <= 10")
    basis = monomial_basis(m, include_constant=False, include_top=not derived)
    g = _monomial_algebra(basis)
    return g, _complement_form(basis, g), basis


def poisson(m: int, m_param: int = 0):
    """The full 2^m-dimensional Poisson structure, constants included.

    For odd m this data is not a Lie superalgebra in characteristic 2 (the
    theta-diagonal of the analytic bracket cannot be encoded); it is kept to
    compare against the literal double-extension output.
    """
    if not 2 <= m <= 8:
        raise OutOfRange("poisson(m) supported for 2 <= m <= 8")
    if m_param and m % 2 == 0:
        raise OutOfRange("the squaring parameter needs odd m")
    basis = monomial_basis(m, include_constant=True)
    g = _monomial_algebra(basis, squaring_top=m_param)
    return g, _complement_form(basis, g), basis


def gl(p: int, q: int) -> tuple[SuperAlgebra, BilinearForm]:
    """gl(p|q) with bracket XY + YX, squaring X^2, and the trace form."""
    if p < 1 or q < 1 or p + q > 8:
        raise OutOfRange("gl(p|q) supported for p, q >= 1 and p+q <= 8")
    d = p + q
    units = [(i, j) for i in range(d) for j in range(d)]
    index = {u: k for k, u in enumerate(units)}
    n = d * d
    par = lambda i: 0 if i < p else 1

    table = [[0] * n for _ in range(n)]
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if a >= b:
                continue
            val = 0
            if j == k:
                val ^= 1 << index[(i, l)]
            if l == i:
                val ^= 1 << index[(k, j)]
            table[a][b] = val
            table[b][a] = val
    rows = [1 << index[(j, i)] for (i, j) in units]
    g = SuperAlgebra(
        names=tuple(f"E{i+1}{j+1}" for (i, j) in units),
        parity=tuple((par(i) + par(j)) & 1 for (i, j) in units),
        bracket_table=tuple(tuple(r) for r in table),
        squaring=(0,) * n,
    )
    return g, BilinearForm(GF2Matrix(rows, n), 0)


# ---------------------------------------------------------------------------
# Reference cocycle tables
# ---------------------------------------------------------------------------


def _derivation_from_map(g: SuperAlgebra, pairs: dict, parity: int) -> Derivation:
    images = [0] * g.dim
    for src, targets in pairs.items():
        val = 0
        for t in targets.split():
            val ^= 1 << g.index(t)
        images[g.index(src)] = val
    return Derivation(tuple(images), parity)


def hei_double_cocycles(g: SuperAlgebra) -> dict[str, Derivation]:
    """Outer-class representatives for hei(0|2) + its dual."""
    d = _derivation_from_map
    return {
        "D1": d(g, {"p": "qstar"}, 0),
        "D2": d(g, {"q": "qstar"}, 0),
        "D3": d(g, {"zstar": "qstar"}, 1),
        "D4": d(g, {"p": "pstar"}, 0),
        "D5": d(g, {"zstar": "pstar"}, 1),
        "D6": d(g, {"zstar": "q", "qstar": "z"}, 1),
        "D7": d(g, {"zstar": "p", "pstar": "z"}, 1),
        "D8": d(g, {"zstar": "z"}, 0),
        "D9": d(g, {"p": "p", "qstar": "qstar", "z": "z"}, 0),
        "D10": d(g, {"q": "q", "pstar": "pstar", "z": "z"}, 0),
        "D11": d(g, {"qstar": "qstar", "pstar": "pstar", "zstar": "zstar"}, 0),
    }


def ba_double_cocycles(g: SuperAlgebra) -> dict[str, Derivation]:
    d = _derivation_from_map
    return {
        "D1": d(g, {"q": "qstar"}, 0),
        "D2": d(g, {"theta": "qstar"}, 1),
        "D3": d(g, {"zstar": "qstar"}, 1),
        "D4": d(g, {"thetastar": "qstar", "q": "theta"}, 1),
        "D5": d(g, {"theta": "thetastar"}, 0),
        "D6": d(g, {"zstar": "thetastar"}, 0),
        "D7": d(g, {"zstar": "z"}, 0),
        "D8": d(g, {"z": "qstar", "q": "zstar"}, 1),
        "D9": d(g, {"q": "q", "thetastar": "thetastar", "z": "z"}, 0),
        "D10": d(g, {"qstar": "qstar", "theta": "theta", "z": "z"}, 0),
        "D11": d(
            g, {"qstar": "qstar", "thetastar": "thetastar", "zstar": "zstar"}, 0
        ),
    }


def h104_cocycles(g: SuperAlgebra, basis: MonomialBasis) -> dict[str, Derivation]:
    """The seven outer-class representatives for h'(0|4)."""
    return {
        "D1": contraction(g, basis),
        "D2": mult_op(g, basis, "xi1", "eta1"),
        "D3": mult_op(g, basis, "xi2", "eta2"),
        "D4": mult_op(g, basis, "eta1", "xi1"),
        "D5": mult_op(g, basis, "eta2", "xi2"),
        "D6": weight_op(g, basis, ("xi1", "eta2")),
        "D7": top_bracket(g, basis),
    }


def h105_cocycles(g: SuperAlgebra, basis: MonomialBasis) -> dict[str, Derivation]:
    """The six outer-class representatives for h'(0|5); D5, the weight on
    every variable, is the projection on the odd part."""
    return {
        "D1": mult_op(g, basis, "xi1", "eta1"),
        "D2": mult_op(g, basis, "xi2", "eta2"),
        "D3": mult_op(g, basis, "eta1", "xi1"),
        "D4": mult_op(g, basis, "eta2", "xi2"),
        "D5": weight_op(g, basis, basis.var_names),
        "D6": top_bracket(g, basis),
    }


def quadratic_by_pairs(g: SuperAlgebra, pairs: list[tuple[int, int]]) -> QuadraticForm:
    """Quadratic form on the odd part: the sum of the coordinate products
    of the given pairs of odd basis vectors."""
    odd = g.odd_indices()
    polar = [0] * g.dim
    for i, j in pairs:
        polar[i] |= 1 << j
        polar[j] |= 1 << i
    k = len(odd)
    return QuadraticForm(k, 0, GF2Matrix([restrict(polar[i], odd) for i in odd], k))


# ---------------------------------------------------------------------------
# The named catalog
# ---------------------------------------------------------------------------


@dataclass
class CatalogObject:
    algebra: SuperAlgebra
    form: BilinearForm | None
    extension: ExtensionResult | None = None
    basis: MonomialBasis | None = None


@dataclass
class CatalogEntry:
    """A named example.  `tables` gives the paper's named cocycles and
    quadratic forms on the built object, and `underlined` the labels of the
    cocycles the paper underlines as odd."""

    name: str
    build: Callable[[], CatalogObject]
    sdim: tuple[int, int] | None = None
    out_dim: int | None = None
    valid: bool = True
    note: str = ""
    aliases: tuple[str, ...] = ()
    tables: Callable[[CatalogObject], tuple[dict, dict]] | None = None
    underlined: frozenset[str] = frozenset()


def _h1(m: int) -> CatalogObject:
    g, b, basis = hamiltonian(m, derived=True)
    return CatalogObject(g, b, basis=basis)


def _poisson(m: int, m_param: int = 0) -> CatalogObject:
    g, b, basis = poisson(m, m_param)
    return CatalogObject(g, b, basis=basis)


def hei_even_recipe(g: SuperAlgebra) -> ExtensionRecipe:
    cocycles = hei_double_cocycles(g)
    d = cocycles["D9"].add(cocycles["D10"])
    alpha = quadratic_by_pairs(
        g, [(g.index("p"), g.index("pstar")), (g.index("q"), g.index("qstar"))]
    )
    return ExtensionRecipe("evenB-evenD", d, alpha=alpha, beta_star=0)


def hei_odd_recipe(g: SuperAlgebra) -> ExtensionRecipe:
    return ExtensionRecipe("evenB-oddD", hei_double_cocycles(g)["D6"], a0=0)


def ba_even_recipe(g: SuperAlgebra) -> ExtensionRecipe:
    cocycles = ba_double_cocycles(g)
    d = cocycles["D10"].add(cocycles["D11"])
    alpha = quadratic_by_pairs(
        g,
        [
            (g.index("theta"), g.index("thetastar")),
            (g.index("z"), g.index("zstar")),
        ],
    )
    return ExtensionRecipe("evenB-evenD", d, alpha=alpha, beta_star=0)


def ba_odd_recipe(g: SuperAlgebra) -> ExtensionRecipe:
    return ExtensionRecipe("evenB-oddD", ba_double_cocycles(g)["D4"], a0=0)


def purely_odd_recipe(g: SuperAlgebra) -> ExtensionRecipe:
    d = Derivation(tuple(1 << i for i in range(2)), 0)
    alpha = quadratic_by_pairs(g, [(0, 1)])
    return ExtensionRecipe("evenB-evenD", d, alpha=alpha, beta_star=0)


def h104_alphas(g: SuperAlgebra, basis: MonomialBasis) -> dict[str, QuadraticForm]:
    f = basis.find
    return {
        "alpha1": quadratic_by_pairs(
            g,
            [
                (f("xi1 xi2 eta2"), f("xi2 eta1 eta2")),
                (f("xi1 xi2 eta1"), f("xi1 eta1 eta2")),
            ],
        ),
        "alpha2": quadratic_by_pairs(g, [(f("eta1"), f("xi2 eta1 eta2"))]),
        "alpha6": quadratic_by_pairs(
            g,
            [
                (f("xi2"), f("xi1 eta1 eta2")),
                (f("eta1"), f("xi1 xi2 eta2")),
            ],
        ),
        "alpha7": _pairs_alpha(g, basis),
    }


def _pairs_alpha(g: SuperAlgebra, basis: MonomialBasis) -> QuadraticForm:
    """sum_i xi_i eta_i over the conjugate pairs."""
    f = basis.index
    return quadratic_by_pairs(
        g, [(f[frozenset({a})], f[frozenset({b})]) for a, b in basis.conj_pairs]
    )


h105_alpha6 = _pairs_alpha


def _extension(base: str, recipe: Callable, unchecked: bool = False) -> Callable:
    """Builder of the double extension of the entry `base` by
    recipe(algebra, cocycles, alphas), read from the base's tables; the
    extension keeps the base's monomial basis."""

    def build():
        entry = registry()[base]
        obj = entry.build()
        tables = entry.tables(obj) if entry.tables else ({}, {})
        res = extend(
            obj.algebra, obj.form, recipe(obj.algebra, *tables), unchecked=unchecked
        )
        return CatalogObject(res.algebra, res.form, extension=res, basis=obj.basis)

    return build


def _h104_recipe(label: str, beta_star: int = 0):
    return lambda g, cocycles, alphas: ExtensionRecipe(
        "evenB-evenD",
        cocycles[label],
        alpha=alphas[f"alpha{label[1:]}"],
        beta_star=beta_star,
    )


def _po05_recipe(m_param: int):
    # literal reference data; fails the odd-diagonal polar condition,
    # see the catalog entry note
    return lambda g, cocycles, alphas: ExtensionRecipe(
        "oddB-oddD", cocycles["D6"], alpha=alphas["alpha6"], a0=0, m=m_param
    )


_DEFECT_NOTE = (
    "literal structure from the odd-theta family; B(D(theta), theta) = 1"
    " obstructs the quadratic lift, so the data is not a Lie superalgebra"
    " (see the witness triples reported by validate/check_nis)"
)


def _entries() -> dict[str, CatalogEntry]:
    entries = [
        CatalogEntry("hei-0-2", lambda: CatalogObject(heisenberg_0_2(), None), (1, 2)),
        CatalogEntry("ba-1", lambda: CatalogObject(ba_1(), None), (1, 2)),
        CatalogEntry(
            "hei-double",
            lambda: CatalogObject(*manin_double(heisenberg_0_2())),
            (2, 4),
            out_dim=11,
            tables=lambda obj: (hei_double_cocycles(obj.algebra), {}),
            underlined=frozenset({"D3", "D5", "D6", "D7"}),
        ),
        CatalogEntry(
            "ba-double",
            lambda: CatalogObject(*manin_double(ba_1())),
            (2, 4),
            out_dim=11,
            tables=lambda obj: (ba_double_cocycles(obj.algebra), {}),
            underlined=frozenset({"D2", "D3", "D4", "D8"}),
        ),
        CatalogEntry(
            "purely-odd", lambda: CatalogObject(*purely_odd()), (0, 2), out_dim=4
        ),
        CatalogEntry(
            "purely-odd-ext",
            _extension("purely-odd", lambda g, *_: purely_odd_recipe(g)),
            (2, 2),
        ),
        CatalogEntry(
            "hei-evenD-ext",
            _extension("hei-double", lambda g, *_: hei_even_recipe(g)),
            (4, 4),
        ),
        CatalogEntry(
            "hei-oddD-ext",
            _extension("hei-double", lambda g, *_: hei_odd_recipe(g)),
            (2, 6),
        ),
        CatalogEntry(
            "ba-evenD-ext",
            _extension("ba-double", lambda g, *_: ba_even_recipe(g)),
            (4, 4),
        ),
        CatalogEntry(
            "ba-oddD-ext",
            _extension("ba-double", lambda g, *_: ba_odd_recipe(g)),
            (2, 6),
        ),
        CatalogEntry(
            "h1-0-4",
            lambda: _h1(4),
            (6, 8),
            out_dim=7,
            tables=lambda obj: (
                h104_cocycles(obj.algebra, obj.basis),
                h104_alphas(obj.algebra, obj.basis),
            ),
        ),
        CatalogEntry(
            "h1-0-5",
            lambda: _h1(5),
            (15, 15),
            out_dim=6,
            tables=lambda obj: (
                h105_cocycles(obj.algebra, obj.basis),
                {"alpha6": h105_alpha6(obj.algebra, obj.basis)},
            ),
            underlined=frozenset({"D6"}),
        ),
        CatalogEntry("gl-1-1", lambda: CatalogObject(*gl(1, 1)), (2, 2)),
        CatalogEntry("gl-2-2", lambda: CatalogObject(*gl(2, 2)), (8, 8), out_dim=1),
        CatalogEntry(
            "h104-D2ext",
            _extension("h1-0-4", _h104_recipe("D2")),
            (8, 8),
            out_dim=5,
            aliases=("tilde-po-0-4",),
        ),
        CatalogEntry(
            "h104-D6ext",
            _extension("h1-0-4", _h104_recipe("D6", beta_star=1)),
            (8, 8),
            out_dim=1,
        ),
        CatalogEntry(
            "h104-D7ext", _extension("h1-0-4", _h104_recipe("D7")), (8, 8), out_dim=3
        ),
        CatalogEntry("po-0-4", lambda: _poisson(4), (8, 8), out_dim=3),
        CatalogEntry(
            "tilde-po-0-5",
            _extension(
                "h1-0-5",
                lambda g, cocycles, _: ExtensionRecipe("oddB-evenD", cocycles["D1"]),
            ),
            (16, 16),
            aliases=("h105-D1ext",),
        ),
        CatalogEntry(
            "po05-m0",
            _extension("h1-0-5", _po05_recipe(0), unchecked=True),
            (16, 16),
            valid=False,
            note=_DEFECT_NOTE,
        ),
        CatalogEntry(
            "po05-m1",
            _extension("h1-0-5", _po05_recipe(1), unchecked=True),
            (16, 16),
            valid=False,
            note=_DEFECT_NOTE,
        ),
        CatalogEntry(
            "po-0-5",
            lambda: _poisson(5, 0),
            (16, 16),
            valid=False,
            note=_DEFECT_NOTE,
        ),
    ]
    table = {}
    for e in entries:
        table[e.name] = e
        for a in e.aliases:
            table[a] = e
    return table


registry = functools.cache(_entries)


def entry_names(include_defective: bool = True) -> list[str]:
    seen = []
    for name, e in registry().items():
        if name != e.name:
            continue
        if not include_defective and not e.valid:
            continue
        seen.append(name)
    return seen


def named(name: str) -> CatalogObject:
    """Build a catalog object by its public name."""
    e = registry().get(name)
    if e is None:
        raise UnknownName(f"no catalog entry named {name!r}")
    return e.build()


def cocycles_for(name: str):
    """The built entry with its named cocycles and quadratic forms."""
    e = registry().get(name)
    if e is None or e.tables is None:
        raise UnknownName(f"no cocycle table for {name!r}")
    obj = e.build()
    return (obj, *e.tables(obj))
