"""Lie superalgebras in characteristic 2: structure, axioms, subspaces.

A superalgebra is stored through its structure constants over a fixed
homogeneous basis: a symmetric bracket table c[i][j] (an element bitmask)
and the squaring values s(e_i) for odd basis vectors.  The square of a
general odd element is determined by polarization:

    s(sum l_i e_i) = sum l_i s(e_i) + sum_{i<j} l_i l_j [e_i, e_j].

Axiom checking is a decision procedure: the bracket axioms are multilinear,
so basis instances suffice, and the squaring axiom on all odd elements
reduces to basis instances because f |-> ad_{s(f)} + ad_f o ad_f is additive
once the Jacobi identity holds.

Jacobi itself needs only a generating set (de Graaf, Lie Algebras: Theory
and Algorithms, 2000).  On a symmetric, alternating table the Jacobi sum
J(x, y, z) = [x,[y,z]] + [y,[z,x]] + [z,[x,y]] is trilinear and totally
symmetric, and ad_x is a derivation exactly when J(x, ., .) = 0.  Those x
form a subalgebra L: for x, y in L, ad_[x,y] = ad_x ad_y + ad_y ad_x, the
commutator of two derivations in characteristic 2, so a derivation.  So
if ad_s is a derivation for each s in a set S of basis vectors, L
contains the ad_S-closure of S, and Jacobi holds on g once that closure
is g.  Codimension 2 is enough: J(x, x, y) = 0, so J is an alternating
trilinear form on g / L.  validate decides Jacobi this way and scans the
basis pairs only to list witnesses.  The walk takes the basis in order,
so when e_i is checked every e_k with k < i already lies in L, and
J(e_i, ., e_k) = 0.  J(e_i, e_j, e_j) = 0 too, and J is symmetric, so of
the columns k of a pair (i, j), j > i, only those with k > j are needed:
J(e_i, e_j, e_k) with i < k < j is column j of the pair (i, k).

The walk runs once per algebra: SuperAlgebra.jacobi_walk caches its
generators S and the basis vectors E that complete their closure to a
spanning set, or None when the table is not structurally_sound
(alternating, symmetric, graded, odd squares even) or Jacobi fails, and
SuperAlgebra.squaring_rule_holds caches the squaring verdict on the odd
basis.  validate reads both, forms.check_nis only the walk, and the
derivation system (derivations) builds Leibniz rows only on the pairs
that touch S and E.  Both read the adjoint maps as columns straight off
the table, from one build that validate shares (_adjoint_entries); with
the walk, the squaring verdict proves every ad_x a derivation, which lets
the derivation system close a block once only its inner maps are left.
derivations.is_derivation reads the Leibniz rule of any map D off the
same entries, row j at a time, as the walk reads Jacobi
(_nonzero_columns).
Every bracket and squaring value lies inside the algebra: SuperAlgebra
refuses any other table when it is built.

The same walk decides the invariance of a form (forms.check_nis).
L_B = {y : B([x, y], z) = B(x, [y, z]) for all x, z} is a subspace, and
once Jacobi holds, ad_[a,b] = ad_a ad_b + ad_b ad_a, so for a, b in L_B
B(ad_a ad_b x, z) = B(ad_b x, ad_a z) = B(x, ad_b ad_a z): L_B is a
subalgebra, whatever B is.  It holds the ad_S-closure of S once it holds
S, so it is g once it holds S and E.
"""

from __future__ import annotations

import re
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, repeat
from math import gcd, lcm
from operator import add, and_, mul, or_, sub, xor
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotOdd
from .gf2 import GF2Matrix, SpanBasis, bits, combine, dependencies, dot, span_basis


@dataclass(frozen=True)
class SuperAlgebra:
    names: tuple[str, ...]
    parity: tuple[int, ...]
    bracket_table: tuple[tuple[int, ...], ...]
    squaring: tuple[int, ...]
    degrees: tuple[int, ...] | None = None

    def __post_init__(self):
        n = len(self.names)
        if len(self.parity) != n or len(self.squaring) != n:
            raise DimensionMismatch("basis metadata lengths disagree")
        if len(self.bracket_table) != n or any(
            len(r) != n for r in self.bracket_table
        ):
            raise DimensionMismatch("bracket table is not n x n")
        if self.degrees is not None and len(self.degrees) != n:
            raise DimensionMismatch("degree vector length disagrees")
        # every value is a mask of basis vectors, 0 <= v < 2^n
        table = self.bracket_table
        bounds = (*map(min, table), *map(max, table), *self.squaring)
        if min(bounds, default=0) < 0 or max(bounds, default=0) >> n:
            raise DimensionMismatch("element outside the algebra")

    @property
    def dim(self) -> int:
        return len(self.names)

    @cached_property
    def even_mask(self) -> int:
        return sum(1 << i for i in range(self.dim) if self.parity[i] == 0)

    @cached_property
    def odd_mask(self) -> int:
        return sum(1 << i for i in range(self.dim) if self.parity[i] == 1)

    def even_indices(self) -> list[int]:
        return [i for i in range(self.dim) if self.parity[i] == 0]

    def odd_indices(self) -> list[int]:
        return [i for i in range(self.dim) if self.parity[i] == 1]

    @cached_property
    def fine_degrees(self) -> tuple[tuple[int, ...], ...]:
        """Degree of each basis vector in the finest free grading."""
        return fine_grading(self)

    @cached_property
    def _sound(self) -> bool:
        """structurally_sound(self), decided once per algebra: validate and
        the two axiom properties read it."""
        return structurally_sound(self)

    @cached_property
    def jacobi_walk(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """(S, E): basis indices whose adjoint maps are checked derivations,
        and the basis indices that complete their ad_S-closure to a
        spanning set (at most 2); None when the table is not
        structurally_sound or the Jacobi identity fails.  See
        _jacobi_generators."""
        return _jacobi_generators(self) if self._sound else None

    @cached_property
    def squaring_rule_holds(self) -> bool:
        """Whether the table is structurally_sound and [s(e_i), x] =
        [e_i, [e_i, x]] for every odd e_i and x.  With a walk it says that
        every ad_x is a derivation."""
        return self._sound and not any(
            _squaring_defects(self, i) for i in self.odd_indices()
        )

    @cached_property
    def generating_sequence(self) -> tuple[int, ...]:
        """_generating_sequence, built once per algebra: the isometry
        search fixes the images of these basis vectors, and nislie
        isometry --seed keeps only the seeds on them."""
        return tuple(_generating_sequence(self))

    @cached_property
    def terms(self) -> tuple[tuple[int, int, int], ...]:
        """grading_terms, built once per algebra: the fine grading and the
        declared-degree check both read them."""
        return grading_terms(self)

    @cached_property
    def degrees_coarsen_fine(self) -> bool:
        """Whether the declared degrees give every term (i, j, k) of
        self.terms one offset d_i + d_j - d_k (True without degrees):
        then they coarsen the finest grading affinely."""
        d = self.degrees
        if d is None:
            return True
        return len({d[i] + d[j] - d[k] for i, j, k in self.terms}) < 2

    @property
    def sdim(self) -> tuple[int, int]:
        odd = self.odd_mask.bit_count()
        return (self.dim - odd, odd)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def element(self, expr: str | Iterable[str]) -> int:
        """Parse 'p + q' or a name iterable into a bitmask element."""
        if isinstance(expr, str):
            parts = [p for p in re.split(r"[+\s]+", expr) if p]
        else:
            parts = list(expr)
        v = 0
        for p in parts:
            v ^= 1 << self.index(p)
        return v

    def format_element(self, v: int) -> str:
        if v == 0:
            return "0"
        return " + ".join(self.names[i] for i in bits(v))

    def parity_of(self, v: int) -> int | None:
        """0/1 for homogeneous nonzero v, None for mixed or zero."""
        if v == 0:
            return None
        ev, od = v & self.even_mask, v & self.odd_mask
        if ev and od:
            return None
        return 0 if ev else 1


def bracket(g: SuperAlgebra, x: int, y: int) -> int:
    """Bilinear extension of the structure constants."""
    table = g.bracket_table
    if x >> len(table) or y >> len(table):
        raise DimensionMismatch("element outside the algebra")
    acc = 0
    while x:
        low = x & -x
        row = table[low.bit_length() - 1]
        x ^= low
        rest = y
        while rest:
            low = rest & -rest
            acc ^= row[low.bit_length() - 1]
            rest ^= low
    return acc


def square_element(g: SuperAlgebra, x: int) -> int:
    """The squaring s(x) of an odd element, by polarization."""
    table = g.bracket_table
    if x >> len(table):
        raise DimensionMismatch("element outside the algebra")
    if x & g.even_mask:
        raise NotOdd(f"square of non-odd element {g.format_element(x)}")
    acc = 0
    squaring = g.squaring
    while x:
        low = x & -x
        i = low.bit_length() - 1
        x ^= low
        acc ^= squaring[i]
        row = table[i]
        rest = x  # the bits above i: each pair i < j once
        while rest:
            low = rest & -rest
            acc ^= row[low.bit_length() - 1]
            rest ^= low
    return acc


def grading_terms(g: SuperAlgebra) -> tuple[tuple[int, int, int], ...]:
    """(i, j, k) with i <= j for each term e_k of a bracket or a square,
    each once, in sorted order.

    The bracket terms come from both entries [e_i, e_j] and [e_j, e_i], so
    an asymmetric table contributes both; (i, i, k) is a term of s(e_i) or
    of a nonzero diagonal entry.
    """
    table = g.bracket_table
    terms = []
    for i, (row, column, square) in enumerate(
        zip(table, zip(*table), g.squaring)
    ):
        values = list(map(or_, row[i:], column[i:]))
        values[0] |= square
        for j, v in enumerate(values, i):
            while v:
                low = v & -v
                v ^= low
                terms.append((i, j, low.bit_length() - 1))
    return tuple(terms)


def fine_grading(g: SuperAlgebra) -> tuple[tuple[int, ...], ...]:
    """The finest grading of g by a free abelian group Z^r.

    Degrees f_i grade g when f_i + f_j = f_k for every term (i, j, k) of
    g.terms, which covers 2 f_i = f_k for a square term.  The integer
    solutions span the rational solution space K, and any basis of K
    grades g as finely as any torsion-free grading can: it is the free
    part of the universal grading group (Patera-Zassenhaus), and r is n
    minus the rank of the relations.  Every bracket and square is
    homogeneous, and two maps e_m |-> e_i, e_m' |-> e_i' have equal shift
    f_i - f_m exactly when every grading of g gives them equal shifts.

    K is found by propagation over the terms, not by elimination on the
    relation matrix.  Each f_c is an integer combination of parameters.
    A walk from a start column fixes, through each term whose other sides
    are known, the one side left when its coefficient is +-1; a new
    parameter opens only at the first column that no term can fix (one
    reached only through 2 f_i = f_k, or one that no term touches).  So
    the parameters number n minus the rank of the terms used for a fix:
    a handful on a connected table (4 or 5 on h'(0|7) and h'(0|8), for
    126 and 254 columns), while the terms left over give a small integer
    system over the parameters, whose kernel maps onto K.

    The result is canonical: f_c is the tuple of the c-th coordinates of
    the reduced echelon basis of K over Q, each row scaled to the
    primitive integer vector with a positive leading entry
    (_primitive_echelon).  That depends on K and the column order alone,
    not on the order of the terms or on how K was found.
    """
    n = g.dim
    terms = g.terms
    # each term's sides with their coefficients in f_i + f_j - f_k,
    # zeros dropped; touching[c] lists the terms with side c
    sides = []
    touching: list[list[int]] = [[] for _ in range(n)]
    for r, (i, j, k) in enumerate(terms):
        if i == j or k == i or k == j:
            coefficient = {i: 1}
            coefficient[j] = coefficient.get(j, 0) + 1
            coefficient[k] = coefficient.get(k, 0) - 1
            side = [(c, a) for c, a in coefficient.items() if a]
        else:
            side = [(i, 1), (j, 1), (k, -1)]
        sides.append(side)
        for c, _ in side:
            touching[c].append(r)
    # degree[c]: f_c as {parameter: coefficient}, None while unknown
    degree: list[dict[int, int] | None] = [None] * n
    unknown = [len(s) for s in sides]  # sides not yet known, per term
    used = [False] * len(terms)  # the terms that fixed a side
    ready: list[int] = []  # terms that had one side left when last seen

    def know(c: int, value: dict[int, int]):
        degree[c] = value
        for r in touching[c]:
            unknown[r] -= 1
            if unknown[r] == 1:
                ready.append(r)

    params = 0
    for start in range(n):
        if degree[start] is not None:
            continue
        know(start, {params: 1})
        params += 1
        while ready:
            r = ready.pop()
            if unknown[r] != 1:
                continue
            c, a = next((c, a) for c, a in sides[r] if degree[c] is None)
            if a not in (1, -1):
                continue
            # a f_c = -(the known sides), and 1 / a = a
            value: dict[int, int] = {}
            for d, b in sides[r]:
                if d != c:
                    for p, x in degree[d].items():
                        value[p] = value.get(p, 0) - a * b * x
            used[r] = True
            know(c, {p: x for p, x in value.items() if x})
    coords = [tuple(map(d.get, range(params), repeat(0))) for d in degree]
    # every other term is an equation on the parameters
    equations = {
        tuple(map(sub, map(add, coords[i], coords[j]), coords[k]))
        for (i, j, k), fixed in zip(terms, used)
        if not fixed
    }
    equations.discard((0,) * params)
    # a kernel vector per free parameter f: x_f = scale, and each pivot
    # row a x_p + sum b_f x_f = 0 gives x_p
    solved = _primitive_echelon(equations)
    kernel = []
    for f in range(params):
        if f in solved:
            continue
        scale = lcm(*(row[p] for p, row in solved.items() if row[f]))
        x = [0] * params
        x[f] = scale
        for p, row in solved.items():
            x[p] = -scale * row[f] // row[p]
        kernel.append(x)
    basis = _primitive_echelon(
        [sum(map(mul, coords[c], x)) for c in range(n)] for x in kernel
    ).values()
    return tuple(tuple(v[c] for v in basis) for c in range(n))


def _primitive_echelon(rows: Iterable[Sequence[int]]) -> dict[int, list[int]]:
    """The reduced echelon basis of the rational span of integer rows, as
    pivot column -> row in pivot order, each row scaled to the primitive
    integer vector with a positive leading entry: a form that depends on
    the span alone.

    Rows stay integer: clearing a pivot column c from a row takes
    prow[c] * row - row[c] * prow, with prow[c] > 0, and divides out the
    content, so every kept row is zero on the other pivots, positive on
    its own and primitive.
    """
    echelon: dict[int, list[int]] = {}  # pivot column -> row

    def clear(row, prow, c):
        row = [prow[c] * x - row[c] * y for x, y in zip(row, prow)]
        content = gcd(*row)
        return [x // content for x in row] if content > 1 else row

    for row in rows:
        row = list(row)
        for c, prow in echelon.items():
            if row[c]:
                row = clear(row, prow, c)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        content = gcd(*row) if row[lead] > 0 else -gcd(*row)
        row = [x // content for x in row]
        for c, prow in echelon.items():
            if prow[lead]:
                echelon[c] = clear(prow, row, lead)
        echelon[lead] = row
    return {c: echelon[c] for c in sorted(echelon)}


def ad(g: SuperAlgebra, v: int) -> Sequence[int]:
    """Images of the adjoint map ad_v, one per basis vector, read off the
    table: row i when v = e_i, the XOR of the rows at the bits of v
    otherwise, and zeros when v = 0.  So [v, y] = combine(ad(g, v), y)."""
    table = g.bracket_table
    if v >> len(table):
        raise DimensionMismatch("element outside the algebra")
    if v & (v - 1) == 0:
        return table[v.bit_length() - 1] if v else (0,) * len(table)
    row = [0] * len(table)
    for i in bits(v):
        row = list(map(xor, row, table[i]))
    return row


def _image_rows(maps: Sequence[Sequence[int]], domain: Sequence[int], n: int) -> list[int]:
    """Rows of x -> (sum_c x_c maps[c](e_j))_{j in domain}, each map given
    by its n basis images: bit c of row pos * n + k is coordinate k of
    maps[c](e_j), j = domain[pos].  On the table rows of idxs they are the
    rows of t -> ([t, e_j])_{j in domain}, t over the basis vectors idxs."""
    stacked = [sum(m[j] << pos * n for pos, j in enumerate(domain)) for m in maps]
    return GF2Matrix(stacked, len(domain) * n).transpose().rows


def structurally_sound(g: SuperAlgebra) -> bool:
    """Alternating, symmetric and parity-homogeneous, odd squares even:
    the alternating, symmetry and grading checks of validate that
    closures and the Jacobi walk need."""
    table, p = g.bracket_table, g.parity
    lacks = (g.odd_mask, g.even_mask)  # by value parity
    # wrong[k][j]: the bits [e_i, e_j] lacks for an e_i of parity k
    wrong = tuple(tuple(lacks[k ^ q] for q in p) for k in (0, 1))
    for i, (row, column) in enumerate(zip(table, zip(*table))):
        if (
            row[i]
            or row != column
            or any(map(and_, row, wrong[p[i]]))
            or p[i] and g.squaring[i] & lacks[0]
        ):
            return False
    return True


# (weak reference to an algebra, its _adjoint_entries): the last algebra
# asked for.  validate reads the entries for the Jacobi walk, the squaring
# verdict and the witness scans; kept on every algebra, they would hold
# about 64 bytes per nonzero table bit for as long as the algebra lives.
_last_entries: tuple = (None, None)


def _adjoint_entries(g: SuperAlgebra) -> list[list[tuple[int, int]]]:
    """The nonzero entries (k, l) of each ad_{e_b}: bit l of [e_b, e_k];
    built once for the last algebra asked for."""
    global _last_entries
    ref, entries = _last_entries
    if ref is None or ref() is not g:
        # let the old entries go before the new ones are built
        _last_entries, entries = (None, None), None
        entries = [
            [(k, l) for k, v in enumerate(row) if v for l in bits(v)]
            for row in g.bracket_table
        ]
        _last_entries = weakref.ref(g), entries
    return entries


def _walk_sources(g: SuperAlgebra) -> list[int]:
    """S and E of g.jacobi_walk, ascending; without a walk, every index."""
    walk = g.jacobi_walk
    return list(range(g.dim)) if walk is None else sorted(walk[0] + walk[1])


def _nonzero_columns(table, products, x: int, low: int = 0) -> int:
    """Mask of the nonzero columns k >= low of ad_x + a sum of products.

    Each product is a pair (images, entries): entries lists, sorted by k,
    the nonzero entries (k, l) of a map B, bit l of B e_k, and images
    gives a map A by its basis images, so column k of A B is the sum of
    images[l] over the entries (k, l).  With images = table[a] and
    entries = _adjoint_entries(g)[b] the product is ad_a ad_b.  Column k
    of ad_x is the sum of table[m][k] over the bits m of x.  The entries
    of the columns below low are cut off by bisection.
    """
    if x & (x - 1):
        acc = [0] * len(table)
        for m in bits(x):
            acc = list(map(xor, acc, table[m]))
    else:
        # one row is copied, not added to zeros: its values are masks of up
        # to n bits, and a sum would build each one anew
        acc = list(table[x.bit_length() - 1]) if x else [0] * len(table)
    for images, column in products:
        for k, l in column[bisect_left(column, (low,)) :]:
            acc[k] ^= images[l]
    if not any(islice(acc, low, None)):
        return 0
    return sum(1 << k for k, v in enumerate(acc) if v) >> low << low


def _squaring_defects(g: SuperAlgebra, i: int) -> int:
    """Mask of the j at which [s(e_i), e_j] != [e_i, [e_i, e_j]]: the
    nonzero columns of ad_{s(e_i)} + ad_i ad_i."""
    table = g.bracket_table
    return _nonzero_columns(
        table, ((table[i], _adjoint_entries(g)[i]),), g.squaring[i]
    )


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomFailure:
    axiom: str
    witness: tuple[int, ...]
    detail: str


@dataclass
class ValidationReport:
    """Axiom failures in check order, and how Jacobi was decided.

    jacobi_generators is the number of basis vectors whose adjoint maps
    were checked as derivations to prove the Jacobi identity (their
    closure has codimension at most 2), or None when the witness scan
    ran or the structural checks failed first.  It takes no part in
    equality: two reports are equal when their failures are.
    """

    failures: list[AxiomFailure] = field(default_factory=list)
    jacobi_generators: int | None = field(default=None, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self, g: SuperAlgebra | None = None) -> str:
        if self.passed:
            return "all axioms hold"
        lines = []
        for f in self.failures[:20]:
            w = ",".join(
                g.names[i] if g is not None else str(i) for i in f.witness
            )
            lines.append(f"{f.axiom} fails at ({w}): {f.detail}")
        if len(self.failures) > 20:
            lines.append(f"... {len(self.failures) - 20} more")
        return "\n".join(lines)


def _jacobi_generators(
    g: SuperAlgebra,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Prove Jacobi from a generating set: (S, E), or None at a failure.

    The table must be structurally_sound.  The basis is walked in order;
    each e_i outside the ad_S-closure of the generators S so far (the
    least subspace containing S and stable under every ad_s, built
    without assuming Jacobi) joins S once the Jacobi masks of the pairs
    (i, j), j > i, are zero on the columns k > j.  The closure lies in
    L = {x : ad_x is a derivation}, and so does every e_k with k < i, so
    by the symmetry of J (see the module docstring) ad_{e_i} is then a
    derivation.  The walk ends when the closure has codimension at most
    2: J vanishes once an argument lies in L, so it is an alternating
    trilinear form on g / L, and such a form on a space of dimension 2 is
    zero.  E lists the basis vectors of the closure's free columns, which
    complete it to g.
    """
    n = g.dim
    table, entries = g.bracket_table, _adjoint_entries(g)
    closure = SpanBasis()
    spanning: list[int] = []  # the vectors that enlarged the closure
    gens: list[int] = []
    for i in range(n):
        if closure.dim >= n - 2:
            break
        if closure.contains(1 << i):
            continue
        row = table[i]
        # each e_k, k < i, is a generator or in the closure, so J(e_k, ., .)
        # is zero already; the other columns k <= j are zero or seen at the
        # pair (i, k), J being symmetric and alternating
        for j in range(i + 1, n):
            if _nonzero_columns(
                table, ((row, entries[j]), (table[j], entries[i])), row[j], j + 1
            ):
                return None
        # [e_i, v] for v in the closure so far; [e_s, e_i] for an earlier
        # generator s is [e_i, e_s], one of them, as the table is symmetric
        frontier = [combine(row, v) for v in spanning]
        gens.append(i)
        closure.add(1 << i)
        spanning.append(1 << i)
        while frontier:
            v = frontier.pop()
            if v and closure.add(v):
                spanning.append(v)
                frontier.extend(combine(table[s], v) for s in gens)
    # the rows are fully reduced with lowest-bit pivots, so they and the
    # unit vectors of the free columns are a triangular basis of g; the
    # rows' low bits are their pivots, all distinct
    pivots = sum(row & -row for row in closure.rows())
    free = tuple(j for j in range(n) if not (pivots >> j) & 1)
    return tuple(gens), free


def validate(g: SuperAlgebra, max_failures: int = 64) -> ValidationReport:
    """Check the superalgebra axioms on the structure constants.

    The structural checks (alternating, symmetric, graded table and
    squaring) come first; any failure there ends the report.  Jacobi and
    the squaring rule on the odd basis are then read off g.jacobi_walk
    and g.squaring_rule_holds:
    Jacobi is proved from a generating set (_jacobi_generators), as on a
    symmetric, alternating table it holds on all of g once ad_s is a
    derivation for every s in a set S whose ad_S-closure has codimension
    at most 2 (see the module docstring); report.jacobi_generators is the
    size of S.  When both hold the report is complete.  Otherwise only
    the failing axioms are scanned for witnesses: Jacobi over the pairs
    i < j, listing the witnesses (i, j, k), i < j < k, in order, and the
    squaring rule on each odd basis vector.  At most max_failures
    failures are kept; Jacobi witnesses stop at that count.
    """
    report = ValidationReport()
    n = g.dim
    table = g.bracket_table

    def fail(axiom, witness, detail):
        if len(report.failures) < max_failures:
            report.failures.append(AxiomFailure(axiom, witness, detail))

    parity = g.parity
    # on a structurally_sound table only an even square can fail here
    if any(s for s, p in zip(g.squaring, parity) if not p) or not g._sound:
        for i in range(n):
            row = table[i]
            if row[i]:
                fail("alternating", (i, i), "[e,e] != 0")
            if parity[i] == 0 and g.squaring[i]:
                fail("squaring-domain", (i,), "squaring value on even vector")
            if g.squaring[i] & g.odd_mask:
                fail("grading", (i,), "squaring value not even")
            for j in range(i + 1, n):
                a, b = row[j], table[j][i]
                if a != b:
                    fail("symmetry", (i, j), "bracket table not symmetric")
                bad = g.odd_mask if parity[i] == parity[j] else g.even_mask
                if (a | b) & bad:
                    # once per pair, at an entry that has the wrong bits
                    at = (i, j) if a & bad else (j, i)
                    fail("grading", at, "bracket value has wrong parity")
        if report.failures:
            # Jacobi witnesses would be noise on a malformed table.
            return report

    # The table is structurally_sound here.
    walk, squaring_holds = g.jacobi_walk, g.squaring_rule_holds
    if walk is not None:
        report.jacobi_generators = len(walk[0])
        if squaring_holds:
            return report
    # Jacobi at (i, j, k) is column k of ad_[e_i,e_j] + ad_i ad_j +
    # ad_j ad_i; the nonzero columns of that matrix are the failing k, and
    # only the rare witnesses go through bracket().
    entries = _adjoint_entries(g)
    if walk is None:
        # some mask is nonzero: list the witnesses in order, pair by pair
        for i in range(n):
            for j in range(i + 1, n):
                bij = table[i][j]
                products = (table[i], entries[j]), (table[j], entries[i])
                failing = _nonzero_columns(table, products, bij, j + 1)
                for k in bits(failing):
                    cycle = bracket(g, 1 << i, table[j][k])
                    cycle ^= bracket(g, 1 << j, table[i][k])
                    cycle ^= bracket(g, 1 << k, bij)
                    fail(
                        "jacobi",
                        (i, j, k),
                        f"cycle sum = {g.format_element(cycle)}",
                    )
                    if len(report.failures) >= max_failures:
                        return report
    if squaring_holds:
        return report

    # squaring rule at (i, j) is column j of ad_{s(e_i)} + ad_i ad_i
    for i in g.odd_indices():
        si = g.squaring[i]
        for j in bits(_squaring_defects(g, i)):
            lhs = bracket(g, si, 1 << j)
            rhs = bracket(g, 1 << i, table[i][j])
            fail(
                "squaring-jacobi",
                (i, j),
                f"[s(f),g] = {g.format_element(lhs)}"
                f" but [f,[f,g]] = {g.format_element(rhs)}",
            )
    return report


# ---------------------------------------------------------------------------
# Structural subspaces
# ---------------------------------------------------------------------------
# Each is a composition of centralizer, squares_span and gf2.dependencies
# (the combinations of a basis on which given functionals vanish).


def parity_split(g: SuperAlgebra, vectors: Iterable[int]) -> tuple[list[int], list[int]]:
    """Split a graded subspace into even and odd parts.

    Valid whenever the subspace is graded (all the subspaces this module
    produces are); the two masked spans then add up to the original one.
    """
    ev, od = SpanBasis(), SpanBasis()
    total = SpanBasis()
    for v in vectors:
        total.add(v)
        ev.add(v & g.even_mask)
        od.add(v & g.odd_mask)
    if ev.dim + od.dim != total.dim:
        raise ValueError("subspace is not graded")
    return ev.vectors(), od.vectors()


def squares_span(g: SuperAlgebra, odd: Sequence[int] | None = None) -> list[int]:
    """Span of {s(f) : f in span(odd)}, odd a list of odd vectors (the odd
    basis when None): by polarization, the squares s(u) of the listed
    vectors and the brackets [u, w] of each pair of them."""
    if odd is None:
        odd = [1 << i for i in g.odd_indices()]
    basis = SpanBasis(square_element(g, u) for u in odd)
    for a, u in enumerate(odd):
        for w in odd[a + 1 :]:
            basis.add(bracket(g, u, w))
    return basis.vectors()


def derived_subalgebra(g: SuperAlgebra, step: int = 1) -> list[int]:
    """Basis of the step-th derived algebra g^(step): g^(k+1) is spanned by
    [g^(k), g^(k)] and the squares of the odd part of g^(k), which
    squares_span gives with the brackets of its odd pairs.

    Each step collects its distinct products before one span_basis."""
    if step < 0:
        raise ValueError("step must be >= 0")
    current = [1 << i for i in range(g.dim)]
    for _ in range(step):
        ev, od = parity_split(g, current)
        values = set(squares_span(g, od))
        values.update(bracket(g, u, v) for a, u in enumerate(ev) for v in ev[a + 1 :] + od)
        current = span_basis(values)
    return current


def centralizer(
    g: SuperAlgebra, domain: Iterable[int], idxs: Sequence[int] | None = None
) -> list[int]:
    """Basis of {t in span(e_i : i in idxs) : [t, e_j] = 0 for j in domain},
    idxs the whole basis when None: the kernel of the _image_rows of the
    adjoint maps, read back into g."""
    idxs = range(g.dim) if idxs is None else idxs
    rows = _image_rows([g.bracket_table[i] for i in idxs], list(domain), g.dim)
    kernel = GF2Matrix(rows, len(idxs)).kernel_basis()
    units = [1 << i for i in idxs]
    return [combine(units, c) for c in kernel]


def center(g: SuperAlgebra) -> list[int]:
    """Basis of {t : [t, e_j] = 0 for every j}."""
    return centralizer(g, range(g.dim))


def _check_gram(g: SuperAlgebra, gram: GF2Matrix) -> None:
    """A Gram matrix must be dim x dim, as check_nis requires of a form."""
    if gram.nrows != g.dim or gram.ncols != g.dim:
        raise DimensionMismatch("Gram matrix and algebra dimensions differ")


def special_center(g: SuperAlgebra, gram: GF2Matrix) -> tuple[list[int], list[int], list[int]]:
    """z_s(g), the center cut by B(x, s(f)) = 0 for every odd f; plus its
    even and odd parts."""
    _check_gram(g, gram)
    z = center(g)
    squares = GF2Matrix([gram.mat_vec(w) for w in squares_span(g)], g.dim)
    basis = [combine(z, c) for c in dependencies(list(map(squares.mat_vec, z)))]
    ev, od = parity_split(g, basis)
    return span_basis(basis), ev, od


def cone_contains(g: SuperAlgebra, gram: GF2Matrix, x: int) -> bool:
    """Membership in {x odd : B(s(x), s(t)) = 0 for all odd t}."""
    _check_gram(g, gram)
    if x & g.even_mask:
        raise NotOdd("cone membership is defined for odd elements")
    sx = square_element(g, x)
    return all(not dot(gram.mat_vec(w), sx) for w in squares_span(g))


def sharp_complement(
    g: SuperAlgebra, gram: GF2Matrix, subspace: Sequence[int]
) -> list[int]:
    """V-sharp: B(x,V)=0, and B(s(x),V)=0 for odd x.

    The odd-part condition is quadratic in general; it cuts a subspace
    exactly when B([x,y],V)=0 on the orthogonal kernel, which holds for
    ideals, which is the intended use.  A non-additive instance raises
    ValueError.  Both conditions are dependencies of the values B(., V):
    on the basis of g, then on the squares of the odd part of the kernel.
    """
    _check_gram(g, gram)
    v_ev, v_od = parity_split(g, subspace)
    targets = GF2Matrix([gram.mat_vec(v) for v in v_ev + v_od], g.dim)
    perp = dependencies([targets.mat_vec(1 << i) for i in range(g.dim)])
    k_ev, k_od = parity_split(g, perp)
    for a, u in enumerate(k_od):
        for w in k_od[a + 1 :]:
            if targets.mat_vec(bracket(g, u, w)):
                raise ValueError("sharp complement is not a subspace for this V")
    coords = dependencies([targets.mat_vec(square_element(g, u)) for u in k_od])
    return span_basis(k_ev + [combine(k_od, c) for c in coords])


def is_two_step_nilpotent(g: SuperAlgebra) -> bool:
    """[g,[g,g]] = 0, [g, s(g_odd)] = 0, and s([g_even, g_odd]) = 0."""
    table = g.bracket_table
    z = SpanBasis(center(g))
    derived = [table[i][j] for i in range(g.dim) for j in range(i + 1, g.dim)]
    if not all(map(z.contains, derived + squares_span(g))):
        return False
    mixed = span_basis(table[i][j] for i in g.even_indices() for j in g.odd_indices())
    # [V, V] = 0 at this point, so s is additive on V = [g_ev, g_od]
    return not squares_span(g, mixed)


def _generating_sequence(g: SuperAlgebra) -> list[int]:
    """Greedy basis sequence whose subalgebra closure is all of g.

    Each step takes the first basis vector whose closure with the span so
    far is largest.  That span is closed, so a closure grows from the one
    new seed: each round brackets the vectors that raised the rank with a
    basis of the span, each through one adjoint row (ad), and squares the
    odd ones, as isometry._closure does for pairs.

    A basis vector e_j inside the closure built for an earlier e_i of the
    same step is skipped: its closure lies inside that of e_i, so it cannot
    be strictly larger, and the earlier e_i (or a later winner) is chosen
    either way.  This holds when the frontier closure is the least closed
    subspace containing the span and the seed, which it is on tables that
    are structurally_sound.  The basis vectors a span holds are read off
    its unit rows (SpanBasis.units).
    """
    chosen: list[int] = []
    span = SpanBasis()
    while span.dim < g.dim:
        best, covered = None, span.units()
        for i in range(g.dim):
            if covered >> i & 1:
                continue
            s, frontier = span.copy(), [1 << i]
            s.add(1 << i)
            while frontier:
                items = list(s.rows())
                new = []
                for x in frontier:
                    row = ad(g, x)
                    products = [combine(row, y) for y in items]
                    if g.parity_of(x) == 1:
                        products.append(square_element(g, x))
                    new += [p for p in products if p and s.add(p)]
                frontier = new
            if best is None or s.dim > best[1].dim:
                best = i, s
            if s.dim == g.dim:
                break
            covered |= s.units()
        chosen.append(best[0])
        span = best[1]
    return chosen
