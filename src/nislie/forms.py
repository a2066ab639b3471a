"""Bilinear and quadratic forms over GF(2).

A BilinearForm is a parity-homogeneous Gram matrix on the whole algebra.
A QuadraticForm lives on k generators (the odd part of an algebra, in the
main use): basis values plus a polar matrix, with

    q(sum l_i v_i) = sum l_i q(v_i) + sum_{i<j} l_i l_j polar[i][j].

The Arf invariant is computed democratically, by counting values over all
vectors; the Darboux normal form is an acceptance check, not the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DegeneratePolar, DimensionMismatch, NotAlternating, NotOdd, OutOfRange
from .gf2 import GF2Matrix, bits, combine, dot, restrict
from .superalgebra import SuperAlgebra, _walk_sources


@dataclass(frozen=True)
class BilinearForm:
    gram: GF2Matrix
    parity: int

    @property
    def dim(self) -> int:
        return self.gram.ncols

    def pair(self, x: int, y: int) -> int:
        """B(x, y)."""
        return dot(self.pair_row(y), x)

    def pair_row(self, y: int) -> int:
        """The functional B(., y) as a bit vector over basis indices: the
        Gram matrix times y, the sum of its columns over the bits of y."""
        return combine(self._columns, y)

    @cached_property
    def _columns(self) -> list[int]:
        """Column j of the Gram matrix: bit i is B(e_i, e_j)."""
        return self.gram.transpose().rows

    def orthogonal_complement(self, vectors: Iterable[int]) -> list[int]:
        """Basis of {x : B(x, v) = 0 for every v in vectors}."""
        rows = [self.pair_row(v) for v in vectors]
        return GF2Matrix(rows, self.dim).kernel_basis()

    def matrix_on(self, us: Sequence[int], vs: Sequence[int]) -> GF2Matrix:
        """The matrix of B(us[i], vs[j]): bit j of row i, as pair orders it."""
        # row u^T G of the Gram matrix G, then its products with each v
        cols = GF2Matrix(vs, self.dim)
        rows = [cols.mat_vec(combine(self.gram.rows, u)) for u in us]
        return GF2Matrix(rows, len(vs))


def adjointness_defect(
    form: BilinearForm, images: Sequence[int], domain: Sequence[int]
) -> GF2Matrix:
    """B(D e_i, e_j) + B(e_i, D e_j) over the basis vectors i, j of domain,
    for the linear map D with basis images `images`."""
    units = [1 << i for i in domain]
    moved = [images[i] for i in domain]
    left, right = form.matrix_on(moved, units), form.matrix_on(units, moved)
    return GF2Matrix([p ^ q for p, q in zip(left.rows, right.rows)], len(units))


@dataclass
class NISReport:
    symmetric: bool = True
    invariant: bool = True
    non_degenerate: bool = True
    parity_homogeneous: bool = True
    witnesses: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.symmetric
            and self.invariant
            and self.non_degenerate
            and self.parity_homogeneous
        )

    def summary(self) -> str:
        flags = [
            ("symmetric", self.symmetric),
            ("invariant", self.invariant),
            ("non-degenerate", self.non_degenerate),
            ("parity-homogeneous", self.parity_homogeneous),
        ]
        return ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in flags)


def check_nis(g: SuperAlgebra, form: BilinearForm, max_witnesses: int = 16) -> NISReport:
    """Symmetry (with odd isotropy), invariance, and non-degeneracy.

    Invariance, B([x, y], z) = B(x, [y, z]) on all of g, is proved on the
    middles y in S and E of g.jacobi_walk when g has one.  L_B = {y : it
    holds for all x, z} is a subspace, and once Jacobi holds on the
    symmetric table, ad_[a,b] = ad_a ad_b + ad_b ad_a, so for a, b in L_B

        B(ad_a ad_b x, z) = B(ad_b x, ad_a z) = B(x, ad_b ad_a z):

    L_B is a subalgebra, whatever B is.  So it holds the ad_S-closure of
    the generators S once it holds S, and all of g once it also holds the
    vectors E that complete that closure.  (The walk itself checks each
    pair (i, j) of a generator i only on the columns k > j, as the Jacobi
    sum is symmetric; see the nislie.superalgebra docstring.)  Only when
    a middle in S or E fails, or g has no walk, are the basis triples
    (i, j, k) scanned in order for witnesses, until one is found and the
    witness list is full.  The Gram entries are compared one by one only
    when the matrix differs from its transpose or has an odd diagonal
    entry.
    """
    if form.dim != g.dim:
        raise DimensionMismatch("form and algebra dimensions differ")
    report = NISReport()
    gram = form.gram
    n = g.dim

    def note(kind, witness):
        if len(report.witnesses) < max_witnesses:
            report.witnesses.append((kind, witness))

    rows = gram.rows
    if rows != gram.transpose().rows or any(rows[i] >> i & 1 for i in g.odd_indices()):
        for i in range(n):
            if g.parity[i] == 1 and gram.entry(i, i):
                report.symmetric = False
                note("symmetric", (i, i))
            for j in range(i + 1, n):
                if gram.entry(i, j) != gram.entry(j, i):
                    report.symmetric = False
                    note("symmetric", (i, j))
    # nonzero entries of the wrong parity, once per pair {i, j}: at (i, j)
    # for i <= j when that entry is one of them, else at (j, i)
    wrong_at: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(n):
        wrong = g.even_mask if g.parity[i] ^ form.parity else g.odd_mask
        for j in bits(rows[i] & wrong):
            wrong_at.setdefault((min(i, j), max(i, j)), (i, j))
    for pair in sorted(wrong_at):
        report.parity_homogeneous = False
        note("parity", wrong_at[pair])

    table = g.bracket_table
    walk = g.jacobi_walk
    middles = _walk_sources(g)
    planes: list[list[int] | None] = [None] * n
    for j in middles:
        planes[j] = _ad_plane(table[j], n)
    if walk is None or next(_invariance_defects(rows, table, planes, middles), None):
        planes = [p or _ad_plane(row, n) for p, row in zip(planes, table)]
        for witness in _invariance_defects(rows, table, planes, range(n)):
            report.invariant = False
            note("invariant", witness)
            if len(report.witnesses) >= max_witnesses:
                # nothing later changes the report
                break

    if gram.rank() != n:
        report.non_degenerate = False
        note("non-degenerate", ())
    return report


def _invariance_defects(rows, table, planes, middles: Iterable[int]):
    """The basis triples (i, j, k), j in middles, at which B([e_i, e_j],
    e_k) != B(e_i, [e_j, e_k]), in order.

    rows are the Gram rows, and planes[j] is ad_{e_j} by rows.  Over k,
    the left side is the sum of the Gram rows at the bits of [e_i, e_j];
    the right side sums the rows of ad_{e_j} at the bits of Gram row i.
    """
    full = (1 << len(table)) - 1
    for i, (row_i, values) in enumerate(zip(rows, table)):
        row_i &= full
        for j in middles:
            defect = combine(rows, values[j]) ^ combine(planes[j], row_i)
            for k in bits(defect & full):
                yield i, j, k


def _ad_plane(row: Sequence[int], n: int) -> list[int]:
    """The matrix of ad_{e_j} by rows, from the table row of j: row l is
    the mask of the k for which [e_j, e_k] has bit l."""
    plane = [0] * n
    for k, v in enumerate(row):
        for l in bits(v):
            plane[l] |= 1 << k
    return plane


# ---------------------------------------------------------------------------
# Quadratic forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticForm:
    """A quadratic form on k generators: diagonal values + polar matrix."""

    n: int
    diag: int
    polar: GF2Matrix

    def __post_init__(self):
        if self.polar.ncols != self.n or self.polar.nrows != self.n:
            raise DimensionMismatch("polar matrix size mismatch")

    @classmethod
    def zero(cls, n: int) -> "QuadraticForm":
        return cls(n, 0, GF2Matrix.zeros(n, n))

    def evaluate(self, x: int) -> int:
        if x >> self.n:
            raise DimensionMismatch("vector outside the form's space")
        val = (self.diag & x).bit_count() & 1
        idx = list(bits(x))
        for a, i in enumerate(idx):
            row = self.polar.rows[i]
            for j in idx[a + 1 :]:
                val ^= (row >> j) & 1
        return val


def is_alternating(m: GF2Matrix) -> bool:
    n = m.ncols
    if m.nrows != n:
        return False
    for i in range(n):
        if m.entry(i, i):
            return False
        for j in range(i + 1, n):
            if m.entry(i, j) != m.entry(j, i):
                return False
    return True


@dataclass(frozen=True)
class QuadraticLiftFamily:
    """All quadratic forms with a fixed polar matrix; free diagonal."""

    polar: GF2Matrix

    @property
    def dimension(self) -> int:
        return self.polar.ncols

    def member(self, diag: int) -> QuadraticForm:
        return QuadraticForm(self.polar.ncols, diag, self.polar)

    def __iter__(self):
        for d in range(1 << self.dimension):
            yield self.member(d)


def quadratic_lifts(polar: GF2Matrix) -> QuadraticLiftFamily:
    """The affine family of quadratic forms polarizing to `polar`."""
    if not is_alternating(polar):
        raise NotAlternating(
            "polar candidates must be symmetric with zero diagonal"
        )
    return QuadraticLiftFamily(polar)


_ARF_MAX_DIM = 24  # arf_invariant counts the values of all 2^n vectors


def arf_invariant(q: QuadraticForm) -> int:
    """Democratic invariant: the value taken on a minority of vectors is 1.

    Requires a non-degenerate polar form, under which the zero count is
    2^(n-1) +- 2^(n/2-1) and the majority verdict is well defined.
    """
    if q.n > _ARF_MAX_DIM:
        raise OutOfRange(f"exhaustive count beyond {_ARF_MAX_DIM} generators")
    if q.polar.rank() != q.n:
        raise DegeneratePolar("polar form is degenerate")
    zeros = sum(1 for x in range(1 << q.n) if q.evaluate(x) == 0)
    total = 1 << q.n
    if zeros * 2 == total:
        raise DegeneratePolar("no majority value; polar must be degenerate")
    return 0 if zeros * 2 > total else 1


def darboux_form(n_pairs: int, a: int) -> QuadraticForm:
    """Normal form sum l_i l_{n+i} + a (l_n^2 + l_2n^2) on 2n generators."""
    n = 2 * n_pairs
    rows = [0] * n
    for i in range(n_pairs):
        rows[i] |= 1 << (n_pairs + i)
        rows[n_pairs + i] |= 1 << i
    diag = 0
    if a & 1:
        diag |= 1 << (n_pairs - 1)
        diag |= 1 << (n - 1)
    return QuadraticForm(n, diag, GF2Matrix(rows, n))


# ---------------------------------------------------------------------------
# Forms attached to the odd part of a superalgebra
# ---------------------------------------------------------------------------


def evaluate_on_algebra(g: SuperAlgebra, q: QuadraticForm, x: int) -> int:
    """Evaluate an odd-part form on an odd element of the algebra."""
    if x & g.even_mask:
        raise NotOdd("quadratic forms act on the odd part")
    return q.evaluate(restrict(x, g.odd_indices()))


def transport_quadratic(
    g: SuperAlgebra, alpha: QuadraticForm, pi0_images: Sequence[int]
) -> QuadraticForm:
    """alpha o pi0^(-1) on the odd part of g (pi0 parity-preserving)."""
    odd = g.odd_indices()
    n = len(odd)
    # row k: pi0 of the odd basis vector k in odd coordinates, so that the
    # rows of the inverse are the preimages of the odd basis vectors
    pre = GF2Matrix([restrict(pi0_images[i], odd) for i in odd], n).inverse().rows
    diag = sum(alpha.evaluate(p) << k for k, p in enumerate(pre))
    rows = [
        sum(
            (alpha.evaluate(p ^ q) ^ alpha.evaluate(p) ^ alpha.evaluate(q)) << b
            for b, q in enumerate(pre)
        )
        for p in pre
    ]
    return QuadraticForm(n, diag, GF2Matrix(rows, n))
