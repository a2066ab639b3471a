"""Exact linear algebra over GF(2).

Vectors are Python ints used as bit sets (bit j = coordinate j), so addition
is ``^`` and a dot product is a popcount parity.  Matrices store bit-packed
rows; arbitrary-width ints give word-at-a-time elimination for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class SubspaceNotContained(ValueError):
    """Raised by quotient_basis when the subspace is not inside the space."""


def bits(x: int) -> Iterator[int]:
    """Yield the set bit positions of x in ascending order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def dot(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


def restrict(v: int, idxs: Sequence[int]) -> int:
    """The coordinates idxs of v: bit pos of the result is bit idxs[pos] of v."""
    return sum(((v >> i) & 1) << pos for pos, i in enumerate(idxs))


def combine(vectors: Sequence[int], coeffs: int) -> int:
    """The sum of vectors[k] over the set bits k of coeffs."""
    y = 0
    while coeffs:
        low = coeffs & -coeffs
        y ^= vectors[low.bit_length() - 1]
        coeffs ^= low
    return y


class SpanBasis:
    """Incremental row-space basis in reduced echelon form.

    Pivots are the lowest set bits; rows are kept mutually reduced, so the
    representation of the spanned subspace is canonical.  This is the one
    elimination of the package: rank, kernels, inversion and affine
    solving all read their results off it.  The rows are private: they
    leave only through copy, rows, vectors, units and kernel.
    """

    __slots__ = ("_rows",)

    def __init__(self, vectors: Iterable[int] = ()):  # noqa: D107
        self._rows: dict[int, int] = {}  # pivot column -> row
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        """Fully reduce v; zero iff v is in the span."""
        rows = self._rows
        done = 0  # bits confirmed to have no pivot row
        while True:
            rest = v & ~done
            if not rest:
                return v
            low = rest & -rest
            row = rows.get(low.bit_length() - 1)
            if row is None:
                done |= low
            else:
                # row's lowest bit is the pivot, so only higher bits change
                v ^= row

    def add(self, v: int) -> bool:
        """Insert v; return True if it enlarged the span."""
        v = self.reduce(v)
        if not v:
            return False
        p = (v & -v).bit_length() - 1
        # keep full reduction: clear bit p from existing rows
        for q, row in self._rows.items():
            if (row >> p) & 1:
                self._rows[q] = row ^ v
        self._rows[p] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def units(self) -> int:
        """Mask of the basis vectors e_j in the span.  Rows are fully
        reduced with lowest-bit pivots, so e_j is in the span exactly when
        the row of pivot j is e_j."""
        return sum(row for row in self._rows.values() if not row & (row - 1))

    @property
    def dim(self) -> int:
        return len(self._rows)

    def copy(self) -> "SpanBasis":
        c = SpanBasis.__new__(SpanBasis)  # no __init__: the search copies often
        c._rows = self._rows.copy()
        return c

    def rows(self) -> Iterable[int]:
        """The basis rows in no set order, as a read-only view."""
        return self._rows.values()

    def vectors(self) -> list[int]:
        """Canonical basis, sorted by pivot position."""
        return [self._rows[p] for p in sorted(self._rows)]

    def kernel(self, width: int) -> list[int]:
        """Basis of {x < 2^width : x is orthogonal to every row}, one vector
        per free column f in ascending order: e_f plus e_p for every pivot
        row p containing f.  The rows must lie below bit width."""
        kernel = {f: 1 << f for f in range(width) if f not in self._rows}
        for p, row in self._rows.items():
            for f in bits(row ^ (1 << p)):
                kernel[f] |= 1 << p
        return list(kernel.values())


def span_basis(vectors: Iterable[int]) -> list[int]:
    return SpanBasis(vectors).vectors()


def dependencies(values: Sequence[int]) -> list[int]:
    """Basis of {c : combine(values, c) = 0}: with bit r of values[k] the
    value of functional r at candidate k, the combinations of the
    candidates on which every functional vanishes."""
    if not values:
        return []
    return GF2Matrix(values, max(values).bit_length()).transpose().kernel_basis()


@dataclass(frozen=True)
class AffineSolution:
    """Solution set of A x = b: particular + span of kernel_basis."""

    particular: int
    kernel_basis: tuple[int, ...]

    def __iter__(self) -> Iterator[int]:
        """Enumerate all solutions (use only for small kernels)."""
        return self.points()

    def points(self) -> Iterator[int]:
        """All solutions, lazily and in order.

        Solution number mask is particular plus kernel_basis[i] for each
        bit i of mask.  Going from mask - 1 to mask flips bits 0..t, t the
        lowest set bit of mask, so each step adds the prefix sum
        kernel_basis[0] + ... + kernel_basis[t]: a caller that stops early
        pays only for the solutions it took.
        """
        kernel = self.kernel_basis
        prefix, acc = [], 0
        for k in kernel:
            acc ^= k
            prefix.append(acc)
        x = self.particular
        yield x
        for mask in range(1, 1 << len(kernel)):
            x ^= prefix[(mask & -mask).bit_length() - 1]
            yield x

    def index(self, x: int) -> int | None:
        """The mask of x in points() order, or None when x is no solution."""
        kernel = self.kernel_basis
        width = max(x, self.particular, *kernel).bit_length()
        tagged = SpanBasis(k | 1 << (width + i) for i, k in enumerate(kernel))
        rest = tagged.reduce(x ^ self.particular)
        return None if rest & ((1 << width) - 1) else rest >> width

    def lift(self, idxs: Sequence[int]) -> "AffineSolution":
        """The same set with coordinate pos moved to coordinate idxs[pos]
        (the inverse of restrict to idxs)."""
        return self.map([1 << i for i in idxs])

    def map(self, images: Sequence[int]) -> "AffineSolution":
        """The image of the set under the linear map e_pos -> images[pos];
        when the map is injective, points() keeps its order."""
        return AffineSolution(
            combine(images, self.particular),
            tuple(combine(images, k) for k in self.kernel_basis),
        )


class GF2Matrix:
    """Immutable-by-convention matrix over GF(2) with bit-packed rows."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Sequence[int], ncols: int):
        self.rows = list(rows)
        self.ncols = ncols

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "GF2Matrix":
        return cls([0] * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls([1 << i for i in range(n)], n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF2Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ncols, tuple(self.rows)))

    def __repr__(self) -> str:
        return f"GF2Matrix({self.nrows}x{self.ncols})"

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def transpose(self) -> "GF2Matrix":
        cols = [0] * self.ncols
        for i, row in enumerate(self.rows):
            for j in bits(row):
                cols[j] |= 1 << i
        return GF2Matrix(cols, self.nrows)

    def mat_vec(self, x: int) -> int:
        """A @ x with x a column vector (bit j = coordinate j)."""
        y = 0
        for i, row in enumerate(self.rows):
            if (row & x).bit_count() & 1:
                y |= 1 << i
        return y

    def vec_mat(self, x: int) -> int:
        """x^T @ A as a bit vector over columns."""
        return combine(self.rows, x)

    def rank(self) -> int:
        return SpanBasis(self.rows).dim

    def kernel_basis(self) -> list[int]:
        """Basis of {x : A x = 0}."""
        return SpanBasis(self.rows).kernel(self.ncols)

    def inverse(self) -> "GF2Matrix":
        """Reduce the rows of [A | I]; the high halves are then A^-1.

        [A | I] has rank n, so A is singular exactly when a pivot lies in
        the identity half, that is when a row is zero on the A half.
        """
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of non-square matrix")
        rows = SpanBasis(
            row | (1 << (n + i)) for i, row in enumerate(self.rows)
        ).vectors()
        if any(not row & ((1 << n) - 1) for row in rows):
            raise ValueError("singular matrix over GF(2)")
        return GF2Matrix([row >> n for row in rows], n)


def solve_affine(a: GF2Matrix, b: int) -> AffineSolution | None:
    """Solve A x = b; None when inconsistent.

    b is a bit vector over the rows of A.  One elimination of [A | b]:
    the system is consistent iff column n is free, and then it is the last
    free column, so the last kernel vector of [A | b] is x + e_n for a
    particular solution x and the others are the kernel of A.
    """
    n = a.ncols
    kernel = SpanBasis(
        row | (((b >> i) & 1) << n) for i, row in enumerate(a.rows)
    ).kernel(n + 1)
    if not kernel or not (kernel[-1] >> n) & 1:
        return None
    *kernel, last = kernel
    return AffineSolution(last ^ (1 << n), tuple(kernel))


def quotient_basis(
    space: Iterable[int], subspace: Iterable[int]
) -> list[int]:
    """Representatives completing a basis of `subspace` to one of `space`.

    Raises SubspaceNotContained when subspace is not inside span(space).
    """
    space_vs = list(space)
    ambient = SpanBasis(space_vs)
    current = SpanBasis()
    for v in subspace:
        if not ambient.contains(v):
            raise SubspaceNotContained(f"vector {v:#x} outside the space")
        current.add(v)
    reps = []
    for v in space_vs:
        if current.add(v):
            reps.append(v)
    return reps
