"""Derivation spaces, inner/outer quotients, and compatibility filters.

A derivation is stored by its basis images (column form).  The derivation
space of a fixed parity is the kernel of the linear system

    Leibniz rule on every basis pair  +  squaring rule on every odd basis
    vector.

That system decides the defining conditions on all elements: the squaring
rule at e_i + e_j equals (rule at e_i) + (rule at e_j) + (Leibniz at
(e_i, e_j)), so polarization recovers every instance from basis ones.

For graded algebras the system is block-diagonal over the degree shift of
the unknown map, which is how the larger Hamiltonian computations stay
fast.  The build is index-driven: each basis vector lists the unknowns of
the current block that have it as source, so a rule touches only unknowns
that exist.  The rows go into a fully reduced SpanBasis and the kernel is
read off its pivot rows, with no second elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import CaseParityMismatch, DimensionMismatch, InnerNotDerivation
from .forms import BilinearForm
from .gf2 import (
    AffineSolution,
    GF2Matrix,
    SpanBasis,
    SubspaceNotContained,
    bits,
    quotient_basis,
    rref_kernel,
    solve_affine,
    span_basis,
)
from .superalgebra import SuperAlgebra, ad, bracket

CASES = ("evenB-evenD", "evenB-oddD", "oddB-oddD", "oddB-evenD")


def case_parities(case: str) -> tuple[int, int]:
    """(form parity, derivation parity) for an extension-case tag."""
    if case not in CASES:
        raise CaseParityMismatch(f"unknown case {case!r}")
    b, d = case.split("-")
    return (0 if b == "evenB" else 1, 0 if d == "evenD" else 1)


@dataclass(frozen=True)
class Derivation:
    """Parity-homogeneous linear map given by its basis images."""

    images: tuple[int, ...]
    parity: int

    @property
    def dim(self) -> int:
        return len(self.images)

    def apply(self, x: int) -> int:
        y = 0
        for j in bits(x):
            y ^= self.images[j]
        return y

    def compose(self, other: "Derivation") -> "Derivation":
        return Derivation(
            tuple(self.apply(w) for w in other.images),
            (self.parity + other.parity) & 1,
        )

    def add(self, other: "Derivation") -> "Derivation":
        if self.parity != other.parity:
            raise CaseParityMismatch("cannot add derivations of mixed parity")
        return Derivation(
            tuple(a ^ b for a, b in zip(self.images, other.images)),
            self.parity,
        )

    def is_zero(self) -> bool:
        return not any(self.images)

    @classmethod
    def from_vec(
        cls, vec: int, unknowns: Sequence[tuple[int, int]], n: int, parity: int
    ) -> "Derivation":
        images = [0] * n
        for k in bits(vec):
            i, j = unknowns[k]
            images[j] |= 1 << i
        return cls(tuple(images), parity)


def zero_derivation(g: SuperAlgebra, parity: int) -> Derivation:
    return Derivation((0,) * g.dim, parity)


def ad_derivation(g: SuperAlgebra, v: int) -> Derivation:
    p = g.parity_of(v)
    if p is None and v != 0:
        raise ValueError("ad of a non-homogeneous element has no parity")
    return Derivation(tuple(ad(g, v)), 0 if p is None else p)


def is_derivation(g: SuperAlgebra, d: Derivation) -> tuple[bool, tuple | None]:
    """Leibniz on all basis pairs and the squaring rule on odd basis."""
    if d.dim != g.dim:
        raise DimensionMismatch("derivation size mismatch")
    n = g.dim
    for i in range(n):
        im = d.images[i]
        want = (g.parity[i] + d.parity) & 1
        if im & (g.odd_mask if want == 0 else g.even_mask):
            return False, ("parity", i)
    for i in range(n):
        for j in range(i + 1, n):
            lhs = d.apply(g.bracket_table[i][j])
            rhs = bracket(g, d.images[i], 1 << j) ^ bracket(
                g, 1 << i, d.images[j]
            )
            if lhs != rhs:
                return False, ("leibniz", i, j)
    for i in g.odd_indices():
        if d.apply(g.squaring[i]) != bracket(g, d.images[i], 1 << i):
            return False, ("squaring-rule", i)
    return True, None


# ---------------------------------------------------------------------------
# The derivation space as a kernel computation
# ---------------------------------------------------------------------------


def _unknown_layout(g: SuperAlgebra, parity: int, shift=None):
    """Unknown positions (i, j) meaning e_j |-> ... + e_i, parity-filtered."""
    unknowns = []
    for j in range(g.dim):
        want = (g.parity[j] + parity) & 1
        for i in range(g.dim):
            if g.parity[i] != want:
                continue
            if shift is not None and g.degrees[i] - g.degrees[j] != shift:
                continue
            unknowns.append((i, j))
    return unknowns


def _derivation_kernel(g: SuperAlgebra, parity: int, shift=None) -> list[Derivation]:
    unknowns = _unknown_layout(g, parity, shift)
    if not unknowns:
        return []
    n = g.dim
    table = g.bracket_table
    # by_source[m]: (i, bit of unknown (i, m)) for each unknown that exists
    by_source: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for pos, (i, m) in enumerate(unknowns):
        by_source[m].append((i, 1 << pos))
    rows = SpanBasis()

    def add_rule(image: int, j: int, k: int, leibniz: bool):
        # D(image) + [D e_j, e_k] (+ [e_j, D e_k] for Leibniz), per output
        row_by_out: dict[int, int] = {}
        for m in bits(image):
            for l_, bit in by_source[m]:
                row_by_out[l_] = row_by_out.get(l_, 0) ^ bit
        for m, bit in by_source[j]:
            for l_ in bits(table[m][k]):
                row_by_out[l_] = row_by_out.get(l_, 0) ^ bit
        if leibniz:
            for m, bit in by_source[k]:
                for l_ in bits(table[j][m]):
                    row_by_out[l_] = row_by_out.get(l_, 0) ^ bit
        for r in row_by_out.values():
            if r:
                rows.add(r)

    for j in range(n):
        for k in range(j + 1, n):
            add_rule(table[j][k], j, k, True)
    for j in g.odd_indices():
        add_rule(g.squaring[j], j, j, False)
    kernel = rref_kernel(rows.pivot_rows, len(unknowns))
    return [Derivation.from_vec(v, unknowns, n, parity) for v in kernel]


def _shift_kernels(g: SuperAlgebra, parity: int):
    """(shift, derivation kernel of that degree shift) for a graded g."""
    shifts = {
        g.degrees[i] - g.degrees[j]
        for i in range(g.dim)
        for j in range(g.dim)
        if g.parity[i] == (g.parity[j] + parity) & 1
    }
    for s in sorted(shifts):
        yield s, _derivation_kernel(g, parity, s)


def derivation_space(g: SuperAlgebra, parity: int) -> list[Derivation]:
    """Basis of the parity-homogeneous derivations of g."""
    if g.degrees is None:
        return _derivation_kernel(g, parity)
    return [d for _, ders in _shift_kernels(g, parity) for d in ders]


def inner_derivations(g: SuperAlgebra, parity: int) -> list[Derivation]:
    """Spanning set of {ad_v : v homogeneous of the given parity}."""
    idxs = g.odd_indices() if parity else g.even_indices()
    span = SpanBasis()
    out = []
    for i in idxs:
        d = ad_derivation(g, 1 << i)
        if span.add(_vec_full(g, d)):
            out.append(d)
    return out


def _vec_full(g: SuperAlgebra, d: Derivation) -> int:
    v = 0
    n = g.dim
    for j, im in enumerate(d.images):
        v |= im << (j * n)
    return v


def _from_vec_full(g: SuperAlgebra, v: int, parity: int) -> Derivation:
    n = g.dim
    mask = (1 << n) - 1
    return Derivation(
        tuple((v >> (j * n)) & mask for j in range(n)), parity
    )


@dataclass(frozen=True)
class OuterBasis:
    """Outer derivations (= first cohomology) of one parity."""

    parity: int
    representatives: tuple[Derivation, ...]
    derivation_dim: int
    inner_dim: int

    @property
    def dim(self) -> int:
        return len(self.representatives)


def outer_derivations(g: SuperAlgebra, parity: int | None = None):
    """Quotient of derivations by inner ones, per parity.

    Returns an OuterBasis for a fixed parity, or a (even, odd) pair.
    """
    if parity is None:
        return outer_derivations(g, 0), outer_derivations(g, 1)
    ders = derivation_space(g, parity)
    inner = inner_derivations(g, parity)
    der_vecs = [_vec_full(g, d) for d in ders]
    inner_vecs = [_vec_full(g, d) for d in inner]
    try:
        reps = quotient_basis(der_vecs, inner_vecs)
    except SubspaceNotContained:
        raise _inner_not_derivation(g, parity) from None
    return OuterBasis(
        parity=parity,
        representatives=tuple(
            _from_vec_full(g, v, parity) for v in reps
        ),
        derivation_dim=len(der_vecs),
        inner_dim=len(span_basis(inner_vecs)),
    )


def outer_dimension_by_degree(g: SuperAlgebra, parity: int) -> dict[int, int]:
    """Outer dimensions split by degree shift (graded algebras only)."""
    if g.degrees is None:
        raise ValueError("algebra carries no grading")
    # inner derivations of degree s are the ad_v with matching shift
    inner_by_shift: dict[int | None, list[int]] = {}
    for i in range(g.dim):
        if g.parity[i] != parity:
            continue
        d = ad_derivation(g, 1 << i)
        if not d.is_zero():
            inner_by_shift.setdefault(_map_degree(g, d), []).append(
                _vec_full(g, d)
            )
    result: dict[int, int] = {}
    for s, ders in _shift_kernels(g, parity):
        try:
            reps = quotient_basis(
                [_vec_full(g, d) for d in ders], inner_by_shift.get(s, [])
            )
        except SubspaceNotContained:
            raise _inner_not_derivation(g, parity) from None
        if reps:
            result[s] = len(reps)
    return result


def _inner_not_derivation(g: SuperAlgebra, parity: int) -> InnerNotDerivation:
    """The error naming the first basis vector whose ad is not a derivation.

    Called once an inner map fell outside the derivation space.  When every
    ad passes is_derivation, the space was cut by degree shifts, so some ad
    mixes shifts: the degrees do not respect the bracket.
    """
    idxs = g.odd_indices() if parity else g.even_indices()
    for i in idxs:
        ok, witness = is_derivation(g, ad_derivation(g, 1 << i))
        if not ok:
            rule, *at = witness
            where = ", ".join(g.names[j] for j in at)
            return InnerNotDerivation(g.names[i], f"{rule} fails at ({where})")
    i = next(
        i for i in idxs if _map_degree(g, ad_derivation(g, 1 << i)) is None
    )
    return InnerNotDerivation(
        g.names[i], "it mixes degree shifts, so the degrees do not respect"
        " the bracket"
    )


def _map_degree(g: SuperAlgebra, d: Derivation) -> int | None:
    """The single degree shift of a homogeneous map, else None."""
    shifts = set()
    for j, im in enumerate(d.images):
        for i in bits(im):
            shifts.add(g.degrees[i] - g.degrees[j])
    if len(shifts) == 1:
        return shifts.pop()
    return None


def map_degree(g: SuperAlgebra, d: Derivation) -> int | None:
    if g.degrees is None:
        return None
    return _map_degree(g, d)


# ---------------------------------------------------------------------------
# Compatibility with a bilinear form
# ---------------------------------------------------------------------------


def _coefficient_cut(
    candidates: Sequence[Derivation],
    row_makers: Iterable[Callable[[Derivation], int]],
) -> list[int]:
    """Coefficient vectors of span(candidates) killed by the functionals."""
    if not candidates:
        return []
    rows = []
    for make in row_makers:
        row = 0
        for k, d in enumerate(candidates):
            if make(d):
                row |= 1 << k
        rows.append(row)
    return GF2Matrix(rows or [0], len(candidates)).kernel_basis()


def _combine(candidates: Sequence[Derivation], coeff: int) -> Derivation:
    n = candidates[0].dim
    images = [0] * n
    for k in bits(coeff):
        for j in range(n):
            images[j] ^= candidates[k].images[j]
    return Derivation(tuple(images), candidates[0].parity)


def _linear_cut(
    candidates: Sequence[Derivation],
    row_makers: Iterable[Callable[[Derivation], int]],
) -> list[Derivation]:
    """Independent basis of the subspace of span(candidates) killed by the
    functionals (dependent candidate lists collapse to a true basis)."""
    span = SpanBasis()
    out = []
    n = candidates[0].dim if candidates else 0
    for cv in _coefficient_cut(candidates, row_makers):
        d = _combine(candidates, cv)
        flat = 0
        for j, im in enumerate(d.images):
            flat |= im << (j * n)
        if flat and span.add(flat):
            out.append(d)
    return out


def self_adjoint_row_makers(g: SuperAlgebra, form: BilinearForm):
    """Functionals whose joint kernel is {D : B(D a, b) = B(a, D b)}."""
    makers = []
    for i in range(g.dim):
        for j in range(i, g.dim):
            makers.append(
                lambda d, i=i, j=j: form.pair(d.images[i], 1 << j)
                ^ form.pair(1 << i, d.images[j])
            )
    return makers


def self_adjoint_subspace(
    g: SuperAlgebra, form: BilinearForm, candidates: Sequence[Derivation]
) -> list[Derivation]:
    """Cut span(candidates) by B(D a, b) = B(a, D b) alone.

    This is the bare "compatible with the bilinear form" filter; the case
    conditions of compatible_subspace refine it.
    """
    return _linear_cut(candidates, self_adjoint_row_makers(g, form))


def self_adjoint_coefficients(
    g: SuperAlgebra, form: BilinearForm, candidates: Sequence[Derivation]
) -> list[int]:
    """Coefficient-space kernel of the self-adjointness filter.

    Works for mixed-parity candidate lists, where the combinations are not
    themselves homogeneous derivations.
    """
    return _coefficient_cut(candidates, self_adjoint_row_makers(g, form))


@dataclass(frozen=True)
class CompatibleDerivationSet:
    case: str
    basis: tuple[Derivation, ...]
    a0_solutions: tuple[AffineSolution | None, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.basis)


def compatible_subspace(
    g: SuperAlgebra,
    form: BilinearForm,
    case: str,
    candidates: Sequence[Derivation],
) -> CompatibleDerivationSet:
    """Linear part of the extension-case conditions on span(candidates).

    All cases share self-adjointness.  The quadratic-lift cases add zero
    diagonals: B(D a, a) = 0 on even basis vectors (even-B even-D, odd-B
    odd-D) and on odd basis vectors (so that B(., D .) restricted to the
    odd part is alternating, hence is some polar form).
    """
    form_parity, der_parity = case_parities(case)
    if form.parity != form_parity:
        raise CaseParityMismatch(
            f"case {case} needs a form of parity {form_parity}"
        )
    if any(d.parity != der_parity for d in candidates):
        raise CaseParityMismatch(
            f"case {case} needs derivations of parity {der_parity}"
        )
    makers = self_adjoint_row_makers(g, form)
    if case in ("evenB-evenD", "oddB-oddD"):
        for i in range(g.dim):
            makers.append(
                lambda d, i=i: form.pair(d.images[i], 1 << i)
            )
    basis = _linear_cut(candidates, makers)
    a0_sols: list[AffineSolution | None] = []
    if der_parity == 1:
        for d in basis:
            a0_sols.append(find_a0(g, d))
    return CompatibleDerivationSet(case, tuple(basis), tuple(a0_sols))


# ---------------------------------------------------------------------------
# a0 solving and cohomology of classes
# ---------------------------------------------------------------------------


def find_a0(g: SuperAlgebra, d: Derivation) -> AffineSolution | None:
    """Even elements a0 with ad_{a0} = D^2 and D(a0) = 0; None if D^2 not inner."""
    if d.parity != 1:
        raise CaseParityMismatch("a0 is defined for odd derivations")
    dd = d.compose(d)
    even = g.even_indices()
    rows: list[int] = []
    rhs_bits: list[int] = []
    n = g.dim
    for j in range(n):
        target = dd.images[j]
        for k in range(n):
            row = 0
            for a, i in enumerate(even):
                if (g.bracket_table[i][j] >> k) & 1:
                    row |= 1 << a
            rows.append(row)
            rhs_bits.append((target >> k) & 1)
    for k in range(n):
        row = 0
        for a, i in enumerate(even):
            if (d.images[i] >> k) & 1:
                row |= 1 << a
        rows.append(row)
        rhs_bits.append(0)
    rhs = 0
    for r, bit in enumerate(rhs_bits):
        if bit:
            rhs |= 1 << r
    sol = solve_affine(GF2Matrix(rows, len(even)), rhs)
    if sol is None:
        return None

    def expand(v: int) -> int:
        out = 0
        for a in bits(v):
            out |= 1 << even[a]
        return out

    return AffineSolution(
        expand(sol.particular), tuple(expand(k) for k in sol.kernel_basis)
    )


def cohomologous(
    g: SuperAlgebra, d1: Derivation, d2: Derivation
) -> int | None:
    """Witness t with d1 + d2 = ad_t (lambda = 1 over GF(2)); None if outer."""
    if d1.parity != d2.parity:
        raise CaseParityMismatch("classes of different parity")
    idxs = g.odd_indices() if d1.parity else g.even_indices()
    rows = []
    rhs = 0
    n = g.dim
    diff = d1.add(d2)
    r = 0
    for j in range(n):
        target = diff.images[j]
        for k in range(n):
            row = 0
            for a, i in enumerate(idxs):
                if (g.bracket_table[i][j] >> k) & 1:
                    row |= 1 << a
            rows.append(row)
            if (target >> k) & 1:
                rhs |= 1 << r
            r += 1
    sol = solve_affine(GF2Matrix(rows, len(idxs)), rhs)
    if sol is None:
        return None
    t = 0
    for a in bits(sol.particular):
        t |= 1 << idxs[a]
    return t


def class_coordinates(
    g: SuperAlgebra, outer: OuterBasis, d: Derivation
) -> int | None:
    """Coordinates of [d] in the outer basis; None if not a derivation class.

    Solves d = sum mu_k R_k + ad_t jointly over (mu, t).
    """
    if d.parity != outer.parity:
        raise CaseParityMismatch("parity mismatch with the outer basis")
    idxs = g.odd_indices() if d.parity else g.even_indices()
    reps = outer.representatives
    width = len(reps) + len(idxs)
    rows = []
    rhs = 0
    r = 0
    n = g.dim
    for j in range(n):
        for k in range(n):
            row = 0
            for c, rep in enumerate(reps):
                if (rep.images[j] >> k) & 1:
                    row |= 1 << c
            for a, i in enumerate(idxs):
                if (g.bracket_table[i][j] >> k) & 1:
                    row |= 1 << (len(reps) + a)
            rows.append(row)
            if (d.images[j] >> k) & 1:
                rhs |= 1 << r
            r += 1
    sol = solve_affine(GF2Matrix(rows, width), rhs)
    if sol is None:
        return None
    mu_mask = (1 << len(reps)) - 1
    # the mu part is unique: distinct mu differ by an inner combination of
    # the representatives, impossible by construction of the quotient basis
    return sol.particular & mu_mask
