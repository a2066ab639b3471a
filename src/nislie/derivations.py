"""Derivation spaces, inner/outer quotients, and compatibility filters.

A derivation is stored by its basis images (column form).  The derivation
space of a fixed parity is the kernel of the linear system

    Leibniz rule on the basis pairs that touch the Jacobi walk's vectors
    +  squaring rule on every odd basis vector.

The squaring rows decide the squaring rule on all elements: the rule at
e_i + e_j equals (rule at e_i) + (rule at e_j) + (Leibniz at (e_i, e_j)),
so polarization recovers every instance from basis ones once Leibniz
holds on all pairs.

Leibniz on all pairs follows from the pairs that touch a generating set
(de Graaf, Lie Algebras: Theory and Algorithms, 2000).  The walk
SuperAlgebra.jacobi_walk returns (S, E):
- each ad_s, s in S, is a derivation, and the ad_S-closure C of S has
  codimension at most 2, so the Jacobi identity holds on all of g;
- E lists the basis vectors (at most 2) that complete C to a spanning set.
For a linear map D of either parity, L_D = {x : D[x,y] = [Dx,y] + [x,Dy]
for all y} is a subspace, and it contains S and E, whose rows are in the
system (the rule at (j, k) is the rule at (k, j) on a symmetric table).
It is stable under ad_s for each s in S: expanding D[[s,v],y] with Jacobi
at (s, v, y), (s, Dv, y), (s, v, Dy) and (Ds, v, y) gives the Leibniz rule
at ([s,v], y) for v in L_D.  So L_D contains C + span(E) = g, and these
rows have the kernel of the rows on every pair.  When the walk is None (a
table that is not structurally_sound, or a failing Jacobi identity), S
and E stand for every basis vector (_walk_sources): every pair gives its
rows, nothing is propagated, and every coefficient is an unknown.

The unknowns are only the coefficients of D e_s for s in S and E (the
kept unknowns); every other D e_k is propagated along the ad_S-closure.
Replayed from S, each closure vector v = [e_s, u] gets
D v = [D e_s, u] + [e_s, D u], and each e_k is a sum of closure vectors
and E, so D e_k is a linear function of the kept unknowns.  Two facts
make the kernels over the kept unknowns those of the system on all n^2
coefficients:
- Leibniz at (e_s, u) is a sum of the rows at the pairs (s, j), which
  are in the system; so it holds for every derivation, with or without
  Jacobi, and for every solution, and the propagation loses none;
- restriction to S and E is injective on derivations and on solutions:
  a D that vanishes there vanishes on C and on E, hence on g.

The system is block-diagonal over the shift of the unknown map under the
finest free grading that the structure constants allow
(SuperAlgebra.fine_degrees), for every algebra, declared degrees or not.
The closure vectors are homogeneous, so the propagation keeps each
coefficient in the block of its own shift.  The system is built in one
pass over the rules that touch S and E: each basis vector lists the
coefficients of its image, each a combination of kept unknowns of one
block, so a rule row goes to the block of its shift.  Only shifts with
kept unknowns make blocks: by injectivity, no other shift holds a
derivation.  Each block keeps its own fully reduced SpanBasis, its
kernel is read off the echelon rows with no second elimination, and a
block whose kernel is known drops out of the index.  Inner maps ad_{e_i}
lie in the block of e_i's degree, so the outer quotient is taken block
by block; declared degrees, which must coarsen the fine grading, only
label the blocks.  The blocks go in order of their shift in the
canonical degrees of fine_degrees, so the block order, and with it the
order of OuterBasis.representatives, depends only on the algebra and
the order of its basis.

Once the inner maps ad_{e_i} of a parity are derivations, their rank over
the kept unknowns is their rank on g, as restriction to S and E is
injective on Leibniz maps (with no walk, S and E are every basis vector).
They are derivations by proof when g.jacobi_walk is a tuple and
g.squaring_rule_holds (ad_{s(e_i)} = ad_i ad_i on odd e_i), or because
each one passed is_derivation; outer_derivations and
outer_dimension_by_degree check them one at a time without the proof,
and the first that fails raises its InnerNotDerivation before any system
is built.  With r_b the rank of the inner maps in block b:
- a block's kernel is known at rank size - r_b, where size counts its
  kept unknowns: K_true, the kernel of every row, lies in K_partial, the
  kernel of the rows inserted so far, and contains the inner span of
  dimension r_b; at that rank dim K_partial = r_b, so both are the inner
  span, and the block closes;
- a block's outer dimension is size - rank - r_b, exactly, so
  outer_dimension_by_degree reads the dimensions off the ranks and
  never leaves the kept unknowns.
derivation_space states only the proof; where the inner maps are not
known to be derivations, r_b counts as 0 and a block closes only at full
rank, so a table that fails the axioms keeps its kernels.
Full coordinates (i, m) are built per block (_full_block) only for a
caller that reports vectors: derivation_space for every block,
outer_derivations for the blocks with outer classes.  The kernel over
the kept unknowns is mapped back through the propagated images and put
in the canonical form that SpanBasis.kernel returns (the fully reduced
basis with highest-bit pivots), which depends only on the span; the
kept inner vectors are mapped back the same way, and the representatives
complete them, which depends only on their span.  So both are
bit-identical to a solve on every coefficient.

Class arithmetic (class_coordinates, cohomologous, find_a0) solves
sum_c x_c M_c = T in one place, _solve_maps, at the images of S and E
and at the values a caller appends (find_a0's D(a0) = 0).  The M_c must
be Leibniz maps (the outer representatives, and ad_{e_i} once the walk
proves Jacobi); T need not be.  The rule is linear in D, so by the
injectivity above these equations have the kernel of those at every
image.  A particular solution that holds at every image then gives the
same solution set, and one that fails shows there is none.  solve_affine
reads the particular off the canonical kernel of [A | b], which depends
only on the solution set, so each answer is bit for bit the full one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import xor
from typing import Callable, Sequence

from .errors import CaseParityMismatch, DimensionMismatch, InnerNotDerivation
from .forms import BilinearForm, adjointness_defect
from .gf2 import (
    AffineSolution,
    GF2Matrix,
    SpanBasis,
    bits,
    combine,
    dependencies,
    quotient_basis,
    solve_affine,
)
from .superalgebra import (
    SuperAlgebra,
    _adjoint_entries,
    _image_rows,
    _nonzero_columns,
    _walk_sources,
    ad,
    bracket,
)

CASES = ("evenB-evenD", "evenB-oddD", "oddB-oddD", "oddB-evenD")


def case_parities(case: str) -> tuple[int, int]:
    """(form parity, derivation parity) for an extension-case tag."""
    if case not in CASES:
        raise CaseParityMismatch(f"unknown case {case!r}")
    b, d = case.split("-")
    return (0 if b == "evenB" else 1, 0 if d == "evenD" else 1)


def case_of(form_parity: int, x_parity: int) -> str:
    """The case of a central element x: D has the parity of B plus that of x."""
    return next(c for c in CASES if case_parities(c) == (form_parity, form_parity ^ x_parity))


@dataclass(frozen=True)
class Derivation:
    """Parity-homogeneous linear map given by its basis images."""

    images: tuple[int, ...]
    parity: int

    @property
    def dim(self) -> int:
        return len(self.images)

    def apply(self, x: int) -> int:
        return combine(self.images, x)

    def compose(self, other: "Derivation") -> "Derivation":
        return Derivation(
            tuple(self.apply(w) for w in other.images),
            (self.parity + other.parity) & 1,
        )

    def add(self, other: "Derivation") -> "Derivation":
        if self.parity != other.parity:
            raise CaseParityMismatch("cannot add derivations of mixed parity")
        if self.dim != other.dim:
            raise DimensionMismatch("cannot add maps of different sizes")
        return Derivation(tuple(map(xor, self.images, other.images)), self.parity)

    @classmethod
    def from_vec(
        cls, vec: int, unknowns: Sequence[tuple[int, int]], n: int, parity: int
    ) -> "Derivation":
        images = [0] * n
        for k in bits(vec):
            i, j = unknowns[k]
            images[j] |= 1 << i
        return cls(tuple(images), parity)


def ad_derivation(g: SuperAlgebra, v: int) -> Derivation:
    p = g.parity_of(v)
    if p is None and v != 0:
        raise ValueError("ad of a non-homogeneous element has no parity")
    return Derivation(tuple(ad(g, v)), 0 if p is None else p)


def is_derivation(g: SuperAlgebra, d: Derivation) -> tuple[bool, tuple | None]:
    """Leibniz on all basis pairs and the squaring rule on odd basis.

    The witness is the first failure: ("parity", i) for an image of the
    wrong parity, then ("leibniz", j, k) for the pairs j < k in order,
    then ("squaring-rule", i).  Leibniz is read off the table a row at a
    time: the failing k > j of row j are the nonzero columns of
    ad_{D e_j} + D ad_j + ad_j D (_nonzero_columns), column k of which
    is [D e_j, e_k] + D[e_j, e_k] + [e_j, D e_k].
    """
    if d.dim != g.dim:
        raise DimensionMismatch("derivation size mismatch")
    n = g.dim
    for i in range(n):
        im = d.images[i]
        want = (g.parity[i] + d.parity) & 1
        if im & (g.odd_mask if want == 0 else g.even_mask):
            return False, ("parity", i)
    if any(im >> n for im in d.images):
        raise DimensionMismatch("element outside the algebra")
    table, entries = g.bracket_table, _adjoint_entries(g)
    # the nonzero entries (k, l) of D: bit l of D e_k
    d_entries = [(k, l) for k, v in enumerate(d.images) if v for l in bits(v)]
    for j, row in enumerate(table):
        failing = _nonzero_columns(
            table, ((d.images, entries[j]), (row, d_entries)), d.images[j], j + 1
        )
        if failing:
            return False, ("leibniz", j, (failing & -failing).bit_length() - 1)
    for i in g.odd_indices():
        if d.apply(g.squaring[i]) != bracket(g, d.images[i], 1 << i):
            return False, ("squaring-rule", i)
    return True, None


# ---------------------------------------------------------------------------
# The derivation space as a kernel computation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Blocks:
    """The derivation system of one parity over its kept unknowns.

    Block b holds the kept unknowns of shift code shifts[b]: widths[b] of
    them, first[b] the first, and spans[b] the rule rows inserted, fully
    reduced.  images[m] maps i to the coefficient of e_i in D e_m, a mask
    over the kept unknowns of the block of (i, m).  inner[b] spans the
    block's inner maps over its kept unknowns when they are derivations,
    and is empty otherwise.  at[c, p] lists, ascending, the basis vectors
    of parity p whose fine degree has code c.  rows counts the rule rows
    inserted.
    """

    g: SuperAlgebra
    parity: int
    codes: list[int]
    at: dict[tuple[int, int], list[int]]
    shifts: list[int]
    widths: list[int]
    first: list[tuple[int, int]]
    spans: list[SpanBasis]
    images: list[dict[int, int]]
    inner: list[SpanBasis]
    rows: int

    def kernel_dims(self) -> list[int]:
        return [w - span.dim for w, span in zip(self.widths, self.spans)]


def _fine_blocks(g: SuperAlgebra, parity: int, inner_are_derivations: bool) -> _Blocks:
    """The derivation system of one parity, split by fine shift.

    Leibniz rows come from the pairs that touch g.jacobi_walk, or from
    every pair when it is None (see the module docstring).  Unknown (i, m)
    means e_m |-> ... + e_i; it lies in the block of its shift f_i - f_m
    under g.fine_degrees.  Only the unknowns (i, s) with s in S or E are
    laid out, indexed and solved for; _propagate writes every other D e_m
    as a combination of them.  Every rule row is homogeneous: the row of
    output l of the rule at (j, k) only touches unknowns of shift
    f_l - f_j - f_k.  inner_are_derivations states what the caller has
    established, by proof or by is_derivation, of the ad_{e_i} of the
    parity: then a block closes at its kept size minus the rank of its
    inner maps (_kept_inner_spans), and otherwise only at full rank.
    Nothing here is in the coordinates of every (i, m); _full_block
    builds them for one block.
    """
    n = g.dim
    walk = g.jacobi_walk
    sources = _walk_sources(g)
    codes = _degree_codes(g.fine_degrees)
    at: dict[tuple[int, int], list[int]] = {}
    for i, c in enumerate(codes):
        at.setdefault((c, g.parity[i]), []).append(i)
    of_parity = (g.even_indices(), g.odd_indices())
    # kept_of[shift]: the kept unknowns of the shift so far; images[m]: i ->
    # the coefficient of e_i in D e_m
    kept_of: dict[int, int] = {}
    first: dict[int, tuple[int, int]] = {}
    images: list[dict[int, int]] = [{} for _ in range(n)]
    for m in sources:
        cm = codes[m]
        image = images[m]
        for i in of_parity[(g.parity[m] + parity) & 1]:
            shift = codes[i] - cm
            k = kept_of.get(shift, 0)
            if not k:
                first[shift] = (i, m)
            image[i] = 1 << k
            kept_of[shift] = k + 1
    shifts = sorted(kept_of)
    widths = [kept_of[s] for s in shifts]
    if inner_are_derivations:
        inner = _kept_inner_spans(g, parity, sources, images, codes, shifts)
    else:
        inner = [SpanBasis() for _ in shifts]
    if len(sources) < n:
        _propagate(g, walk, images)
    # rank at which a block's kernel is known: its inner span (see the
    # module docstring)
    target = [w - span.dim for w, span in zip(widths, inner)]
    # by_source[m]: (i, b * n) -> the mask of unknown (i, m) of a block b
    # whose kernel is still open; a row of block b and output l has key
    # b * n + l.  held[b * n]: block b's entries.  A rule's rows are all
    # formed before any is inserted, so neither its rows nor the spans
    # after it depend on the order of the entries.
    open_off = {s: b * n for b, s in enumerate(shifts) if target[b]}
    by_source: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
    held: dict[int, list[tuple[dict, tuple[int, int]]]] = {
        off: [] for off in open_off.values()
    }
    for m, image in enumerate(images):
        cm = codes[m]
        entries = by_source[m]
        for i, mask in image.items():
            off = open_off.get(codes[i] - cm)
            if mask and off is not None:
                key = i, off
                entries[key] = mask
                held[off].append((entries, key))
    spans = [SpanBasis() for _ in shifts]
    table = g.bracket_table
    inserted = 0

    def add_rule(image: int, j: int, k: int, leibniz: bool):
        # D(image) + [D e_j, e_k] (+ [e_j, D e_k] for Leibniz), per output
        nonlocal inserted
        rows: dict[int, int] = {}
        get = rows.get
        while image:
            low = image & -image
            image ^= low
            for (i, off), bit in by_source[low.bit_length() - 1].items():
                rows[off + i] = get(off + i, 0) ^ bit
        for (m, off), bit in by_source[j].items():
            v = table[m][k]
            while v:
                low = v & -v
                v ^= low
                key = off + low.bit_length() - 1
                rows[key] = get(key, 0) ^ bit
        if leibniz:
            row_j = table[j]
            for (m, off), bit in by_source[k].items():
                v = row_j[m]
                while v:
                    low = v & -v
                    v ^= low
                    key = off + low.bit_length() - 1
                    rows[key] = get(key, 0) ^ bit
        for key, r in rows.items():
            if not r:
                continue
            inserted += 1
            b = key // n
            span = spans[b]
            if span.add(r) and span.dim == target[b]:
                # the block's kernel is known, so its unknowns drop out
                for entries, unknown in held[b * n]:
                    entries.pop(unknown, None)

    # the pairs j < k that touch S or E, in order
    kept = frozenset(sources)
    for j in range(n):
        for k in range(j + 1, n) if j in kept else sources[bisect_right(sources, j):]:
            add_rule(table[j][k], j, k, True)
    for j in g.odd_indices():
        add_rule(g.squaring[j], j, j, False)
    return _Blocks(
        g, parity, codes, at, shifts, widths, [first[s] for s in shifts],
        spans, images, inner, inserted,
    )


def _kept_inner_spans(
    g: SuperAlgebra, parity: int, sources, images, codes, shifts
) -> list[SpanBasis]:
    """The span of each block's inner maps, restricted to the kept
    unknowns of S and E; the inner maps must be derivations of the parity.

    ad_{e_i} lies in the block of shift f_i, as each term e_k of
    [e_i, e_m] has f_k = f_i + f_m, and the codes of _degree_codes are
    linear.  Each term e_k of [e_i, e_s] is a kept unknown (k, s) of the
    parity: is_derivation's parity check, or the structurally_sound table
    that the proof needs, puts e_k in the parity of e_s plus the map's.
    Restriction to S and E is injective on derivations, so the dims of
    these spans are the inner ranks on all of g.
    """
    block_of = {s: b for b, s in enumerate(shifts)}
    spans = [SpanBasis() for _ in shifts]
    table = g.bracket_table
    for i in g.odd_indices() if parity else g.even_indices():
        row = table[i]
        v = 0
        for s in sources:
            image = images[s]
            for k in bits(row[s]):
                v |= image[k]
        if v:
            spans[block_of[codes[i]]].add(v)
    return spans


def _degree_codes(fine: Sequence[tuple[int, ...]]) -> list[int]:
    """Each fine degree as one int, its coordinates the digits of a
    balanced radix wide enough for every difference: code(f_i) - code(f_m)
    codes f_i - f_m, and codes of shifts sort as the shift tuples do."""
    radix = 4 * max(map(abs, chain.from_iterable(fine)), default=0) + 1
    codes = []
    for f in fine:
        c = 0
        for x in f:
            c = c * radix + x
        codes.append(c)
    return codes


def _propagate(g: SuperAlgebra, walk, images: list[dict[int, int]]) -> None:
    """Fill images[m] for every m outside S and E of the walk (S, E).

    The ad_S-closure of S is replayed from S: each new vector
    v = [e_s, u] gets D v = [D e_s, u] + [e_s, D u], the Leibniz rule at
    (e_s, u).  Its vectors are tagged with their index above bit n, so
    the fully reduced row of pivot p writes e_p as a sum of tagged
    vectors and of free columns, which are E: D e_p is the same sum of
    their images.  Every closure vector is homogeneous in the fine
    grading, and so is each e_p, which is a sum of vectors of its own
    degree only; so each entry stays in the block of its (i, m).
    """
    n = g.dim
    gens, extra = walk
    table = g.bracket_table  # symmetric: the walk needs a sound table
    low_mask = (1 << n) - 1
    closure = SpanBasis(1 << s | 1 << (n + t) for t, s in enumerate(gens))
    vectors = [1 << s for s in gens]
    derived = [images[s] for s in gens]  # D of each closure vector
    size = n - len(extra)
    t = 0
    while closure.dim < size:
        u, du = vectors[t], derived[t]
        t += 1
        for s in gens:
            v = combine(table[s], u)
            if not v:
                continue
            r = closure.reduce(v | 1 << (n + len(vectors)))
            if not r & low_mask:
                continue
            closure.add(r)
            dv: dict[int, int] = {}
            get = dv.get
            # [D e_s, u]: sum over (i, s) of x_(i, s) [e_k, e_i], k in u
            for k in bits(u):
                row = table[k]
                for i, q in images[s].items():
                    w = row[i]
                    while w:
                        low = w & -w
                        w ^= low
                        key = low.bit_length() - 1
                        dv[key] = get(key, 0) ^ q
            # [e_s, D u]
            row = table[s]
            for l, c in du.items():
                w = row[l]
                while w:
                    low = w & -w
                    w ^= low
                    key = low.bit_length() - 1
                    dv[key] = get(key, 0) ^ c
            vectors.append(v)
            derived.append(dv)
            if closure.dim == size:
                break
    skip = frozenset(gens)
    for row in closure.rows():
        p = (row & -row).bit_length() - 1
        if p in skip:
            continue
        parts = [derived[t] for t in bits(row >> n)]
        parts += [images[f] for f in bits(row & low_mask ^ 1 << p)]
        if len(parts) == 1:
            images[p] = parts[0]
            continue
        dp = images[p]
        for part in parts:
            for l, c in part.items():
                dp[l] = dp.get(l, 0) ^ c


def _canonical_kernel(vectors: list[int], width: int) -> list[int]:
    """The basis SpanBasis.kernel(width) gives of span(vectors) when
    span(vectors) is the kernel of some rows.

    That basis has one vector per free column f, ascending: e_f plus
    pivots p < f.  So it is the fully reduced echelon basis with
    highest-bit pivots, which SpanBasis gives on the bit-reversed vectors;
    a single nonzero vector is its own.
    """
    if len(vectors) < 2:
        return list(vectors)

    def flip(v: int) -> int:
        return int(bin(v)[:1:-1].ljust(width, "0"), 2)

    return [flip(v) for v in reversed(SpanBasis(map(flip, vectors)).vectors())]


def _full_block(blocks: _Blocks, b: int):
    """(unknowns, kernel, column): block b in the coordinates of every
    unknown.

    unknowns lists the (i, m) of the block's shift, by m and then i.
    column[k] has a bit at each unknown (i, m) whose propagated
    coefficient images[m][i] holds kept unknown k, so a vector x over the
    kept unknowns is combine(column, x) in full coordinates.  The kernel
    over the kept unknowns is mapped back that way and put in the
    canonical form of SpanBasis.kernel, which depends only on its span:
    it is the one a solve on every (i, m) gives.
    """
    g, codes, shift, at = blocks.g, blocks.codes, blocks.shifts[b], blocks.at
    unknowns = [
        (i, m)
        for m in range(g.dim)
        for i in at.get((codes[m] + shift, (g.parity[m] + blocks.parity) & 1), ())
    ]
    images = blocks.images
    column = [0] * blocks.widths[b]
    for pos, (i, m) in enumerate(unknowns):
        mask = images[m].get(i, 0)
        while mask:
            low = mask & -mask
            mask ^= low
            column[low.bit_length() - 1] |= 1 << pos
    kernel = [combine(column, x) for x in blocks.spans[b].kernel(blocks.widths[b])]
    return unknowns, _canonical_kernel(kernel, len(unknowns)), column


def _outer_block(blocks: _Blocks, b: int):
    """(unknowns, kernel, representatives) of block b in full coordinates:
    the representatives complete its inner maps, mapped back from the kept
    unknowns as the kernel is, to a basis of the kernel."""
    unknowns, kernel, column = _full_block(blocks, b)
    inner = [combine(column, x) for x in blocks.inner[b].vectors()]
    return unknowns, kernel, quotient_basis(kernel, inner)


def derivation_space(g: SuperAlgebra, parity: int) -> list[Derivation]:
    """Basis of the parity-homogeneous derivations of g."""
    proved = g.jacobi_walk is not None and g.squaring_rule_holds
    blocks = _fine_blocks(g, parity, proved)
    out = []
    for b in range(len(blocks.shifts)):
        unknowns, kernel, _ = _full_block(blocks, b)
        out += (Derivation.from_vec(v, unknowns, g.dim, parity) for v in kernel)
    return out


def inner_derivations(g: SuperAlgebra, parity: int) -> list[Derivation]:
    """Spanning set of {ad_v : v homogeneous of the given parity}."""
    idxs = g.odd_indices() if parity else g.even_indices()
    span = SpanBasis()
    out = []
    for i in idxs:
        d = ad_derivation(g, 1 << i)
        if span.add(_vec_full(d)):
            out.append(d)
    return out


def _vec_full(d: Derivation) -> int:
    """The images side by side: bit j * n + k is coordinate k of D(e_j)."""
    n = d.dim
    return sum(im << (j * n) for j, im in enumerate(d.images))


@dataclass(frozen=True)
class OuterBasis:
    """Outer derivations (= first cohomology) of one parity."""

    parity: int
    representatives: tuple[Derivation, ...]
    derivation_dim: int
    inner_dim: int
    # the walk's vectors: their Leibniz rows built the system and their
    # images are its unknowns; None: every pair and every image
    leibniz_sources: int | None = field(default=None, compare=False)
    # rule rows inserted into the block spans; None: not counted
    rows: int | None = field(default=None, compare=False)

    @property
    def dim(self) -> int:
        return len(self.representatives)


def _outer_blocks(g: SuperAlgebra, parity: int) -> tuple[_Blocks, list[int]]:
    """(blocks, outer): the system of _fine_blocks and the outer dimension
    of each block, its kernel dimension minus its inner rank.

    Without the proof of the module docstring, the first inner map that
    fails is_derivation raises before any system is built; once every one
    passes, the inner maps are derivations as with the proof.  Declared
    degrees must then coarsen the fine grading affinely
    (g.degrees_coarsen_fine), so that each block has one degree shift.
    """
    if g.jacobi_walk is None or not g.squaring_rule_holds:
        error = _first_inner_failure(g, parity)
        if error is not None:
            raise error
    if not g.degrees_coarsen_fine:
        raise _inner_not_derivation(g)
    blocks = _fine_blocks(g, parity, True)
    return blocks, [k - s.dim for k, s in zip(blocks.kernel_dims(), blocks.inner)]


def outer_derivations(g: SuperAlgebra, parity: int | None = None):
    """Quotient of derivations by inner ones, per parity.

    Returns an OuterBasis for a fixed parity, or a (even, odd) pair.  Only
    the blocks with outer classes are built in full coordinates.
    """
    if parity is None:
        return outer_derivations(g, 0), outer_derivations(g, 1)
    blocks, outer = _outer_blocks(g, parity)
    reps: list[Derivation] = []
    for b, dim in enumerate(outer):
        if dim:
            unknowns, _, vecs = _outer_block(blocks, b)
            reps += (Derivation.from_vec(v, unknowns, g.dim, parity) for v in vecs)
    derivation_dim = sum(blocks.kernel_dims())
    return OuterBasis(
        parity=parity,
        representatives=tuple(reps),
        derivation_dim=derivation_dim,
        inner_dim=derivation_dim - len(reps),
        leibniz_sources=None if g.jacobi_walk is None else len(_walk_sources(g)),
        rows=blocks.rows,
    )


def outer_dimension_by_degree(g: SuperAlgebra, parity: int) -> dict[int, int]:
    """Outer dimensions split by degree shift (graded algebras only).

    The fine blocks' outer dimensions (_outer_blocks, read off the ranks)
    are summed into the declared degree shifts; the result is sorted by
    shift.
    """
    if g.degrees is None:
        raise ValueError("algebra carries no grading")
    blocks, outer = _outer_blocks(g, parity)
    result: dict[int, int] = {}
    for (i, m), dim in zip(blocks.first, outer):
        if dim:
            s = g.degrees[i] - g.degrees[m]
            result[s] = result.get(s, 0) + dim
    return dict(sorted(result.items()))


def _first_inner_failure(g: SuperAlgebra, parity: int) -> InnerNotDerivation | None:
    """The error naming the first basis vector of the parity whose ad is
    not a derivation, with is_derivation's witness; None when every one
    is."""
    for i in g.odd_indices() if parity else g.even_indices():
        ok, witness = is_derivation(g, ad_derivation(g, 1 << i))
        if not ok:
            rule, *at = witness
            where = ", ".join(g.names[j] for j in at)
            return InnerNotDerivation(
                g.names[i], f"ad({g.names[i]}) is not in the derivation"
                f" space: {rule} fails at ({where})"
            )
    return None


def _inner_not_derivation(g: SuperAlgebra) -> InnerNotDerivation:
    """The error saying that the declared degrees, which failed to coarsen
    the fine grading, keep the inner maps out of the graded derivations.

    Called once the inner maps are known to be derivations (_outer_blocks).
    It names the first basis vector whose ad mixes degree shifts, else the
    first term whose offset d_i + d_j - d_k differs from the first term's.
    """
    d = g.degrees
    for i, row in enumerate(g.bracket_table):
        if len({d[k] - d[m] for m, v in enumerate(row) for k in bits(v)}) > 1:
            return InnerNotDerivation(
                g.names[i], "the declared degrees do not respect the"
                f" bracket: ad({g.names[i]}) mixes degree shifts", True
            )
    # the terms have at least two offsets, as the degrees do not coarsen
    offsets: dict[int, tuple[int, int, int]] = {}
    for i, j, k in g.terms:
        offsets.setdefault(d[i] + d[j] - d[k], (i, j, k))
    i, j, k = list(offsets.values())[1]
    return InnerNotDerivation(
        g.names[i], f"the declared degrees do not respect the term"
        f" {g.names[k]} of ({g.names[i]}, {g.names[j]})", True
    )


def map_degree(g: SuperAlgebra, d: Derivation) -> int | None:
    """The single degree shift of a homogeneous map, else None."""
    if g.degrees is None:
        return None
    shifts = set()
    for j, im in enumerate(d.images):
        for i in bits(im):
            shifts.add(g.degrees[i] - g.degrees[j])
    if len(shifts) == 1:
        return shifts.pop()
    return None


# ---------------------------------------------------------------------------
# Compatibility with a bilinear form
# ---------------------------------------------------------------------------


def _linear_cut(
    candidates: Sequence[Derivation], values: Callable[[Derivation], int]
) -> list[Derivation]:
    """Independent basis of the subspace of span(candidates) killed by the
    functionals, bit r of values(d) being functional r at d (dependent
    candidate lists collapse to a true basis)."""
    span = SpanBasis()
    out = []
    columns = list(zip(*(d.images for d in candidates)))
    for cv in dependencies([values(d) for d in candidates]):
        d = Derivation(tuple(combine(col, cv) for col in columns), candidates[0].parity)
        if span.add(_vec_full(d)):
            out.append(d)
    return out


def self_adjoint_values(form: BilinearForm, d: Derivation) -> int:
    """B(D e_i, e_j) + B(e_i, D e_j) at bit i * n + j, for j >= i: the
    functionals whose joint kernel is {D : B(D a, b) = B(a, D b)}."""
    n = d.dim
    rows = adjointness_defect(form, d.images, range(n)).rows
    return sum((row >> i << i) << (i * n) for i, row in enumerate(rows))


def self_adjoint_coefficients(
    g: SuperAlgebra, form: BilinearForm, candidates: Sequence[Derivation]
) -> list[int]:
    """Coefficient-space kernel of the self-adjointness filter.

    Works for mixed-parity candidate lists, where the combinations are not
    themselves homogeneous derivations.
    """
    return dependencies([self_adjoint_values(form, d) for d in candidates])


@dataclass(frozen=True)
class CompatibleDerivationSet:
    case: str
    basis: tuple[Derivation, ...]
    a0_solutions: tuple[AffineSolution | None, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.basis)


def compatibility_values(form: BilinearForm, case: str, d: Derivation) -> int:
    """The case's linear hypotheses on D, met where the value is 0:
    self-adjointness at bit i * n + j, j >= i (self_adjoint_values), and,
    when B and D have equal parity, B(D e_i, e_i) at bit n * n + i on every
    e_i (on the odd part, as B(D ., .) is the polar of alpha there)."""
    n = d.dim
    v = self_adjoint_values(form, d)
    form_parity, der_parity = case_parities(case)
    if form_parity == der_parity:
        v |= sum(form.pair(d.images[i], 1 << i) << i for i in range(n)) << (n * n)
    return v


def compatible_subspace(
    g: SuperAlgebra,
    form: BilinearForm,
    case: str,
    candidates: Sequence[Derivation],
) -> CompatibleDerivationSet:
    """The subspace of span(candidates) that meets the case's linear
    hypotheses (compatibility_values), with find_a0 of each basis vector
    when D is odd."""
    form_parity, der_parity = case_parities(case)
    if form.parity != form_parity:
        raise CaseParityMismatch(
            f"case {case} needs a form of parity {form_parity}"
        )
    if any(d.parity != der_parity for d in candidates):
        raise CaseParityMismatch(
            f"case {case} needs derivations of parity {der_parity}"
        )
    candidates = [_sized(g, d) for d in candidates]
    basis = _linear_cut(candidates, lambda d: compatibility_values(form, case, d))
    a0_sols = tuple(find_a0(g, d) for d in basis) if der_parity else ()
    return CompatibleDerivationSet(case, tuple(basis), a0_sols)


# ---------------------------------------------------------------------------
# a0 solving and cohomology of classes
# ---------------------------------------------------------------------------


def _sized(g: SuperAlgebra, d: Derivation) -> Derivation:
    """d, refused unless it gives one image inside g per basis vector."""
    if d.dim != g.dim or any(im >> g.dim for im in d.images):
        raise DimensionMismatch("map and algebra sizes differ")
    return d


def _solve_maps(g: SuperAlgebra, given, idxs, target: Derivation, vanish=()):
    """The AffineSolution of sum_c x_c M_c = target, M the given maps and
    then ad_{e_i} for i in idxs, with sum_c x_c vanish[c] = 0; None if
    there is none.  The M_c must be Leibniz maps (module docstring)."""
    n, table = g.dim, g.bracket_table
    maps = [_sized(g, d).images for d in given] + [table[i] for i in idxs]
    want = list(_sized(g, target).images)
    sources = _walk_sources(g)
    rows = _image_rows(maps, sources, n) + GF2Matrix(vanish, n).transpose().rows
    rhs = sum(want[j] << pos * n for pos, j in enumerate(sources))
    sol = solve_affine(GF2Matrix(rows, len(maps)), rhs)
    got = [0] * n
    for c in bits(0 if sol is None else sol.particular):
        got = list(map(xor, got, maps[c]))
    # the particular holds at every image, or nothing does
    return sol if got == want else None


def find_a0(g: SuperAlgebra, d: Derivation) -> AffineSolution | None:
    """Even elements a0 with ad_{a0} = D^2 and D(a0) = 0; None if there is
    none."""
    if d.parity != 1:
        raise CaseParityMismatch("a0 is defined for odd derivations")
    even = g.even_indices()
    sol = _solve_maps(g, (), even, _sized(g, d).compose(d), [d.images[i] for i in even])
    return None if sol is None else sol.lift(even)


def cohomologous(g: SuperAlgebra, d1: Derivation, d2: Derivation) -> int | None:
    """Witness t with d1 + d2 = ad_t (lambda = 1 over GF(2)); None if outer."""
    if d1.parity != d2.parity:
        raise CaseParityMismatch("classes of different parity")
    idxs = g.odd_indices() if d1.parity else g.even_indices()
    sol = _solve_maps(g, (), idxs, _sized(g, d1).add(_sized(g, d2)))
    return None if sol is None else sol.lift(idxs).particular


def class_coordinates(g: SuperAlgebra, outer: OuterBasis, d: Derivation) -> int | None:
    """Coordinates of [d] in the outer basis; None if not a derivation class.

    Solves d = sum mu_k R_k + ad_t jointly over (mu, t): mu in the low
    bits, t above them.
    """
    if d.parity != outer.parity:
        raise CaseParityMismatch("parity mismatch with the outer basis")
    idxs = g.odd_indices() if d.parity else g.even_indices()
    reps = outer.representatives
    sol = _solve_maps(g, reps, idxs, d)
    # the mu part is unique: distinct mu differ by an inner combination of
    # the representatives, impossible by construction of the quotient basis
    return None if sol is None else sol.particular & ((1 << len(reps)) - 1)
