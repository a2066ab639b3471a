"""Independent reference implementations used as test oracles.

Deliberately naive and structurally different from the library paths:
dense numpy matrices, fraction-free integer elimination, exhaustive
enumeration, and the axiom and NIS checks as one loop step per basis
triple.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from nislie.catalog import MonomialBasis, _complement_form, monomial_basis
from nislie.derivations import (
    Derivation,
    OuterBasis,
    _inner_not_derivation,
    ad_derivation,
    case_parities,
)
from nislie.errors import (
    CaseParityMismatch,
    ConditionViolated,
    DimensionMismatch,
    InnerNotDerivation,
    SearchBudgetExceeded,
)
from nislie.forms import BilinearForm, NISReport, QuadraticForm
from nislie.gf2 import (
    GF2Matrix,
    SpanBasis,
    SubspaceNotContained,
    bits,
    combine,
    dot,
    quotient_basis,
    restrict,
    solve_affine,
)
from nislie.isometry import (
    _PairSpan,
    _closure,
    _form_consistent,
    build_adapted_isometry,
    isometry_group,
    verify_isometry,
)
from nislie.superalgebra import (
    AxiomFailure,
    SuperAlgebra,
    ValidationReport,
    bracket,
    parity_split,
    square_element,
    squares_span,
    structurally_sound,
)


def dense_from_rows(rows, ncols):
    out = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, r in enumerate(rows):
        for j in range(ncols):
            out[i, j] = (r >> j) & 1
    return out


def bareiss_rank(mat: np.ndarray) -> int:
    """Fraction-free elimination over the integers; rank of mat mod 2."""
    a = [[int(x) & 1 for x in row] for row in mat]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    rank = 0
    row = 0
    prev = 1
    for col in range(nc):
        piv = None
        for r in range(row, nr):
            if a[r][col] % 2:
                piv = r
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for r in range(nr):
            if r != row and a[r][col] % 2:
                a[r] = [
                    (a[r][c] * a[row][col] - a[r][col] * a[row][c]) % 2
                    for c in range(nc)
                ]
        rank += 1
        row += 1
        if row == nr:
            break
    return rank


def gf2_rank_dense(mat: np.ndarray) -> int:
    """Rank mod 2 by row echelon elimination on a dense 0/1 array."""
    a = np.array(mat, dtype=np.uint8) % 2
    a = a[a.any(axis=1)]
    nr, nc = a.shape
    rank = 0
    for col in range(nc):
        if rank == nr:
            break
        hits = np.flatnonzero(a[rank:, col])
        if not hits.size:
            continue
        piv = rank + hits[0]
        a[[rank, piv]] = a[[piv, rank]]
        below = rank + 1 + np.flatnonzero(a[rank + 1 :, col])
        a[below] ^= a[rank]
        rank += 1
    return rank


def derivation_system_dense(g, parity):
    """The derivation rules of one parity as a dense 0/1 system.

    Returns (rows, unknowns): unknown (p, q) means e_q |-> ... + e_p, and
    each row is one output of the Leibniz rule at a basis pair a < b,
    D[e_a, e_b] = [D e_a, e_b] + [e_a, D e_b], or of the squaring rule
    D s(e_a) = [D e_a, e_a] at an odd e_a, read off the structure tensor.
    """
    n = g.dim
    c = structure_tensor(g)
    s = np.array(
        [[(g.squaring[a] >> q) & 1 for q in range(n)] for a in range(n)],
        dtype=np.uint8,
    ).reshape(n, n)
    eye = np.eye(n, dtype=np.uint8)
    blocks = []
    for a in range(n):
        # r[b - a - 1, out, p, q]: coefficient of unknown (p, q) at output out
        bs = np.arange(a + 1, n)
        r = eye[None, :, :, None] * c[a, bs][:, None, None, :]
        r[:, :, :, a] += np.transpose(c[:, bs, :], (1, 2, 0))
        r[np.arange(len(bs)), :, :, bs] += c[a].T
        blocks.append(r.reshape(-1, n * n))
        if g.parity[a]:
            sq = eye[:, :, None] * s[a][None, None, :]
            sq[:, :, a] += c[:, a, :].T
            blocks.append(sq.reshape(n, n * n))
    unknowns = [
        (p, q)
        for q in range(n)
        for p in range(n)
        if g.parity[p] == (g.parity[q] + parity) & 1
    ]
    cols = [p * n + q for p, q in unknowns]
    rows = np.concatenate(blocks)[:, cols] % 2
    return rows, unknowns


def brute_force_solutions(rows, ncols, rhs) -> set[int]:
    """All x with A x = rhs, by enumerating 2^ncols vectors."""
    sols = set()
    for x in range(1 << ncols):
        ok = True
        for i, row in enumerate(rows):
            if ((row & x).bit_count() & 1) != ((rhs >> i) & 1):
                ok = False
                break
        if ok:
            sols.add(x)
    return sols


def reference_row_reduce(rows, ncols):
    """Gauss-Jordan by columns: (RREF rows with zero rows last, rank, pivots).

    The column-sweep elimination the package used before SpanBasis; its
    nonzero rows are SpanBasis(rows).vectors().
    """
    work = list(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(work):
            break
        sel = next((i for i in range(r, len(work)) if (work[i] >> col) & 1), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> col) & 1:
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
    return work, r, tuple(pivots)


def mat_mul(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """The product a b: row i is the sum of the rows of b at the bits of
    row i of a."""
    if a.ncols != b.nrows:
        raise ValueError("dimension mismatch in mat_mul")
    return GF2Matrix([combine(b.rows, row) for row in a.rows], b.ncols)


def reference_inverse(rows):
    """Gauss-Jordan on [A | I]; the rows of A^-1, or None when singular."""
    n = len(rows)
    work = [row | (1 << (n + i)) for i, row in enumerate(rows)]
    for col in range(n):
        sel = next((i for i in range(col, n) if (work[i] >> col) & 1), None)
        if sel is None:
            return None
        work[col], work[sel] = work[sel], work[col]
        for i in range(n):
            if i != col and (work[i] >> col) & 1:
                work[i] ^= work[col]
    return [w >> n for w in work]


def reference_solve_affine(rows, ncols, rhs):
    """(particular, kernel basis) of A x = rhs, or None when inconsistent.

    Reduces [A | rhs], then reduces the A part a second time for the
    kernel: the vector of free column f is e_f plus e_p for each pivot row
    p holding f, in ascending order of f.
    """
    aug = [row | (((rhs >> i) & 1) << ncols) for i, row in enumerate(rows)]
    red, rank, pivots = reference_row_reduce(aug, ncols + 1)
    if ncols in pivots:
        return None
    particular = 0
    for c, row in zip(pivots, red):
        particular |= ((row >> ncols) & 1) << c
    mask = (1 << ncols) - 1
    red, rank, pivots = reference_row_reduce([row & mask for row in red[:rank]], ncols)
    kernel = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = 1 << f
        for c, row in zip(pivots, red):
            if (row >> f) & 1:
                v |= 1 << c
        kernel.append(v)
    return particular, tuple(kernel)


def structure_tensor(g) -> np.ndarray:
    """c[i, j, k] = bit k of [e_i, e_j]; read-only, cached per bracket table."""
    return _structure_tensor(g.bracket_table)


@functools.lru_cache(maxsize=8)
def _structure_tensor(table) -> np.ndarray:
    n = len(table)
    c = np.zeros((n, n, n), dtype=np.uint8)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i, j, k] = (table[i][j] >> k) & 1
    c.setflags(write=False)
    return c


def dense_bracket(c, x, y):
    """Bilinear contraction of coordinate vectors against the tensor."""
    return np.einsum("i,j,ijk->k", x, y, c) % 2


def jacobi_defect(g, i, j, k) -> np.ndarray:
    """Direct dense recomputation of the cyclic Jacobi sum at basis triples."""
    c = structure_tensor(g)
    n = g.dim
    e = np.eye(n, dtype=np.uint8)
    total = np.zeros(n, dtype=np.int64)
    for (a, b, d) in ((i, j, k), (j, k, i), (k, i, j)):
        inner = dense_bracket(c, e[b], e[d])
        total += dense_bracket(c, e[a], inner)
    return total % 2


def dense_square(g, x):
    """Squaring of an odd coordinate vector via basis values + polarization."""
    n = g.dim
    out = np.zeros(n, dtype=np.int64)
    idx = [i for i in range(n) if (x >> i) & 1]
    for a, i in enumerate(idx):
        for k in range(n):
            out[k] += (g.squaring[i] >> k) & 1
        for j in idx[a + 1 :]:
            for k in range(n):
                out[k] += (g.bracket_table[i][j] >> k) & 1
    return out % 2


def vec(x, n):
    return np.array([(x >> j) & 1 for j in range(n)], dtype=np.uint8)


def unvec(arr):
    out = 0
    for j, v in enumerate(arr):
        if int(v) & 1:
            out |= 1 << j
    return out


def squaring_jacobi_defect(g, i, j):
    """Dense recomputation of [s(e_i), e_j] + [e_i, [e_i, e_j]]."""
    c = structure_tensor(g)
    n = g.dim
    e = np.eye(n, dtype=np.uint8)
    s_i = vec(g.squaring[i], n)
    lhs = dense_bracket(c, s_i, e[j])
    inner = dense_bracket(c, e[i], e[j])
    rhs = dense_bracket(c, e[i], inner)
    return (lhs + rhs) % 2


def squaring_defect(g, a, b):
    """[s(a), b] + [a, [a, b]] for an odd vector a, with s(a) by polarization."""
    c = structure_tensor(g)
    n = g.dim
    va, vb = vec(a, n), vec(b, n)
    lhs = dense_bracket(c, dense_square(g, a), vb)
    rhs = dense_bracket(c, va, dense_bracket(c, va, vb))
    return (lhs + rhs) % 2


def gram_dense(form, n):
    """The Gram matrix as a dense array; read-only, cached per Gram."""
    return _gram_dense(tuple(form.gram.rows), n)


@functools.lru_cache(maxsize=8)
def _gram_dense(rows, n) -> np.ndarray:
    gr = dense_from_rows(rows, n)
    gr.setflags(write=False)
    return gr


def invariance_defect(g, form, i, j, k):
    """B([e_i,e_j], e_k) + B(e_i, [e_j,e_k]) recomputed densely."""
    c = structure_tensor(g)
    n = g.dim
    e = np.eye(n, dtype=np.uint8)
    gr = gram_dense(form, n)
    lhs = int(dense_bracket(c, e[i], e[j]) @ gr @ e[k]) % 2
    rhs = int(e[i] @ gr @ dense_bracket(c, e[j], e[k])) % 2
    return lhs ^ rhs


def fully_valid(g, form) -> bool:
    """Complete independent validity check of (g, B), dense arithmetic."""
    n = g.dim
    c = structure_tensor(g)
    par = np.array(g.parity, dtype=np.uint8)
    # symmetry, alternating, grading
    for i in range(n):
        if g.bracket_table[i][i]:
            return False
        if g.parity[i] == 0 and g.squaring[i]:
            return False
        for k in range(n):
            if (g.squaring[i] >> k) & 1 and par[k] == 1:
                return False
        for j in range(n):
            if g.bracket_table[i][j] != g.bracket_table[j][i]:
                return False
            for k in range(n):
                if c[i, j, k] and par[k] != (par[i] + par[j]) % 2:
                    return False
    # Jacobi on distinct triples
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if jacobi_defect(g, i, j, k).any():
                    return False
    # squaring axiom at basis instances
    for i in range(n):
        if g.parity[i] == 1:
            for j in range(n):
                if squaring_jacobi_defect(g, i, j).any():
                    return False
    if form is None:
        return True
    gr = gram_dense(form, n)
    if (gr != gr.T).any():
        return False
    for i in range(n):
        if par[i] == 1 and gr[i, i]:
            return False
        for j in range(n):
            if gr[i, j] and (par[i] + par[j]) % 2 != form.parity:
                return False
    if gf2_rank_dense(gr) != n:
        return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if invariance_defect(g, form, i, j, k):
                    return False
    return True


# ---------------------------------------------------------------------------
# Reference axiom and NIS checks: the per-triple loops
# ---------------------------------------------------------------------------


def reference_validate(g, max_failures: int = 64):
    """superalgebra.validate as one bracket() call per basis triple."""
    report = ValidationReport()
    n = g.dim
    table = g.bracket_table

    def fail(axiom, witness, detail):
        if len(report.failures) < max_failures:
            report.failures.append(AxiomFailure(axiom, witness, detail))

    for i in range(n):
        if table[i][i]:
            fail("alternating", (i, i), "[e,e] != 0")
        if g.parity[i] == 0 and g.squaring[i]:
            fail("squaring-domain", (i,), "squaring value on even vector")
        if g.squaring[i] & g.odd_mask:
            fail("grading", (i,), "squaring value not even")
        for j in range(i + 1, n):
            if table[i][j] != table[j][i]:
                fail("symmetry", (i, j), "bracket table not symmetric")
            want = g.parity[i] ^ g.parity[j]
            wrong = g.odd_mask if want == 0 else g.even_mask
            if (table[i][j] | table[j][i]) & wrong:
                # once per pair, at an entry that has the wrong bits
                at = (i, j) if table[i][j] & wrong else (j, i)
                fail("grading", at, "bracket value has wrong parity")
    if report.failures:
        return report

    for i in range(n):
        for j in range(i + 1, n):
            bij = table[i][j]
            for k in range(j + 1, n):
                acc = bracket(g, 1 << i, table[j][k])
                acc ^= bracket(g, 1 << j, table[i][k])
                acc ^= bracket(g, 1 << k, bij)
                if acc:
                    fail(
                        "jacobi",
                        (i, j, k),
                        f"cycle sum = {g.format_element(acc)}",
                    )
                    if len(report.failures) >= max_failures:
                        return report

    for i in g.odd_indices():
        si = g.squaring[i]
        for j in range(n):
            lhs = bracket(g, si, 1 << j)
            rhs = bracket(g, 1 << i, table[i][j])
            if lhs != rhs:
                fail(
                    "squaring-jacobi",
                    (i, j),
                    f"[s(f),g] = {g.format_element(lhs)}"
                    f" but [f,[f,g]] = {g.format_element(rhs)}",
                )
    return report


def reference_check_nis(g, form, max_witnesses: int = 16):
    """forms.check_nis with invariance tested by dot() on every triple."""
    report = NISReport()
    gram = form.gram
    n = g.dim

    def note(kind, witness):
        if len(report.witnesses) < max_witnesses:
            report.witnesses.append((kind, witness))

    for i in range(n):
        if g.parity[i] == 1 and gram.entry(i, i):
            report.symmetric = False
            note("symmetric", (i, i))
        for j in range(i + 1, n):
            if gram.entry(i, j) != gram.entry(j, i):
                report.symmetric = False
                note("symmetric", (i, j))
    for i in range(n):
        for j in range(i, n):
            wrong = (g.parity[i] ^ g.parity[j]) != form.parity
            if wrong and (gram.entry(i, j) or gram.entry(j, i)):
                # once per pair, at a nonzero entry
                report.parity_homogeneous = False
                note("parity", (i, j) if gram.entry(i, j) else (j, i))

    rows = gram.rows
    cols = gram.transpose().rows
    table = g.bracket_table
    for i in range(n):
        for j in range(n):
            tij = table[i][j]
            trow = table[j]
            for k in range(n):
                if dot(cols[k], tij) != dot(rows[i], trow[k]):
                    report.invariant = False
                    note("invariant", (i, j, k))

    if gram.rank() != n:
        report.non_degenerate = False
        note("non-degenerate", ())
    return report


def reference_jacobi_walk(g):
    """The Jacobi walk of SuperAlgebra.jacobi_walk with every column k of
    each pair (i, j), j > i, of a generator e_i checked, by bracket() on
    the cyclic sum: (S, E), or None when the table is not
    structurally_sound or a column fails."""
    if not structurally_sound(g):
        return None
    n = g.dim
    table = g.bracket_table
    closure = SpanBasis()
    spanning: list[int] = []
    gens: list[int] = []
    for i in range(n):
        if closure.dim >= n - 2:
            break
        if closure.contains(1 << i):
            continue
        for j in range(i + 1, n):
            for k in range(n):
                cycle = bracket(g, 1 << i, table[j][k])
                cycle ^= bracket(g, 1 << j, table[k][i])
                cycle ^= bracket(g, 1 << k, table[i][j])
                if cycle:
                    return None
        frontier = [combine(table[i], v) for v in spanning]
        gens.append(i)
        closure.add(1 << i)
        spanning.append(1 << i)
        while frontier:
            v = frontier.pop()
            if v and closure.add(v):
                spanning.append(v)
                frontier.extend(combine(table[s], v) for s in gens)
    pivots = sum(row & -row for row in closure.rows())
    return tuple(gens), tuple(j for j in range(n) if not (pivots >> j) & 1)


# ---------------------------------------------------------------------------
# Metamorphic inputs
# ---------------------------------------------------------------------------


def flip(g, form, kind, i, j, k):
    """Flip one structure bit; gram-one leaves the Gram matrix non-symmetric."""
    table = [list(r) for r in g.bracket_table]
    squaring = list(g.squaring)
    rows = list(form.gram.rows) if form is not None else None
    if kind == "bracket-sym":
        table[i][j] ^= 1 << k
        if i != j:
            table[j][i] ^= 1 << k
    elif kind == "bracket-one":
        table[i][j] ^= 1 << k
    elif kind == "squaring":
        squaring[i] ^= 1 << k
    elif kind == "gram-sym":
        rows[i] ^= 1 << j
        if i != j:
            rows[j] ^= 1 << i
    else:
        rows[i] ^= 1 << j
    g2 = SuperAlgebra(
        g.names, g.parity, tuple(map(tuple, table)), tuple(squaring), g.degrees
    )
    if form is None:
        return g2, None
    return g2, BilinearForm(GF2Matrix(rows, g.dim), form.parity)


def relabel(g, form, rng):
    """Shuffle the basis within each parity; names and degrees travel with
    the vectors."""
    n = g.dim
    sigma = list(range(n))
    for parity in (0, 1):
        members = [i for i in range(n) if g.parity[i] == parity]
        targets = members[:]
        rng.shuffle(targets)
        for i, t in zip(members, targets):
            sigma[i] = t
    inv = [0] * n
    for i, t in enumerate(sigma):
        inv[t] = i

    def move(v):
        return sum(1 << sigma[i] for i in bits(v))

    table = g.bracket_table
    g2 = SuperAlgebra(
        names=tuple(g.names[inv[a]] for a in range(n)),
        parity=g.parity,
        bracket_table=tuple(
            tuple(move(table[inv[a]][inv[b]]) for b in range(n))
            for a in range(n)
        ),
        squaring=tuple(move(g.squaring[inv[a]]) for a in range(n)),
        degrees=None
        if g.degrees is None
        else tuple(g.degrees[inv[a]] for a in range(n)),
    )
    if form is None:
        return g2, None
    rows = [move(form.gram.rows[inv[a]]) for a in range(n)]
    return g2, BilinearForm(GF2Matrix(rows, n), form.parity)


def substitution_map(g, basis, swaps):
    """Extend a permutation of the indeterminates of a monomial algebra to
    all monomials (a variable-substitution isometry)."""
    rev = {nm: v for v, nm in enumerate(basis.var_names)}
    perm = {v: v for v in range(basis.m)}
    for a, b in swaps.items():
        perm[rev[a]] = rev[b]
    images = []
    for s in basis.monomials:
        images.append(1 << basis.index[frozenset(perm[v] for v in s)])
    return tuple(images)


def h104_deg_swap(g, basis):
    """The degree-1 <-> degree-3 involution of h(0|4) fixing the middle
    monomials."""
    pairs = [
        ("xi1", "xi1 xi2 eta2"),
        ("xi2", "xi1 xi2 eta1"),
        ("eta1", "xi2 eta1 eta2"),
        ("eta2", "xi1 eta1 eta2"),
    ]
    images = [1 << i for i in range(g.dim)]
    for a, b in pairs:
        ia, ib = basis.find(a), basis.find(b)
        images[ia], images[ib] = 1 << ib, 1 << ia
    return tuple(images)


def reference_subalgebra_closure(g, seeds) -> SpanBasis:
    """Span of seeds closed by bracketing every pair of its basis, and
    squaring every odd basis vector, on each pass until nothing changes."""
    s = SpanBasis(seeds)
    changed = True
    while changed:
        changed = False
        vs = s.vectors()
        for x in vs:
            for y in vs:
                b = bracket(g, x, y)
                if b and s.add(b):
                    changed = True
            if g.parity_of(x) == 1:
                sq = square_element(g, x)
                if sq and s.add(sq):
                    changed = True
    return s


def reference_generating_sequence(g) -> list[int]:
    """Greedy basis sequence whose subalgebra closure is all of g: each step
    takes the first basis vector whose closure with the chosen ones, built
    from scratch, is largest."""
    chosen: list[int] = []
    span = SpanBasis()
    while span.dim < g.dim:
        best, best_span, best_idx = -1, None, None
        for i in range(g.dim):
            if span.contains(1 << i):
                continue
            s = reference_subalgebra_closure(g, span.vectors() + [1 << i])
            if s.dim > best:
                best, best_span, best_idx = s.dim, s, i
            if s.dim == g.dim:
                break
        chosen.append(best_idx)
        span = best_span
    return chosen


def reference_search_isometry(g1, b1, g2, b2, budget, seed_pairs=()):
    """(status, nodes, proved, images) of search_isometry, by the search
    with every candidate list built whole before it is tried (the seed
    moved to its front when the list holds it) and each candidate pair
    inserted into a copy of the span before its form check."""
    if g1.sdim != g2.sdim or b1.parity != b2.parity:
        return "not-found", 0, True, None
    gens = [1 << i for i in reference_generating_sequence(g1)]
    seeds = dict(seed_pairs)
    nodes = 0

    def candidates(v, determined):
        idxs = g2.odd_indices() if g1.parity_of(v) else g2.even_indices()
        rows = [restrict(b2.pair_row(y), idxs) for _, y in determined]
        rhs = sum(b1.pair(v, x) << r for r, (x, _) in enumerate(determined))
        sol = solve_affine(GF2Matrix(rows, len(idxs)), rhs)
        if sol is None:
            return []
        units = [1 << i for i in idxs]
        cands = [
            combine(units, sol.particular ^ combine(sol.kernel_basis, mask))
            for mask in range(1 << len(sol.kernel_basis))
        ]
        cands = [w for w in cands if w]
        seed = seeds.get(v)
        if seed in cands:
            cands.remove(seed)
            cands.insert(0, seed)
        return cands

    def close(span, v, w):
        span = span.clone()
        if not span.add(v, w) or not _form_consistent(span, b1, b2, [(v, w)]):
            return None
        return span if _closure(g1, g2, span, [(v, w)], b1, b2) else None

    def first_leaf(level, span, determined):
        nonlocal nodes
        if level == len(gens):
            images = tuple(span.image_of(1 << j) for j in range(g1.dim))
            if span.basis.dim == g1.dim and verify_isometry(g1, b1, g2, b2, images)[0]:
                return images
            return None
        v = gens[level]
        if span.image_of(v) is not None:
            return first_leaf(level + 1, span, determined)
        for w in candidates(v, determined):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(budget)
            child = close(span, v, w)
            if child is not None:
                images = first_leaf(level + 1, child, determined + [(v, w)])
                if images is not None:
                    return images
        return None

    try:
        images = first_leaf(0, _PairSpan(g1.dim), [])
    except SearchBudgetExceeded:
        return "budget-exhausted", nodes, False, None
    if images is not None:
        return "found", nodes, False, images
    sound = structurally_sound(g1) and structurally_sound(g2)
    return "not-found", nodes, sound, None


def brute_force_isometric(g1, b1, g2, b2) -> bool:
    """Is some parity-preserving linear map an isometry?  Every map is
    tried, and each is checked on every basis pair, odd square and form
    entry before its rank."""
    n = g1.dim
    masks = (g2.even_mask, g2.odd_mask)
    choices = [
        [w for w in range(1, 1 << g2.dim) if not w & ~masks[p]]
        for p in g1.parity
    ]

    def image(images, x):
        return functools.reduce(int.__xor__, (images[i] for i in bits(x)), 0)

    def preserves(images):
        return (
            all(
                image(images, bracket(g1, 1 << i, 1 << j))
                == bracket(g2, images[i], images[j])
                and b1.pair(1 << i, 1 << j) == b2.pair(images[i], images[j])
                for i in range(n)
                for j in range(n)
            )
            and all(
                image(images, square_element(g1, 1 << i))
                == square_element(g2, images[i])
                for i in range(n)
                if g1.parity[i]
            )
            and gf2_rank_dense(dense_from_rows(images, n)) == n
        )

    return any(map(preserves, itertools.product(*choices)))


def reference_adapted_decision(a, form, recipe_src, recipe_tgt, group=None):
    """The adapted decision by enumerating the isometry group of the base
    (`group` when given, else isometry_group(a, form)).

    Every isometry pi0 of (a, B), every t of the derivations' parity and
    both nu go through build_adapted_isometry.  Skipped before the call: a
    t that breaks beta* = B(t, t) + beta*~, or whose derivation transport
    pi0^{-1} D~ pi0 = D + ad_t fails on a basis vector of the case's
    domain; and nu = 1 when nu = 0 broke a condition, since nu enters only
    the block map.  Returns (status, isometry).
    """
    case = recipe_src.case
    if recipe_tgt.case != case:
        return "not-found-proved", None
    d_src, d_tgt = recipe_src.derivation, recipe_tgt.derivation
    idxs = [i for i in range(a.dim) if a.parity[i] == d_src.parity]
    ts = [
        sum(1 << i for k, i in enumerate(idxs) if mask >> k & 1)
        for mask in range(1 << len(idxs))
    ]
    if case == "evenB-evenD":
        beta, beta_tgt = recipe_src.beta_star or 0, recipe_tgt.beta_star or 0
        ts = [t for t in ts if beta ^ form.pair(t, t) == beta_tgt]
    if case in ("evenB-oddD", "oddB-evenD"):
        domain = range(a.dim)
    else:
        domain = [i for i in range(a.dim) if a.parity[i] == 0]
    for pi0 in group or isometry_group(a, form):
        inv = pi0.inverse()
        want = {
            j: inv.apply(d_tgt.apply(pi0.images[j])) ^ d_src.images[j]
            for j in domain
        }
        for t in ts:
            if any(bracket(a, t, 1 << j) != want[j] for j in domain):
                continue
            for nu in (0, 1):
                try:
                    return "found", build_adapted_isometry(
                        a, form, recipe_src, recipe_tgt, pi0.images, t, nu
                    )
                except ConditionViolated as exc:
                    if exc.condition != "verify":
                        break
    return "not-found-proved", None


def reference_quadratic_from_eval(g, fn):
    """The quadratic form on the odd part of g with the values of fn: its
    values on the odd basis vectors and its polar on their pairs."""
    odd = [i for i in range(g.dim) if g.parity[i]]
    k = len(odd)
    diag = sum(fn(1 << i) << pos for pos, i in enumerate(odd))
    rows = [0] * k
    for s, i in enumerate(odd):
        for r in range(s + 1, k):
            j = odd[r]
            if fn((1 << i) | (1 << j)) ^ fn(1 << i) ^ fn(1 << j):
                rows[s] |= 1 << r
                rows[r] |= 1 << s
    return QuadraticForm(k, diag, GF2Matrix(rows, k))


# ---------------------------------------------------------------------------
# Sub-basis loops: restriction, combination and the witness loops of the
# extension conditions, written out one coordinate at a time
# ---------------------------------------------------------------------------


def reference_restrict(v, idxs):
    """Bit pos of the result is bit idxs[pos] of v; other bits of v drop."""
    pos = {i: k for k, i in enumerate(idxs)}
    out = 0
    for i in bits(v):
        if i in pos:
            out |= 1 << pos[i]
    return out


def reference_combine(vectors, coeffs):
    """The XOR of vectors[k] over the set bits k of coeffs."""
    out = 0
    for k in bits(coeffs):
        out ^= vectors[k]
    return out


def reference_quadratic_equal_on_odd(a, q1_eval, q2_eval):
    """Compare two quadratic maps on the odd part of a: basis values, then
    polars in row order; (ok, odd basis index of the first difference)."""
    odd = a.odd_indices()
    for i in odd:
        if q1_eval(1 << i) != q2_eval(1 << i):
            return False, i
    for s, i in enumerate(odd):
        for j in odd[s + 1 :]:
            v = (1 << i) | (1 << j)
            p1 = q1_eval(v) ^ q1_eval(1 << i) ^ q1_eval(1 << j)
            p2 = q2_eval(v) ^ q2_eval(1 << i) ^ q2_eval(1 << j)
            if p1 != p2:
                return False, i
    return True, None


def reference_is_derivation(g, d):
    """derivations.is_derivation with Leibniz evaluated one basis pair
    at a time through bracket(): the same answers and witnesses."""
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


def reference_check_conditions(a, form, recipe):
    """The hypothesis checks of extension.check_conditions with the
    self-adjointness and polar witnesses found one pair at a time; raises
    the same ConditionViolated (label and witness) or returns None."""
    recipe = recipe.normalized()
    case = recipe.case
    form_parity, der_parity = case_parities(case)
    d = recipe.derivation
    if form.parity != form_parity or d.parity != der_parity:
        raise CaseParityMismatch(case)
    ok, witness = reference_is_derivation(a, d)
    if not ok:
        raise ConditionViolated("Der", witness)
    n = a.dim
    label = {"evenB-evenD": "D1", "evenB-oddD": "2D1", "oddB-oddD": "3D1",
             "oddB-evenD": "4D1"}[case]
    for i in range(n):
        for j in range(i, n):
            if form.pair(d.images[i], 1 << j) != form.pair(1 << i, d.images[j]):
                raise ConditionViolated(label, (i, j))
    if case in ("evenB-evenD", "oddB-oddD"):
        for i in a.even_indices():
            if form.pair(d.images[i], 1 << i):
                raise ConditionViolated(
                    "D1" if case == "evenB-evenD" else "3D1p", (i, i)
                )
        polar_label = "D3" if case == "evenB-evenD" else "3D-polar"
        for i in a.odd_indices():
            if form.pair(d.images[i], 1 << i):
                raise ConditionViolated(polar_label, (i, i))
        alpha = recipe.alpha
        odd = a.odd_indices()
        if alpha is None or alpha.n != len(odd):
            raise ConditionViolated(polar_label, None)
        for s, i in enumerate(odd):
            for t, j in enumerate(odd):
                if alpha.polar.entry(s, t) != form.pair(d.images[i], 1 << j):
                    raise ConditionViolated(polar_label, (i, j))
    if der_parity == 1:
        a0 = recipe.a0 or 0
        if a0 & a.odd_mask:
            raise ConditionViolated("a0-parity", None)
        lab2, lab3 = ("2D2", "2D3") if case == "evenB-oddD" else ("3D2", "3D3")
        dd = d.compose(d)
        for j in range(n):
            if dd.images[j] != bracket(a, a0, 1 << j):
                raise ConditionViolated(lab2, (j,))
        if d.apply(a0) != 0:
            raise ConditionViolated(lab3, None)


def _vec_full(d: Derivation) -> int:
    """The images side by side: bit j * n + k is coordinate k of D(e_j)."""
    n = d.dim
    return sum(im << (j * n) for j, im in enumerate(d.images))


def reference_ad_system(g, idxs, domain) -> list[int]:
    """Rows of t -> ([t, e_j])_{j in domain}, t over the basis vectors idxs.

    Bit pos of a row is the coefficient of e_{idxs[pos]} in t; each j in
    domain, in order, gives n rows, row k holding coordinate k of [t, e_j].
    The right-hand side of ad_t = D on domain is then the sum of
    D(e_j) << (pos * n) over the positions pos of j in domain.
    """
    table = g.bracket_table
    return [
        row
        for j in domain
        for row in GF2Matrix([table[i][j] for i in idxs], g.dim).transpose().rows
    ]


def reference_a0_system(g, d):
    """(A, b): A a0 = b, a0 over the even basis vectors, says [a0, e_j] =
    D^2(e_j) in rows j * n .. j * n + n - 1, then D(a0) = 0 in the last n."""
    n = g.dim
    even = g.even_indices()
    rows = reference_ad_system(g, even, range(n))
    rows += GF2Matrix([d.images[i] for i in even], n).transpose().rows
    return GF2Matrix(rows, len(even)), _vec_full(d.compose(d))


def reference_find_a0(g, d):
    """derivations.find_a0 as one system over all n^2 image coordinates
    (reference_a0_system)."""
    if d.parity != 1:
        raise CaseParityMismatch("a0 is defined for odd derivations")
    sol = solve_affine(*reference_a0_system(g, d))
    return None if sol is None else sol.lift(g.even_indices())


def reference_cohomologous(g, d1, d2):
    """derivations.cohomologous as one system over all n^2 image
    coordinates."""
    if d1.parity != d2.parity:
        raise CaseParityMismatch("classes of different parity")
    idxs = g.odd_indices() if d1.parity else g.even_indices()
    rows = reference_ad_system(g, idxs, range(g.dim))
    sol = solve_affine(GF2Matrix(rows, len(idxs)), _vec_full(d1.add(d2)))
    return None if sol is None else sol.lift(idxs).particular


def reference_class_coordinates(g, outer, d):
    """derivations.class_coordinates as one system over all n^2 image
    coordinates: d = sum mu_k R_k + ad_t jointly over (mu, t), mu in the
    low bits, t above them."""
    if d.parity != outer.parity:
        raise CaseParityMismatch("parity mismatch with the outer basis")
    idxs = g.odd_indices() if d.parity else g.even_indices()
    reps = outer.representatives
    n = g.dim
    mu_rows = GF2Matrix([_vec_full(rep) for rep in reps], n * n).transpose()
    rows = [
        mu | (t << len(reps))
        for mu, t in zip(mu_rows.rows, reference_ad_system(g, idxs, range(n)))
    ]
    sol = solve_affine(GF2Matrix(rows, len(reps) + len(idxs)), _vec_full(d))
    if sol is None:
        return None
    mu_mask = (1 << len(reps)) - 1
    return sol.particular & mu_mask


def random_invertible_parity_map(rng, g):
    """Images of the basis: an invertible map keeping each parity."""
    masks = (g.even_mask, g.odd_mask)
    while True:
        images = [rng.getrandbits(g.dim) & masks[p] for p in g.parity]
        if GF2Matrix(images, g.dim).rank() == g.dim:
            return images


def change_basis(g, form, images):
    """(g, form) in the basis f_i = images[i] (an invertible map that keeps
    parities): structure constants and Gram entries, one basis pair at a
    time, in the new coordinates."""
    n = g.dim
    back = GF2Matrix(images, n).transpose().inverse()  # old -> new coordinates
    table = tuple(
        tuple(back.mat_vec(bracket(g, images[i], images[j])) for j in range(n))
        for i in range(n)
    )
    squaring = tuple(
        back.mat_vec(square_element(g, images[i])) if g.parity[i] else 0
        for i in range(n)
    )
    h = SuperAlgebra(
        names=tuple(f"f{i}" for i in range(n)),
        parity=g.parity,
        bracket_table=table,
        squaring=squaring,
    )
    if form is None:
        return h, None
    rows = [
        sum(form.pair(images[i], images[j]) << j for j in range(n)) for i in range(n)
    ]
    return h, BilinearForm(GF2Matrix(rows, n), form.parity)


def reference_coefficient_cut(form, candidates, diagonal=False):
    """Kernel of the self-adjointness functionals (i, j >= i) on the
    coefficients of candidates, one row per functional; with diagonal, the
    functionals B(D e_i, e_i) too."""
    n = form.dim
    makers = [
        lambda d, i=i, j=j: form.pair(d.images[i], 1 << j) ^ form.pair(1 << i, d.images[j])
        for i in range(n)
        for j in range(i, n)
    ]
    if diagonal:
        makers += [lambda d, i=i: form.pair(d.images[i], 1 << i) for i in range(n)]
    rows = [
        sum(make(d) << k for k, d in enumerate(candidates)) for make in makers
    ]
    return GF2Matrix(rows, len(candidates)).kernel_basis()


def reference_fine_blocks(g: SuperAlgebra, parity: int):
    """The fine-block derivation system on every unknown (i, m), with the
    Leibniz rows of every basis pair.

    The blocks of derivations._fine_blocks in the same order, with the
    blocks that hold no kept unknown besides, the same squaring rows, and
    a Leibniz rule at every pair j < k instead of the pairs that touch the
    Jacobi walk's vectors; no unknown is propagated.  Returns (unknowns,
    kernels, inner, rows): per block its (i, m) in order, its kernel
    (SpanBasis.kernel, which the library's full coordinates must match bit
    for bit) and its inner vectors (reference_inner_vectors); rows is
    None: the rule rows are not counted.
    """
    n = g.dim
    fine = g.fine_degrees
    layout: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for m in range(n):
        want = (g.parity[m] + parity) & 1
        fm = fine[m]
        for i in range(n):
            if g.parity[i] == want:
                shift = tuple(a - b for a, b in zip(fine[i], fm))
                layout.setdefault(shift, []).append((i, m))
    unknowns = [layout[s] for s in sorted(layout)]
    # by_source[m]: (i, b * n, bit) for each unknown (i, m) of a block b
    # whose kernel is still open; a row of block b and output l has key
    # b * n + l
    by_source: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for b, block in enumerate(unknowns):
        for pos, (i, m) in enumerate(block):
            by_source[m].append((i, b * n, 1 << pos))
    spans = [SpanBasis() for _ in unknowns]
    table = g.bracket_table

    def add_rule(image: int, j: int, k: int, leibniz: bool):
        # D(image) + [D e_j, e_k] (+ [e_j, D e_k] for Leibniz), per output
        rows: dict[int, int] = {}
        get = rows.get
        while image:
            low = image & -image
            image ^= low
            for i, off, bit in by_source[low.bit_length() - 1]:
                rows[off + i] = get(off + i, 0) ^ bit
        for m, off, bit in by_source[j]:
            v = table[m][k]
            while v:
                low = v & -v
                v ^= low
                key = off + low.bit_length() - 1
                rows[key] = get(key, 0) ^ bit
        if leibniz:
            row_j = table[j]
            for m, off, bit in by_source[k]:
                v = row_j[m]
                while v:
                    low = v & -v
                    v ^= low
                    key = off + low.bit_length() - 1
                    rows[key] = get(key, 0) ^ bit
        for key, r in rows.items():
            b = key // n
            span = spans[b]
            if r and span.add(r) and span.dim == len(unknowns[b]):
                # full rank: the block's kernel is 0, so its unknowns drop out
                off = b * n
                for m in {m for _, m in unknowns[b]}:
                    by_source[m] = [e for e in by_source[m] if e[1] != off]

    for j in range(n):
        for k in range(j + 1, n):
            add_rule(table[j][k], j, k, True)
    for j in g.odd_indices():
        add_rule(g.squaring[j], j, j, False)
    kernels = [span.kernel(len(block)) for span, block in zip(spans, unknowns)]
    return unknowns, kernels, reference_inner_vectors(g, parity, unknowns), None


def reference_inner_vectors(g: SuperAlgebra, parity: int, unknowns):
    """The nonzero ad_{e_i}, e_i of the parity, listed per block of
    unknowns in the block's coordinates; None when a term (k, m) of some
    ad_{e_i} is no unknown (an image of the wrong parity) or its terms lie
    in two blocks.  Each ad_{e_i} is located by its terms, not by degree."""
    where = {
        u: (b, 1 << pos)
        for b, block in enumerate(unknowns)
        for pos, u in enumerate(block)
    }
    inner: list[list[int]] = [[] for _ in unknowns]
    for i in g.odd_indices() if parity else g.even_indices():
        terms = [(k, m) for m, v in enumerate(g.bracket_table[i]) for k in bits(v)]
        if not terms:
            continue
        if any(t not in where for t in terms):
            return None
        blocks = {where[t][0] for t in terms}
        if len(blocks) > 1:
            return None
        inner[blocks.pop()].append(sum(where[t][1] for t in terms))
    return inner


def reference_inner_not_derivation(g: SuperAlgebra, parity: int):
    """The InnerNotDerivation that outer_derivations raises: the first
    ad_{e_i} of the parity that fails reference_is_derivation is named
    here, and the library's message (derivations._inner_not_derivation)
    is taken only for a defect of the declared degrees."""
    for i in g.odd_indices() if parity else g.even_indices():
        ok, witness = reference_is_derivation(g, ad_derivation(g, 1 << i))
        if not ok:
            rule, *at = witness
            where = ", ".join(g.names[j] for j in at)
            return InnerNotDerivation(
                g.names[i], f"ad({g.names[i]}) is not in the derivation"
                f" space: {rule} fails at ({where})"
            )
    return _inner_not_derivation(g)


def reference_outer_blocks(g: SuperAlgebra, parity: int, fine):
    """(unknowns, kernel, representatives) per block of fine, the output
    of reference_fine_blocks(g, parity): the representatives complete the
    block's inner vectors to a basis of its kernel.  Where the inner maps
    fall outside the kernels or the declared degrees do not coarsen the
    fine grading, it raises reference_inner_not_derivation (the decision
    to raise is made here)."""
    if not g.degrees_coarsen_fine:
        raise reference_inner_not_derivation(g, parity)
    unknowns, kernels, inner, _ = fine
    if inner is None:
        raise reference_inner_not_derivation(g, parity)
    out = []
    for block, kernel, ads in zip(unknowns, kernels, inner):
        try:
            out.append((block, kernel, quotient_basis(kernel, ads)))
        except SubspaceNotContained:
            raise reference_inner_not_derivation(g, parity) from None
    return out


def reference_derivation_space(g: SuperAlgebra, parity: int, fine):
    """derivation_space read off fine = reference_fine_blocks(g, parity)."""
    unknowns, kernels, _, _ = fine
    return [
        Derivation.from_vec(v, block, g.dim, parity)
        for block, kernel in zip(unknowns, kernels)
        for v in kernel
    ]


def reference_outer_derivations(g: SuperAlgebra, parity: int, fine):
    """outer_derivations read off fine = reference_fine_blocks(g, parity),
    without the uncompared leibniz_sources and rows."""
    blocks = reference_outer_blocks(g, parity, fine)
    reps = tuple(
        Derivation.from_vec(v, block, g.dim, parity)
        for block, _, vecs in blocks
        for v in vecs
    )
    derivation_dim = sum(len(kernel) for _, kernel, _ in blocks)
    return OuterBasis(parity, reps, derivation_dim, derivation_dim - len(reps))


def reference_outer_dimension_by_degree(g: SuperAlgebra, parity: int, fine):
    """outer_dimension_by_degree read off fine =
    reference_fine_blocks(g, parity): the representatives of each block
    counted under the declared degree shift of its first unknown."""
    if g.degrees is None:
        raise ValueError("algebra carries no grading")
    result: dict[int, int] = {}
    for block, _, reps in reference_outer_blocks(g, parity, fine):
        if reps:
            i, m = block[0]
            s = g.degrees[i] - g.degrees[m]
            result[s] = result.get(s, 0) + len(reps)
    return dict(sorted(result.items()))


def reference_fine_basis(g: SuperAlgebra) -> list[list[int]]:
    """An integer basis of the rational solutions of f_i + f_j = f_k over
    the terms (i, j, k) of g, by elimination on the relation matrix.

    The terms are taken straight off the table, with i <= j.  The
    relations are reduced in sorted term order, with a unit pivot where
    the row has one, and each free column gives one basis vector, cleared
    of denominators.  The basis depends on that order: it is not
    canonical (reference_fine_grading canonicalises it).
    """
    n = g.dim
    terms = set()
    for i, row in enumerate(g.bracket_table):
        for j, v in enumerate(row):
            terms.update((min(i, j), max(i, j), k) for k in bits(v))
    for i, v in enumerate(g.squaring):
        terms.update((i, i, k) for k in bits(v))
    # reduced relations: pivot p -> {free column f: c}, meaning
    # x_p + sum c x_f = 0; entries are ints unless a pivot was not a unit
    pivots: dict[int, dict[int, int | Fraction]] = {}
    for term in sorted(terms):
        vec: dict[int, int | Fraction] = {}
        for c, a in zip(term, (1, 1, -1)):
            row = pivots.get(c)
            if row is None:
                vec[c] = vec.get(c, 0) + a
            else:
                for f, b in row.items():
                    vec[f] = vec.get(f, 0) - a * b
        vec = {c: a for c, a in vec.items() if a}
        if not vec:
            continue
        if all(type(a) is int for a in vec.values()):
            content = math.gcd(*vec.values())
            vec = {c: a // content for c, a in vec.items()}
        units = [c for c, a in vec.items() if a in (1, -1)]
        p = min(units or vec)
        lead = vec.pop(p)
        new = {
            f: a * lead if lead in (1, -1) else Fraction(a) / lead
            for f, a in vec.items()
        }
        for row in pivots.values():
            b = row.pop(p, 0)
            if b:
                for f, a in new.items():
                    v = row.get(f, 0) - b * a
                    if v:
                        row[f] = v
                    else:
                        del row[f]
        pivots[p] = new
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        column = {p: -row[f] for p, row in pivots.items() if f in row}
        scale = math.lcm(*(x.denominator for x in column.values()))
        vec = [0] * n
        vec[f] = scale
        for p, x in column.items():
            vec[p] = int(x * scale)
        basis.append(vec)
    return basis


def degrees_of(basis, n: int) -> tuple[tuple[int, ...], ...]:
    """Per basis vector e_c, its coordinates in the rows of basis: the
    shape of SuperAlgebra.fine_degrees."""
    return tuple(tuple(v[c] for v in basis) for c in range(n))


def canonical_grading(basis, n: int) -> tuple[tuple[int, ...], ...]:
    """The reduced echelon basis over Q of the span of the rows, each row
    scaled to the primitive integer vector with a positive leading entry,
    as degrees: Gauss-Jordan elimination on Fractions."""
    rows = [[Fraction(x) for x in v] for v in basis]
    reduced = []
    for c in range(n):
        pivot = next((r for r in rows if r[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [x / pivot[c] for x in pivot]
        rows = [[x - r[c] * y for x, y in zip(r, pivot)] for r in rows]
        reduced = [[x - r[c] * y for x, y in zip(r, pivot)] for r in reduced]
        reduced.append(pivot)
    primitive = []
    for r in reduced:
        scale = math.lcm(*(x.denominator for x in r))
        primitive.append([int(x * scale) for x in r])
    return degrees_of(primitive, n)


def reference_fine_grading(g: SuperAlgebra) -> tuple[tuple[int, ...], ...]:
    """SuperAlgebra.fine_degrees by elimination on the relation matrix
    (reference_fine_basis), in the canonical form of canonical_grading."""
    return canonical_grading(reference_fine_basis(g), g.dim)


# ---------------------------------------------------------------------------
# The Hamiltonian family pair by pair, and the document writer via json
# ---------------------------------------------------------------------------


def _product(s1: frozenset, s2: frozenset) -> frozenset | None:
    if s1 & s2:
        return None
    return s1 | s2


def reference_mono_bracket(basis: MonomialBasis, s1: frozenset, s2: frozenset) -> dict:
    """Poisson bracket of two monomials as {monomial: coefficient}."""
    acc: dict = {}

    def add(term: frozenset | None):
        if term is None:
            return
        acc[term] = acc.get(term, 0) ^ 1

    for a, b in basis.conj_pairs:
        if a in s1 and b in s2:
            add(_product(s1 - {a}, s2 - {b}))
        if b in s1 and a in s2:
            add(_product(s1 - {b}, s2 - {a}))
    t = basis.theta
    if t is not None and t in s1 and t in s2:
        add(_product(s1 - {t}, s2 - {t}))
    return {s: c for s, c in acc.items() if c}


def reference_monomial_algebra(
    basis: MonomialBasis, drop_constants: bool, squaring_top: int = 0
) -> SuperAlgebra:
    """catalog._monomial_algebra, one frozenset bracket per pair i < j."""
    monos = basis.monomials
    n = len(monos)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            val = 0
            for s, _ in reference_mono_bracket(basis, monos[i], monos[j]).items():
                if drop_constants and not s:
                    continue
                val |= 1 << basis.index[s]
            table[i][j] = val
            table[j][i] = val
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


def reference_derived_subalgebra(g: SuperAlgebra, step: int = 1) -> list[int]:
    """derived_subalgebra with one bracket() call per pair, each value
    inserted into the span as it comes."""
    current = [1 << i for i in range(g.dim)]
    for _ in range(step):
        ev, od = parity_split(g, current)
        nxt = SpanBasis(squares_span(g, od))
        for a, u in enumerate(ev):
            for v in ev[a + 1 :] + od:
                nxt.add(bracket(g, u, v))
        current = nxt.vectors()
    return current


def reference_restrict_to_coordinates(g: SuperAlgebra, indices) -> SuperAlgebra:
    """restrict_to_coordinates by one combine per table entry."""
    inside = sum(1 << i for i in indices)
    restricted = [restrict(1 << i, indices) for i in range(g.dim)]

    def compress(v: int) -> int:
        if v & ~inside:
            raise ValueError("subset is not closed under the structure")
        return combine(restricted, v)

    table = tuple(
        tuple(compress(g.bracket_table[i][j]) for j in indices)
        for i in indices
    )
    return SuperAlgebra(
        names=tuple(g.names[i] for i in indices),
        parity=tuple(g.parity[i] for i in indices),
        bracket_table=table,
        squaring=tuple(compress(g.squaring[i]) for i in indices),
        degrees=None
        if g.degrees is None
        else tuple(g.degrees[i] for i in indices),
    )


def reference_hamiltonian(m: int, derived: bool = True):
    """catalog.hamiltonian from the three references above."""
    basis = monomial_basis(m, include_constant=False)
    g = reference_monomial_algebra(basis, drop_constants=True)
    if derived:
        sub = reference_derived_subalgebra(g, 1)
        assert all(v.bit_count() == 1 for v in sub)
        indices = sorted(v.bit_length() - 1 for v in sub)
        g = reference_restrict_to_coordinates(g, indices)
        kept = [basis.monomials[i] for i in indices]
        basis = MonomialBasis(
            m=basis.m,
            var_names=basis.var_names,
            monomials=tuple(kept),
            index={s: i for i, s in enumerate(kept)},
            conj_pairs=basis.conj_pairs,
            theta=basis.theta,
        )
    return g, _complement_form(basis, g), basis


def reference_poisson(m: int, m_param: int = 0):
    """catalog.poisson from reference_monomial_algebra."""
    basis = monomial_basis(m, include_constant=True)
    g = reference_monomial_algebra(basis, drop_constants=False, squaring_top=m_param)
    return g, _complement_form(basis, g), basis


def reference_top_bracket(g: SuperAlgebra, basis: MonomialBasis) -> Derivation:
    """Bracketing with the top monomial, kept to the basis: h105 D6."""
    full = frozenset(range(basis.m))
    images = [0] * g.dim
    for i, s in enumerate(basis.monomials):
        for t, c in reference_mono_bracket(basis, full, s).items():
            if c and t in basis.index:
                images[i] ^= 1 << basis.index[t]
    return Derivation(tuple(images), 1)


# The paper's outer classes of h'(0|4), transcribed monomial by monomial:
# (source, image) pairs, all even
H104_TRANSCRIPTION = {
    "D1": [
        ("xi1 xi2 eta2", "xi1"),
        ("xi1 xi2 eta1", "xi2"),
        ("xi2 eta1 eta2", "eta1"),
        ("xi1 eta1 eta2", "eta2"),
    ],
    "D2": [
        ("eta1", "xi1"),
        ("xi2 eta1", "xi1 xi2"),
        ("eta1 eta2", "xi1 eta2"),
        ("xi2 eta1 eta2", "xi1 xi2 eta2"),
    ],
    "D3": [
        ("eta2", "xi2"),
        ("xi1 eta2", "xi1 xi2"),
        ("eta1 eta2", "xi2 eta1"),
        ("xi1 eta1 eta2", "xi1 xi2 eta1"),
    ],
    "D4": [
        ("xi1", "eta1"),
        ("xi1 xi2", "xi2 eta1"),
        ("xi1 eta2", "eta1 eta2"),
        ("xi1 xi2 eta2", "xi2 eta1 eta2"),
    ],
    "D5": [
        ("xi2", "eta2"),
        ("xi1 xi2", "xi1 eta2"),
        ("xi2 eta1", "eta1 eta2"),
        ("xi1 xi2 eta1", "xi1 eta1 eta2"),
    ],
    "D6": [
        ("xi2", "xi2"),
        ("eta1", "eta1"),
        ("xi1 eta2", "xi1 eta2"),
        ("xi2 eta1", "xi2 eta1"),
        ("xi1 xi2 eta2", "xi1 xi2 eta2"),
        ("xi1 eta1 eta2", "xi1 eta1 eta2"),
    ],
    "D7": [
        ("xi2", "xi1 xi2 eta1"),
        ("xi1", "xi1 xi2 eta2"),
        ("eta2", "xi1 eta1 eta2"),
        ("eta1", "xi2 eta1 eta2"),
    ],
}


def reference_h104_cocycles(g: SuperAlgebra, basis: MonomialBasis) -> dict:
    """catalog.h104_cocycles read off H104_TRANSCRIPTION."""
    out = {}
    for label, pairs in H104_TRANSCRIPTION.items():
        images = [0] * g.dim
        for src, dst in pairs:
            images[basis.find(src)] ^= 1 << basis.find(dst)
        out[label] = Derivation(tuple(images), 0)
    return out


def _sparse_matrix(m: GF2Matrix, symmetric: bool) -> list[list[int]]:
    out = []
    for i, row in enumerate(m.rows):
        for j in bits(row):
            if symmetric and j < i:
                continue
            out.append([i, j])
    return sorted(out)


def to_dict(doc) -> dict:
    """The canonical document as a JSON value: document.dumps writes
    json.dumps(to_dict(doc), indent=1, sort_keys=True) + "\\n"."""
    g = doc.algebra
    n = g.dim
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in bits(g.bracket_table[i][j]):
                brackets.append([i, j, k])
    squaring = []
    for i in range(n):
        for k in bits(g.squaring[i]):
            squaring.append([i, k])
    data = {
        "format_version": 1,
        "basis": [
            {"name": g.names[i], "parity": g.parity[i]} for i in range(n)
        ],
        "bracket": sorted(brackets),
        "squaring": sorted(squaring),
    }
    if g.degrees is not None:
        data["degrees"] = list(g.degrees)
    if doc.form is not None:
        data["form"] = {
            "parity": doc.form.parity,
            "gram": _sparse_matrix(doc.form.gram, symmetric=True),
        }
    if doc.metadata:
        data["metadata"] = doc.metadata
    return data
