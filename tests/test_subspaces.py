"""The structural subspaces against independent dense oracles.

center and centralizer must equal the kernels that the column-sweep
Gauss-Jordan of tests/oracles.py reads off the dense structure tensor.
Every reduction candidate must meet its case's hypotheses, checked with
dense brackets, squares and Gram products, and the candidates must span
a space of the size found by counting the parity part of the dense
center; reduce must succeed (or split off a line) on exactly the
central elements in their span.  The dimensions of the center, the
special center, g', the sharp complement of g' and the candidate spaces
must not change when the basis is relabelled.  The objects are every catalog entry with a form and
h'(0|4), h'(0|5), h'(0|6), each with two seeded relabellings.
"""

import functools
import random
from dataclasses import replace

import numpy as np
import pytest

from nislie.catalog import entry_names, hamiltonian, named
from nislie.derivations import CASES, case_parities
from nislie.errors import DimensionMismatch, HypothesisNotMet, SplitsOff
from nislie.extension import reduce as ext_reduce, reduction_candidates
from nislie.forms import BilinearForm, check_nis
from nislie.gf2 import GF2Matrix, combine, span_basis
from nislie.superalgebra import (
    SuperAlgebra,
    center,
    centralizer,
    cone_contains,
    derived_subalgebra,
    is_two_step_nilpotent,
    sharp_complement,
    special_center,
    validate,
)
from oracles import (
    dense_square,
    gram_dense,
    reference_row_reduce,
    relabel,
    structure_tensor,
    vec,
)

LABELS = [name for name in entry_names() if named(name).form is not None]
LABELS += [f"h'(0|{m})" for m in (4, 5, 6)]


@functools.lru_cache(maxsize=None)
def family(label):
    """[(g, form)]: the object, then two seeded relabellings of it."""
    if label.startswith("h'"):
        g, form, _ = hamiltonian(int(label[-2]))
    else:
        g, form = named(label).algebra, named(label).form
    rng = random.Random(f"subspaces:{label}")
    return [(g, form)] + [relabel(g, form, rng) for _ in range(2)]


def pack(rows):
    """The 0/1 rows of a dense array as bit-vector ints."""
    little = [np.packbits(r, bitorder="little").tobytes() for r in rows]
    return [int.from_bytes(b, "little") for b in little]


def dense_kernel(rows, ncols):
    """{x < 2^ncols : x is orthogonal to every row}, from the column-sweep
    RREF of reference_row_reduce: one vector per free column f in
    ascending order, e_f plus the pivot of each row that holds f."""
    work, rank, pivots = reference_row_reduce(sorted(set(rows)), ncols)
    return [
        (1 << f) | sum(1 << p for row, p in zip(work[:rank], pivots) if row >> f & 1)
        for f in range(ncols)
        if f not in pivots
    ]


def dense_centralizer(g, domain, idxs):
    """{t in span(e_i : i in idxs) : [t, e_j] = 0 for j in domain}, from
    the structure tensor."""
    block = structure_tensor(g)[np.ix_(idxs, domain, range(g.dim))]
    kernel = dense_kernel(pack(block.reshape(len(idxs), len(domain) * g.dim).T), len(idxs))
    return [combine([1 << i for i in idxs], v) for v in kernel]


def square_pairing(g, form):
    """The dense matrix of B(e_r, w), one row per basis vector r and one
    column per square w: s(e_i), i odd, and [e_i, e_j] for odd i < j."""
    c = structure_tensor(g)
    odd = g.odd_indices()
    squares = [vec(g.squaring[i], g.dim) for i in odd]
    squares += [c[i, j] for a, i in enumerate(odd) for j in odd[a + 1 :]]
    squares = np.array(squares, dtype=int).reshape(-1, g.dim)
    return gram_dense(form, g.dim).astype(int) @ squares.T % 2


def span_of(basis):
    return {combine(basis, k) for k in range(1 << len(basis))}


@pytest.mark.parametrize("label", LABELS)
def test_center_and_centralizer_equal_the_dense_kernels(label):
    for g, _ in family(label):
        everything = list(range(g.dim))
        assert center(g) == dense_centralizer(g, everything, everything)
        evens = g.even_indices()
        for idxs in (evens, g.odd_indices()):
            assert centralizer(g, evens, idxs) == dense_centralizer(g, evens, idxs)


def check_candidates(g, form):
    """Each reduction candidate meets its case's hypotheses, and the
    candidates of a case span as many elements as meet them in the dense
    center's part of the right parity (counted one by one)."""
    n = g.dim
    c = structure_tensor(g)
    odd = g.odd_indices()
    pairing = square_pairing(g, form)

    def meets(x, x_parity, der_parity):
        v = vec(x, n)
        wrong = g.even_mask if x_parity else g.odd_mask
        return (
            not x & wrong
            and not (np.einsum("i,ijk->jk", v, c) % 2).any()
            and not (x_parity and dense_square(g, x).any())
            and not (der_parity == 0 and (v @ pairing % 2).any())
        )

    for case in CASES:
        form_parity, der_parity = case_parities(case)
        got = reduction_candidates(g, form, case)
        if form.parity != form_parity:
            assert got == []
            continue
        x_parity = form_parity ^ der_parity
        assert len(span_basis(got)) == len(got)
        assert all(x and meets(x, x_parity, der_parity) for x in got)
        part = dense_centralizer(g, range(n), odd if x_parity else g.even_indices())
        assert len(part) <= 12, "too large to count"
        count = sum(meets(x, x_parity, der_parity) for x in span_of(part))
        assert count == 1 << len(got)


def seeded_forms(g, rng):
    """A random parity-homogeneous Gram matrix of each parity: no NIS form,
    but one that the orthogonality to the squares cuts."""
    for parity in (0, 1):
        rows = [
            rng.getrandbits(g.dim) & (g.odd_mask if p ^ parity else g.even_mask)
            for p in g.parity
        ]
        yield BilinearForm(GF2Matrix(rows, g.dim), parity)


@pytest.mark.parametrize("label", LABELS)
def test_reduction_candidates_meet_the_hypotheses_of_their_case(label):
    rng = random.Random(f"candidates:{label}")
    for g, form in family(label):
        check_candidates(g, form)
        for seeded in seeded_forms(g, rng):
            check_candidates(g, seeded)


def test_the_squaring_cut_keeps_the_odd_central_elements_that_square_to_zero():
    # z even, u and v odd, every bracket zero, s(u) = s(v) = z: the odd
    # center is span(u, v), and of it only u + v squares to zero
    g = SuperAlgebra(("z", "u", "v"), (0, 1, 1), ((0, 0, 0),) * 3, (0, 1, 1))
    assert validate(g).passed
    for form in seeded_forms(g, random.Random("squaring cut")):
        check_candidates(g, form)
        if form.parity == 0:
            # evenB-oddD: x odd, cut by s(x) = 0 alone
            assert reduction_candidates(g, form, "evenB-oddD") == [0b110]


def reduction_agrees_with_the_candidates(g, form):
    """A nonzero element x of the center's part of a case's x parity
    reduces exactly when it lies in the span of the case's reduction
    candidates: inside, reduce refuses only with SplitsOff, when
    B(x, x) = 1; outside, with HypothesisNotMet.  Returns the number of
    elements inside and outside."""
    inside = outside = 0
    for case in CASES:
        form_parity, der_parity = case_parities(case)
        if form.parity != form_parity:
            continue
        x_parity = form_parity ^ der_parity
        part = centralizer(g, range(g.dim), g.odd_indices() if x_parity else g.even_indices())
        assert len(part) <= 12, "too large to scan"
        kept = span_of(reduction_candidates(g, form, case))
        for x in span_of(part) - {0}:
            if x not in kept:
                outside += 1
                with pytest.raises(HypothesisNotMet):
                    ext_reduce(g, form, x, case)
            elif form.pair(x, x):
                inside += 1
                with pytest.raises(SplitsOff):
                    ext_reduce(g, form, x, case)
            else:
                inside += 1
                assert ext_reduce(g, form, x, case).recipe.case == case
    return inside, outside


@pytest.mark.parametrize(
    "label",
    [name for name in entry_names(include_defective=False) if named(name).form is not None],
)
def test_reduce_agrees_with_the_reduction_candidates(label):
    for g, form in family(label):
        reduction_agrees_with_the_candidates(g, form)


def test_reduce_refuses_the_central_elements_that_the_squaring_cut_drops():
    # the squaring-cut algebra with B(z, z) = 1 and the odd part hyperbolic:
    # z pairs with its square and neither u nor v squares to zero, so they
    # lie outside the candidates, while u + v reduces
    g = SuperAlgebra(("z", "u", "v"), (0, 1, 1), ((0, 0, 0),) * 3, (0, 1, 1))
    form = BilinearForm(GF2Matrix([0b001, 0b100, 0b010], 3), 0)
    assert check_nis(g, form).non_degenerate
    assert reduction_agrees_with_the_candidates(g, form) == (1, 3)


@pytest.mark.parametrize("label", LABELS)
def test_special_center_and_sharp_complement_equal_the_dense_cuts(label):
    """special_center against the elements of the dense center that pair
    to zero with every square, under the entry's form and seeded ones;
    sharp_complement of g' against the elements x of the dense
    perpendicular of g' with B(s(x_odd), g') = 0, under the entry's form."""
    rng = random.Random(f"special center:{label}")
    for g, form in family(label):
        n = g.dim
        z = dense_centralizer(g, range(n), range(n))
        assert len(z) <= 12, "too large to count"
        for b in [form, *seeded_forms(g, rng)]:
            pairing = square_pairing(g, b)
            zs, ev, od = special_center(g, b.gram)
            cut = {x for x in span_of(z) if not (vec(x, n) @ pairing % 2).any()}
            assert span_of(zs) == cut
            assert ev == span_basis(x & g.even_mask for x in zs)
            assert od == span_basis(x & g.odd_mask for x in zs)
        derived = derived_subalgebra(g, 1)
        # column v: G v for each v in g', so that row x of x^T G V is B(x, V)
        to_derived = gram_dense(form, n).astype(int) @ np.array(
            [vec(v, n) for v in derived], dtype=int
        ).reshape(-1, n).T % 2
        perp = dense_kernel(pack(to_derived.T.astype(np.uint8)), n)
        assert len(perp) <= 12, "too large to count"
        sharp = {
            x
            for x in span_of(perp)
            if not (dense_square(g, x & g.odd_mask) @ to_derived % 2).any()
        }
        assert span_of(sharp_complement(g, form.gram, derived)) == sharp


@pytest.mark.parametrize("label", LABELS)
def test_subspace_dimensions_survive_relabelling(label):
    dims = set()
    for g, form in family(label):
        derived = derived_subalgebra(g, 1)
        dims.add(
            (
                len(center(g)),
                tuple(map(len, special_center(g, form.gram))),
                len(derived),
                len(sharp_complement(g, form.gram, derived)),
                tuple(len(reduction_candidates(g, form, case)) for case in CASES),
            )
        )
    assert len(dims) == 1


# a even, b and c odd, z even: [a, b] = c and s(c) = z, every other
# bracket and square zero
MIXED = SuperAlgebra(
    ("a", "b", "c", "z"),
    (0, 1, 1, 0),
    ((0, 0b100, 0, 0), (0b100, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    (0, 0, 0b1000, 0),
)


def test_the_squares_of_the_mixed_brackets_and_of_the_sharp_kernel_count():
    assert validate(MIXED).passed
    # [g, [g, g]] = 0 and s(g_odd) = span(z) is central, but s([a, b]) = z
    assert not is_two_step_nilpotent(MIXED)
    assert is_two_step_nilpotent(replace(MIXED, squaring=(0, 0, 0, 0)))
    # not an algebra (the squaring rule fails at (b, c)), but the predicate
    # still reads it: [g, g] = span(z) is central, s(b) = a is not
    table = ((0, 0, 0b1000, 0), (0, 0, 0, 0), (0b1000, 0, 0, 0), (0, 0, 0, 0))
    broken = replace(MIXED, bracket_table=table, squaring=(0, 1, 0, 0))
    assert not is_two_step_nilpotent(broken)
    # B pairs a with z and b with c; the ideal V = span(a, c, z) has the
    # perpendicular span(c), and B(s(c), a) = 1 cuts c from V-sharp
    gram = GF2Matrix([0b1000, 0b0100, 0b0010, 0b0001], 4)
    ideal = [0b0001, 0b0100, 0b1000]
    assert BilinearForm(gram, 0).orthogonal_complement(ideal) == [0b0100]
    assert sharp_complement(MIXED, gram, ideal) == []


@pytest.mark.parametrize("shape", ["1x1", "(dim+1)-square", "dim x (dim+1)"])
def test_a_gram_matrix_of_the_wrong_size_is_refused(hei_double, shape):
    g = hei_double.algebra
    gram = {
        "1x1": GF2Matrix([1], 1),
        "(dim+1)-square": GF2Matrix.identity(g.dim + 1),
        "dim x (dim+1)": GF2Matrix([1 << i for i in range(g.dim)], g.dim + 1),
    }[shape]
    with pytest.raises(DimensionMismatch):
        special_center(g, gram)
    with pytest.raises(DimensionMismatch):
        cone_contains(g, gram, 0)
    with pytest.raises(DimensionMismatch):
        sharp_complement(g, gram, [])
