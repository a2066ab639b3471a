import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nislie.gf2 import (
    AffineSolution,
    GF2Matrix,
    SpanBasis,
    combine,
    dependencies,
    quotient_basis,
    solve_affine,
    span_basis,
)
from oracles import (
    bareiss_rank,
    brute_force_solutions,
    dense_from_rows,
    mat_mul,
    reference_inverse,
    reference_row_reduce,
    reference_solve_affine,
)


def random_matrix(rng, nrows, ncols):
    return GF2Matrix([rng.getrandbits(ncols) for _ in range(nrows)], ncols)


def test_row_reduce_identity():
    red = SpanBasis(GF2Matrix.identity(3).rows)
    assert red.dim == 3
    assert sorted(red.rows()) == red.vectors() == GF2Matrix.identity(3).rows


def test_row_reduce_all_ones():
    assert SpanBasis([0b11, 0b11]).dim == 1


def test_rank_matches_fraction_free_oracle():
    rng = random.Random(20)
    for _ in range(25):
        m = random_matrix(rng, 20, 20)
        assert m.rank() == bareiss_rank(dense_from_rows(m.rows, 20))


def test_rref_is_canonical_and_preserves_span():
    rng = random.Random(7)
    for _ in range(50):
        m = random_matrix(rng, 8, 10)
        red = SpanBasis(m.rows)
        assert all(red.contains(row) for row in m.rows)
        assert SpanBasis(reversed(m.rows)).vectors() == red.vectors()
        assert red.dim == m.rank()


def test_solve_identity():
    a = GF2Matrix.identity(5)
    sol = solve_affine(a, 0b10110)
    assert sol.particular == 0b10110
    assert sol.kernel_basis == ()


def test_solve_zero_matrix():
    a = GF2Matrix.zeros(4, 3)
    sol = solve_affine(a, 0)
    assert sol.particular == 0
    assert len(sol.kernel_basis) == 3
    assert solve_affine(a, 1) is None


def test_solve_without_rows_is_the_whole_space():
    for n in (0, 1, 5):
        sol = solve_affine(GF2Matrix([], n), 0)
        assert sol.particular == 0
        assert sol.kernel_basis == tuple(1 << i for i in range(n))


def seeded_systems():
    """(matrix, rhs) pairs: no rows, zero rows, wide, tall and square
    matrices, many of the squares singular."""
    rng = random.Random(2027)
    cases = [
        GF2Matrix([], 0),
        GF2Matrix([], 6),
        GF2Matrix.zeros(3, 5),
        GF2Matrix.zeros(4, 4),
        GF2Matrix.identity(5),
    ]
    for _ in range(600):
        shape = rng.choice(("wide", "tall", "square"))
        nrows = rng.randint(1, 12)
        ncols = {
            "wide": nrows + rng.randint(1, 8),
            "tall": max(1, nrows - rng.randint(1, 8)),
            "square": nrows,
        }[shape]
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        if rng.random() < 0.3:  # a zero row or a repeated row
            rows[rng.randrange(nrows)] = rng.choice((0, rows[0]))
        cases.append(GF2Matrix(rows, ncols))
    for m in cases:
        yield m, rng.getrandbits(m.nrows)
        if m.nrows:
            yield m, m.mat_vec(rng.getrandbits(m.ncols))  # consistent


def test_elimination_is_bit_identical_to_reference_gauss_jordan():
    singular = inconsistent = 0
    for m, rhs in seeded_systems():
        red = SpanBasis(m.rows)
        pivots = tuple((v & -v).bit_length() - 1 for v in red.vectors())
        rows = red.vectors() + [0] * (m.nrows - red.dim)
        assert (rows, red.dim, pivots) == reference_row_reduce(m.rows, m.ncols)
        sol = solve_affine(m, rhs)
        want = reference_solve_affine(m.rows, m.ncols, rhs)
        assert (None if sol is None else (sol.particular, sol.kernel_basis)) == want
        inconsistent += want is None
        assert tuple(m.kernel_basis()) == reference_solve_affine(m.rows, m.ncols, 0)[1]
        if m.nrows == m.ncols:
            want = reference_inverse(m.rows)
            if want is None:
                singular += 1
                with pytest.raises(ValueError, match="singular"):
                    m.inverse()
            else:
                assert m.inverse().rows == want
    assert singular > 100 and inconsistent > 100


def test_solve_matches_enumeration_oracle():
    rng = random.Random(99)
    for _ in range(20):
        nrows, ncols = 10, 12
        m = random_matrix(rng, nrows, ncols)
        rhs = rng.getrandbits(nrows)
        expected = brute_force_solutions(m.rows, ncols, rhs)
        got = solve_affine(m, rhs)
        if got is None:
            assert expected == set()
        else:
            assert set(got) == expected


def test_solve_random_10x15_consistent_system():
    rng = random.Random(3)
    m = random_matrix(rng, 10, 15)
    x0 = rng.getrandbits(15)
    rhs = m.mat_vec(x0)
    sol = solve_affine(m, rhs)
    assert sol is not None
    expected = brute_force_solutions(m.rows, 15, rhs)
    assert set(sol) == expected


def test_points_are_lazy_in_mask_order_and_index_inverts_them():
    rng = random.Random(17)
    for _ in range(40):
        m = random_matrix(rng, rng.randrange(1, 8), 10)
        sol = solve_affine(m, m.mat_vec(rng.getrandbits(10)))
        kernel = sol.kernel_basis
        masks = range(1 << len(kernel))
        want = [sol.particular ^ combine(kernel, mask) for mask in masks]
        points = sol.points()
        assert iter(points) is points
        take = rng.randrange(1, len(want) + 1)
        assert list(itertools.islice(points, take)) == want[:take]
        assert list(points) == want[take:]
        for mask, x in enumerate(sol.points()):
            assert sol.index(x) == mask
        solutions = set(sol)
        outside = [x for x in range(1 << 10) if x not in solutions]
        assert all(sol.index(x) is None for x in outside)


def test_kernel_basis():
    rng = random.Random(5)
    for _ in range(30):
        m = random_matrix(rng, 6, 9)
        kern = m.kernel_basis()
        assert len(kern) == 9 - m.rank()
        for v in kern:
            assert m.mat_vec(v) == 0
        assert len(span_basis(kern)) == len(kern)


def test_kernel_readout_from_span_basis_matches_kernel_basis():
    rng = random.Random(11)
    cases = [GF2Matrix([], 5), GF2Matrix([0, 0, 0], 6)]  # no rows, no pivots
    for _ in range(40):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 11)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        rows[rng.randrange(nrows)] = 0
        cases.append(GF2Matrix(rows, ncols))
    for m in cases:
        got = SpanBasis(m.rows).kernel(m.ncols)
        assert got == m.kernel_basis()
        spanned = set(AffineSolution(0, tuple(got)))
        assert len(spanned) == 1 << len(got)
        assert spanned == brute_force_solutions(m.rows, m.ncols, 0)


def test_inverse_and_matmul():
    rng = random.Random(11)
    found = 0
    while found < 10:
        m = random_matrix(rng, 6, 6)
        if m.rank() < 6:
            continue
        found += 1
        inv = m.inverse()
        assert mat_mul(m, inv) == GF2Matrix.identity(6)
        assert mat_mul(inv, m) == GF2Matrix.identity(6)


def test_transpose_roundtrip():
    rng = random.Random(13)
    m = random_matrix(rng, 4, 7)
    assert m.transpose().transpose() == m


def test_quotient_basis_trivial_cases():
    space = [0b01, 0b10]
    assert quotient_basis(space, space) == []
    reps = quotient_basis(space, [0b01])
    assert len(reps) == 1


def test_quotient_basis_not_contained():
    with pytest.raises(ValueError):
        quotient_basis([0b01], [0b10])


def test_quotient_basis_random_dims():
    rng = random.Random(42)
    for _ in range(10):
        space = [rng.getrandbits(16) for _ in range(20)]
        space_basis = span_basis(space)
        if len(space_basis) < 12:
            continue
        space_basis = space_basis[:12]
        sub = [space_basis[i] ^ space_basis[i + 1] for i in range(5)]
        reps = quotient_basis(space_basis, sub)
        assert len(reps) == 12 - len(span_basis(sub))
        # reps + sub span the space, independently of the chosen sub basis
        assert span_basis(reps + sub + space_basis) == span_basis(space_basis)
        assert len(span_basis(reps + sub)) == 12


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), min_size=1, max_size=12)
)
@settings(max_examples=100, deadline=None)
def test_property_rowspan_preserved(rows):
    red = SpanBasis(rows)
    span = {0}
    for row in rows:
        span |= {v ^ row for v in span}
    assert {combine(red.vectors(), c) for c in range(1 << red.dim)} == span
    assert 1 << red.dim == len(span)


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=255),
)
@settings(max_examples=60, deadline=None)
def test_property_solve_agrees_with_enumeration(rows, rhs_bits):
    m = GF2Matrix(rows, 8)
    rhs = rhs_bits & ((1 << len(rows)) - 1)
    expected = brute_force_solutions(rows, 8, rhs)
    got = solve_affine(m, rhs)
    assert (got is None and not expected) or set(got) == expected


def test_span_basis_is_canonical():
    rng = random.Random(1)
    vecs = [rng.getrandbits(12) for _ in range(8)]
    shuffled = vecs[:]
    rng.shuffle(shuffled)
    assert span_basis(vecs) == span_basis(shuffled)


def test_spanbasis_copy_is_independent():
    rng = random.Random(17)
    for _ in range(30):
        b = SpanBasis(rng.getrandbits(9) for _ in range(rng.randrange(6)))
        c = b.copy()
        before = b.vectors()
        for _ in range(4):
            c.add(rng.getrandbits(9))
        assert b.vectors() == before
        assert sorted(c.rows()) == sorted(c.vectors())
        assert all(c.contains(v) for v in before)


def test_spanbasis_contains_and_dim():
    b = SpanBasis([0b110, 0b011])
    assert b.dim == 2
    assert b.contains(0b101)
    assert not b.contains(0b001)


@given(
    st.lists(
        st.one_of(st.integers(min_value=0, max_value=4095), st.sampled_from([0, 1, 6])),
        max_size=10,
    )
)
@example([])
@example([0, 0, 0])
@example([5, 5, 3, 6, 5])
@settings(max_examples=150, deadline=None)
def test_dependencies_are_a_basis_of_the_enumerated_relations(values):
    """dependencies(values) spans exactly the c found by enumerating all
    2^k coefficient vectors, and is independent."""
    relations = {c for c in range(1 << len(values)) if combine(values, c) == 0}
    got = dependencies(values)
    assert {combine(got, m) for m in range(1 << len(got))} == relations
    assert 1 << len(got) == len(relations)
