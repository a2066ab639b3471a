import collections
import dataclasses
import functools
import itertools
import random

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from nislie import derivations, superalgebra
from nislie.catalog import (
    ba_double_cocycles,
    contraction,
    entry_names,
    hamiltonian,
    h104_cocycles,
    h105_cocycles,
    hei_double_cocycles,
    mult_op,
    named,
    top_bracket,
    weight_op,
)
from nislie.derivations import (
    Derivation,
    OuterBasis,
    ad_derivation,
    class_coordinates,
    cohomologous,
    compatible_subspace,
    derivation_space,
    find_a0,
    inner_derivations,
    is_derivation,
    map_degree,
    outer_derivations,
    outer_dimension_by_degree,
    self_adjoint_coefficients,
)
from nislie.errors import DimensionMismatch, InnerNotDerivation, NisLieError
from nislie.forms import check_nis
from nislie.gf2 import GF2Matrix, SpanBasis, bits, span_basis
from nislie.superalgebra import (
    SuperAlgebra,
    bracket,
    center,
    square_element,
    structurally_sound,
    validate,
)
from oracles import (
    change_basis,
    degrees_of,
    derivation_system_dense,
    flip,
    gf2_rank_dense,
    random_invertible_parity_map,
    reference_derivation_space,
    reference_fine_basis,
    reference_fine_blocks,
    reference_is_derivation,
    reference_class_coordinates,
    reference_cohomologous,
    reference_find_a0,
    reference_inner_not_derivation,
    reference_outer_derivations,
    reference_outer_dimension_by_degree,
    reference_validate,
    relabel,
)


def abelian(parities):
    n = len(parities)
    return SuperAlgebra(
        names=tuple(f"e{i}" for i in range(n)),
        parity=tuple(parities),
        bracket_table=tuple(tuple(0 for _ in range(n)) for _ in range(n)),
        squaring=(0,) * n,
    )


def test_abelian_derivations_are_all_parity_maps():
    g = abelian([0, 0, 1])
    # even maps: 2x2 + 1x1 blocks; odd maps: 2x1 + 1x2
    assert len(derivation_space(g, 0)) == 5
    assert len(derivation_space(g, 1)) == 4
    assert inner_derivations(g, 0) == []
    assert inner_derivations(g, 1) == []


def test_derivation_space_satisfies_all_instances(hei_double):
    g = hei_double.algebra
    rng = random.Random(6)
    for parity in (0, 1):
        for d in derivation_space(g, parity):
            ok, w = is_derivation(g, d)
            assert ok, w
            # squaring rule on random, not just basis, odd elements
            for _ in range(20):
                f = rng.getrandbits(g.dim) & g.odd_mask
                assert d.apply(square_element(g, f)) == bracket(
                    g, d.apply(f), f
                )


def test_inner_dimension_equals_codim_of_center(hei_double, h104):
    g = hei_double.algebra
    inner = inner_derivations(g, 0) + inner_derivations(g, 1)
    assert len(inner) == g.dim - len(center(g))  # 6 - 3
    g = h104.algebra
    inner = inner_derivations(g, 0) + inner_derivations(g, 1)
    assert len(inner) == 14  # centerless


def test_outer_dimensions(hei_double, ba_double, h104, h105, gl22):
    for obj, even_dim, odd_dim in [
        (hei_double, 7, 4),
        (ba_double, 7, 4),
        (h104, 7, 0),
        (h105, 5, 1),
    ]:
        oe, oo = outer_derivations(obj.algebra)
        assert (oe.dim, oo.dim) == (even_dim, odd_dim)
        assert oe.dim == oe.derivation_dim - oe.inner_dim
        assert oo.dim == oo.derivation_dim - oo.inner_dim
    oe, oo = outer_derivations(gl22.algebra)
    assert oe.dim + oo.dim == 1


def test_purely_odd_outer_dimension():
    obj = named("purely-odd")
    oe, oo = outer_derivations(obj.algebra)
    assert (oe.dim, oo.dim) == (4, 0)


def test_graded_derivation_space_equals_ungraded_kernel(h105):
    def flat(g, d):
        return sum(im << (j * g.dim) for j, im in enumerate(d.images))

    for g in (h105.algebra, named("po-0-4").algebra):
        assert g.degrees is not None
        ungraded = dataclasses.replace(g, degrees=None)
        for parity in (0, 1):
            graded = derivation_space(g, parity)
            plain = derivation_space(ungraded, parity)
            assert span_basis(flat(g, d) for d in graded) == span_basis(
                flat(g, d) for d in plain
            )
            assert len(graded) == len(plain)


def test_outer_on_invalid_algebra_names_the_inner_map():
    # po05-m0 fails Jacobi; po-0-5 also carries degrees
    for name, calls in [
        ("po05-m0", [lambda g: outer_derivations(g)]),
        (
            "po-0-5",
            [
                lambda g: outer_derivations(g, 1),
                lambda g: outer_dimension_by_degree(g, 1),
            ],
        ),
    ]:
        g = named(name).algebra
        for call in calls:
            with pytest.raises(InnerNotDerivation) as info:
                call(g)
            err = info.value
            assert isinstance(err, NisLieError)
            assert len(str(err)) < 200
            assert str(err).startswith(
                f"ad({err.element}) is not in the derivation space: "
            )
            i = g.index(err.element)
            parity = g.parity[i]
            ok, witness = is_derivation(g, ad_derivation(g, 1 << i))
            assert not ok and witness[0] in str(err)
            assert all(
                is_derivation(g, ad_derivation(g, 1 << j))[0]
                for j in range(i)
                if g.parity[j] == parity
            )
    # every ad is a derivation, but the degrees split ad(E12) across shifts
    g = dataclasses.replace(named("gl-1-1").algebra, degrees=(0, 3, 0, 3))
    with pytest.raises(
        InnerNotDerivation,
        match=r"^the declared degrees do not respect the bracket: ad\(E12\)"
        r" mixes degree shifts$",
    ) as info:
        outer_derivations(g)
    assert "not in the derivation space" not in str(info.value)


def test_degrees_that_break_only_a_square_are_named():
    # every ad is zero, so no ad mixes shifts; s(a) = c and s(b) = d give
    # the offsets 2 d_a - d_c = -1 and 2 d_b - d_d = -2
    zeros = ((0,) * 4,) * 4
    g = SuperAlgebra(("a", "b", "c", "d"), (1, 1, 0, 0), zeros, (4, 8, 0, 0))
    bad = dataclasses.replace(g, degrees=(0, 0, 1, 2))
    for call in (outer_derivations, lambda g: outer_dimension_by_degree(g, 0)):
        with pytest.raises(
            InnerNotDerivation,
            match=r"^the declared degrees do not respect the term d of \(b, b\)$",
        ) as info:
            call(bad)
        assert info.value.element == "b"
        assert "not in the derivation space" not in str(info.value)
    good = dataclasses.replace(g, degrees=(0, 0, 1, 1))
    # D maps a, b anywhere in span(a, b) and kills c = s(a), d = s(b)
    assert outer_dimension_by_degree(good, 0) == {0: 4}
    assert outer_derivations(g, 0).dim == 4


def test_h105_degree_table(h105):
    g = h105.algebra
    by_deg_odd = outer_dimension_by_degree(g, 1)
    assert by_deg_odd == {3: 1}
    by_deg_even = outer_dimension_by_degree(g, 0)
    assert sum(by_deg_even.values()) == 5
    assert by_deg_even.get(0) == 5


def test_reference_cocycles_span_the_quotient(hei_double, ba_double):
    for obj, table in [
        (hei_double, hei_double_cocycles),
        (ba_double, ba_double_cocycles),
    ]:
        g = obj.algebra
        cc = table(g)
        oe, oo = outer_derivations(g)
        coords_even, coords_odd = [], []
        for d in cc.values():
            assert is_derivation(g, d)[0]
            mu = class_coordinates(g, oe if d.parity == 0 else oo, d)
            assert mu is not None
            (coords_even if d.parity == 0 else coords_odd).append(mu)
        assert len(span_basis(coords_even)) == 7
        assert len(span_basis(coords_odd)) == 4


def test_h10m_cocycle_tables(h104, h105):
    cc4 = h104_cocycles(h104.algebra, h104.basis)
    assert all(is_derivation(h104.algebra, d)[0] for d in cc4.values())
    assert {k: map_degree(h104.algebra, d) for k, d in cc4.items()} == {
        "D1": -2, "D2": 0, "D3": 0, "D4": 0, "D5": 0, "D6": 0, "D7": 2,
    }
    oe, _ = outer_derivations(h104.algebra)
    coords = [class_coordinates(h104.algebra, oe, d) for d in cc4.values()]
    assert None not in coords
    assert len(span_basis(coords)) == 7

    cc5 = h105_cocycles(h105.algebra, h105.basis)
    assert all(is_derivation(h105.algebra, d)[0] for d in cc5.values())
    assert {k: d.parity for k, d in cc5.items()} == {
        "D1": 0, "D2": 0, "D3": 0, "D4": 0, "D5": 0, "D6": 1,
    }
    assert map_degree(h105.algebra, cc5["D6"]) == 3
    # the multiplication operators have eight terms each, as displayed
    for k in ("D1", "D2", "D3", "D4"):
        assert sum(1 for im in cc5[k].images if im) == 8


def test_compatibility_cut_matches_reference(hei_double, ba_double):
    for obj, table, zeroed in [
        (hei_double, hei_double_cocycles, (1, 3, 5)),
        (ba_double, ba_double_cocycles, (2, 3, 6)),
    ]:
        g, b = obj.algebra, obj.form
        cc = table(g)
        cands = [cc[f"D{i}"] for i in range(1, 12)]
        cut = self_adjoint_coefficients(g, b, cands)
        rows = [1 << (i - 1) for i in zeroed] + [(1 << 8) | (1 << 9) | (1 << 10)]
        expected = GF2Matrix(rows, 11).kernel_basis()
        assert span_basis(cut) == span_basis(expected)


def test_compatible_subspace_cases(hei_double):
    g, b = hei_double.algebra, hei_double.form
    cc = hei_double_cocycles(g)
    even_cands = [cc[k] for k in ("D1", "D2", "D4", "D8", "D9", "D10", "D11")]
    got = compatible_subspace(g, b, "evenB-evenD", even_cands)
    assert got.dim == 2
    vecs = {tuple(d.images) for d in got.basis}
    d9_10 = cc["D9"].add(cc["D10"])
    assert any(tuple(d9_10.images) == v for v in vecs) or any(
        True for _ in [span_basis([])]
    )
    # D9 + D10 lies in the compatible span
    from nislie.gf2 import SpanBasis

    def flat(d):
        v = 0
        for j, im in enumerate(d.images):
            v |= im << (j * g.dim)
        return v

    span = SpanBasis(flat(d) for d in got.basis)
    assert span.contains(flat(d9_10))
    assert not span.contains(flat(cc["D2"]))

    odd_cands = [cc[k] for k in ("D3", "D5", "D6", "D7")]
    got = compatible_subspace(g, b, "evenB-oddD", odd_cands)
    assert got.dim == 2
    span = SpanBasis(flat(d) for d in got.basis)
    assert span.contains(flat(cc["D6"]))
    assert span.contains(flat(cc["D7"]))
    assert len(got.a0_solutions) == 2
    assert all(sol is not None for sol in got.a0_solutions)


def test_zero_derivation_always_compatible(hei_double):
    # the zero derivation passes every case filter; dependent candidate
    # lists collapse to an honest basis
    g, b = hei_double.algebra, hei_double.form
    got = compatible_subspace(g, b, "evenB-evenD", [Derivation((0,) * g.dim, 0)])
    assert got.dim == 0
    got = compatible_subspace(
        g, b, "evenB-oddD", [Derivation((0,) * g.dim, 1), hei_double_cocycles(g)["D6"]]
    )
    assert got.dim == 1
    assert got.basis[0].images == hei_double_cocycles(g)["D6"].images


def test_find_a0(hei_double, h105):
    g = hei_double.algebra
    cc = hei_double_cocycles(g)
    d = cc["D6"].add(cc["D7"])
    sol = find_a0(g, d)
    assert sol is not None
    assert sol.particular == 0
    assert set(sol) == {0, g.element("z")}
    # D = 0: a0 ranges over the even center
    sol = find_a0(g, Derivation((0,) * g.dim, 1))
    assert sol is not None
    assert span_basis(sol.kernel_basis) == span_basis([g.element("z")])
    # h1(0|5) has no center: a0 = 0 only
    cc5 = h105_cocycles(h105.algebra, h105.basis)
    sol = find_a0(h105.algebra, cc5["D6"])
    assert sol is not None
    assert sol.particular == 0 and sol.kernel_basis == ()


def test_cohomologous(hei_double):
    g = hei_double.algebra
    cc = hei_double_cocycles(g)
    rng = random.Random(3)
    for parity in (0, 1):
        base = cc["D9"] if parity == 0 else cc["D6"]
        for i in range(g.dim):
            if g.parity[i] != parity:
                continue
            shifted = base.add(ad_derivation(g, 1 << i))
            t = cohomologous(g, base, shifted)
            assert t is not None
            adt = ad_derivation(g, t)
            assert base.add(shifted).images == adt.images
    # outer representative vs zero: no witness
    assert cohomologous(g, cc["D6"], Derivation((0,) * g.dim, 1)) is None
    # two members of the same class
    t0 = g.element("p")
    d2 = cc["D6"].add(ad_derivation(g, t0))
    t = cohomologous(g, cc["D6"], d2)
    assert t is not None
    assert ad_derivation(g, t).images == ad_derivation(g, t0).images


def _flat(d):
    n = len(d.images)
    return sum(im << (j * n) for j, im in enumerate(d.images))


def _flat_ad(g, t):
    return _flat(Derivation(tuple(bracket(g, t, 1 << j) for j in range(g.dim)), 0))


def _solutions_by_ad(g, idxs):
    """Every t spanned by the basis vectors idxs, grouped by flattened ad_t."""
    out = {}
    for mask in range(1 << len(idxs)):
        t = sum(1 << i for a, i in enumerate(idxs) if (mask >> a) & 1)
        out.setdefault(_flat_ad(g, t), set()).add(t)
    return out


def test_ad_solves_match_brute_force_enumeration():
    # inputs: each outer representative R, and R + ad_t for seeded t
    rng = random.Random(23)
    checked = no_a0 = 0
    for name in entry_names():
        g = named(name).algebra
        if g.dim > 10:
            continue
        by_even_ad = _solutions_by_ad(g, g.even_indices())
        odd_maps = []
        for outer in outer_derivations(g):
            parity, reps = outer.parity, outer.representatives
            idxs = g.odd_indices() if parity else g.even_indices()
            by_ad = _solutions_by_ad(g, idxs)
            zero = Derivation((0,) * g.dim, parity)
            sums = {}
            for mu in range(1 << len(reps)):
                total = zero
                for k in bits(mu):
                    total = total.add(reps[k])
                sums[mu] = _flat(total)
            for k, rep in enumerate(reps):
                seeded = [sum(1 << i for i in idxs if rng.random() < 0.5) for _ in range(2)]
                for t in [0] + seeded:
                    images = [bracket(g, t, 1 << j) for j in range(g.dim)]
                    d = Derivation(tuple(a ^ b for a, b in zip(rep.images, images)), parity)
                    assert cohomologous(g, d, rep) in by_ad[_flat_ad(g, t)]
                    assert _flat(d) not in by_ad
                    assert cohomologous(g, d, zero) is None
                    brute = {mu for mu, v in sums.items() if _flat(d) ^ v in by_ad}
                    assert brute == {1 << k}
                    assert class_coordinates(g, outer, d) == 1 << k
                    if parity:
                        odd_maps.append(d)
                    checked += 1
            if parity:
                # seeded odd maps that need not be derivations: D^2 is
                # often not inner there
                for _ in range(4):
                    images = [
                        rng.getrandbits(g.dim) & (g.even_mask if p else g.odd_mask)
                        for p in g.parity
                    ]
                    odd_maps.append(Derivation(tuple(images), 1))
        for d in odd_maps:
            a0s = {
                a0
                for a0 in by_even_ad.get(_flat(d.compose(d)), ())
                if d.apply(a0) == 0
            }
            sol = find_a0(g, d)
            assert (set() if sol is None else set(sol)) == a0s
            no_a0 += sol is None
    assert checked > 100 and no_a0 > 5


def test_h105_named_classes_span_the_quotient(h105):
    g = h105.algebra
    cc = h105_cocycles(g, h105.basis)
    oe, oo = outer_derivations(g)
    even_coords = [
        class_coordinates(g, oe, cc[k]) for k in ("D1", "D2", "D3", "D4", "D5")
    ]
    assert None not in even_coords
    assert len(span_basis(even_coords)) == 5
    odd_coord = class_coordinates(g, oo, cc["D6"])
    assert odd_coord is not None and odd_coord != 0


def _dense_rows_by_loops(g, parity):
    """Reference for oracles.derivation_system_dense: the nonzero rule rows,
    one coefficient at a time."""
    n = g.dim
    unknowns = [
        (i, j)
        for j in range(n)
        for i in range(n)
        if g.parity[i] == (g.parity[j] + parity) & 1
    ]
    pos = {u: k for k, u in enumerate(unknowns)}
    rows = []

    def c(i, j, k):
        return (g.bracket_table[i][j] >> k) & 1

    for a in range(n):
        for b in range(a + 1, n):
            for out in range(n):
                row = np.zeros(len(unknowns), dtype=np.uint8)
                for m in range(n):
                    if c(a, b, m) and (out, m) in pos:
                        row[pos[(out, m)]] ^= 1
                    if (m, a) in pos and c(m, b, out):
                        row[pos[(m, a)]] ^= 1
                    if (m, b) in pos and c(a, m, out):
                        row[pos[(m, b)]] ^= 1
                if row.any():
                    rows.append(row)
    for a in range(n):
        if g.parity[a] != 1:
            continue
        for out in range(n):
            row = np.zeros(len(unknowns), dtype=np.uint8)
            for m in range(n):
                if (g.squaring[a] >> m) & 1 and (out, m) in pos:
                    row[pos[(out, m)]] ^= 1
                if (m, a) in pos and c(m, a, out):
                    row[pos[(m, a)]] ^= 1
            if row.any():
                rows.append(row)
    return rows, unknowns


def assert_span_matches_dense_system(g, parity):
    """derivation_space(g, parity) is a basis of the dense system's kernel."""
    rows, unknowns = derivation_system_dense(g, parity)
    if g.dim <= 8:
        ref, ref_unknowns = _dense_rows_by_loops(g, parity)
        assert ref_unknowns == unknowns
        assert sorted(r.tobytes() for r in rows if r.any()) == sorted(
            r.tobytes() for r in ref
        )
    ders = derivation_space(g, parity)
    x = np.array(
        [[(d.images[q] >> p) & 1 for p, q in unknowns] for d in ders],
        dtype=np.float64,
    ).reshape(len(ders), len(unknowns))
    # nothing outside the parity's unknowns, every rule holds, independent
    assert x.sum() == sum(im.bit_count() for d in ders for im in d.images)
    # float products are exact here (sums of at most a few hundred 0/1 terms)
    assert not ((rows.astype(np.float64) @ x.T) % 2).any()
    assert gf2_rank_dense(x) == len(ders)
    assert len(ders) == len(unknowns) - gf2_rank_dense(rows)


def test_derivation_dimension_matches_dense_oracle():
    # every catalog entry, invalid ones included: the split by the fine
    # grading must give exactly the kernel of the whole system
    for name in entry_names():
        g = named(name).algebra
        for parity in (0, 1):
            assert_span_matches_dense_system(g, parity)


def test_derivation_space_matches_dense_oracle_on_seeded_flips():
    # one-bit flips mostly break the axioms, and one-sided ones the symmetry
    # of the table; the rules stay linear, so the kernels must still agree
    pool = [named(name).algebra for name in entry_names()]
    pool = [g for g in pool if g.dim <= 16]
    rng = random.Random(20261019)
    kinds = set()
    for _ in range(40):
        g0 = rng.choice(pool)
        n = g0.dim
        kind = rng.choice(("bracket-sym", "bracket-one", "squaring"))
        g, _ = flip(
            g0, None, kind, rng.randrange(n), rng.randrange(n), rng.randrange(n)
        )
        kinds.add((kind, validate(g).passed))
        for parity in (0, 1):
            assert_span_matches_dense_system(g, parity)
    assert {k for k, _ in kinds} == {"bracket-sym", "bracket-one", "squaring"}
    assert False in {v for _, v in kinds}


@pytest.mark.parametrize("name", ["h1-0-4", "h1-0-5", "po-0-4", "h6"])
def test_outer_dimension_by_degree_survives_relabelling(name):
    # a parity-preserving shuffle that ignores degrees: the fine grading and
    # its blocks are recomputed on the new basis
    if name == "h6":
        g, form, _ = hamiltonian(6)
    else:
        g, form = named(name).algebra, named(name).form
    rng = random.Random(name)
    for _ in range(2):
        g2, _ = relabel(g, form, rng)
        assert g2.names != g.names
        for parity in (0, 1):
            assert outer_dimension_by_degree(g2, parity) == (
                outer_dimension_by_degree(g, parity)
            )


def outcome(fn, g, parity):
    """fn(g, parity), or the type and message of what it raised."""
    try:
        return fn(g, parity)
    except Exception as exc:  # compared with the reference's
        return type(exc), str(exc)


def assert_generator_rows_match_all_pairs(g):
    """derivation_space, outer_derivations and outer_dimension_by_degree
    give what is read off the all-pairs builder, errors included, in both
    parities."""
    calls = (
        (derivation_space, reference_derivation_space),
        (outer_derivations, reference_outer_derivations),
        (outer_dimension_by_degree, reference_outer_dimension_by_degree),
    )
    for parity in (0, 1):
        fine = reference_fine_blocks(g, parity)
        for fn, reference in calls:
            want = outcome(lambda g, parity: reference(g, parity, fine), g, parity)
            assert outcome(fn, g, parity) == want, (g.names, parity, fn.__name__)


def test_generator_rows_match_all_pairs_on_catalog():
    # po05-m0, po05-m1 and po-0-5 fail Jacobi: all pairs, and their
    # InnerNotDerivation errors
    for name in entry_names():
        g = named(name).algebra
        assert_generator_rows_match_all_pairs(g)
        walk = g.jacobi_walk
        assert (walk is None) == (not validate(g).passed)
        if walk is not None:
            sources = len(walk[0]) + len(walk[1])
            assert outer_derivations(g, 0).leibniz_sources == sources
    assert outer_derivations(named("h1-0-5").algebra, 1).leibniz_sources == 10
    # an even bracket with an odd value: the shift of ad(a) has no even block
    assert_generator_rows_match_all_pairs(
        SuperAlgebra(
            names=("a", "b", "c"),
            parity=(0, 0, 1),
            bracket_table=((0, 4, 0), (4, 0, 0), (0, 0, 0)),
            squaring=(0, 0, 0),
        )
    )
    # seeded changes of basis: most have closure vectors that are no basis
    # vectors, so an e_k outside the walk's vectors is a sum of several
    rng = random.Random("generator rows: change of basis")
    propagated = 0
    for name in VALID_SMALL:
        g0 = named(name).algebra
        for _ in range(4):
            g, _ = change_basis(g0, None, random_invertible_parity_map(rng, g0))
            assert_generator_rows_match_all_pairs(g)
            propagated += sum(map(len, g.jacobi_walk)) < g.dim
    assert propagated


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_generator_rows_match_all_pairs_on_relabelled_hamiltonians(m):
    g, form, _ = hamiltonian(m)
    rng = random.Random(f"generator rows:{m}")
    for _ in range(3 if m < 6 else 1):
        g2, _ = relabel(g, form, rng)
        # some pairs are left out of the system
        assert len(g2.jacobi_walk[0]) + len(g2.jacobi_walk[1]) < g2.dim - 1
        assert_generator_rows_match_all_pairs(g2)


def flips_that_break_jacobi(rng):
    """Symmetric flips into the right parity of valid catalog tables of
    dimension 6 to 16 that the per-triple reference finds break Jacobi:
    such a flip keeps the table structurally sound."""
    pool = [named(name).algebra for name in entry_names(include_defective=False)]
    pool = [g for g in pool if 6 <= g.dim <= 16]
    while True:
        g0 = rng.choice(pool)
        i, j = rng.sample(range(g0.dim), 2)
        want = g0.parity[i] ^ g0.parity[j]
        k = rng.choice([k for k in range(g0.dim) if g0.parity[k] == want])
        g, _ = flip(g0, None, "bracket-sym", i, j, k)
        if any(f.axiom == "jacobi" for f in reference_validate(g, 1).failures):
            yield g


def flips_that_break_squaring(rng):
    """Flips of an even bit of s(e_i), e_i odd, that break the squaring
    rule: such a flip keeps the table structurally sound and leaves
    Jacobi alone."""
    pool = [named(name).algebra for name in entry_names(include_defective=False)]
    pool = [g for g in pool if g.odd_mask and g.even_mask]
    while True:
        g0 = rng.choice(pool)
        i = rng.choice(g0.odd_indices())
        k = rng.choice(g0.even_indices())
        g, _ = flip(g0, None, "squaring", i, None, k)
        if g.jacobi_walk is not None and not validate(g).passed:
            yield g


def test_generator_rows_match_all_pairs_on_flips_that_break_jacobi():
    # the per-triple reference decides that Jacobi fails: all pairs
    flips = flips_that_break_jacobi(random.Random(20261020))
    for _, g in zip(range(24), flips):
        assert structurally_sound(g)
        assert_generator_rows_match_all_pairs(g)
        assert g.jacobi_walk is None


def test_generator_rows_match_all_pairs_on_flips_that_break_squaring():
    # when the squaring rule fails, the inner maps are no derivations and
    # no block may close at its inner rank
    flips = flips_that_break_squaring(random.Random(20261018))
    for _, g in zip(range(24), flips):
        assert not g.squaring_rule_holds
        assert_generator_rows_match_all_pairs(g)


def test_dimension_path_matches_all_pairs_on_graded_inputs():
    # outer_dimension_by_degree reads the dimensions off ranks over the
    # kept unknowns; the reference reads them off all-pairs kernels and
    # quotients.  po-0-5 fails Jacobi, and a flip of the squaring map
    # keeps a walk while the inner maps lose their proof.
    rng = random.Random("dimension path")
    inputs = []
    for name in ("h1-0-4", "h1-0-5", "po-0-4", "po-0-5"):
        obj = named(name)
        inputs.append(obj.algebra)
        inputs += (relabel(obj.algebra, obj.form, rng)[0] for _ in range(3))
    for flips in (flips_that_break_jacobi(rng), flips_that_break_squaring(rng)):
        inputs += itertools.islice((g for g in flips if g.degrees is not None), 6)
    assert sum(g.jacobi_walk is not None and not g.squaring_rule_holds for g in inputs)
    for g in inputs:
        assert_generator_rows_match_all_pairs(g)


def test_dimensions_never_leave_the_kept_unknowns(monkeypatch):
    # on a proved algebra the dimensions come from ranks alone, and the
    # representatives from the blocks that have outer classes
    g, form, _ = hamiltonian(6)
    g2, _ = relabel(g, form, random.Random("fast path"))
    full_block = derivations._full_block

    def refuse(*args):
        raise AssertionError("built in full coordinates")

    with monkeypatch.context() as mp:
        mp.setattr(derivations, "_full_block", refuse)
        mp.setattr(derivations, "quotient_basis", refuse)
        assert outer_dimension_by_degree(g2, 0) == {-2: 1, 0: 7, 4: 1}
        assert outer_dimension_by_degree(g2, 1) == {}
    built = []
    monkeypatch.setattr(
        derivations,
        "_full_block",
        lambda blocks, b: built.append(b) or full_block(blocks, b),
    )
    outer = outer_derivations(g2, 0)
    assert outer.dim == 9 and len(built) == len(set(built))
    # each block is built once, and only where a representative lies
    supports = [
        {(i, m) for m, image in enumerate(rep.images) for i in bits(image)}
        for rep in outer.representatives
    ]
    blocks = derivations._fine_blocks(g2, 0, True)
    for b in built:
        unknowns = set(full_block(blocks, b)[0])
        assert any(support <= unknowns for support in supports)
    built.clear()
    assert outer_derivations(g2, 1).dim == 0 and not built
    # the rule rows inserted, pinned: a change to the pairs or to the early
    # close moves them, while the order of the index by_source cannot
    assert (outer.rows, outer_derivations(g2, 1).rows) == (1170, 579)


def test_outer_basis_counts_fewer_rows_than_all_pairs(monkeypatch):
    g, form, _ = hamiltonian(6)
    g2, _ = relabel(g, form, random.Random("rows"))
    inserted = []
    add = SpanBasis.add
    monkeypatch.setattr(
        SpanBasis, "add", lambda span, v: inserted.append(v) or add(span, v)
    )
    reference_fine_blocks(g2, 1)
    monkeypatch.undo()
    rows = outer_derivations(g2, 1).rows
    assert 0 < rows < len(inserted) / 8


VALID_SMALL = [
    name for name in entry_names(include_defective=False)
    if named(name).algebra.dim <= 16
]


@given(st.sampled_from(VALID_SMALL), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_generator_rows_survive_relabelling(name, rng):
    g = named(name).algebra
    g2, _ = relabel(g, named(name).form, rng)
    assert_generator_rows_match_all_pairs(g2)
    for parity in (0, 1):
        o, o2 = outer_derivations(g, parity), outer_derivations(g2, parity)
        assert (o.dim, o.derivation_dim, o.inner_dim) == (
            o2.dim, o2.derivation_dim, o2.inner_dim
        )


def test_declared_degrees_are_checked_once_per_algebra(monkeypatch):
    g = dataclasses.replace(named("h1-0-5").algebra)  # nothing cached yet
    calls = []
    terms = superalgebra.grading_terms

    def counted(g):
        calls.append(g)
        return terms(g)

    monkeypatch.setattr(superalgebra, "grading_terms", counted)
    for _ in range(2):
        outer_derivations(g)
    # one pass, shared by the fine grading and the declared degrees
    assert len(calls) == 1


def test_validate_then_outer_derivations_walk_once(monkeypatch):
    g = dataclasses.replace(named("h1-0-5").algebra)  # nothing cached yet
    assert validate(g).jacobi_generators == 10

    def walk_again(*args):
        raise AssertionError("the Jacobi walk ran a second time")

    monkeypatch.setattr(superalgebra, "_jacobi_generators", walk_again)
    assert outer_derivations(g, 1).leibniz_sources == 10
    assert derivation_space(g, 0)


def test_axiom_proof_has_one_owner(monkeypatch):
    # the Jacobi walk and the squaring verdict are each built at most once
    # per algebra, over one build of the adjoint entries, and check_nis
    # builds no squaring verdict
    builds = {}
    for name in ("jacobi_walk", "squaring_rule_holds"):
        build = getattr(SuperAlgebra, name).func

        def counted(g, name=name, build=build):
            builds[name] = builds.get(name, 0) + 1
            return build(g)

        prop = functools.cached_property(counted)
        prop.__set_name__(SuperAlgebra, name)
        monkeypatch.setattr(SuperAlgebra, name, prop)
    entries = {}  # id of an algebra -> the entry lists read for it
    read = superalgebra._adjoint_entries

    def recorded(g):
        entries.setdefault(id(g), []).append(read(g))
        return entries[id(g)][-1]

    monkeypatch.setattr(superalgebra, "_adjoint_entries", recorded)

    def built_once():
        return all(got is lists[0] for lists in entries.values() for got in lists)

    g, form, _ = hamiltonian(6)  # built here, so nothing is cached yet
    assert check_nis(g, form).passed
    assert builds == {"jacobi_walk": 1}
    first = validate(g)
    assert first.passed and validate(g) == first
    outer_derivations(g)
    assert builds == {"jacobi_walk": 1, "squaring_rule_holds": 1}
    assert list(entries) == [id(g)] and built_once()
    # where an axiom fails, the witness scan reads the same entries, and a
    # repeat gives the same report as the first call and the reference
    for flips in (
        flips_that_break_jacobi(random.Random("one owner")),
        flips_that_break_squaring(random.Random("one owner")),
    ):
        for _, g in zip(range(4), flips):
            g = dataclasses.replace(g)
            builds.clear()
            entries.clear()
            for cap in (1, 64):
                first = validate(g, cap)
                assert not first.passed
                assert validate(g, cap) == first == reference_validate(g, cap)
            assert (first.jacobi_generators is None) == (g.jacobi_walk is None)
            assert set(builds.values()) == {1} and built_once()


def fine_block_contents(g, parity):
    """{unknowns: (kernel, representatives)} over the fine blocks, or the
    type and message of what building them raised."""
    try:
        blocks, outer = derivations._outer_blocks(g, parity)
    except NisLieError as exc:
        return type(exc), str(exc)
    contents = {}
    for b in range(len(outer)):
        block, kernel, reps = derivations._outer_block(blocks, b)
        contents[tuple(block)] = (kernel, reps)
    return contents


def test_fine_blocks_do_not_depend_on_the_grading_basis():
    # the elimination's own integer basis of the grading space, put in
    # place of the canonical one, may order the blocks differently, but
    # each block keeps its unknowns, kernel and representatives
    differ = 0
    for name in entry_names():
        obj = named(name)
        if obj.form is None:
            continue
        g = dataclasses.replace(obj.algebra)
        other = dataclasses.replace(obj.algebra)
        raw = degrees_of(reference_fine_basis(g), g.dim)
        vars(other)["fine_degrees"] = raw
        differ += raw != g.fine_degrees
        for parity in (0, 1):
            assert fine_block_contents(g, parity) == (
                fine_block_contents(other, parity)
            ), (name, parity)
    assert differ


def hamiltonian_operators(g, basis, m):
    """The named operators of h'(0|m) that c13 checks: the mult_op pairs
    of each xi_i and eta_i, one weight, the top bracket and, for even m,
    the contraction."""
    k = m // 2
    xis = [f"xi{i}" for i in range(1, k + 1)]
    etas = [f"eta{i}" for i in range(1, k + 1)]
    ops = [mult_op(g, basis, x, e) for x, e in zip(xis, etas)]
    ops += [mult_op(g, basis, e, x) for x, e in zip(xis, etas)]
    ops.append(weight_op(g, basis, basis.var_names if m % 2 else xis))
    ops.append(top_bracket(g, basis))
    if m % 2 == 0:
        ops.append(contraction(g, basis))
    return ops


def one_bit_flips(rng, g, d):
    """d with one bit of one image flipped: one flip that keeps the
    image's parity and one that breaks it, each where there is room."""
    out = []
    for keep in (True, False):
        k = rng.randrange(g.dim)
        want = (g.parity[k] + d.parity) & 1
        pool = [l for l in range(g.dim) if (g.parity[l] == want) == keep]
        if pool:
            images = list(d.images)
            images[k] ^= 1 << rng.choice(pool)
            out.append(Derivation(tuple(images), d.parity))
    return out


def test_is_derivation_matches_the_bracket_pair_reference():
    # the row scan gives the witness and the errors of the scan pair by
    # pair through bracket(), on maps that pass and on maps that fail in
    # each rule, early and late
    rng = random.Random("is_derivation by rows")
    cases = []

    def add(g, maps):
        cases.extend((g, d) for d in maps)

    def inner(g):
        return [ad_derivation(g, 1 << i) for i in range(g.dim)]

    for name in entry_names():
        g = named(name).algebra
        add(g, inner(g))
        if g.dim <= 16:
            add(g, derivation_space(g, 0) + derivation_space(g, 1))
    for m in range(4, 8):
        g, _, basis = hamiltonian(m)
        add(g, hamiltonian_operators(g, basis, m))
    for _ in range(4):
        g0 = named(rng.choice(VALID_SMALL)).algebra
        g, _ = change_basis(g0, None, random_invertible_parity_map(rng, g0))
        add(g, inner(g) + derivation_space(g, 0) + derivation_space(g, 1))
    for flips in (flips_that_break_jacobi(rng), flips_that_break_squaring(rng)):
        for g in itertools.islice(flips, 4):
            add(g, inner(g))
    g0 = named("hei-double").algebra
    g, _ = flip(g0, None, "bracket-one", 0, 5, 2)  # [p, zstar] != [zstar, p]
    assert g.bracket_table[0][5] != g.bracket_table[5][0]
    add(g, inner(g) + derivation_space(g0, 0) + derivation_space(g0, 1))
    kinds = collections.Counter()
    for g, d in cases:
        for e in [d, *one_bit_flips(rng, g, d)]:
            got = outcome(is_derivation, g, e)
            assert got == outcome(reference_is_derivation, g, e), (g.names, e)
            ok, witness = got
            kinds[witness[0] if witness else "passes"] += 1
            kinds["late"] += not ok and witness[0] == "leibniz" and (
                witness[1] >= g.dim // 2
            )
    for kind in ("passes", "parity", "leibniz", "squaring-rule", "late"):
        assert kinds[kind], kind


def test_is_derivation_refuses_an_image_outside_the_algebra():
    # the one difference from the scan pair by pair: that scan raised only
    # at the first pair that brackets the image, so the Leibniz failure of
    # D p = p at (p, q) came first
    g = named("hei-double").algebra
    d = Derivation((1, 0, 0, 0, 0, 1 << g.dim), 0)
    with pytest.raises(DimensionMismatch, match="^element outside the algebra$"):
        is_derivation(g, d)
    assert reference_is_derivation(g, d) == (False, ("leibniz", 0, 1))


# the messages that the all-pairs system gave on the paper's refuted
# po(0|5;m) recipes: the first ad of the parity that is not a derivation
THETAXI1 = (
    "ad(thetaxi1) is not in the derivation space: leibniz fails at (theta, eta1)"
)
THETA = "ad(theta) is not in the derivation space: leibniz fails at (xi1, thetaeta1)"


def test_outer_stops_at_the_first_failing_inner_map(monkeypatch):
    def refuse(*args):
        raise AssertionError("the derivation system was built")

    monkeypatch.setattr(derivations, "_fine_blocks", refuse)
    for name in ("po05-m0", "po05-m1", "po-0-5"):
        g = named(name).algebra
        calls = [
            (outer_derivations, THETAXI1),
            (lambda g: outer_derivations(g, 1), THETA),
        ]
        if g.degrees is not None:
            calls.append((lambda g: outer_dimension_by_degree(g, 1), THETA))
        for call, message in calls:
            with pytest.raises(InnerNotDerivation) as info:
                call(g)
            err = info.value
            assert str(err) == message, name
            assert err.element == message[3 : message.index(")")]
            assert not err.degrees_at_fault


def even_inner_maps_pass(g):
    return all(
        is_derivation(g, ad_derivation(g, 1 << i))[0] for i in g.even_indices()
    )


def test_outer_builds_the_system_once_every_inner_map_passes(monkeypatch):
    # a Jacobi flip that leaves every even ad a derivation: the inner maps
    # are not proved, so the check runs, finds nothing, and the system is
    # built on every pair
    flips = flips_that_break_jacobi(random.Random("one parity passes"))
    g = next(g for g in itertools.islice(flips, 40) if even_inner_maps_pass(g))
    assert g.jacobi_walk is None
    fine_blocks = derivations._fine_blocks
    built = []
    monkeypatch.setattr(
        derivations,
        "_fine_blocks",
        lambda g, parity, inner: built.append(parity) or fine_blocks(g, parity, inner),
    )
    want = reference_outer_derivations(g, 0, reference_fine_blocks(g, 0))
    assert outer_derivations(g, 0) == want and built == [0]


def test_unproved_outer_reads_ranks_once_the_inner_maps_pass(monkeypatch):
    # a Jacobi flip (no walk) and a squaring flip (a walk, no squaring
    # verdict) whose even inner maps pass is_derivation: as with the proof,
    # the dimensions come from the ranks over the kept unknowns, and only
    # the blocks with outer classes are built in full coordinates
    inputs = [
        next(g for g in itertools.islice(flips, 40) if even_inner_maps_pass(g))
        for flips in (
            flips_that_break_jacobi(random.Random("one parity passes")),
            flips_that_break_squaring(random.Random("one parity passes")),
        )
    ]
    assert [g.jacobi_walk is None for g in inputs] == [True, False]
    full_block = derivations._full_block

    def refuse(*args):
        raise AssertionError("built in full coordinates")

    for g in inputs:
        g = dataclasses.replace(g, degrees=(0,) * g.dim)  # one declared shift
        fine = reference_fine_blocks(g, 0)
        with monkeypatch.context() as mp:
            mp.setattr(derivations, "_full_block", refuse)
            mp.setattr(derivations, "quotient_basis", refuse)
            got = outer_dimension_by_degree(g, 0)
        assert got == reference_outer_dimension_by_degree(g, 0, fine)
        built = []
        with monkeypatch.context() as mp:
            mp.setattr(
                derivations,
                "_full_block",
                lambda blocks, b: built.append(b) or full_block(blocks, b),
            )
            outer = outer_derivations(g, 0)
        assert outer == reference_outer_derivations(g, 0, fine)
        _, dims = derivations._outer_blocks(g, 0)
        assert built == [b for b, dim in enumerate(dims) if dim]
        assert 0 < len(built) < len(dims)


def test_bad_degrees_on_a_proved_algebra_check_no_inner_map(monkeypatch):
    # the walk and the squaring verdict prove every inner map a derivation,
    # so only the declared degrees can be at fault
    g0 = named("h1-0-5").algebra
    degrees = list(g0.degrees)
    degrees[g0.index("xi1")] += 1
    g = dataclasses.replace(g0, degrees=tuple(degrees))
    assert g.jacobi_walk is not None and g.squaring_rule_holds
    assert not g.degrees_coarsen_fine
    want = reference_inner_not_derivation(g, 1)
    assert want.degrees_at_fault

    def refuse(*args):
        raise AssertionError("an inner map was checked")

    monkeypatch.setattr(derivations, "is_derivation", refuse)
    for call in (outer_derivations, lambda g: outer_dimension_by_degree(g, 1)):
        with pytest.raises(InnerNotDerivation) as info:
            call(g)
        assert (str(info.value), info.value.element) == (str(want), want.element)
        assert info.value.degrees_at_fault


def class_arithmetic_outcomes(g, maps, outer, rng):
    """Compare class_coordinates, cohomologous and find_a0 with the n^2
    references on each map of maps; return the outcomes, None or solved,
    by function.  outer is the (even, odd) pair of OuterBasis that
    class_coordinates reads."""
    got = collections.Counter()
    for d in maps:
        zero = Derivation((0,) * g.dim, d.parity)
        others = [m for m in maps if m.parity == d.parity] or [zero]
        calls = [
            (class_coordinates, reference_class_coordinates, (outer[d.parity], d)),
            (cohomologous, reference_cohomologous, (d, zero)),
            (cohomologous, reference_cohomologous, (d, rng.choice(others))),
        ]
        if d.parity:
            calls.append((find_a0, reference_find_a0, (d,)))
        for fn, reference, args in calls:
            want = reference(g, *args)
            assert fn(g, *args) == want, (g.names, fn.__name__, args)
            got[fn.__name__, want is None] += 1
    return got


def flipped_non_derivations(rng, g, maps):
    """For each map, one seeded flip of a bit of one image, in its parity,
    that is not a derivation, where a flip gives one."""
    out = []
    for d in maps:
        for _ in range(8):
            (e,) = one_bit_flips(rng, g, d)[:1]
            if not is_derivation(g, e)[0]:
                out.append(e)
                break
    return out


def shifted_by_inner(rng, g, maps):
    """Each map plus ad_t for a seeded t of its parity."""
    out = []
    for d in maps:
        idxs = g.odd_indices() if d.parity else g.even_indices()
        t = sum(1 << i for i in idxs if rng.random() < 0.5)
        out.append(d.add(ad_derivation(g, t)))
    return out


def assert_class_arithmetic_matches_the_references(g, rng, outer=None):
    """The three calls against the n^2 references on the derivation_space
    basis of each parity, a flip of each basis map that is no derivation,
    and R + ad_t for each outer representative R."""
    outer = outer or outer_derivations(g)
    basis = derivation_space(g, 0) + derivation_space(g, 1)
    reps = [r for o in outer for r in o.representatives]
    maps = basis + flipped_non_derivations(rng, g, basis) + shifted_by_inner(rng, g, reps)
    return class_arithmetic_outcomes(g, maps, outer, rng)


def test_class_arithmetic_matches_the_n2_references():
    # every catalog entry with its outer basis, seeded changes of basis,
    # and the three entries with no walk on seeded maps of either parity,
    # whose classes are named against their whole derivation spaces
    rng = random.Random("class arithmetic")
    got = collections.Counter()
    no_walk = ("po05-m0", "po05-m1", "po-0-5")
    for name in entry_names():
        g = named(name).algebra
        if name in no_walk:
            assert g.jacobi_walk is None
            maps = [
                Derivation(tuple(
                    rng.getrandbits(g.dim) & (g.even_mask if p == q else g.odd_mask)
                    for q in g.parity
                ), p)
                for p in (0, 1) for _ in range(3)
            ]
            outer = [
                OuterBasis(p, tuple(derivation_space(g, p)), 0, 0) for p in (0, 1)
            ]
            got += class_arithmetic_outcomes(g, maps, outer, rng)
            got += assert_class_arithmetic_matches_the_references(g, rng, outer)
        else:
            got += assert_class_arithmetic_matches_the_references(g, rng)
    for _ in range(4):
        g0 = named(rng.choice(VALID_SMALL)).algebra
        g, _ = change_basis(g0, None, random_invertible_parity_map(rng, g0))
        got += assert_class_arithmetic_matches_the_references(g, rng)
    for fn in ("class_coordinates", "cohomologous", "find_a0"):
        assert got[fn, True] and got[fn, False], (fn, got)


@pytest.mark.parametrize("m", range(4, 9))
def test_class_arithmetic_matches_the_n2_references_on_named_operators(m):
    # c13's naming: class_coordinates of each operator, and of flips of
    # four of them that are no derivations, against the reference
    g, _, basis = hamiltonian(m)
    rng = random.Random(f"named operators:{m}")
    ops = hamiltonian_operators(g, basis, m)
    outer = outer_derivations(g)
    flips = flipped_non_derivations(rng, g, rng.sample(ops, 4))
    assert len(flips) == 4
    for d in ops + flips:
        want = reference_class_coordinates(g, outer[d.parity], d)
        assert class_coordinates(g, outer[d.parity], d) == want
        assert (want is None) == (d in flips)


def test_class_arithmetic_refuses_maps_of_the_wrong_size():
    # each once gave a silent answer, or an IndexError for find_a0; an
    # image with a bit at n spilled into the next image's slot of the n^2
    # layout
    g = named("hei-double").algebra
    n = g.dim
    oe, oo = outer_derivations(g)
    short = Derivation((0,) * (n - 1), 0)
    images = [0] * n
    images[g.index("p")] = 1 << 8
    images[g.index("zstar")] = g.element("qstar")
    spill = Derivation(tuple(images), 1)
    zero = Derivation((0,) * n, 1)
    assert reference_cohomologous(g, short, short) == 0
    assert reference_class_coordinates(g, oe, Derivation((0,) * (n + 1), 0)) == 0
    assert reference_cohomologous(g, spill, zero) == g.element("p")
    assert reference_class_coordinates(g, oo, spill) == 0
    calls = [
        lambda: cohomologous(g, short, short),
        lambda: cohomologous(g, short, Derivation((0,) * n, 0)),
        lambda: class_coordinates(g, oe, Derivation((0,) * (n + 1), 0)),
        lambda: find_a0(g, Derivation((0,) * (n - 1), 1)),
        lambda: cohomologous(g, spill, zero),
        lambda: cohomologous(g, spill, spill),
        lambda: class_coordinates(g, oo, spill),
        lambda: find_a0(g, spill),
        lambda: short.add(Derivation((0,) * n, 0)),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatch):
            call()
