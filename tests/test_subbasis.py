"""The sub-basis vocabulary against the coordinate loops it replaced.

gf2.restrict and gf2.combine, BilinearForm.matrix_on, forms.adjointness_defect
and forms.transport_quadratic are checked against the loops kept in
tests/oracles.py; check_conditions and the Ca/3Ca condition of
build_adapted_isometry must raise the same label with the same witness as
those loops, on catalog data, on seeded recipes whose D is not
self-adjoint and on seeded non-symmetric Gram matrices, and must refuse
D exactly where compatible_subspace and find_a0 do.  A Hypothesis
property changes the basis of small catalog entries by random
parity-preserving invertible maps.
"""

import collections
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from nislie.catalog import (
    cocycles_for,
    entry_names,
    hei_double_cocycles,
    hei_even_recipe,
    named,
)
from nislie.derivations import (
    Derivation,
    case_parities,
    compatible_subspace,
    derivation_space,
    find_a0,
    outer_derivations,
    self_adjoint_coefficients,
    self_adjoint_values,
)
from nislie.errors import ConditionViolated
from nislie.extension import (
    LABELS,
    ExtensionRecipe,
    _odd_polar_matrix,
    check_conditions,
    extend,
    reduce as ext_reduce,
)
from nislie.forms import (
    BilinearForm,
    QuadraticForm,
    adjointness_defect,
    check_nis,
    evaluate_on_algebra,
    transport_quadratic,
)
from nislie.gf2 import AffineSolution, GF2Matrix, SpanBasis, combine, dependencies, restrict
from nislie.isometry import (
    Isometry,
    _shifted,
    build_adapted_isometry,
    isometry_group,
    verify_isometry,
)
from nislie.superalgebra import SuperAlgebra, validate
from oracles import (
    change_basis,
    mat_mul,
    reference_check_conditions,
    reference_coefficient_cut,
    reference_combine,
    reference_quadratic_equal_on_odd,
    reference_quadratic_from_eval,
    reference_restrict,
)

CASES = ("evenB-evenD", "evenB-oddD", "oddB-oddD", "oddB-evenD")


def outcome(check, *args):
    """None when check passes, else the label and witness it raises."""
    try:
        check(*args)
    except ConditionViolated as exc:
        return exc.condition, exc.witness
    return None


def test_restrict_and_combine_match_the_loops():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(1, 40)
        idxs = rng.sample(range(n), rng.randrange(0, n + 1))
        v = rng.getrandbits(n)
        assert restrict(v, idxs) == reference_restrict(v, idxs)
        x = rng.getrandbits(len(idxs))
        lifted = AffineSolution(x, (x,)).lift(idxs)
        assert lifted.particular == reference_combine([1 << i for i in idxs], x)
        assert restrict(lifted.particular, idxs) == x
        vectors = [rng.getrandbits(n) for _ in range(rng.randrange(1, 20))]
        coeffs = rng.getrandbits(len(vectors))
        assert combine(vectors, coeffs) == reference_combine(vectors, coeffs)


def test_matrix_on_and_defect_are_pair_entrywise():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(1, 12)
        form = BilinearForm(GF2Matrix([rng.getrandbits(n) for _ in range(n)], n), 0)
        us = [rng.getrandbits(n) for _ in range(rng.randrange(0, 6))]
        vs = [rng.getrandbits(n) for _ in range(rng.randrange(0, 6))]
        m = form.matrix_on(us, vs)
        assert (m.nrows, m.ncols) == (len(us), len(vs))
        assert all(
            m.entry(i, j) == form.pair(u, v)
            for i, u in enumerate(us)
            for j, v in enumerate(vs)
        )
        images = [rng.getrandbits(n) for _ in range(n)]
        domain = sorted(rng.sample(range(n), rng.randrange(0, n + 1)))
        defect = adjointness_defect(form, images, domain)
        assert all(
            defect.entry(a, b)
            == form.pair(images[i], 1 << j) ^ form.pair(1 << i, images[j])
            for a, i in enumerate(domain)
            for b, j in enumerate(domain)
        )


def test_transport_quadratic_matches_evaluation(hei_double):
    g, form = hei_double.algebra, hei_double.form
    alpha = hei_even_recipe(g).alpha
    rng = random.Random(11)
    group = isometry_group(g, form)
    for pi0 in rng.sample(group, 12):
        inv = pi0.inverse()
        moved = transport_quadratic(g, alpha, pi0.images)
        want = reference_quadratic_from_eval(
            g, lambda v: evaluate_on_algebra(g, alpha, inv.apply(v))
        )
        assert moved == want


def random_alpha(rng, k):
    rows = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return QuadraticForm(k, rng.getrandbits(k), GF2Matrix(rows, k))


def recipes_on(g, form, rng, count):
    """Seeded recipes of every case that fits form's parity: random
    derivations (mostly not self-adjoint), the polar of D or a random one,
    and a random even a0."""
    spaces = {p: derivation_space(g, p) for p in (0, 1)}
    k = len(g.odd_indices())
    for _ in range(count):
        case = rng.choice([c for c in CASES if case_parities(c)[0] == form.parity])
        parity = case_parities(case)[1]
        basis = spaces[parity]
        images = [0] * g.dim
        for d in basis:
            if rng.getrandbits(1):
                images = [a ^ b for a, b in zip(images, d.images)]
        d = Derivation(tuple(images), parity)
        alpha = random_alpha(rng, k)
        if rng.getrandbits(1):
            odd = g.odd_indices()
            polar = form.matrix_on([d.images[i] for i in odd], [1 << j for j in odd])
            alpha = QuadraticForm(k, alpha.diag, polar)
        a0 = rng.getrandbits(g.dim) & g.even_mask
        yield ExtensionRecipe(case, d, alpha=alpha, a0=a0, m=rng.getrandbits(1),
                              beta_star=rng.getrandbits(1))


def test_check_conditions_matches_the_pairwise_loops():
    seen = set()
    rng = random.Random(17)
    # catalog extensions and every catalog cocycle in every case of its parity
    for name in entry_names(include_defective=False):
        obj = named(name)
        if obj.extension is not None:
            ext = obj.extension
            base = ext_reduce(obj.algebra, obj.form, 1 << ext.x_index, ext.recipe.case)
            for check in (check_conditions, reference_check_conditions):
                assert outcome(check, base.algebra, base.form, base.recipe) is None
    for name in ("hei-double", "ba-double", "h1-0-4", "h1-0-5"):
        obj, cocycles, alphas = cocycles_for(name)
        g, form = obj.algebra, obj.form
        k = len(g.odd_indices())
        for d in cocycles.values():
            for case in CASES:
                if case_parities(case) != (form.parity, d.parity):
                    continue
                for alpha in [*alphas.values(), None, random_alpha(rng, k)]:
                    recipe = ExtensionRecipe(case, d, alpha=alpha)
                    got = outcome(check_conditions, g, form, recipe.normalized())
                    assert got == outcome(reference_check_conditions, g, form, recipe)
                    seen.add(got and got[0])
    # seeded recipes, on the bases' forms and on seeded non-symmetric Grams
    for name, count in (("hei-double", 40), ("ba-double", 40), ("gl-1-1", 40),
                        ("purely-odd", 40), ("h1-0-5", 10)):
        obj = named(name)
        g = obj.algebra
        forms = [obj.form]
        for _ in range(3):
            rows = [rng.getrandbits(g.dim) for _ in range(g.dim)]
            forms.append(BilinearForm(GF2Matrix(rows, g.dim), obj.form.parity))
        for form in forms:
            for recipe in recipes_on(g, form, rng, count):
                got = outcome(check_conditions, g, form, recipe.normalized())
                assert got == outcome(reference_check_conditions, g, form, recipe)
                seen.add(got and got[0])
    # the self-adjointness and polar loops of every case were exercised
    assert {"D1", "2D1", "3D1", "4D1", "D3", "3D-polar", None} <= seen


def compatibility_cut_inputs():
    """(g, form, derivation spaces by parity): four small entries, each with
    its own form and three seeded random Gram matrices of its parity."""
    rng = random.Random(19)
    for name in ("hei-double", "ba-double", "gl-1-1", "h1-0-4"):
        obj = named(name)
        g = obj.algebra
        spaces = [derivation_space(g, p) for p in (0, 1)]
        forms = [obj.form] + [
            BilinearForm(
                GF2Matrix([rng.getrandbits(g.dim) for _ in range(g.dim)], g.dim),
                obj.form.parity,
            )
            for _ in range(3)
        ]
        for form in forms:
            yield g, form, spaces


def test_compatibility_cuts_keep_the_rows_of_the_pairwise_functionals():
    # on a non-symmetric Gram the functionals (i, j >= i) and (j, i) differ,
    # so the cut depends on keeping exactly the pairs j >= i
    for g, form, spaces in compatibility_cut_inputs():
        mixed = spaces[0] + spaces[1][:4]
        assert self_adjoint_coefficients(g, form, mixed) == reference_coefficient_cut(
            form, mixed
        )
        for case in CASES:
            form_parity, der_parity = case_parities(case)
            if form_parity != form.parity:
                continue
            cands = spaces[der_parity]
            cut = reference_coefficient_cut(form, cands, form_parity == der_parity)
            span, want = SpanBasis(), []
            for c in cut:
                images = tuple(combine(col, c) for col in zip(*(d.images for d in cands)))
                if span.add(sum(im << (j * g.dim) for j, im in enumerate(images))):
                    want.append(images)
            got = compatible_subspace(g, form, case, cands).basis
            assert [d.images for d in got] == want


def test_check_conditions_reads_the_a0_conditions_as_the_reference():
    """D^2 = ad_a0 at the first failing e_j, then D(a0) = 0, against the
    loops of the reference, with the witness.  The zero form lets every
    odd derivation past the form conditions; a0 runs over seeded even
    elements and the points of find_a0.  On an abelian algebra every map
    of the parity is a derivation and ad_a0 = 0, so D(a0) = 0 fails alone
    wherever D^2 = 0."""
    rng = random.Random("a0 conditions")
    abelian = SuperAlgebra(
        names=("e0", "e1", "e2", "e3"),
        parity=(0, 1, 0, 1),
        bracket_table=((0,) * 4,) * 4,
        squaring=(0,) * 4,
    )
    seen = collections.Counter()
    for g in [named(name).algebra for name in ("hei-double", "ba-double", "h1-0-4")] + [abelian]:
        form = BilinearForm(GF2Matrix.zeros(g.dim, g.dim), 0)
        basis = derivation_space(g, 1)
        for _ in range(20):
            images = [0] * g.dim
            for d in basis:
                if rng.getrandbits(1):
                    images = [a ^ b for a, b in zip(images, d.images)]
            d = Derivation(tuple(images), 1)
            sol = find_a0(g, d)
            a0s = [rng.getrandbits(g.dim) & g.even_mask for _ in range(4)]
            a0s += [] if sol is None else list(itertools.islice(sol.points(), 4))
            for a0 in a0s:
                recipe = ExtensionRecipe("evenB-oddD", d, a0=a0)
                got = outcome(check_conditions, g, form, recipe)
                assert got == outcome(reference_check_conditions, g, form, recipe)
                seen[got and got[0]] += 1
    assert seen["2D2"] and seen["2D3"] and seen[None], seen


def test_check_conditions_refuses_by_what_the_cut_and_find_a0_decide():
    """A nonzero derivation passes the self-adjoint, diagonal and (i, i)
    polar checks of check_conditions exactly when compatible_subspace keeps
    it; for an odd one that passes them, an even a0 passes the a0 checks
    exactly when it is a point of find_a0.  Derivations are seeded
    combinations of the derivation space and of its compatible subspace."""
    rng = random.Random(29)
    for g, form, spaces in compatibility_cut_inputs():
        k = len(g.odd_indices())
        for case in CASES:
            form_parity, der_parity = case_parities(case)
            if form_parity != form.parity or not spaces[der_parity]:
                continue
            labels = LABELS[case]
            kept = compatible_subspace(g, form, case, spaces[der_parity]).basis
            for pool in (spaces[der_parity], kept):
                for _ in range(10 if pool else 0):
                    images = [0] * g.dim
                    for d in pool:
                        if rng.getrandbits(1):
                            images = [a ^ b for a, b in zip(images, d.images)]
                    if not any(images):
                        continue
                    d = Derivation(tuple(images), der_parity)
                    got = outcome(check_conditions, g, form, ExtensionRecipe(case, d).normalized())
                    passes = got is None or not (
                        got[0] in (labels["self_adjoint"], labels["diagonal"])
                        or got[0] == labels["polar"] and got[1] and got[1][0] == got[1][1]
                    )
                    assert passes == (compatible_subspace(g, form, case, [d]).dim == 1)
                    if not (passes and der_parity):
                        continue
                    polar = _odd_polar_matrix(g, form, d)
                    alpha = QuadraticForm(k, 0, polar) if form_parity else None
                    sol = find_a0(g, d)
                    a0s = [rng.getrandbits(g.dim) & g.even_mask for _ in range(4)]
                    a0s += [] if sol is None else list(itertools.islice(sol.points(), 4))
                    for a0 in a0s:
                        recipe = ExtensionRecipe(case, d, alpha=alpha, a0=a0).normalized()
                        got = outcome(check_conditions, g, form, recipe)
                        assert got is None or got[0] in (labels["square"], labels["a0"])
                        assert (got is None) == (sol is not None and sol.index(a0) is not None)


def test_dependencies_give_the_reference_coefficient_cut():
    """gf2.dependencies on the values of the self-adjointness functionals,
    with the diagonal functionals B(D e_i, e_i) or without, is the kernel
    that reference_coefficient_cut builds one functional at a time."""
    for g, form, spaces in compatibility_cut_inputs():
        n = g.dim
        for cands in (spaces[0], spaces[1], spaces[0] + spaces[1][:4]):
            values = [self_adjoint_values(form, d) for d in cands]
            assert dependencies(values) == reference_coefficient_cut(form, cands)
            diagonal = [
                v | sum(form.pair(d.images[i], 1 << i) << i for i in range(n)) << (n * n)
                for v, d in zip(values, cands)
            ]
            assert dependencies(diagonal) == reference_coefficient_cut(form, cands, True)


def test_ca_witness_matches_the_pairwise_loop(hei_double, h105):
    rng = random.Random(23)
    checked = {"Ca": 0, "3Ca": 0, None: 0}
    h5, b5 = h105.algebra, h105.form
    odd_d5 = list(cocycles_for("h1-0-5")[1].values())
    group = isometry_group(hei_double.algebra, hei_double.form)
    setups = [
        (hei_double.algebra, hei_double.form, "evenB-evenD", rng.sample(group, 6),
         list(hei_double_cocycles(hei_double.algebra).values())),
        (h5, b5, "oddB-oddD", [Isometry(tuple(1 << i for i in range(h5.dim)))], odd_d5),
    ]
    for a, form, case, pis, cocycles in setups:
        k = len(a.odd_indices())
        par = case_parities(case)[1]
        t_idxs = [i for i in range(a.dim) if a.parity[i] == par]
        for pi0 in pis:
            inv = pi0.inverse()
            for _ in range(12):
                d = rng.choice([c for c in cocycles if c.parity == par])
                src = ExtensionRecipe(case, d, alpha=random_alpha(rng, k)).normalized()
                t = 0
                if rng.getrandbits(1):
                    t = sum(1 << i for i in t_idxs if rng.getrandbits(1))
                shifted = _shifted(a, form, src, t)
                moved_d = Derivation(
                    tuple(pi0.apply(shifted.derivation.apply(inv.images[j]))
                          for j in range(a.dim)),
                    par,
                )
                tgt_alpha = random_alpha(rng, k)
                if rng.getrandbits(1):  # the transported alpha: no Ca failure
                    tgt_alpha = transport_quadratic(a, shifted.alpha, pi0.images)
                tgt = ExtensionRecipe(case, moved_d, alpha=tgt_alpha, a0=0, m=0).normalized()
                ok, w = reference_quadratic_equal_on_odd(
                    a,
                    lambda v: evaluate_on_algebra(a, tgt.alpha, pi0.apply(v)),
                    lambda v: evaluate_on_algebra(a, shifted.alpha, v),
                )
                got = outcome(build_adapted_isometry, a, form, src, tgt, pi0.images, t)
                if ok:
                    assert got is None or got[0] not in ("Ca", "3Ca", "Cd", "3Cd")
                    checked[None] += 1
                else:
                    assert got == (("Ca" if case == "evenB-evenD" else "3Ca"), (w,))
                    checked[got[0]] += 1
    assert all(checked.values()), checked


def test_form_witness_of_verify_isometry_matches_the_pairwise_loop():
    # on an abelian algebra every parity-preserving invertible map keeps the
    # brackets and squares, so the form decides; Grams are seeded and need
    # not be symmetric
    def abelian(parity):
        n = len(parity)
        return SuperAlgebra(
            tuple(f"v{i}" for i in range(n)), parity,
            tuple((0,) * n for _ in range(n)), (0,) * n,
        )

    rng = random.Random(29)
    cases = []
    for _ in range(40):
        n = rng.randrange(2, 9)
        g = abelian(tuple(rng.getrandbits(1) for _ in range(n)))
        b1, b2 = (
            BilinearForm(GF2Matrix([rng.getrandbits(n) for _ in range(n)], n), 0)
            for _ in range(2)
        )
        cases.append((g, b1, b2, random_parity_preserving(g, rng)))
    # B1 and B2 differ only at (b, a), below the diagonal
    b1, b2 = (BilinearForm(GF2Matrix(rows, 2), 0) for rows in ([2, 0], [2, 1]))
    cases.append((abelian((0, 0)), b1, b2, [1, 2]))
    for g, b1, b2, images in cases:
        n = g.dim
        want = next(
            (("form", i, j) for i in range(n) for j in range(n)
             if b1.pair(1 << i, 1 << j) != b2.pair(images[i], images[j])),
            None,
        )
        assert verify_isometry(g, b1, g, b2, images) == (want is None, want)


def random_parity_preserving(g, rng):
    """Images of a random invertible map that keeps each parity: on each
    parity a permuted product L U of unitriangular matrices, which covers
    every invertible matrix, and is the identity on all-zero draws."""
    images = [0] * g.dim
    for idxs in (g.even_indices(), g.odd_indices()):
        k = len(idxs)
        lower = [1 << i | rng.getrandbits(k) & ((1 << i) - 1) for i in range(k)]
        upper = [1 << i | rng.getrandbits(k) >> (i + 1) << (i + 1) for i in range(k)]
        rows = mat_mul(GF2Matrix(lower, k), GF2Matrix(upper, k)).rows
        rng.shuffle(rows)
        for i, row in zip(idxs, rows):
            images[i] = combine([1 << j for j in idxs], row)
    return images


SMALL = [
    name for name in entry_names(include_defective=False) if named(name).algebra.dim <= 16
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL), st.randoms(use_true_random=False))
def test_property_basis_change_keeps_verdicts_and_reductions(name, rng):
    obj = named(name)
    g, form = obj.algebra, obj.form
    images = random_parity_preserving(g, rng)
    h, b = change_basis(g, form, images)
    assert validate(h).passed == validate(g).passed
    if form is not None:
        assert check_nis(h, b).passed == check_nis(g, form).passed
    assert [o.dim for o in outer_derivations(h)] == [o.dim for o in outer_derivations(g)]
    if obj.extension is None:
        return
    ext = obj.extension
    back = GF2Matrix(images, g.dim).transpose().inverse()
    red = ext_reduce(h, b, back.mat_vec(1 << ext.x_index), ext.recipe.case)
    assert validate(red.algebra).passed and check_nis(red.algebra, red.form).passed
    lost = (g.parity[ext.x_index], g.parity[ext.star_index])
    assert red.algebra.sdim == (g.sdim[0] - lost.count(0), g.sdim[1] - lost.count(1))
    again = extend(red.algebra, red.form, red.recipe)
    assert validate(again.algebra).passed and check_nis(again.algebra, again.form).passed
    assert again.algebra.sdim == h.sdim
