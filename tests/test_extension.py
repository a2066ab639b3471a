import dataclasses

import pytest

from nislie.catalog import (
    ba_even_recipe,
    cocycles_for,
    ba_odd_recipe,
    h104_alphas,
    h104_cocycles,
    h105_alpha6,
    h105_cocycles,
    hei_even_recipe,
    hei_odd_recipe,
    named,
    purely_odd,
    purely_odd_recipe,
)
from nislie.derivations import CASES, Derivation, case_of, case_parities, compatible_subspace
from nislie.errors import (
    ConditionViolated,
    DimensionMismatch,
    FieldNotInCase,
    HypothesisNotMet,
    SplitsOff,
)
from nislie.extension import (
    ExtensionRecipe,
    _odd_polar_matrix,
    extend,
    recipe_fields,
    reduce as ext_reduce,
    reduction_candidates,
)
from nislie.forms import BilinearForm, QuadraticForm, check_nis
from nislie.gf2 import GF2Matrix, span_basis
from nislie.superalgebra import SuperAlgebra, bracket, square_element, validate


def case_recipes():
    """A catalog base with a recipe of each case."""
    hei, hei_cocycles, _ = cocycles_for("hei-double")
    h105, h105_cocycles, h105_alphas = cocycles_for("h1-0-5")
    return {
        "evenB-evenD": (hei, hei_even_recipe(hei.algebra)),
        "evenB-oddD": (hei, hei_odd_recipe(hei.algebra)),
        "oddB-oddD": (
            h105,
            ExtensionRecipe(
                "oddB-oddD", h105_cocycles["D6"], alpha=h105_alphas["alpha6"], a0=0, m=1
            ),
        ),
        "oddB-evenD": (h105, ExtensionRecipe("oddB-evenD", h105_cocycles["D1"])),
    }


@pytest.mark.parametrize("case", CASES)
def test_extend_refuses_a_field_the_case_does_not_have(case):
    obj, recipe = case_recipes()[case]
    assert recipe.case == case
    values = {"alpha": QuadraticForm.zero(0), "a0": 0, "m": 1, "beta_star": 0}
    foreign = [f for f in values if f not in recipe_fields(case)]
    assert foreign
    for field in foreign:
        bad = dataclasses.replace(recipe, **{field: values[field]})
        with pytest.raises(FieldNotInCase, match=f"{field} does not apply to case {case}") as exc:
            extend(obj.algebra, obj.form, bad, unchecked=True)
        assert (exc.value.field, exc.value.case) == (field, case)
    # the recipe itself builds; oddB-oddD on h'(0|5) is the literal po(0|5;m) data
    extend(obj.algebra, obj.form, recipe, unchecked=case == "oddB-oddD")

EXED_ENTRIES = [
    "purely-odd-ext",
    "hei-evenD-ext",
    "hei-oddD-ext",
    "ba-evenD-ext",
    "ba-oddD-ext",
    "h104-D2ext",
    "h104-D6ext",
    "h104-D7ext",
    "tilde-po-0-5",
]


def test_even_even_extensions_validate(hei_double, ba_double):
    for obj, recipe_fn, want_sdim in [
        (hei_double, hei_even_recipe, (4, 4)),
        (ba_double, ba_even_recipe, (4, 4)),
    ]:
        res = extend(obj.algebra, obj.form, recipe_fn(obj.algebra))
        assert res.algebra.sdim == want_sdim
        assert validate(res.algebra).passed
        assert check_nis(res.algebra, res.form).passed
        # x is central and in the special center
        x = 1 << res.x_index
        assert all(
            bracket(res.algebra, x, 1 << j) == 0 for j in range(res.algebra.dim)
        )


def test_purely_odd_extension():
    g, b = purely_odd()
    res = extend(g, b, purely_odd_recipe(g))
    assert res.algebra.sdim == (2, 2)
    assert validate(res.algebra).passed
    assert check_nis(res.algebra, res.form).passed


def test_odd_d_extensions(hei_double, ba_double):
    for obj, recipe_fn in [(hei_double, hei_odd_recipe), (ba_double, ba_odd_recipe)]:
        res = extend(obj.algebra, obj.form, recipe_fn(obj.algebra))
        assert res.algebra.sdim == (2, 6)
        assert validate(res.algebra).passed
        assert check_nis(res.algebra, res.form).passed
        # s(x*) = a0 = 0 and x central odd
        assert res.algebra.squaring[res.star_index] == 0
        assert res.algebra.parity[res.x_index] == 1


def test_trivial_odd_extension_is_direct_sum(hei_double):
    g, b = hei_double.algebra, hei_double.form
    res = extend(g, b, ExtensionRecipe("evenB-oddD", Derivation((0,) * g.dim, 1), a0=0))
    assert validate(res.algebra).passed
    assert check_nis(res.algebra, res.form).passed
    x, s = res.x_index, res.star_index
    for j in range(res.algebra.dim):
        assert bracket(res.algebra, 1 << x, 1 << j) == 0
        assert bracket(res.algebra, 1 << s, 1 << j) == 0


def test_oddB_evenD_extension(h105):
    cc = h105_cocycles(h105.algebra, h105.basis)
    res = extend(
        h105.algebra, h105.form, ExtensionRecipe("oddB-evenD", cc["D1"])
    )
    assert res.algebra.sdim == (16, 16)
    assert validate(res.algebra).passed
    assert check_nis(res.algebra, res.form).passed
    # s(a + mu x) = s(a): the adjoined odd x squares to zero
    assert res.algebra.squaring[res.x_index] == 0


def test_oddB_evenD_rejects_incompatible(h105):
    cc = h105_cocycles(h105.algebra, h105.basis)
    with pytest.raises(ConditionViolated) as err:
        extend(h105.algebra, h105.form, ExtensionRecipe("oddB-evenD", cc["D5"]))
    assert err.value.condition == "4D1"
    th = h105.basis.find("theta")
    top4 = h105.basis.find("xi1 xi2 eta1 eta2")
    assert tuple(sorted(err.value.witness)) == tuple(sorted((th, top4)))


def test_oddB_oddD_rejects_theta_defect(h105):
    # B(D6 theta, theta) = 1: no quadratic form can satisfy the polar
    # condition, so the strict constructor refuses
    cc = h105_cocycles(h105.algebra, h105.basis)
    alpha = h105_alpha6(h105.algebra, h105.basis)
    with pytest.raises(ConditionViolated) as err:
        extend(
            h105.algebra,
            h105.form,
            ExtensionRecipe("oddB-oddD", cc["D6"], alpha=alpha, a0=0, m=0),
        )
    assert err.value.condition == "3D-polar"
    th = h105.basis.find("theta")
    assert err.value.witness == (th, th)


@pytest.mark.parametrize(
    "name, label, case, fields, condition, at",
    [
        ("hei-double", "D2", "evenB-evenD", {"beta_star": 0}, "D3", "q"),
        ("h1-0-5", "D6", "oddB-oddD", {"a0": 0, "m": 0}, "3D-polar", "theta"),
    ],
)
def test_an_odd_diagonal_is_refused_whatever_alpha_says(
    name, label, case, fields, condition, at
):
    # alpha's polar copies B(D ., .) on the odd part, diagonal included, so
    # it is no polar form; unchecked, the first build fails invariance and
    # the second Jacobi, and compatible_subspace rejects both derivations
    obj, cocycles, _ = cocycles_for(name)
    g, form, d = obj.algebra, obj.form, cocycles[label]
    polar = _odd_polar_matrix(g, form, d)
    recipe = ExtensionRecipe(case, d, alpha=QuadraticForm(polar.nrows, 0, polar), **fields)
    with pytest.raises(ConditionViolated) as err:
        extend(g, form, recipe)
    i = g.names.index(at)
    assert (err.value.condition, err.value.witness) == (condition, (i, i))
    assert compatible_subspace(g, form, case, [d]).dim == 0
    res = extend(g, form, recipe, unchecked=True)
    assert not (validate(res.algebra).passed and check_nis(res.algebra, res.form).passed)


def test_an_a0_outside_the_algebra_is_refused(hei_double):
    # restricted to the even basis it would pass; in the extension its top
    # bit would land on x
    g, form = hei_double.algebra, hei_double.form
    with pytest.raises(DimensionMismatch):
        extend(g, form, dataclasses.replace(hei_odd_recipe(g), a0=1 << g.dim))


def test_unchecked_build_reproduces_literal_structure(h105):
    obj = named("po05-m0")
    rep = validate(obj.algebra)
    assert not rep.passed
    jac = [f for f in rep.failures if f.axiom == "jacobi"]
    assert jac  # witnesses documented in the ledger
    nis = check_nis(obj.algebra, obj.form)
    assert not nis.invariant
    g = obj.algebra
    e_idx = obj.extension.star_index
    th = next(
        i for i, nm in enumerate(g.names) if nm == "theta"
    )
    assert ("invariant", (th, th, e_idx)) in nis.witnesses


def test_h104_extension_brackets(h104):
    # [x*, a] = D(a) and the x-cocycle is B(D a, b)
    cc = h104_cocycles(h104.algebra, h104.basis)
    alphas = h104_alphas(h104.algebra, h104.basis)
    res = extend(
        h104.algebra,
        h104.form,
        ExtensionRecipe("evenB-evenD", cc["D7"], alpha=alphas["alpha7"]),
    )
    g = res.algebra
    for j in range(h104.algebra.dim):
        got = bracket(g, 1 << res.star_index, 1 << j)
        assert got == cc["D7"].images[j]


def test_roundtrip_all_catalog_extensions():
    for name in EXED_ENTRIES + ["po05-m0", "po05-m1"]:
        obj = named(name)
        ext = obj.extension
        red = ext_reduce(
            obj.algebra, obj.form, 1 << ext.x_index, ext.recipe.case
        )
        assert red.recipe == ext.recipe.normalized(), name
        rebuilt = extend(red.algebra, red.form, red.recipe, unchecked=True)
        assert rebuilt.algebra.bracket_table == obj.algebra.bracket_table, name
        assert rebuilt.algebra.squaring == obj.algebra.squaring, name
        assert rebuilt.algebra.parity == obj.algebra.parity, name
        assert rebuilt.form.gram == obj.form.gram, name
        # base recovered on the nose (coordinate vectors)
        assert red.embedding == tuple(
            1 << i for i in range(obj.algebra.dim)
        ), name


def test_reduce_after_general_center_choice(hei_double):
    # reduce along x + (a central element of the base): still a valid
    # reduction, and re-extending reproduces g up to the recorded embedding
    obj = named("hei-oddD-ext")
    g, b = obj.algebra, obj.form
    x_alt = (1 << obj.extension.x_index) ^ g.element("pstar")
    red = ext_reduce(g, b, x_alt, "evenB-oddD")
    rebuilt = extend(red.algebra, red.form, red.recipe, unchecked=True)
    from nislie.isometry import verify_isometry

    ok, w = verify_isometry(
        rebuilt.algebra, rebuilt.form, g, b, red.embedding
    )
    assert ok, w


def test_reduction_candidates(hei_double, h104):
    g, b = hei_double.algebra, hei_double.form
    cands = reduction_candidates(g, b, "evenB-evenD")
    assert span_basis(cands) == span_basis([g.element("z")])
    cands_odd = reduction_candidates(g, b, "evenB-oddD")
    assert span_basis(cands_odd) == span_basis(
        [g.element("pstar"), g.element("qstar")]
    )
    assert reduction_candidates(h104.algebra, h104.form, "evenB-evenD") == []
    obj = named("tilde-po-0-5")
    cands = reduction_candidates(obj.algebra, obj.form, "oddB-evenD")
    assert (1 << obj.extension.x_index) in set(span_basis(cands)) or span_basis(
        cands + [1 << obj.extension.x_index]
    ) == span_basis(cands)


def test_reduce_hypothesis_errors(hei_double):
    g, b = hei_double.algebra, hei_double.form
    with pytest.raises(HypothesisNotMet):
        ext_reduce(g, b, g.element("p"), "evenB-oddD")  # not central
    obj = named("hei-evenD-ext")
    with pytest.raises(HypothesisNotMet):
        # wrong parity for the case
        ext_reduce(obj.algebra, obj.form, 1 << obj.extension.x_index, "evenB-oddD")


def test_reduce_splits_off():
    # 2-dim abelian even algebra with identity gram: B(x, x) = 1
    g = SuperAlgebra(
        ("u", "v"), (0, 0), ((0, 0), (0, 0)), (0, 0)
    )
    b = BilinearForm(GF2Matrix([1, 2], 2), 0)
    with pytest.raises(SplitsOff):
        ext_reduce(g, b, g.element("u"), "evenB-evenD")


def test_reduce_trivial_0_2_case():
    # abelian 0|2 with x odd central, s(x) = 0, even B: the base is 0-dim
    g = SuperAlgebra(("x", "y"), (1, 1), ((0, 0), (0, 0)), (0, 0))
    b = BilinearForm(GF2Matrix([2, 1], 2), 0)
    red = ext_reduce(g, b, g.element("x"), "evenB-oddD")
    assert red.algebra.dim == 0
    assert red.recipe.derivation.images == ()
    assert red.recipe.a0 == 0


def test_extension_recipe_normalization():
    d = Derivation((0, 0), 0)
    r = ExtensionRecipe("evenB-evenD", d, alpha=QuadraticForm.zero(0))
    n = r.normalized()
    assert n.beta_star == 0 and n.a0 is None and n.m is None


# the fields of each case as README states them, with the parity of x
CASE_RULE = {
    "evenB-evenD": (0, {"alpha", "beta_star"}),
    "evenB-oddD": (1, {"a0"}),
    "oddB-oddD": (0, {"alpha", "a0", "m"}),
    "oddB-evenD": (1, set()),
}


def test_the_case_rule_follows_the_parities_of_b_and_d():
    assert set(CASE_RULE) == set(CASES)
    alpha = QuadraticForm.zero(0)
    for case, (x_parity, fields) in CASE_RULE.items():
        form_parity, der_parity = case_parities(case)
        assert form_parity ^ der_parity == x_parity
        assert case_of(form_parity, x_parity) == case
        assert set(recipe_fields(case)) == fields
        full = ExtensionRecipe(
            case, Derivation((), der_parity), alpha=alpha, a0=1, m=1, beta_star=1
        ).normalized()
        bare = ExtensionRecipe(case, Derivation((), der_parity)).normalized()
        for f in ("alpha", "a0", "m", "beta_star"):
            assert (getattr(full, f) is not None) == (f in fields), (case, f)
            # the defaults: 0 for a0, m and beta*; alpha stays missing
            want = 0 if f in fields and f != "alpha" else None
            assert getattr(bare, f) == want, (case, f)


def _odd_nis_abelian():
    # 1|1 abelian with the odd pairing B(u, v) = 1
    g = SuperAlgebra(("u", "v"), (0, 1), ((0, 0), (0, 0)), (0, 0))
    return g, BilinearForm(GF2Matrix([0b10, 0b01], 2), 1)


def test_trivial_oddB_oddD_extension():
    g, b = _odd_nis_abelian()
    res = extend(
        g,
        b,
        ExtensionRecipe(
            "oddB-oddD",
            Derivation((0,) * g.dim, 1),
            alpha=QuadraticForm.zero(1),
            a0=0,
            m=0,
        ),
    )
    assert validate(res.algebra).passed
    assert check_nis(res.algebra, res.form).passed
    x = 1 << res.x_index
    assert all(
        bracket(res.algebra, x, 1 << j) == 0 for j in range(res.algebra.dim)
    )


def test_trivial_oddB_evenD_extension():
    g, b = _odd_nis_abelian()
    res = extend(g, b, ExtensionRecipe("oddB-evenD", Derivation((0,) * g.dim, 0)))
    assert validate(res.algebra).passed
    assert check_nis(res.algebra, res.form).passed
    assert res.algebra.squaring[res.x_index] == 0


def test_odd_case_members_have_isotropic_images(hei_double, ba_double):
    # for every compatible odd derivation, B(D a, D a) = 0 on odd a
    from nislie.derivations import compatible_subspace, outer_derivations

    for obj in (hei_double, ba_double):
        g, b = obj.algebra, obj.form
        _, oo = outer_derivations(g)
        got = compatible_subspace(g, b, "evenB-oddD", list(oo.representatives))
        import random

        rng = random.Random(1)
        for d in got.basis:
            for _ in range(20):
                a = rng.getrandbits(g.dim) & g.odd_mask
                assert b.pair(d.apply(a), d.apply(a)) == 0


def test_random_oddB_evenD_roundtrips(h105):
    import random

    from nislie.derivations import compatible_subspace, outer_derivations

    g, b = h105.algebra, h105.form
    oe, _ = outer_derivations(g)
    compat = compatible_subspace(g, b, "oddB-evenD", list(oe.representatives))
    assert compat.dim == 4  # D5's class is cut, D1..D4 survive
    rng = random.Random(23)
    for _ in range(6):
        d = compat.basis[rng.randrange(compat.dim)]
        for extra in compat.basis:
            if rng.getrandbits(1):
                d = d.add(extra)
        res = extend(g, b, ExtensionRecipe("oddB-evenD", d))
        assert validate(res.algebra).passed
        assert check_nis(res.algebra, res.form).passed
        red = ext_reduce(res.algebra, res.form, 1 << res.x_index, "oddB-evenD")
        assert red.recipe == res.recipe.normalized()
        rebuilt = extend(red.algebra, red.form, red.recipe)
        assert rebuilt.algebra == res.algebra
        assert rebuilt.form.gram == res.form.gram
