import dataclasses
import random

import pytest

from nislie.catalog import (
    entry_names,
    hamiltonian,
    h104_alphas,
    h104_cocycles,
    h105_cocycles,
    ba_double_cocycles,
    ba_odd_recipe,
    hei_double_cocycles,
    hei_even_recipe,
    hei_odd_recipe,
    named,
)
from nislie.derivations import (
    Derivation,
    ad_derivation,
    case_parities,
    compatible_subspace,
    derivation_space,
    find_a0,
    outer_derivations,
)
from nislie.document import recipe_to_meta
from nislie.errors import (
    ConditionViolated,
    DimensionMismatch,
    FieldNotInCase,
    NisLieError,
)
from nislie.extension import ExtensionRecipe, _odd_polar_matrix, extend
from nislie.forms import BilinearForm, QuadraticForm, transport_quadratic
from nislie.gf2 import GF2Matrix, SpanBasis
from nislie import isometry, superalgebra
from nislie.isometry import (
    Isometry,
    _PairSpan,
    _close,
    adapted_isometry_decision,
    build_adapted_isometry,
    complete_by_bracketing,
    is_semi_trivial,
    isometry_group,
    search_isometry,
    verify_isometry,
)
from nislie.superalgebra import (
    SuperAlgebra,
    _generating_sequence,
    ad,
    bracket,
    square_element,
    validate,
)
from oracles import (
    brute_force_isometric,
    change_basis,
    h104_deg_swap,
    random_invertible_parity_map,
    reference_adapted_decision,
    reference_generating_sequence,
    reference_quadratic_from_eval,
    reference_search_isometry,
    relabel,
    substitution_map,
)


def test_identity_isometry(hei_double):
    g, b = hei_double.algebra, hei_double.form
    ident = tuple(1 << i for i in range(g.dim))
    ok, w = verify_isometry(g, b, g, b, ident)
    assert ok


def test_corrupted_map_fails(hei_double):
    g, b = hei_double.algebra, hei_double.form
    images = list(1 << i for i in range(g.dim))
    images[g.index("p")] = g.element("q")  # breaks [p, z*] = q*
    ok, w = verify_isometry(g, b, g, b, tuple(images))
    assert not ok and w is not None


def test_section54_deg_swap(h104):
    a, B, basis = h104.algebra, h104.form, h104.basis
    cc = h104_cocycles(a, basis)
    alphas = h104_alphas(a, basis)
    pi0 = h104_deg_swap(a, basis)
    src = extend(a, B, ExtensionRecipe("evenB-evenD", cc["D1"], alpha=alphas["alpha1"]))
    tgt = extend(a, B, ExtensionRecipe("evenB-evenD", cc["D7"], alpha=alphas["alpha7"]))
    pi = build_adapted_isometry(a, B, src.recipe, tgt.recipe, pi0, t=0, nu=0)
    ok, w = verify_isometry(src.algebra, src.form, tgt.algebra, tgt.form, pi.images)
    assert ok, w
    # the transported alpha1 equals the table's alpha7
    moved = transport_quadratic(a, alphas["alpha1"], pi0)
    assert moved.diag == alphas["alpha7"].diag
    assert moved.polar == alphas["alpha7"].polar


SWAPS = {
    "D3": {"xi1": "xi2", "xi2": "xi1", "eta1": "eta2", "eta2": "eta1"},
    "D4": {"xi1": "eta1", "eta1": "xi1"},
    "D5": {"xi1": "eta2", "eta2": "xi1", "eta1": "xi2", "xi2": "eta1"},
}


def test_section54_orbit(h104):
    # the form is even and B(x* + x, x* + x) = B(x*, x*), so each map found
    # with nu = 0 verifies with nu = 1 too
    a, B, basis = h104.algebra, h104.form, h104.basis
    cc = h104_cocycles(a, basis)
    alphas = h104_alphas(a, basis)
    src = extend(a, B, ExtensionRecipe("evenB-evenD", cc["D2"], alpha=alphas["alpha2"]))
    for label, swaps in SWAPS.items():
        pi0 = substitution_map(a, basis, swaps)
        alpha_t = transport_quadratic(a, alphas["alpha2"], pi0)
        tgt = extend(a, B, ExtensionRecipe("evenB-evenD", cc[label], alpha=alpha_t))
        maps = [
            build_adapted_isometry(a, B, src.recipe, tgt.recipe, pi0, t=0, nu=nu)
            for nu in (0, 1)
        ]
        assert maps[0].images[-1] ^ maps[1].images[-1] == 1 << a.dim
        for pi in maps:
            ok, w = verify_isometry(
                src.algebra, src.form, tgt.algebra, tgt.form, pi.images
            )
            assert ok, (label, w)


def test_h105_substitution_orbit(h105):
    # D1 ~ D2, D3, D4 under the theta-fixing substitutions
    a, B, basis = h105.algebra, h105.form, h105.basis
    cc = h105_cocycles(a, basis)
    maps = {
        "D2": {"xi1": "xi2", "xi2": "xi1", "eta1": "eta2", "eta2": "eta1"},
        "D3": {"xi1": "eta1", "eta1": "xi1"},
        "D4": {"xi1": "eta2", "eta2": "xi1", "eta1": "xi2", "xi2": "eta1"},
    }
    src = extend(a, B, ExtensionRecipe("oddB-evenD", cc["D1"]))
    for label, swaps in maps.items():
        pi0 = substitution_map(a, basis, swaps)
        tgt = extend(a, B, ExtensionRecipe("oddB-evenD", cc[label]))
        pi = build_adapted_isometry(a, B, src.recipe, tgt.recipe, pi0, t=0)
        ok, w = verify_isometry(
            src.algebra, src.form, tgt.algebra, tgt.form, pi.images
        )
        assert ok, (label, w)


def test_gl22_generator_correspondence(gl22):
    ext = named("h104-D6ext")
    g1, b1 = ext.algebra, ext.form
    g2, b2 = gl22.algebra, gl22.form
    f = ext.basis.find
    E = lambda nm: 1 << g2.index(nm)
    I4 = E("E11") ^ E("E22") ^ E("E33") ^ E("E44")
    pairs = [
        (1 << f("eta1"), E("E32")),
        (1 << f("xi1 eta2"), E("E21")),
        (1 << f("xi1 xi2"), E("E43")),
        (1 << f("xi1 xi2 eta2"), E("E23")),
        (1 << f("xi2 eta1"), E("E12")),
        (1 << f("eta1 eta2"), E("E34")),
        (1 << ext.extension.x_index, I4),
        (1 << ext.extension.star_index, E("E22")),
    ]
    images = complete_by_bracketing(g1, g2, pairs)
    ok, w = verify_isometry(g1, b1, g2, b2, images)
    assert ok, w


def test_po04_phi_isomorphism():
    ext7 = named("h104-D7ext")
    po = named("po-0-4")
    g1 = ext7.algebra
    images = [
        1 << po.basis.index[ext7.basis.monomials[i]]
        for i in range(g1.dim - 2)
    ]
    images.append(1 << po.basis.find(""))
    images.append(1 << po.basis.index[frozenset(range(4))])
    ok, w = verify_isometry(
        g1, ext7.form, po.algebra, po.form, tuple(images)
    )
    assert ok, w


def test_po05_phi_isomorphism():
    m0 = named("po05-m0")
    po = named("po-0-5")
    g1 = m0.algebra
    images = [
        1 << po.basis.index[m0.basis.monomials[i]] for i in range(g1.dim - 2)
    ]
    images.append(1 << po.basis.find(""))
    images.append(1 << po.basis.index[frozenset(range(5))])
    ok, w = verify_isometry(g1, m0.form, po.algebra, po.form, tuple(images))
    assert ok, w


def test_hei_512_isometry(hei_double):
    g, b = hei_double.algebra, hei_double.form
    cc = hei_double_cocycles(g)
    el = g.element
    rec_src = ExtensionRecipe("evenB-oddD", cc["D6"], a0=0)
    # (a6, a7) = (1, 0): pi0 = id-ish; (0, 1): the p <-> q swap
    for (a6, a7, s1, s3) in [(1, 0, 1, 0), (0, 1, 0, 1)]:
        d_tgt = cc["D6"] if a6 else cc["D7"]
        pi0 = [0] * 6
        pi0[g.index("z")] = el("z")
        pi0[g.index("zstar")] = el("zstar")
        pi0[g.index("p")] = (el("p") if s1 else 0) ^ (el("q") if s3 else 0)
        pi0[g.index("q")] = (el("p") if a7 else 0) ^ (el("q") if a6 else 0)
        pi0[g.index("qstar")] = (el("qstar") if s1 else 0) ^ (
            el("pstar") if s3 else 0
        )
        pi0[g.index("pstar")] = (el("qstar") if a7 else 0) ^ (
            el("pstar") if a6 else 0
        )
        rec_tgt = ExtensionRecipe("evenB-oddD", d_tgt, a0=el("z"))
        pi = build_adapted_isometry(
            g, b, rec_src, rec_tgt, tuple(pi0), t=el("qstar"), nu=0
        )
        assert pi is not None


def test_hei_512_coefficient_corner_is_not_isometric(hei_double):
    # over GF(2) the (a6, a7) = (1, 1) member is not adapted-isometric to the
    # (D6, 0) extension; the search with x fixed exhausts
    g, b = hei_double.algebra, hei_double.form
    cc = hei_double_cocycles(g)
    rec_src = ExtensionRecipe("evenB-oddD", cc["D6"], a0=0)
    rec_tgt = ExtensionRecipe(
        "evenB-oddD", cc["D6"].add(cc["D7"]), a0=g.element("z")
    )
    dec = adapted_isometry_decision(g, b, rec_src, rec_tgt)
    assert dec.status == "not-found"


def test_a0_zstar_target_is_a_proved_negative(hei_double):
    # (D6, a0 = 0) vs (D6, a0 = zstar): t ranges over a coset of the odd
    # center for some pi0, and no t works
    g, b = hei_double.algebra, hei_double.form
    d6 = hei_double_cocycles(g)["D6"]
    rec_src = ExtensionRecipe("evenB-oddD", d6, a0=0)
    rec_tgt = ExtensionRecipe("evenB-oddD", d6, a0=g.element("zstar"))
    dec = adapted_isometry_decision(g, b, rec_src, rec_tgt)
    assert dec.status == "not-found"


def test_ba_522_isometry(ba_double):
    g, b = ba_double.algebra, ba_double.form
    cc = ba_double_cocycles(g)
    el = g.element
    rec_src = ExtensionRecipe("evenB-oddD", cc["D4"], a0=0)
    for (a4, a8, s6, s3) in [(1, 0, 1, 0), (0, 1, 0, 1)]:
        d_tgt = cc["D4"] if a4 else cc["D8"]
        pi0 = [0] * 6
        pi0[g.index("q")] = el("q")
        pi0[g.index("qstar")] = el("qstar")
        pi0[g.index("z")] = (el("z") if a4 else 0) ^ (el("thetastar") if a8 else 0)
        pi0[g.index("theta")] = (el("theta") if a4 else 0) ^ (el("zstar") if a8 else 0)
        pi0[g.index("thetastar")] = (el("z") if s3 else 0) ^ (
            el("thetastar") if s6 else 0
        )
        pi0[g.index("zstar")] = (
            (el("theta") if s3 else 0)
            ^ (el("thetastar") if a8 else 0)
            ^ (el("z") if a4 else 0)
            ^ (el("zstar") if s6 else 0)
        )
        rec_tgt = ExtensionRecipe("evenB-oddD", d_tgt, a0=el("qstar"))
        pi = build_adapted_isometry(
            g, b, rec_src, rec_tgt, tuple(pi0), t=el("thetastar"), nu=0
        )
        assert pi is not None


def test_cohomologous_corollary(hei_double):
    # D' = D + ad_t with alpha' = alpha + B(t, s(.)) gives an isometric
    # extension via pi0 = id
    from nislie.catalog import hei_even_recipe
    from nislie.forms import evaluate_on_algebra
    from nislie.superalgebra import square_element

    g, b = hei_double.algebra, hei_double.form
    rec = hei_even_recipe(g).normalized()
    rng = random.Random(5)
    for _ in range(5):
        t = rng.getrandbits(g.dim) & g.even_mask
        d_shift = rec.derivation.add(ad_derivation(g, t if t else 0))
        alpha_shift = reference_quadratic_from_eval(
            g,
            lambda v: evaluate_on_algebra(g, rec.alpha, v)
            ^ b.pair(t, square_element(g, v)),
        )
        rec_tgt = ExtensionRecipe(
            "evenB-evenD",
            d_shift,
            alpha=alpha_shift,
            beta_star=b.pair(t, t) ^ (rec.beta_star or 0),
        )
        pi = build_adapted_isometry(
            g, b, rec, rec_tgt, tuple(1 << i for i in range(g.dim)), t=t
        )
        assert pi is not None


def test_adapted_conditions_fail_loudly(hei_double):
    g, b = hei_double.algebra, hei_double.form
    cc = hei_double_cocycles(g)
    rec_src = ExtensionRecipe("evenB-oddD", cc["D6"], a0=0)
    rec_tgt = ExtensionRecipe("evenB-oddD", cc["D7"], a0=0)
    with pytest.raises(ConditionViolated):
        build_adapted_isometry(
            g, b, rec_src, rec_tgt, tuple(1 << i for i in range(g.dim)), t=0
        )


def test_recipes_of_different_cases_are_refused(hei_double):
    # the even-D and odd-D recipes on hei-double extend along x of
    # different parities, so no adapted map joins them
    g, b = hei_double.algebra, hei_double.form
    even, odd = hei_even_recipe(g), hei_odd_recipe(g)
    ident = tuple(1 << i for i in range(g.dim))
    for src, tgt in ((even, odd), (odd, even)):
        with pytest.raises(ConditionViolated) as exc:
            build_adapted_isometry(g, b, src, tgt, ident)
        assert (exc.value.condition, exc.value.witness) == ("case", None)
        dec = adapted_isometry_decision(g, b, src, tgt)
        assert (dec.status, dec.reason) == ("not-found", "extension cases differ")


@pytest.mark.parametrize(
    "entry",
    ["extend", "build_adapted_isometry", "adapted_isometry_decision", "is_semi_trivial",
     "recipe_to_meta"],
)
def test_entry_points_refuse_a_field_the_case_does_not_have(entry, hei_double):
    # evenB-oddD has a0 only, so beta* and m are foreign to it
    g, b = hei_double.algebra, hei_double.form
    recipe = hei_odd_recipe(g)
    foreign = dataclasses.replace(recipe, beta_star=1, m=1)
    ident = tuple(1 << i for i in range(g.dim))
    calls = {
        "extend": lambda src, tgt: extend(g, b, src),
        "build_adapted_isometry": lambda src, tgt: build_adapted_isometry(
            g, b, src, tgt, ident
        ),
        "adapted_isometry_decision": lambda src, tgt: adapted_isometry_decision(
            g, b, src, tgt
        ),
        "is_semi_trivial": lambda src, tgt: is_semi_trivial(g, b, src),
        "recipe_to_meta": lambda src, tgt: recipe_to_meta(src),
    }
    calls[entry](recipe, recipe)  # the recipe itself is accepted
    for src, tgt in ((foreign, recipe), (recipe, foreign)):
        if entry in ("extend", "is_semi_trivial", "recipe_to_meta") and src is recipe:
            continue
        with pytest.raises(FieldNotInCase):
            calls[entry](src, tgt)


@pytest.mark.parametrize(
    "entry",
    ["extend", "extend unchecked", "build_adapted_isometry",
     "adapted_isometry_decision", "is_semi_trivial", "compatible_subspace"],
)
def test_entry_points_refuse_a_derivation_of_the_wrong_size(entry, hei_double):
    # each once gave an answer or an IndexError: the decision answered
    # found for one extra zero image, the unchecked build cut n + 1 images,
    # and compatible_subspace gave dim 0 for n - 1
    g, b = hei_double.algebra, hei_double.form
    n = g.dim
    recipe = hei_odd_recipe(g)
    d = recipe.derivation
    ident = tuple(1 << i for i in range(n))
    calls = {
        "extend": lambda r: extend(g, b, r),
        "extend unchecked": lambda r: extend(g, b, r, unchecked=True),
        "build_adapted_isometry": lambda r: build_adapted_isometry(
            g, b, r, r, ident
        ),
        "adapted_isometry_decision": lambda r: adapted_isometry_decision(g, b, r, r),
        "is_semi_trivial": lambda r: is_semi_trivial(g, b, r),
        "compatible_subspace": lambda r: compatible_subspace(
            g, b, r.case, [r.derivation]
        ),
    }
    calls[entry](recipe)  # the recipe itself is accepted
    spill = list(d.images)
    spill[g.index("p")] |= 1 << n
    for images in (
        d.images + (0,),
        d.images[:-1],
        (0,) * (n - 1),
        tuple(spill),
    ):
        wrong = dataclasses.replace(recipe, derivation=Derivation(images, d.parity))
        with pytest.raises(DimensionMismatch):
            calls[entry](wrong)
        if entry == "build_adapted_isometry":
            with pytest.raises(DimensionMismatch):
                build_adapted_isometry(g, b, recipe, wrong, ident)
        if entry == "adapted_isometry_decision":
            with pytest.raises(DimensionMismatch):
                adapted_isometry_decision(g, b, recipe, wrong)


def test_semi_triviality(hei_double, ba_double):
    g, b = hei_double.algebra, hei_double.form
    assert is_semi_trivial(g, b, hei_odd_recipe(g)).status == "not-semi-trivial"
    g2, b2 = ba_double.algebra, ba_double.form
    assert (
        is_semi_trivial(g2, b2, ba_odd_recipe(g2)).status == "not-semi-trivial"
    )
    # inner derivations are semi-trivial, and the witness transports
    from nislie.derivations import find_a0

    d = ad_derivation(g, g.element("p"))
    sol = find_a0(g, d)
    rec = ExtensionRecipe("evenB-oddD", d, a0=sol.particular)
    res = is_semi_trivial(g, b, rec)
    assert res.status == "semi-trivial"
    assert res.witness_t == g.element("p")
    assert res.target is not None and not any(res.target.derivation.images)


def test_search_isometry_self(hei_double):
    g, b = hei_double.algebra, hei_double.form
    res = search_isometry(g, b, g, b, budget=50_000)
    assert res.status == "found"
    ok, _ = verify_isometry(g, b, g, b, res.witness.images)
    assert ok


def test_search_isometry_invariant_screen(hei_double, h104):
    res = search_isometry(
        hei_double.algebra, hei_double.form, h104.algebra, h104.form
    )
    assert res.status == "not-found"


def test_search_isometry_seeded_d2_d3(h104):
    a, B, basis = h104.algebra, h104.form, h104.basis
    cc = h104_cocycles(a, basis)
    alphas = h104_alphas(a, basis)
    pi0 = substitution_map(a, basis, SWAPS["D3"])
    alpha3 = transport_quadratic(a, alphas["alpha2"], pi0)
    src = extend(a, B, ExtensionRecipe("evenB-evenD", cc["D2"], alpha=alphas["alpha2"]))
    tgt = extend(a, B, ExtensionRecipe("evenB-evenD", cc["D3"], alpha=alpha3))
    seeds = [(1 << i, pi0[i]) for i in range(a.dim)]
    seeds += [
        (1 << src.x_index, 1 << tgt.x_index),
        (1 << src.star_index, 1 << tgt.star_index),
    ]
    res = search_isometry(
        src.algebra, src.form, tgt.algebra, tgt.form, budget=300_000,
        seed_pairs=seeds,
    )
    assert res.status == "found"
    ok, _ = verify_isometry(
        src.algebra, src.form, tgt.algebra, tgt.form, res.witness.images
    )
    assert ok


def test_isometry_group_structure(hei_double):
    g, b = hei_double.algebra, hei_double.form
    grp = isometry_group(g, b)
    assert len(grp) == 32
    ident = tuple(1 << i for i in range(g.dim))
    table = {p.images for p in grp}
    assert ident in table
    rng = random.Random(0)
    sample = [rng.choice(grp) for _ in range(6)]
    # group axioms on a sample: closure, inverses
    for p in sample:
        assert p.inverse().images in table
        for q in sample:
            assert p.compose(q).images in table


def test_po05_adapted_negative(h105):
    m0 = named("po05-m0")
    m1 = named("po05-m1")
    dec = adapted_isometry_decision(
        h105.algebra, h105.form, m1.extension.recipe, m0.extension.recipe
    )
    assert dec.status == "not-found"
    assert "pi0-free" in dec.reason
    dec_same = adapted_isometry_decision(
        h105.algebra, h105.form, m0.extension.recipe, m0.extension.recipe
    )
    assert dec_same.status == "found"


def test_isometry_inverse_and_composition_across_algebras(h104):
    # symmetric and transitive behavior of verified isometries
    a, B, basis = h104.algebra, h104.form, h104.basis
    cc = h104_cocycles(a, basis)
    alphas = h104_alphas(a, basis)
    src = extend(a, B, ExtensionRecipe("evenB-evenD", cc["D2"], alpha=alphas["alpha2"]))
    exts = {"D2": src}
    maps = {}
    for label in ("D3", "D4"):
        pi0 = substitution_map(a, basis, SWAPS[label])
        alpha_t = transport_quadratic(a, alphas["alpha2"], pi0)
        tgt = extend(a, B, ExtensionRecipe("evenB-evenD", cc[label], alpha=alpha_t))
        exts[label] = tgt
        maps[label] = build_adapted_isometry(
            a, B, src.recipe, tgt.recipe, pi0, t=0
        )
    for label, pi in maps.items():
        inv = pi.inverse()
        ok, w = verify_isometry(
            exts[label].algebra,
            exts[label].form,
            src.algebra,
            src.form,
            inv.images,
        )
        assert ok, (label, w)
    comp = maps["D4"].compose(maps["D3"].inverse())
    ok, w = verify_isometry(
        exts["D3"].algebra,
        exts["D3"].form,
        exts["D4"].algebra,
        exts["D4"].form,
        comp.images,
    )
    assert ok, w


def test_cone_membership_of_adjoined_center():
    from nislie.superalgebra import cone_contains

    obj = named("hei-oddD-ext")
    assert cone_contains(
        obj.algebra, obj.form.gram, 1 << obj.extension.x_index
    )


def test_adapted_decision_positive_and_negative_on_hei_double(hei_double):
    # D6- and D7-extensions are related by the p <-> q symmetry, which the
    # search with x fixed finds
    g, b = hei_double.algebra, hei_double.form
    cc = hei_double_cocycles(g)
    rec6 = ExtensionRecipe("evenB-oddD", cc["D6"], a0=0)
    rec7 = ExtensionRecipe("evenB-oddD", cc["D7"], a0=0)
    dec = adapted_isometry_decision(g, b, rec6, rec7)
    assert dec.status == "found"
    rec3 = ExtensionRecipe("evenB-oddD", cc["D3"], a0=0)
    dec = adapted_isometry_decision(g, b, rec6, rec3)
    assert dec.status == "not-found"


def test_adapted_budget_exhausted_carries_a_reason(hei_double):
    g, b = hei_double.algebra, hei_double.form
    cc = hei_double_cocycles(g)
    rec6 = ExtensionRecipe("evenB-oddD", cc["D6"], a0=0)
    rec67 = ExtensionRecipe("evenB-oddD", cc["D6"].add(cc["D7"]), a0=g.element("z"))
    assert adapted_isometry_decision(g, b, rec6, rec67).status == "not-found"
    dec = adapted_isometry_decision(g, b, rec6, rec67, budget=1)
    assert dec.status == "budget-exhausted"
    assert "exceeded 1 nodes" in dec.reason


def test_two_non_self_adjoint_recipes_leave_the_negative_unproved(hei_double):
    # D3 breaks self-adjointness on both sides, so the extension tables are
    # not symmetric and the exhausted search with x fixed proves nothing
    g, b = hei_double.algebra, hei_double.form
    d3 = hei_double_cocycles(g)["D3"]
    rec_src = ExtensionRecipe("evenB-oddD", d3, a0=0)
    rec_tgt = ExtensionRecipe("evenB-oddD", d3, a0=g.element("z"))
    dec = adapted_isometry_decision(g, b, rec_src, rec_tgt)
    assert dec.status == "budget-exhausted"
    assert "not symmetric" in dec.reason


def test_adapted_decision_finds_the_h104_d2_d3_swap(h104):
    # the D3 extension is the D2 one transported by the xi1 <-> xi2,
    # eta1 <-> eta2 swap; the base has dimension 14
    a, B, basis = h104.algebra, h104.form, h104.basis
    cc = h104_cocycles(a, basis)
    alphas = h104_alphas(a, basis)
    pi0 = substitution_map(a, basis, SWAPS["D3"])
    src = ExtensionRecipe("evenB-evenD", cc["D2"], alpha=alphas["alpha2"])
    tgt = ExtensionRecipe(
        "evenB-evenD", cc["D3"], alpha=transport_quadratic(a, alphas["alpha2"], pi0)
    )
    dec = adapted_isometry_decision(a, B, src, tgt)
    assert dec.status == "found"
    assert dec.witness.images[a.dim] == 1 << a.dim


# (status, nodes) of search_isometry(budget=500) from each valid catalog
# entry with a form to two seeded parity-preserving relabellings of it; the
# candidate order, the closure and the pruning all show in the node counts
SEARCH_GOLDEN = {
    "hei-double": (("found", 8), ("found", 16)),
    "ba-double": (("found", 14), ("found", 4)),
    "purely-odd": (("found", 2), ("found", 2)),
    "purely-odd-ext": (("found", 3), ("found", 4)),
    "hei-evenD-ext": (("found", 106), ("found", 278)),
    "hei-oddD-ext": (("found", 309), ("found", 333)),
    "ba-evenD-ext": (("found", 36), ("found", 34)),
    "ba-oddD-ext": (("found", 139), ("found", 451)),
    "h1-0-4": (("found", 28), ("found", 42)),
    "h1-0-5": (("budget-exhausted", 501), ("budget-exhausted", 501)),
    "gl-1-1": (("found", 3), ("found", 3)),
    "gl-2-2": (("found", 11), ("found", 35)),
    "h104-D2ext": (("found", 420), ("found", 182)),
    "h104-D6ext": (("found", 439), ("found", 298)),
    "h104-D7ext": (("budget-exhausted", 501), ("budget-exhausted", 501)),
    "po-0-4": (("budget-exhausted", 501), ("budget-exhausted", 501)),
    "tilde-po-0-5": (("budget-exhausted", 501), ("budget-exhausted", 501)),
}


def test_search_isometry_golden_nodes_on_relabellings():
    names = [
        name for name in entry_names(include_defective=False)
        if named(name).form is not None
    ]
    assert names == list(SEARCH_GOLDEN)
    for name in names:
        obj = named(name)
        got = []
        for r in range(2):
            g2, b2 = relabel(obj.algebra, obj.form, random.Random(f"{name}:{r}"))
            res = search_isometry(obj.algebra, obj.form, g2, b2, budget=500)
            got.append((res.status, res.nodes))
            if res.status == "found":
                assert verify_isometry(
                    obj.algebra, obj.form, g2, b2, res.witness.images
                )[0]
        assert tuple(got) == SEARCH_GOLDEN[name], name


def test_search_totals_on_relabellings_and_changes_of_basis():
    # ROADMAP item 2's yardstick: search_isometry(budget=500) from each
    # valid catalog entry with a form to 8 relabellings (a fresh
    # random.Random(1) per entry) and to 8 changes of basis (one
    # random.Random(1) stream); re-record only when no status gets worse
    objs = [
        named(name) for name in entry_names(include_defective=False)
        if named(name).form is not None
    ]
    totals = {}
    for kind in ("relabel", "change-of-basis"):
        statuses, nodes = {}, 0
        basis_rng = random.Random(1)
        for obj in objs:
            rng = random.Random(1)
            for _ in range(8):
                if kind == "relabel":
                    g2, b2 = relabel(obj.algebra, obj.form, rng)
                else:
                    images = random_invertible_parity_map(basis_rng, obj.algebra)
                    g2, b2 = change_basis(obj.algebra, obj.form, images)
                res = search_isometry(obj.algebra, obj.form, g2, b2, budget=500)
                statuses[res.status] = statuses.get(res.status, 0) + 1
                nodes += res.nodes
        totals[kind] = statuses, nodes
    assert totals == {
        "relabel": ({"found": 91, "budget-exhausted": 45}, 30_873),
        "change-of-basis": ({"found": 78, "budget-exhausted": 58}, 34_085),
    }


def search_fingerprint(res):
    return res.status, res.nodes, res.witness and res.witness.images


def reference_fingerprint(status, nodes, proved, images):
    """The fingerprint of a reference_search_isometry tuple: an exhausted
    search without a proof is budget-exhausted."""
    if status == "not-found" and not proved:
        status = "budget-exhausted"
    return status, nodes, images


def test_search_tree_matches_the_eager_reference():
    # lazy candidate lists and the form test before the copy build the
    # tree that whole lists and a clone-then-check closure build
    for name in entry_names(include_defective=False):
        obj = named(name)
        if obj.form is None:
            continue
        for r in range(2):
            g2, b2 = relabel(obj.algebra, obj.form, random.Random(f"{name}:{r}"))
            res = search_isometry(obj.algebra, obj.form, g2, b2, budget=500)
            assert search_fingerprint(res) == reference_fingerprint(
                *reference_search_isometry(obj.algebra, obj.form, g2, b2, 500)
            ), (name, r)


@pytest.mark.parametrize("first", [5, -1])
def test_a_seed_that_is_a_solution_goes_first_whatever_its_index(first):
    # h(1|0;5) to itself, generators seeded to themselves but the first
    # one, e_0, which has 2^15 odd candidates.  Odd vector 5 is solution
    # 2^5 and the last odd vector solution 2^14; either goes first
    obj = named("h1-0-5")
    g, b = obj.algebra, obj.form
    gens = [1 << i for i in _generating_sequence(g)]
    seed = 1 << g.odd_indices()[first]
    assert gens[0] == 1
    fits = isometry._FormTest(b, b, _PairSpan(g.dim), 1)
    cands = isometry._candidate_images(g, b, fits, 1, [], seed)
    assert next(cands) == (seed, fits.image(seed))
    # a seed outside g is no candidate and leaves the solution order
    outside = isometry._candidate_images(g, b, fits, 1, [], 1 << g.dim)
    assert next(outside) == next(isometry._candidate_images(g, b, fits, 1, []))
    seeds = [(1, seed)] + [(v, v) for v in gens[1:]]
    res = search_isometry(g, b, g, b, budget=500, seed_pairs=seeds)
    assert (res.status, res.nodes) == ("budget-exhausted", 501)
    assert search_fingerprint(res) == reference_fingerprint(
        *reference_search_isometry(g, b, g, b, 500, seeds)
    )


GROUP_SIZES = {
    "hei-double": 32,
    "ba-double": 32,
    "purely-odd": 6,
    "purely-odd-ext": 4,
    "hei-evenD-ext": 32,
    "hei-oddD-ext": 192,
    "ba-evenD-ext": 32,
    "ba-oddD-ext": 192,
    "gl-1-1": 4,
}


def test_isometry_group_sizes_up_to_dim_10():
    small = [
        name for name in entry_names()
        if named(name).form is not None and named(name).algebra.dim <= 10
    ]
    assert small == list(GROUP_SIZES)
    for name in small:
        obj = named(name)
        grp = isometry_group(obj.algebra, obj.form)
        assert len({p.images for p in grp}) == len(grp) == GROUP_SIZES[name]


def test_pair_span_rank_counts_the_pivots():
    rng = random.Random(11)
    for _ in range(200):
        n1, n2 = rng.randrange(1, 9), rng.randrange(1, 9)
        spans = [_PairSpan(n1)]
        for _ in range(rng.randrange(1, 16)):
            span = rng.choice(spans)
            if rng.random() < 0.3:
                spans.append(span.clone())
                continue
            span.add(rng.getrandbits(n1), rng.getrandbits(n2))
        for span in spans:
            pivots = [v & -v for v in span.basis.rows() if v & -v < 1 << n1]
            assert span.basis.dim == len(pivots) == len(span.pairs())


def random_even_algebra(rng, n):
    """A symmetric bracket table with zero diagonal; no axioms asked."""
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                table[i][j] = table[j][i] = rng.getrandbits(n)
    names = tuple(f"e{i}" for i in range(n))
    return SuperAlgebra(names, (0,) * n, tuple(map(tuple, table)), (0,) * n)


def random_symmetric_form(rng, n):
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return BilinearForm(GF2Matrix(rows, n), 0)


def flip_symmetric_entry(form, i, j):
    rows = list(form.gram.rows)
    rows[i] ^= 1 << j
    if i != j:
        rows[j] ^= 1 << i
    return BilinearForm(GF2Matrix(rows, form.dim), form.parity)


def naive_closure(g1, g2, pairs):
    """Span of the pairs closed under brackets of all pairs of its rows."""
    n1, mask1 = g1.dim, (1 << g1.dim) - 1
    basis = SpanBasis(v | w << n1 for v, w in pairs)
    grown = True
    while grown:
        grown = False
        rows = basis.vectors()
        for x in rows:
            for y in rows:
                bv = bracket(g1, x & mask1, y & mask1)
                bw = bracket(g2, x >> n1, y >> n1)
                grown |= basis.add(bv | bw << n1)
    return basis


def test_close_matches_naive_closure_on_random_even_algebras():
    # mostly the identity against a form that differs in one entry: the
    # forms are not invariant, so no form check follows from another one
    rng = random.Random(2026)
    verdicts = set()
    for _ in range(400):
        n = rng.randrange(3, 8)
        g = random_even_algebra(rng, n)
        b1 = random_symmetric_form(rng, n)
        b2 = flip_symmetric_entry(b1, rng.randrange(n), rng.randrange(n))
        mask1 = (1 << n) - 1
        span, pairs = _PairSpan(n), []
        while span is not None and len(pairs) < 4:
            v = rng.getrandbits(n)
            pairs.append((v, v if rng.random() < 0.8 else rng.getrandbits(n)))
            span = _close(g, g, b1, b2, span, pairs)
            rows = naive_closure(g, g, pairs).vectors()
            consistent = all(r & mask1 for r in rows) and all(
                b1.pair(x & mask1, y & mask1) == b2.pair(x >> n, y >> n)
                for x in rows
                for y in rows
            )
            verdicts.add(consistent)
            assert (span is not None) == consistent
            if span is not None:
                assert sorted(span.basis.rows()) == sorted(rows)
                assert span.basis.dim == len(rows)
    assert verdicts == {True, False}


def filiform(n):
    """L_n: [e0, ei] = e_{i+1} for 1 <= i < n - 1, all even."""
    table = [[0] * n for _ in range(n)]
    for i in range(1, n - 1):
        table[0][i] = table[i][0] = 1 << (i + 1)
    names = tuple(f"e{i}" for i in range(n))
    return SuperAlgebra(names, (0,) * n, tuple(map(tuple, table)), (0,) * n)


@pytest.mark.parametrize("n", [11, 12])
def test_closure_reaches_full_rank_on_long_filiform_chains(n):
    # e0 and e1 generate L_n through n - 2 nested brackets; a capped number
    # of closure rounds stops short of rank n and loses the identity
    g, form = filiform(n), BilinearForm(GF2Matrix.identity(n), 0)
    ident = [(1 << i, 1 << i) for i in range(n)]
    assert validate(g).passed
    assert verify_isometry(g, form, g, form, [v for v, _ in ident])[0]
    res = search_isometry(g, form, g, form, budget=20_000, seed_pairs=ident)
    assert (res.status, res.nodes) == ("found", 2)
    assert res.witness.images == tuple(v for v, _ in ident)


@pytest.mark.parametrize("n", [67, 80])
def test_complete_by_bracketing_runs_to_the_fixed_point(n):
    # e0 -> e0, e1 -> e1 determine L_n only after n - 2 rounds of brackets,
    # more than a capped loop of 64 rounds gives
    g = filiform(n)
    assert complete_by_bracketing(g, g, [(1, 1), (2, 2)]) == tuple(
        1 << i for i in range(n)
    )


def test_generating_sequence_matches_the_all_pairs_reference(monkeypatch):
    # the frontier closures grow the unique smallest closed subspace, so
    # the greedy choices are the ones rebuilding every closure gives.  On
    # a change of basis the frontier holds vectors of several bits, whose
    # adjoint rows are XORs of table rows
    algebras, valid = [], entry_names(include_defective=False)
    for name in entry_names():
        obj = named(name)
        if obj.form is None:
            continue
        algebras.append(obj.algebra)
        for r in range(2):
            rng = random.Random(f"{name}:{r}")
            algebras.append(relabel(obj.algebra, obj.form, rng)[0])
        if name in valid:
            for r in range(4):
                rng = random.Random(f"{name}:basis:{r}")
                images = random_invertible_parity_map(rng, obj.algebra)
                algebras.append(change_basis(obj.algebra, obj.form, images)[0])
    algebras += [hamiltonian(6)[0], hamiltonian(7)[0]]
    rows = []
    monkeypatch.setattr(
        superalgebra, "ad", lambda g, x: rows.append(x) or ad(g, x)
    )
    for g in algebras:
        assert _generating_sequence(g) == reference_generating_sequence(g)
    assert any(x & (x - 1) for x in rows)


def random_superalgebra(rng, n_even, n_odd):
    """Symmetric, alternating, parity-homogeneous structure constants and
    even squares, with no Jacobi asked."""
    n = n_even + n_odd
    parity = (0,) * n_even + (1,) * n_odd
    masks = ((1 << n_even) - 1, ((1 << n) - 1) ^ ((1 << n_even) - 1))
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                value = rng.getrandbits(n) & masks[parity[i] ^ parity[j]]
                table[i][j] = table[j][i] = value
    squaring = tuple(
        rng.getrandbits(n) & masks[0] if p and rng.random() < 0.5 else 0
        for p in parity
    )
    names = tuple(f"e{i}" for i in range(n))
    return SuperAlgebra(names, parity, tuple(map(tuple, table)), squaring)


def random_homogeneous_form(rng, g, form_parity):
    rows = [0] * g.dim
    for i in range(g.dim):
        for j in range(i, g.dim):
            if g.parity[i] ^ g.parity[j] == form_parity and rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return BilinearForm(GF2Matrix(rows, g.dim), form_parity)


def transport(g, form, images):
    """(g, form) moved along the invertible map e_i -> images[i]."""
    phi = Isometry(tuple(images))
    inv = phi.inverse().images
    n = g.dim
    table = tuple(
        tuple(phi.apply(bracket(g, inv[a], inv[b])) for b in range(n))
        for a in range(n)
    )
    squaring = tuple(
        phi.apply(square_element(g, inv[a])) if g.parity[a] else 0
        for a in range(n)
    )
    rows = [sum(form.pair(inv[a], inv[b]) << b for b in range(n)) for a in range(n)]
    return (
        SuperAlgebra(g.names, g.parity, table, squaring),
        BilinearForm(GF2Matrix(rows, n), form.parity),
    )


def perturb(rng, g, form):
    """One bracket value, square or form entry changed, keeping the tables
    symmetric and parity-homogeneous."""
    n, p = g.dim, g.parity
    i, j = rng.randrange(n), rng.randrange(n)
    of_parity = [[k for k in range(n) if p[k] == q] for q in (0, 1)]
    roll = rng.randrange(3)
    if roll == 0 and i != j and of_parity[p[i] ^ p[j]]:
        table = [list(row) for row in g.bracket_table]
        k = rng.choice(of_parity[p[i] ^ p[j]])
        table[i][j] = table[j][i] = table[i][j] ^ 1 << k
        return dataclasses.replace(g, bracket_table=tuple(map(tuple, table))), form
    if roll == 1 and p[i] and of_parity[0]:
        squaring = list(g.squaring)
        squaring[i] ^= 1 << rng.choice(of_parity[0])
        return dataclasses.replace(g, squaring=tuple(squaring)), form
    if p[i] ^ p[j] == form.parity:
        return g, flip_symmetric_entry(form, i, j)
    return g, form


def random_small_pairs(seed, count):
    """Pairs of superdimension (p|q), p, q <= 3, p + q <= 4: a transported
    copy, one with an entry then changed, or an unrelated algebra."""
    rng = random.Random(seed)
    for _ in range(count):
        n_even = rng.randrange(0, 4)
        n_odd = rng.randrange(0 if n_even else 1, min(3, 4 - n_even) + 1)
        g1 = random_superalgebra(rng, n_even, n_odd)
        b1 = random_homogeneous_form(rng, g1, rng.randrange(2))
        kind = rng.randrange(3)
        if kind == 2:
            g2 = random_superalgebra(rng, n_even, n_odd)
            b2 = random_homogeneous_form(rng, g2, b1.parity)
        else:
            g2, b2 = transport(g1, b1, random_invertible_parity_map(rng, g1))
            if kind == 1:
                g2, b2 = perturb(rng, g2, b2)
        yield g1, b1, g2, b2


def test_exhausted_search_is_proved_exactly_without_an_isometry():
    outcomes = set()
    for g1, b1, g2, b2 in random_small_pairs(8, 300):
        res = search_isometry(g1, b1, g2, b2, budget=100_000)
        exists = brute_force_isometric(g1, b1, g2, b2)
        assert res.status == ("found" if exists else "not-found")
        if exists:
            assert verify_isometry(g1, b1, g2, b2, res.witness.images)[0]
        outcomes.add(res.status)
    assert outcomes == {"found", "not-found"}


def test_malformed_tables_leave_the_negative_unproved(hei_double):
    g, b = hei_double.algebra, hei_double.form
    table = [list(row) for row in g.bracket_table]
    table[0][1] ^= 1  # [p, q] no longer equals [q, p]
    bad = dataclasses.replace(g, bracket_table=tuple(map(tuple, table)))
    for g1, g2 in ((g, bad), (bad, g), (bad, bad)):
        res = search_isometry(g1, b, g2, b)
        if res.status == "found":
            assert verify_isometry(g1, b, g2, b, res.witness.images)[0]
        else:
            assert res.status == "budget-exhausted", (g1 is bad, g2 is bad)
            assert "not symmetric" in res.reason


def test_census_scale_self_decisions_follow_the_identity_seed():
    # the oddB-evenD recipes r_c of h'(0|7), extensions of dim 128: the
    # first generator has far more than 4096 candidates, and its identity
    # seed still goes first
    g, form, _ = hamiltonian(7)
    reps = outer_derivations(g, 0).representatives
    basis = compatible_subspace(g, form, "oddB-evenD", reps).basis
    assert len(basis) == 6

    def recipe(c):
        d = Derivation((0,) * g.dim, 0)
        for i, b in enumerate(basis):
            if c >> i & 1:
                d = d.add(b)
        return ExtensionRecipe("oddB-evenD", d)

    x = 1 << g.dim  # x follows the base in the extension's basis
    sample = random.Random(1).sample(range(1, 64), 6)
    assert sample == [9, 37, 55, 52, 49, 5]
    for c in sample:
        res = adapted_isometry_decision(g, form, recipe(c), recipe(c), budget=500)
        assert res.status == "found" and res.nodes <= 8, (c, res.nodes)
        assert res.witness.apply(x) == x
    res = adapted_isometry_decision(g, form, recipe(1), recipe(3), budget=20_000)
    assert (res.status, res.nodes) == ("found", 2053)
    assert res.witness.apply(x) == x


def random_recipe(rng, g, form, case, basis):
    """A recipe of the case with D in span(basis) and random a0, alpha,
    beta* and m; None when strict extend refuses it."""
    parity = case_parities(case)[1]
    d = Derivation((0,) * g.dim, parity)
    for b in basis:
        if rng.getrandbits(1):
            d = d.add(b)
    kw = {}
    if parity:
        sol = find_a0(g, d)
        if sol is None:
            return None
        kw["a0"] = sol.particular
        for k in sol.kernel_basis:
            kw["a0"] ^= k * rng.getrandbits(1)
    if case in ("evenB-evenD", "oddB-oddD"):
        k = len(g.odd_indices())
        polar = _odd_polar_matrix(g, form, d)
        kw["alpha"] = QuadraticForm(k, rng.getrandbits(k), polar)
    if case == "evenB-evenD":
        kw["beta_star"] = rng.getrandbits(1)
    if case == "oddB-oddD":
        kw["m"] = rng.getrandbits(1)
    recipe = ExtensionRecipe(case, d, **kw).normalized()
    try:
        extend(g, form, recipe)
    except NisLieError:
        return None
    return recipe


def seeded_extension_pairs(seed):
    """(base, form, isometry group of the base, recipe, recipe) of one case,
    each recipe accepted by strict extend: per base and case, two random
    recipes, and a random one with its transport by a random isometry pi0
    of the base.  The bases are every catalog entry with a form and
    dim <= 10, and, for the odd-form cases, h'(0|3) and h(0|3) (whose form
    is degenerate)."""
    rng = random.Random(seed)
    bases = [
        (obj.algebra, obj.form)
        for obj in map(named, entry_names(include_defective=False))
        if obj.form is not None and obj.algebra.dim <= 10
    ]
    bases += [hamiltonian(3)[:2], hamiltonian(3, derived=False)[:2]]
    cases = {0: ("evenB-evenD", "evenB-oddD"), 1: ("oddB-oddD", "oddB-evenD")}
    for g, form in bases:
        group = isometry_group(g, form)
        for case in cases[form.parity]:
            parity = case_parities(case)[1]
            basis = compatible_subspace(
                g, form, case, derivation_space(g, parity)
            ).basis
            recipes = []
            while len(recipes) < 3:
                recipe = random_recipe(rng, g, form, case, basis)
                recipes += [recipe] if recipe else []
            yield g, form, group, recipes[0], recipes[1]
            pi0 = rng.choice(group)
            inv = pi0.inverse()
            d = recipes[2].derivation
            moved = dataclasses.replace(
                recipes[2],
                derivation=dataclasses.replace(
                    d, images=tuple(pi0.apply(d.apply(w)) for w in inv.images)
                ),
                a0=None if recipes[2].a0 is None else pi0.apply(recipes[2].a0),
                alpha=recipes[2].alpha
                and transport_quadratic(g, recipes[2].alpha, pi0.images),
            )
            yield g, form, group, recipes[2], moved


def test_adapted_decision_matches_the_base_group_route():
    statuses = set()
    for a, form, group, src, tgt in seeded_extension_pairs(3):
        dec = adapted_isometry_decision(a, form, src, tgt)
        # the reference enumerates, so it answers found or a proof
        status, _ = reference_adapted_decision(a, form, src, tgt, group)
        want = "found" if status == "found" else "not-found"
        assert dec.status == want, (src, tgt, dec.reason)
        statuses.add((src.case, dec.status))
        if dec.status != "found":
            continue
        n = a.dim
        images = dec.witness.images
        assert images[n] == 1 << n  # x is fixed
        low = (1 << n) - 1
        pi0 = Isometry(tuple(w & low for w in images[:n]))
        t = pi0.inverse().apply(images[n + 1] & low)
        nu = images[n + 1] >> n & 1
        rebuilt = build_adapted_isometry(a, form, src, tgt, pi0.images, t, nu)
        assert rebuilt.images == images
    assert len(statuses) == 8
