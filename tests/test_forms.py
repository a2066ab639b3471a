import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nislie.catalog import entry_names, h104_alphas, hei_even_recipe, named
from nislie.errors import DegeneratePolar, NotAlternating, OutOfRange
from nislie.forms import (
    BilinearForm,
    QuadraticForm,
    arf_invariant,
    check_nis,
    darboux_form,
    evaluate_on_algebra,
    is_alternating,
    quadratic_lifts,
)
from nislie.gf2 import GF2Matrix, bits


def random_alternating(rng, n):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return GF2Matrix(rows, n)


def test_pair_row_is_the_gram_times_y():
    # pair_row sums Gram columns; mat_vec takes a dot product per row, so
    # the two agree on any Gram, symmetric or not
    rng = random.Random("pair_row")
    forms = [named(name).form for name in entry_names()]
    forms = [f for f in forms if f is not None]
    forms.append(BilinearForm(GF2Matrix([0b011, 0b100, 0b001], 3), 0))
    assert forms[-1].gram != forms[-1].gram.transpose()
    for form in forms:
        for _ in range(8):
            y, x = rng.getrandbits(form.dim), rng.getrandbits(form.dim)
            assert form.pair_row(y) == form.gram.mat_vec(y)
            assert form.pair(x, y) == bin(x & form.gram.mat_vec(y)).count("1") % 2


# --- check_nis ---------------------------------------------------------------


def test_nis_pass_even_and_odd(hei_double, h105):
    rep = check_nis(hei_double.algebra, hei_double.form)
    assert rep.passed and hei_double.form.parity == 0
    rep = check_nis(h105.algebra, h105.form)
    assert rep.passed and h105.form.parity == 1


def test_nis_detects_rank_drop(h104):
    g, b = h104.algebra, h104.form
    rows = list(b.gram.rows)
    # zero out one antidiagonal pair
    rows[0] = 0
    rows[g.dim - 1] &= ~1
    bad = BilinearForm(GF2Matrix(rows, g.dim), b.parity)
    rep = check_nis(g, bad)
    assert not rep.non_degenerate


def test_nis_detects_invariance_break(hei_double):
    # removing the (p, p*) pairing breaks B([q,z*],p) = B(q,[z*,p])
    g, b = hei_double.algebra, hei_double.form
    rows = list(b.gram.rows)
    i, j = g.index("p"), g.index("pstar")
    rows[i] ^= 1 << j
    rows[j] ^= 1 << i
    bad = BilinearForm(GF2Matrix(rows, g.dim), b.parity)
    rep = check_nis(g, bad)
    assert not rep.invariant
    witnesses = [w for kind, w in rep.witnesses if kind == "invariant"]
    assert witnesses
    for (a, c, d) in witnesses[:3]:
        from nislie.superalgebra import bracket

        lhs = bad.pair(bracket(g, 1 << a, 1 << c), 1 << d)
        rhs = bad.pair(1 << a, bracket(g, 1 << c, 1 << d))
        assert lhs != rhs


# --- quadratic forms ---------------------------------------------------------


def test_evaluate_hei_alpha(hei_double):
    # alpha(mu p + nu q + lam p* + beta q*) = mu lam + nu beta (A = 0)
    g = hei_double.algebra
    alpha = hei_even_recipe(g).alpha
    names = ("p", "q", "pstar", "qstar")
    for mask in range(16):
        co = [(mask >> t) & 1 for t in range(4)]
        x = 0
        for c, nm in zip(co, names):
            if c:
                x ^= g.element(nm)
        mu, nu, lam, beta = co
        assert evaluate_on_algebra(g, alpha, x) == (mu & lam) ^ (nu & beta)
    assert evaluate_on_algebra(g, alpha, 0) == 0


def test_evaluate_h104_alpha6(h104):
    # alpha6(a) = lambda2 lambda7 + lambda3 lambda6 in the odd coordinates
    g, basis = h104.algebra, h104.basis
    alpha6 = h104_alphas(g, basis)["alpha6"]
    odd = g.odd_indices()
    rng = random.Random(2)
    for _ in range(50):
        lam = [rng.getrandbits(1) for _ in range(8)]
        x = 0
        for c, i in zip(lam, odd):
            if c:
                x ^= 1 << i
        want = (lam[1] & lam[6]) ^ (lam[2] & lam[5])
        assert evaluate_on_algebra(g, alpha6, x) == want


def test_polar_of_matches_exhaustive(hei_double):
    g = hei_double.algebra
    alpha = hei_even_recipe(g).alpha
    # polar(a, b) = s t~ + s~ t + w u~ + w~ u in the (p, q, p*, q*) coords
    pol = alpha.polar
    for u in range(16):
        for v in range(16):
            direct = (
                alpha.evaluate(u ^ v) ^ alpha.evaluate(u) ^ alpha.evaluate(v)
            )
            via_matrix = 0
            for i in bits(u):
                for j in bits(v):
                    via_matrix ^= pol.entry(i, j)
            assert direct == via_matrix
            s, w, _, _ = [(u >> t) & 1 for t in range(4)]
            st_, wt, ut, vt = [(v >> t) & 1 for t in range(4)]
            expected = (
                (s & ut) ^ (((u >> 2) & 1) & st_) ^ (w & vt) ^ (((u >> 3) & 1) & wt)
            )
            assert direct == expected


def test_polar_random_exhaustive():
    rng = random.Random(9)
    pol = random_alternating(rng, 6)
    q = QuadraticForm(6, rng.getrandbits(6), pol)
    for u in range(64):
        for v in range(64):
            direct = q.evaluate(u ^ v) ^ q.evaluate(u) ^ q.evaluate(v)
            via = 0
            for i in bits(u):
                for j in bits(v):
                    via ^= pol.entry(i, j)
            assert direct == via


def test_zero_form():
    q = QuadraticForm.zero(4)
    assert all(q.evaluate(x) == 0 for x in range(16))
    assert q.polar == GF2Matrix.zeros(4, 4)


def test_quadratic_lifts():
    rng = random.Random(12)
    pol = random_alternating(rng, 4)
    fam = quadratic_lifts(pol)
    assert fam.dimension == 4
    members = list(fam)
    assert len(members) == 16
    for q in members:
        assert q.polar == pol
        # recompute the polar by evaluation
        for i in range(4):
            for j in range(4):
                val = (
                    q.evaluate((1 << i) | (1 << j)) ^ q.evaluate(1 << i) ^ q.evaluate(1 << j)
                    if i != j
                    else 0
                )
                assert val == pol.entry(i, j)


def test_quadratic_lifts_rejects_non_alternating():
    with pytest.raises(NotAlternating):
        quadratic_lifts(GF2Matrix([1, 0], 2))  # nonzero diagonal
    with pytest.raises(NotAlternating):
        quadratic_lifts(GF2Matrix([0b10, 0b00], 2))  # asymmetric


def test_lift_family_zero_polar():
    fam = quadratic_lifts(GF2Matrix.zeros(3, 3))
    got = {q.diag for q in fam}
    assert got == set(range(8))


# --- Arf ---------------------------------------------------------------------


def test_arf_darboux_small():
    for n in (1, 2, 3):
        for a in (0, 1):
            assert arf_invariant(darboux_form(n, a)) == a


def test_arf_explicit_n1():
    # alpha = l1 l2 + l1^2 + l2^2 takes values (0, 1, 1, 1)
    q = QuadraticForm(2, 0b11, GF2Matrix([0b10, 0b01], 2))
    vals = [q.evaluate(x) for x in range(4)]
    assert vals == [0, 1, 1, 1]
    assert arf_invariant(q) == 1


def test_arf_hei_alpha(hei_double):
    alpha = hei_even_recipe(hei_double.algebra).alpha
    assert arf_invariant(alpha) == 0


def test_arf_degenerate_guard():
    q = QuadraticForm(2, 0, GF2Matrix.zeros(2, 2))
    with pytest.raises(DegeneratePolar):
        arf_invariant(q)


def test_arf_refuses_more_than_24_generators():
    with pytest.raises(OutOfRange, match="beyond 24"):
        arf_invariant(darboux_form(13, 0))


def test_arf_invariant_under_polar_preserving_maps():
    # conjugate by random symplectic transvections T_v(x) = x + B(x,v) v
    rng = random.Random(77)
    for n_pairs in (1, 2, 3):
        for a in (0, 1):
            q = darboux_form(n_pairs, a)
            n = 2 * n_pairs
            pol = q.polar

            def pair(x, y):
                out = 0
                for i in bits(x):
                    for j in bits(y):
                        out ^= pol.entry(i, j)
                return out

            for _ in range(10):
                images = [1 << i for i in range(n)]
                for _ in range(4):
                    v = rng.getrandbits(n) or 1
                    images = [
                        x ^ (v if pair(x, v) else 0) for x in images
                    ]
                mat = GF2Matrix(
                    [
                        sum(((images[c] >> r) & 1) << c for c in range(n))
                        for r in range(n)
                    ],
                    n,
                )
                assert mat.rank() == n
                diag = 0
                rows = [0] * n
                for i in range(n):
                    if q.evaluate(images[i]):
                        diag |= 1 << i
                    for j in range(i + 1, n):
                        val = (
                            q.evaluate(images[i] ^ images[j])
                            ^ q.evaluate(images[i])
                            ^ q.evaluate(images[j])
                        )
                        if val:
                            rows[i] |= 1 << j
                            rows[j] |= 1 << i
                conj = QuadraticForm(n, diag, GF2Matrix(rows, n))
                assert conj.polar == pol  # transvections preserve the polar
                assert arf_invariant(conj) == a


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
@settings(max_examples=64, deadline=None)
def test_property_scaling(diag, x):
    q = QuadraticForm(4, diag, GF2Matrix.zeros(4, 4))
    # q(lambda x) = lambda^2 q(x); over GF(2) the only cases are 0 and 1
    assert q.evaluate(0) == 0
    assert q.evaluate(x) == q.evaluate(x)


def test_is_alternating():
    assert is_alternating(GF2Matrix.zeros(3, 3))
    assert not is_alternating(GF2Matrix([1, 0, 0], 3))


def test_lift_family_contains_catalog_alpha(hei_double):
    # the lifts of B(., D .) on the odd part include the catalog quadratic
    # form for both values of its free diagonal parameter
    from nislie.extension import _odd_polar_matrix

    g, b = hei_double.algebra, hei_double.form
    rec = hei_even_recipe(g)
    polar = _odd_polar_matrix(g, b, rec.derivation)
    fam = quadratic_lifts(polar)
    assert fam.dimension == 4
    members = {(q.diag, q.polar) for q in fam}
    assert (rec.alpha.diag, rec.alpha.polar) in members
    # parameter A = 1 puts the diagonal on the q and q* coordinates
    odd = g.odd_indices()
    pos = {i: k for k, i in enumerate(odd)}
    a_diag = (1 << pos[g.index("q")]) | (1 << pos[g.index("qstar")])
    assert (a_diag, polar) in members
