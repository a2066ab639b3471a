import pytest

from nislie.catalog import (
    ba_1,
    cocycles_for,
    entry_names,
    gl,
    hamiltonian,
    heisenberg_0_2,
    manin_double,
    named,
    poisson,
    registry,
)
from nislie.derivations import outer_derivations
from nislie.errors import OutOfRange, UnknownName
from nislie.forms import check_nis
from nislie.superalgebra import bracket, validate
from oracles import (
    reference_h104_cocycles,
    reference_hamiltonian,
    reference_poisson,
    reference_top_bracket,
)


def _built(triple):
    g, form, basis = triple
    return g, form.gram.rows, form.parity, basis.monomials, basis.index


@pytest.mark.parametrize("m", range(2, 9))
def test_monomial_builders_match_the_pairwise_references(m):
    """hamiltonian (derived or not) and poisson (every squaring parameter)
    from the bracket terms give the pairwise builders' algebra, form and
    basis bit for bit."""
    for derived in (True, False):
        assert _built(hamiltonian(m, derived)) == _built(reference_hamiltonian(m, derived))
    for m_param in (0, 1) if m % 2 else (0,):
        assert _built(poisson(m, m_param)) == _built(reference_poisson(m, m_param))


def test_h105_top_bracket_matches_the_pairwise_reference():
    obj, cocycles, _ = cocycles_for("h1-0-5")
    assert cocycles["D6"] == reference_top_bracket(obj.algebra, obj.basis)


def test_h104_cocycles_match_the_paper_transcription():
    obj, cocycles, _ = cocycles_for("h1-0-4")
    want = reference_h104_cocycles(obj.algebra, obj.basis)
    assert list(cocycles) == list(want)
    for label, d in cocycles.items():
        assert d == want[label], label


def test_all_valid_entries_pass_axioms_and_nis():
    for name in entry_names(include_defective=False):
        obj = named(name)
        e = registry()[name]
        assert validate(obj.algebra).passed, name
        if obj.form is not None:
            assert check_nis(obj.algebra, obj.form).passed, name
        if e.sdim is not None:
            assert obj.algebra.sdim == e.sdim, name


def test_expected_out_dimensions():
    for name in entry_names():
        e = registry()[name]
        if e.out_dim is None:
            continue
        obj = named(name)
        oe, oo = outer_derivations(obj.algebra)
        assert oe.dim + oo.dim == e.out_dim, name


def test_defective_entries_are_flagged_and_fail():
    for name in entry_names():
        e = registry()[name]
        if e.valid:
            continue
        obj = named(name)
        assert e.note
        assert not validate(obj.algebra).passed or not check_nis(
            obj.algebra, obj.form
        ).passed, name


def test_manin_double_of_abelian_is_abelian_with_nis():
    from nislie.superalgebra import SuperAlgebra

    h = SuperAlgebra(("u", "v"), (0, 1), ((0, 0), (0, 0)), (0, 0))
    g, b = manin_double(h)
    assert all(
        g.bracket_table[i][j] == 0 for i in range(4) for j in range(4)
    )
    assert check_nis(g, b).passed
    g, b = manin_double(h, odd_dual=True)
    assert b.parity == 1
    assert check_nis(g, b).passed
    assert validate(g).passed


def test_manin_double_parities(hei_double, ba_double):
    g = hei_double.algebra
    assert [g.parity[g.index(n)] for n in ("p", "q", "z")] == [1, 1, 0]
    assert [g.parity[g.index(n)] for n in ("pstar", "qstar", "zstar")] == [
        1,
        1,
        0,
    ]


def test_hamiltonian_bounds_and_small_case():
    with pytest.raises(OutOfRange):
        hamiltonian(1)
    with pytest.raises(OutOfRange):
        hamiltonian(11)
    g, b, basis = hamiltonian(2, derived=True)
    assert g.dim == 2
    assert validate(g).passed
    assert check_nis(g, b).passed
    assert b.parity == 0


def test_hamiltonian_underived_form_degenerate():
    g, b, basis = hamiltonian(4, derived=False)
    assert g.dim == 15
    assert validate(g).passed
    rep = check_nis(g, b)
    assert not rep.non_degenerate  # the top monomial pairs with nothing


def test_h3_and_h6_validate():
    g, b, _ = hamiltonian(3, derived=True)
    assert validate(g).passed and check_nis(g, b).passed
    assert b.parity == 1


def test_poisson_even_m_is_valid():
    g, b, basis = poisson(4)
    assert g.dim == 16
    assert validate(g).passed
    assert check_nis(g, b).passed
    one = basis.find("")
    # the constant is central
    assert all(bracket(g, 1 << one, 1 << j) == 0 for j in range(g.dim))


def test_poisson_guards():
    with pytest.raises(OutOfRange):
        poisson(4, m_param=1)


def test_gl_structure(gl22):
    g, b = gl(1, 1)
    assert g.dim == 4
    assert validate(g).passed and check_nis(g, b).passed
    with pytest.raises(OutOfRange):
        gl(0, 1)
    g2 = gl22.algebra
    # [E12, E21] = E11 + E22
    e12 = 1 << g2.index("E12")
    e21 = 1 << g2.index("E21")
    assert bracket(g2, e12, e21) == (1 << g2.index("E11")) ^ (
        1 << g2.index("E22")
    )
    # identity is central
    ident = 0
    for nm in ("E11", "E22", "E33", "E44"):
        ident ^= 1 << g2.index(nm)
    assert all(bracket(g2, ident, 1 << j) == 0 for j in range(g2.dim))


def test_named_unknown():
    with pytest.raises(UnknownName):
        named("no-such-algebra")


def test_aliases():
    a = named("tilde-po-0-4")
    b = named("h104-D2ext")
    assert a.algebra.bracket_table == b.algebra.bracket_table


def test_hei_ba_bare():
    g = heisenberg_0_2()
    assert bracket(g, g.element("p"), g.element("q")) == g.element("z")
    g = ba_1()
    assert bracket(g, g.element("q"), g.element("theta")) == g.element("z")


def test_gram_matrices_are_antidiagonal(h104, h105):
    for obj in (h104, h105):
        n = obj.algebra.dim
        assert obj.form.gram.rows == [1 << (n - 1 - i) for i in range(n)]
