"""validate and check_nis against the per-triple reference loops.

The library decides Jacobi, the squaring rule and invariance through
products of adjoint matrices; oracles.reference_validate and
oracles.reference_check_nis keep the bracket()/dot() loop on every basis
triple.  Reports must agree exactly, witnesses, order and truncation
included.  A parity-preserving relabelling must map the reports onto each
other, one-sided flips of a bracket table or Gram matrix included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nislie.catalog import entry_names, named
from nislie.errors import DimensionMismatch
from nislie.forms import BilinearForm, check_nis
from nislie.superalgebra import SuperAlgebra, validate
from oracles import flip, reference_check_nis, reference_validate, relabel

CAPS = (1, 4, 64)
FLIPS = ("bracket-sym", "bracket-one", "squaring", "gram-sym", "gram-one")


def assert_same_reports(g, form):
    for cap in CAPS:
        assert validate(g, cap) == reference_validate(g, cap)
        if form is not None:
            assert check_nis(g, form, cap) == reference_check_nis(g, form, cap)


def assert_witnesses_at_wrong_entries(g, form):
    """Each grading and parity witness (i, j) names an entry that is wrong."""
    for f in validate(g).failures:
        if f.axiom == "grading" and len(f.witness) == 2:
            i, j = f.witness
            want = g.parity[i] ^ g.parity[j]
            assert g.bracket_table[i][j] & (g.odd_mask if want == 0 else g.even_mask)
    for kind, witness in check_nis(g, form).witnesses:
        if kind == "parity":
            i, j = witness
            assert form.gram.entry(i, j)
            assert g.parity[i] ^ g.parity[j] != form.parity


def test_checks_match_reference_loops_on_catalog():
    for name in entry_names():
        obj = named(name)
        assert_same_reports(obj.algebra, obj.form)


def test_checks_match_reference_loops_on_seeded_flips():
    pool = [named(name) for name in entry_names()]
    pool = [obj for obj in pool if obj.form is not None]
    rng = random.Random(20261018)
    seen = set()
    for _ in range(300):
        obj = rng.choice(pool)
        n = obj.algebra.dim
        kind = rng.choice(FLIPS)
        g, form = flip(
            obj.algebra, obj.form, kind,
            rng.randrange(n), rng.randrange(n), rng.randrange(n),
        )
        assert_same_reports(g, form)
        assert_witnesses_at_wrong_entries(g, form)
        seen.add((kind, validate(g).passed, check_nis(g, form).passed))
    # the flips reach every kind, and both verdicts of each check
    assert {kind for kind, _, _ in seen} == set(FLIPS)
    assert {v for _, v, _ in seen} == {True, False}
    assert {v for _, _, v in seen} == {True, False}


def test_bracket_value_outside_the_algebra_raises():
    obj = named("hei-double")
    g, n = obj.algebra, obj.algebra.dim
    table = [list(r) for r in g.bracket_table]
    table[0][1] ^= 1 << n
    table[1][0] ^= 1 << n
    bad = SuperAlgebra(g.names, g.parity, tuple(map(tuple, table)), g.squaring)
    with pytest.raises(DimensionMismatch):
        validate(bad)
    with pytest.raises(DimensionMismatch):
        check_nis(bad, obj.form)


# witness positions that are unordered, so a relabelling may reorder them
UNORDERED = {"alternating", "symmetry", "grading", "jacobi", "symmetric", "parity"}


def named_witnesses(g, items):
    out = []
    for kind, witness in items:
        names = [g.names[i] for i in witness]
        out.append((kind, tuple(sorted(names) if kind in UNORDERED else names)))
    return sorted(out)


SMALL = [name for name in entry_names() if named(name).algebra.dim <= 30]


@given(
    st.sampled_from(SMALL),
    st.sampled_from((None,) + FLIPS),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_relabelling_keeps_verdicts(name, kind, seed):
    obj = named(name)
    rng = random.Random(seed)
    g, form = obj.algebra, obj.form
    if kind is not None and not (form is None and kind.startswith("gram")):
        n = g.dim
        g, form = flip(
            g, form, kind, rng.randrange(n), rng.randrange(n), rng.randrange(n)
        )
    g2, form2 = relabel(g, form, rng)
    unbounded = 10**9
    rep, rep2 = validate(g, unbounded), validate(g2, unbounded)
    nis = nis2 = None
    if form is not None:
        nis, nis2 = check_nis(g, form, unbounded), check_nis(g2, form2, unbounded)
    assert rep.passed == rep2.passed
    assert (nis is None or nis.passed) == (nis2 is None or nis2.passed)
    # the structural checks read both triangles, so one-sided flips of a
    # bracket table or Gram matrix keep their flags and witnesses too
    assert named_witnesses(g, ((f.axiom, f.witness) for f in rep.failures)) == (
        named_witnesses(g2, ((f.axiom, f.witness) for f in rep2.failures))
    )
    if nis is not None:
        flags = ("symmetric", "invariant", "non_degenerate", "parity_homogeneous")
        assert [getattr(nis, f) for f in flags] == [getattr(nis2, f) for f in flags]
        assert named_witnesses(g, nis.witnesses) == named_witnesses(
            g2, nis2.witnesses
        )
