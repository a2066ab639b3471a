"""validate and check_nis against the per-triple reference loops.

The library decides Jacobi from a generating set, checking each pair
(i, j) of a generator only on the columns k > j, and the squaring rule
through products of adjoint matrices; check_nis proves invariance on the
middles in that walk's generators S and completing vectors E, and scans
the basis triples only when that proof fails or there is no walk.
oracles.reference_validate and oracles.reference_check_nis keep the
bracket()/dot() loop on every basis triple, and
oracles.reference_jacobi_walk the walk over every column.  Reports and
walks must agree exactly, witnesses, order and truncation included.  A
parity-preserving relabelling must map the reports onto each other,
one-sided flips of a bracket table or Gram matrix included.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nislie import forms, superalgebra
from nislie.catalog import entry_names, hamiltonian, named
from nislie.errors import DimensionMismatch
from nislie.forms import BilinearForm, check_nis
from nislie.superalgebra import SuperAlgebra, bracket, structurally_sound, validate
from oracles import (
    flip,
    reference_check_nis,
    reference_jacobi_walk,
    reference_validate,
    relabel,
)

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
        # the structural failures, but for the squares of even vectors
        assert structurally_sound(g) != any(
            f.axiom in ("alternating", "symmetry", "grading")
            and (len(f.witness) == 2 or g.parity[f.witness[0]] == 1)
            for f in validate(g).failures
        )
        seen.add((kind, validate(g).passed, check_nis(g, form).passed))
    # the flips reach every kind, and both verdicts of each check
    assert {kind for kind, _, _ in seen} == set(FLIPS)
    assert {v for _, v, _ in seen} == {True, False}
    assert {v for _, _, v in seen} == {True, False}


def route_flip(g, rng):
    """A seeded flip that reaches the Jacobi stage of validate.

    A symmetric bracket flip into the right parity keeps the table
    symmetric, alternating and graded; a flip of an odd square into the
    even part keeps Jacobi and can break only the squaring rule.
    """
    n = g.dim
    if rng.random() < 0.25 and g.odd_indices():
        i = rng.choice(g.odd_indices())
        return flip(g, None, "squaring", i, i, rng.choice(g.even_indices()))[0]
    i, j = rng.sample(range(n), 2)
    k = rng.choice([k for k in range(n) if g.parity[k] == g.parity[i] ^ g.parity[j]])
    return flip(g, None, "bracket-sym", i, j, k)[0]


@pytest.mark.parametrize("name, flips", [("h'(0|6)", 16), ("h1-0-5", 40)])
def test_generating_set_route_matches_reference_on_seeded_flips(name, flips):
    g = hamiltonian(6)[0] if name == "h'(0|6)" else named(name).algebra
    # far fewer generators than basis vectors (17 of 62, 10 of 30)
    assert validate(g).jacobi_generators < g.dim // 2
    rng = random.Random(f"generators:{name}")
    proved = set()
    for _ in range(flips):
        # a new basis order per flip gives a new generating set
        h = route_flip(relabel(g, None, rng)[0], rng)
        assert_same_reports(h, None)
        rep = validate(h)
        assert (rep.jacobi_generators is None) == any(
            f.axiom == "jacobi" for f in rep.failures
        )
        proved.add(rep.jacobi_generators is not None)
    # both the proof and the witness scan ran
    assert proved == {True, False}


def test_forced_witness_scan_gives_the_same_report(monkeypatch):
    rng = random.Random(20261018)
    algebras = [hamiltonian(6)[0], named("h1-0-5").algebra, named("po05-m0").algebra]
    algebras += [route_flip(algebras[1], rng) for _ in range(6)]
    routed = [validate(g, cap) for g in algebras for cap in CAPS]
    assert any(r.jacobi_generators is not None for r in routed)
    monkeypatch.setattr(superalgebra, "_jacobi_generators", lambda *args: None)
    # fresh copies: each algebra caches its walk (SuperAlgebra.jacobi_walk)
    scanned = [validate(replace(g), cap) for g in algebras for cap in CAPS]
    assert all(r.jacobi_generators is None for r in scanned)
    assert scanned == routed


def test_half_column_walk_matches_the_full_column_reference():
    walks = []
    for name in entry_names():
        g = named(name).algebra
        assert g.jacobi_walk == reference_jacobi_walk(g), name
        walks.append(g.jacobi_walk)
    base = named("h1-0-5").algebra
    rng = random.Random("walk:h1-0-5")
    for _ in range(40):
        h = route_flip(base, rng)
        assert h.jacobi_walk == reference_jacobi_walk(h)
        walks.append(h.jacobi_walk)
    g = relabel(hamiltonian(6)[0], None, random.Random("walk:h'(0|6)"))[0]
    assert g.jacobi_walk == reference_jacobi_walk(g)
    walks.append(g.jacobi_walk)
    # proofs and failures both
    assert None in walks and any(w is not None for w in walks)


def test_failed_invariance_proof_scans_like_the_reference():
    """Gram flips keep the table, so the walk; those that break invariance
    fail the proof on the walk's middles, and the scan lists witnesses."""
    g6, b6, _ = hamiltonian(6)
    pool = [(*relabel(g6, b6, random.Random("nis:h'(0|6)")), 3)]
    for name in entry_names():
        obj = named(name)
        if obj.form is not None and obj.algebra.jacobi_walk is not None:
            pool.append((obj.algebra, obj.form, 8))
    rng = random.Random(20261019)
    broken = 0
    for g, form, flips in pool:
        n = g.dim
        for _ in range(flips):
            kind = rng.choice(("gram-sym", "gram-one"))
            h, b = flip(g, form, kind, rng.randrange(n), rng.randrange(n), 0)
            assert h.jacobi_walk == g.jacobi_walk
            for cap in CAPS:
                assert check_nis(h, b, cap) == reference_check_nis(h, b, cap)
            broken += not check_nis(h, b).invariant
    assert broken >= 50


def test_passing_invariance_check_reads_only_the_walks_middles(monkeypatch):
    g, form = relabel(*hamiltonian(6)[:2], random.Random("nis:spy"))
    gens, completion = g.jacobi_walk
    defects, ad_plane = forms._invariance_defects, forms._ad_plane
    read, planes = [], []

    def spy_defects(rows, table, planes_, middles):
        read.append(list(middles))
        return defects(rows, table, planes_, middles)

    def spy_plane(row, n):
        planes.append(row)
        return ad_plane(row, n)

    monkeypatch.setattr(forms, "_invariance_defects", spy_defects)
    monkeypatch.setattr(forms, "_ad_plane", spy_plane)
    assert check_nis(g, form).passed
    assert read == [sorted({*gens, *completion})]
    assert len(planes) == len(read[0]) < g.dim // 2


def test_jacobi_failure_seen_only_by_the_last_generator():
    """[a, b] = c + d, [a, c] = c, [b, d] = a, all even.

    a alone closes to <a>, of codimension 3, and ad_a is a derivation; b
    then generates the rest.  The one failing triple (b, c, d) shows only
    in the pairs (b, c) and (b, d) of the last generator b.
    """
    names = ("a", "b", "c", "d")
    table = [[0] * 4 for _ in range(4)]
    for i, j, v in ((0, 1, 0b1100), (0, 2, 0b0100), (1, 3, 0b0001)):
        table[i][j] = table[j][i] = v
    g = SuperAlgebra(names, (0,) * 4, tuple(map(tuple, table)), (0,) * 4)
    a = 1
    for y in range(4):
        for z in range(4):
            ad_a_defect = bracket(g, a, table[y][z])
            ad_a_defect ^= bracket(g, bracket(g, a, 1 << y), 1 << z)
            ad_a_defect ^= bracket(g, 1 << y, bracket(g, a, 1 << z))
            assert not ad_a_defect
    for cap in CAPS:
        assert validate(g, cap) == reference_validate(g, cap)
    rep = validate(g)
    assert [(f.axiom, f.witness) for f in rep.failures] == [("jacobi", (1, 2, 3))]
    assert rep.jacobi_generators is None


def test_jacobi_generators_report_how_jacobi_was_decided():
    # at most two basis vectors: Jacobi holds on any alternating table
    assert validate(named("purely-odd").algebra).jacobi_generators == 0
    assert validate(named("h1-0-5").algebra).jacobi_generators == 10
    rep = validate(named("po05-m0").algebra)
    assert rep.failures[0].axiom == "jacobi" and rep.jacobi_generators is None
    # a structural failure ends the report before Jacobi
    g = flip(named("hei-double").algebra, None, "bracket-one", 0, 1, 3)[0]
    rep = validate(g)
    assert rep.failures[0].axiom == "symmetry" and rep.jacobi_generators is None


def test_bracket_value_outside_the_algebra_raises():
    # values are masks of basis vectors: a table with a bit at or above n,
    # or a negative value, is refused where it is built, so validate and
    # check_nis never see one
    g = named("hei-double").algebra
    n = g.dim
    i = g.odd_indices()[0]
    for top in (1 << n, 1 << (n + 3), -1):
        table = [list(r) for r in g.bracket_table]
        table[0][1] ^= top
        table[1][0] ^= top
        with pytest.raises(DimensionMismatch):
            SuperAlgebra(g.names, g.parity, tuple(map(tuple, table)), g.squaring)
        squaring = list(g.squaring)
        squaring[i] ^= top
        with pytest.raises(DimensionMismatch):
            SuperAlgebra(g.names, g.parity, g.bracket_table, tuple(squaring))


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
