"""Isometries between NIS superalgebras.

verify_isometry is the basis-level decision procedure (bilinearity and the
polarization argument make basis checks sufficient).  build_adapted_isometry
assembles the block maps of the four adapted-isometry constructions from
(pi0, t, nu) after checking the case's condition set against _shifted.
search_isometry, isometry_group and adapted_isometry_decision share one
budgeted generator-image backtracking (the first isometry it yields, or all
of them); the adapted decision runs it on the two extensions from the pair
(x, x), after the linear t-forcing route used by the negative results.

The backtracking fixes the images of a greedy generating sequence of g1
and closes each partial map under brackets and squares.  Both closures
grow a span that is already closed: only the vectors (or pairs) that
raised the rank in the last round are bracketed with the span, and the odd
ones squared.  A node pays only for what deciding it needs: the candidate
images of a generator are enumerated lazily in solution order, and each
is checked against the forms on the parent's closed span before the span
is copied and closed; the linear half of that check moves along the
solution order with the candidates, at one XOR a node.  The node budget
is the one bound on the work:
every candidate of a generator may be tried.  Every decision is a
Verdict: "found" with a witness, "not-found" (a proof), or
"budget-exhausted" when the node budget ran out or a bracket table is
malformed (see search_isometry).

Over GF(2) the scalar lambda of the adapted conditions is 1, which collapses
semi-triviality to a single affine solve: conjugating by an isometry of the
base preserves inner derivations, so an extension is adapted-isometric to an
inner-derivation extension exactly when its own derivation is inner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .derivations import Derivation, _sized, case_parities, cohomologous
from .errors import (
    ConditionViolated,
    DimensionMismatch,
    SearchBudgetExceeded,
    UnderdeterminedMap,
)
from .extension import LABELS, ExtensionRecipe, extend
from .forms import (
    BilinearForm,
    QuadraticForm,
    adjointness_defect,
    evaluate_on_algebra,
    transport_quadratic,
)
from .gf2 import (
    AffineSolution,
    GF2Matrix,
    SpanBasis,
    bits,
    combine,
    dot,
    restrict,
    solve_affine,
)
from .superalgebra import (
    SuperAlgebra,
    ad,
    bracket,
    centralizer,
    square_element,
    structurally_sound,
)


@dataclass(frozen=True)
class Isometry:
    images: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.images)

    def apply(self, x: int) -> int:
        return combine(self.images, x)

    def inverse(self) -> "Isometry":
        # row j of the inverse of the matrix with rows images is pi^-1(e_j)
        return Isometry(tuple(GF2Matrix(self.images, self.dim).inverse().rows))

    def compose(self, other: "Isometry") -> "Isometry":
        return Isometry(tuple(self.apply(w) for w in other.images))


def verify_isometry(
    g1: SuperAlgebra,
    b1: BilinearForm | None,
    g2: SuperAlgebra,
    b2: BilinearForm | None,
    images: Sequence[int],
) -> tuple[bool, tuple | None]:
    """Check bracket, squaring, and form preservation on basis instances."""
    n = g1.dim
    if g2.dim != n or len(images) != n:
        raise DimensionMismatch("isometry must map equal dimensions")
    for i in range(n):
        p = g2.parity_of(images[i])
        if images[i] == 0 or p != g1.parity[i]:
            return False, ("parity", i)
    if GF2Matrix(list(images), n).rank() != n:
        return False, ("invertible",)
    pi = Isometry(tuple(images))
    for i in range(n):
        for j in range(i + 1, n):
            if pi.apply(g1.bracket_table[i][j]) != bracket(
                g2, images[i], images[j]
            ):
                return False, ("bracket", i, j)
    for i in g1.odd_indices():
        if pi.apply(g1.squaring[i]) != square_element(g2, images[i]):
            return False, ("squaring", i)
    if b1 is not None and b2 is not None:
        moved = b2.matrix_on(images, images).rows
        for i, (p, q) in enumerate(zip(b1.gram.rows, moved)):
            if p != q:  # the first pair (i, j) in row order
                return False, ("form", i, next(bits(p ^ q)))
    return True, None


# ---------------------------------------------------------------------------
# Adapted isometries of double extensions
# ---------------------------------------------------------------------------


def _shifted(
    a: SuperAlgebra, form: BilinearForm, recipe: ExtensionRecipe, t: int
) -> ExtensionRecipe:
    """The normalized recipe shifted by t, which the adapted conditions
    compare with the pi0-transport of the target recipe.

    D + ad_t, alpha + B(t, s(.)), beta* + B(t, t), a0 + s(t) + D t and
    m + alpha(t) + B(t, s(t) + a0); the fields the case lacks stay None.
    """
    d = recipe.derivation
    shifted_d = Derivation(tuple(u ^ v for u, v in zip(d.images, ad(a, t))), d.parity)
    kw = {"derivation": shifted_d}
    if recipe.alpha is not None:
        # v -> B(t, s(v)) has values B(t, s(e_i)) and polar B(t, [e_i, e_j])
        odd = a.odd_indices()
        diag = sum(form.pair(t, a.squaring[i]) << k for k, i in enumerate(odd))
        polar = [
            row
            ^ sum(form.pair(t, a.bracket_table[i][j]) << k for k, j in enumerate(odd))
            for row, i in zip(recipe.alpha.polar.rows, odd)
        ]
        kw["alpha"] = QuadraticForm(
            len(odd), recipe.alpha.diag ^ diag, GF2Matrix(polar, len(odd))
        )
    if recipe.beta_star is not None:
        kw["beta_star"] = recipe.beta_star ^ form.pair(t, t)
    if recipe.a0 is not None:
        kw["a0"] = recipe.a0 ^ square_element(a, t) ^ d.apply(t)
    if recipe.m is not None:
        kw["m"] = (
            recipe.m
            ^ evaluate_on_algebra(a, recipe.alpha, t)
            ^ form.pair(t, square_element(a, t) ^ recipe.a0)
        )
    return replace(recipe, **kw)


def _transport_domain(a: SuperAlgebra, case: str) -> Sequence[int]:
    """The basis vectors on which the adapted conditions transport D."""
    form_parity, der_parity = case_parities(case)
    return a.even_indices() if form_parity == der_parity else range(a.dim)


def _adjointness_defect_rank(a, form, d: Derivation, domain) -> int:
    """Rank of B(D u, v) + B(u, D v) on the domain.

    ad_t adds nothing to it (B is invariant), and conjugating D by an
    isometry pi0 gives a congruent form, so the transport condition
    pi0^{-1} D~ pi0 = D + ad_t equates the ranks of D and D~.
    """
    return adjointness_defect(form, d.images, domain).rank()


def build_adapted_isometry(
    a: SuperAlgebra,
    form: BilinearForm,
    recipe_src: ExtensionRecipe,
    recipe_tgt: ExtensionRecipe,
    pi0: Sequence[int],
    t: int = 0,
    nu: int = 0,
) -> Isometry:
    """The block isometry between two extensions of (a, B) from (pi0, t, nu).

    Raises ConditionViolated naming the first failing condition,
    FieldNotInCase on a recipe field the case does not have, and
    DimensionMismatch on a derivation that is not one image inside a per
    basis vector.  The output
    always verifies (checked), mapping source basis [a..., x, x*/e] to the
    target's.
    """
    case = recipe_src.case
    if recipe_tgt.case != case:
        raise ConditionViolated("case", None, "recipes of different cases")
    recipe_src = recipe_src.strictly_normalized()
    recipe_tgt = recipe_tgt.strictly_normalized()
    for recipe in (recipe_src, recipe_tgt):
        _sized(a, recipe.derivation)
    ok, w = verify_isometry(a, form, a, form, pi0)
    if not ok:
        raise ConditionViolated("pi0", w, "pi0 is not an isometry of the base")
    form_parity, t_parity = case_parities(case)
    if t and a.parity_of(t) != t_parity:
        raise ConditionViolated("t-parity", None, f"t must have parity {t_parity}")

    shifted = _shifted(a, form, recipe_src, t)
    d_tgt = recipe_tgt.derivation
    pi = Isometry(tuple(pi0))
    pi_inv = pi.inverse()

    # derivation transport: pi0^{-1} D~ pi0 = D + ad_t
    labels = LABELS[case]
    for j in _transport_domain(a, case):
        if pi_inv.apply(d_tgt.apply(pi.images[j])) != shifted.derivation.images[j]:
            raise ConditionViolated(
                labels["transport"], (j,), "derivation transport fails"
            )

    if form_parity == t_parity:
        # alpha~ o pi0 against the shifted alpha: the first difference among
        # the values on the odd basis, else among the polar pairs (i, j > i)
        moved = transport_quadratic(a, recipe_tgt.alpha, pi_inv.images)
        alpha = shifted.alpha
        values = moved.diag ^ alpha.diag
        pairs = [
            s
            for s, (p, q) in enumerate(zip(moved.polar.rows, alpha.polar.rows))
            if (p ^ q) >> (s + 1)
        ]
        if values or pairs:
            raise ConditionViolated(
                labels["alpha_transport"],
                (a.odd_indices()[next(bits(values)) if values else pairs[0]],),
                "quadratic-form transport fails",
            )
    if shifted.beta_star != recipe_tgt.beta_star:
        raise ConditionViolated("beta-star", None, "B(x*,x*) relation fails")
    if shifted.a0 is not None and pi.apply(shifted.a0) != recipe_tgt.a0:
        raise ConditionViolated(labels["a0_transport"], None, "a0 transport fails")
    if shifted.m != recipe_tgt.m:
        raise ConditionViolated("3Cf", None, "the scalar m transport fails")

    n = a.dim
    xb, sb = 1 << n, 1 << (n + 1)
    images = []
    for j in range(n):
        im = pi.images[j]
        if form.pair(t, 1 << j):
            im |= xb
        images.append(im)
    images.append(xb)
    star = sb | pi.apply(t)
    if nu and not form_parity:
        star ^= xb
    images.append(star)
    result = Isometry(tuple(images))

    # constructive soundness: the produced map verifies on the two
    # extensions (guaranteed by the construction on valid input)
    src = extend(a, form, recipe_src, unchecked=True)
    tgt = extend(a, form, recipe_tgt, unchecked=True)
    ok, w = verify_isometry(
        src.algebra, src.form, tgt.algebra, tgt.form, result.images
    )
    if not ok:
        raise ConditionViolated("verify", w, "constructed map fails to verify")
    return result


# ---------------------------------------------------------------------------
# Semi-triviality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemiTriviality:
    status: str  # "semi-trivial" | "not-semi-trivial"
    witness_t: int | None = None
    target: ExtensionRecipe | None = None
    certificate: str = ""


def is_semi_trivial(
    a: SuperAlgebra, form: BilinearForm, recipe: ExtensionRecipe
) -> SemiTriviality:
    """Is the extension adapted-isometric to one by an inner derivation?

    Over GF(2) this reduces to D being inner: lambda = 1 and automorphism
    conjugation preserves inner derivations, so the transport condition
    pi0^{-1} ad_T pi0 = D + ad_t forces D = ad_{pi0^{-1}(T) + t}.  When D is
    inner the auxiliary data always transports: the target quadratic form
    alpha + B(t, s(.)) polarizes back to zero, the target a0 picks up s(t)
    with ad-compatibility from the squaring axiom, and beta*/m follow the
    corollary formulas.
    """
    recipe = recipe.strictly_normalized()
    d = recipe.derivation
    t = cohomologous(a, d, Derivation((0,) * a.dim, d.parity))
    if t is None:
        return SemiTriviality(
            status="not-semi-trivial",
            certificate=(
                "the affine system D = ad_t is inconsistent, and adapted"
                " isometries transport inner derivations to inner ones"
            ),
        )
    return SemiTriviality(
        status="semi-trivial", witness_t=t, target=_shifted(a, form, recipe, t)
    )


# ---------------------------------------------------------------------------
# Bracket-closure completion of partial maps
# ---------------------------------------------------------------------------


class _PairSpan:
    """Row space of (v, w) pairs encoding a partial linear map v -> w.

    Every row has its pivot below n1 (add refuses a pair that would map 0 to
    a nonzero vector), so basis.dim is the dimension of the domain.
    """

    def __init__(self, n1: int):
        self.n1 = n1
        self.basis = SpanBasis()
        self.mask1 = (1 << n1) - 1

    def clone(self) -> "_PairSpan":
        c = _PairSpan.__new__(_PairSpan)
        c.n1, c.mask1, c.basis = self.n1, self.mask1, self.basis.copy()
        return c

    def add(self, v: int, w: int) -> bool:
        """Insert the constraint pi(v) = w; False on inconsistency."""
        combined = self.basis.reduce(v | (w << self.n1))
        if combined:
            if not combined & self.mask1:
                return False  # forces 0 -> nonzero
            self.basis.add(combined)
        return True

    def image_of(self, v: int) -> int | None:
        combined = self.basis.reduce(v)
        if combined & self.mask1:
            return None
        return combined >> self.n1

    def pairs(self) -> list[tuple[int, int]]:
        mask1, n1 = self.mask1, self.n1
        return [(row & mask1, row >> n1) for row in self.basis.vectors()]


def complete_by_bracketing(
    g1: SuperAlgebra,
    g2: SuperAlgebra,
    pairs: Sequence[tuple[int, int]],
) -> tuple[int, ...]:
    """Extend generator images to a full map by closing under brackets
    and squarings to a fixed point; raises on inconsistency or
    underdetermination."""
    span = _PairSpan(g1.dim)
    for v, w in pairs:
        if not span.add(v, w):
            raise ValueError("inconsistent generator images")
    if not _closure(g1, g2, span, list(pairs)):
        raise ValueError("bracket or squaring closure is inconsistent")
    if span.basis.dim != g1.dim:
        raise UnderdeterminedMap(
            f"bracket closure determined rank {span.basis.dim} of {g1.dim}"
        )
    images = []
    for j in range(g1.dim):
        w = span.image_of(1 << j)
        if w is None:
            raise UnderdeterminedMap("basis vector not reachable")
        images.append(w)
    return tuple(images)


# ---------------------------------------------------------------------------
# Isometry search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """An isometry decision, of one of three kinds by status: "found" (the
    witness is the Isometry, which has passed verify_isometry), "not-found"
    (an exhaustive proof) or "budget-exhausted" (the node budget ran out,
    or the search ended on a table that is not structurally_sound; reason
    says which).  nodes counts the candidates tried."""

    status: str
    witness: Isometry | None = None
    nodes: int = 0
    reason: str = ""

    def to_data(self) -> dict:
        return {"status": self.status, "nodes": self.nodes, "reason": self.reason}


class _FormTest:
    """The form check of the pairs (v, w) against the closed span, as a
    test of w: B1(v, x) = B2(w, y) for each row (x, y) of span, and
    B1(v, v) = B2(w, w).

    span is form-consistent, so by bilinearity this is the form check on
    span plus (v, w), decided before anything is copied.  The part fixed by
    v and span is computed once: left is B1(v, .), and bit r of
    image(w) = combine(cols, w) is B2(w, y_r) and bit r of rhs is
    B1(v, x_r), for the r-th row (x_r, y_r).  image is linear, so the
    candidate enumeration carries it along (_candidate_images), and the
    quadratic half runs only where the linear half holds.
    """

    def __init__(self, b1, b2, span: _PairSpan, v: int):
        rows = span.pairs()
        self.left = left = b1.gram.vec_mat(v)
        self.rhs = sum(dot(left, x) << r for r, (x, _) in enumerate(rows))
        self.cols = GF2Matrix([b2.pair_row(y) for _, y in rows], b2.dim).transpose().rows
        self.vv, self.gram2 = dot(left, v), b2.gram

    def image(self, w: int) -> int:
        return combine(self.cols, w)

    def passes(self, w: int, image: int) -> bool:
        """The test of w, whose image(w) is image."""
        return image == self.rhs and dot(self.gram2.vec_mat(w), w) == self.vv


def _candidate_images(
    g2: SuperAlgebra,
    b2: BilinearForm,
    fits: _FormTest,
    parity: int,
    determined: list[tuple[int, int]],
    seed: int | None = None,
) -> Iterator[tuple[int, int]]:
    """Homogeneous candidates w for the generator v of fits, with
    B2(w, w_k) = B1(v, v_k) for the known pairs, each with fits.image(w).

    Every nonzero solution, lazily and in points() order, with `seed` moved
    to the front when it is one.  The images form the affine set
    image(particular) + span image(kernel), so the solutions are lifted
    tagged, e_i to e_i | image(e_i) << dim, and each step of points()
    moves a solution and its image at once.
    """
    idxs = g2.even_indices() if parity == 0 else g2.odd_indices()
    rows = [restrict(b2.pair_row(wk), idxs) for _, wk in determined]
    rhs = sum(dot(fits.left, vk) << r for r, (vk, _) in enumerate(determined))
    sol = solve_affine(GF2Matrix(rows, len(idxs)), rhs)
    if sol is None:
        return
    n, mask = g2.dim, (1 << g2.dim) - 1
    tagged = sol.map([1 << i | fits.cols[i] << n for i in idxs])
    if seed and not seed >> n:
        image = fits.image(seed)
        if tagged.index(seed | image << n) is not None:
            yield seed, image
    for x in tagged.points():
        w = x & mask
        if w and w != seed:
            yield w, x >> n


def _form_consistent(span: _PairSpan, b1, b2, pairs) -> bool:
    """B1(v, x) = B2(w, y) for each (v, w) of pairs and each (x, y) of span."""
    for v, w in pairs:
        # B1(v, .) + B2(w, .) on the combined coordinates x | y << n1
        defect = b1.gram.vec_mat(v) | b2.gram.vec_mat(w) << span.n1
        for row in span.basis.rows():
            if (defect & row).bit_count() & 1:
                return False
    return True


def _closure(g1, g2, span: _PairSpan, frontier, b1=None, b2=None) -> bool:
    """Close span in place under brackets and squares, from frontier.

    frontier lists the pairs not yet bracketed with the span.  Each round
    brackets them with a basis of the span and squares the odd ones; the
    pairs that raised the rank are the next frontier, so there are at most
    dim rounds.  False when the closure maps 0 to a nonzero vector or, with
    forms given, breaks them: span was form-consistent, so by bilinearity
    (and symmetry of the forms) only the pairs that raised the rank need a
    form check.
    """
    while frontier:
        new = []
        items = span.pairs()
        for v, w in frontier:
            for v2, w2 in items:
                bv, bw = bracket(g1, v, v2), bracket(g2, w, w2)
                if bv or bw:
                    before = span.basis.dim
                    if not span.add(bv, bw):
                        return False
                    if span.basis.dim > before:
                        new.append((bv, bw))
            if g1.parity_of(v) == 1 and g2.parity_of(w) == 1:
                sv, sw = square_element(g1, v), square_element(g2, w)
                if sv or sw:
                    before = span.basis.dim
                    if not span.add(sv, sw):
                        return False
                    if span.basis.dim > before:
                        new.append((sv, sw))
        if b1 is not None and not _form_consistent(span, b1, b2, new):
            return False
        frontier = new
    return True


def _grow(g1, g2, b1, b2, span: _PairSpan, pair) -> _PairSpan | None:
    """A copy of span plus pair, closed under brackets and squares; pair
    has passed the _FormTest of span.  None when the closure maps 0 to a
    nonzero vector or breaks the forms."""
    span = span.clone()
    if not span.add(*pair):
        return None
    return span if _closure(g1, g2, span, [pair], b1, b2) else None


def _close(g1, g2, b1, b2, span: _PairSpan, pairs) -> _PairSpan | None:
    """span plus the last of pairs, closed under brackets and squares.

    span is closed already, so the last pair is the whole frontier.  None
    when the closure maps 0 to a nonzero vector or breaks the forms.
    """
    v, w = pairs[-1]
    fits = _FormTest(b1, b2, span, v)
    if not fits.passes(w, fits.image(w)):
        return None
    return _grow(g1, g2, b1, b2, span, (v, w))


class _Isometries:
    """Generator-image backtracking over the isometries (g1, b1) -> (g2, b2).

    Iterating yields the image tuples in search order; each candidate image
    of a generator is a node, counted before its form check, and passing
    `budget` nodes raises SearchBudgetExceeded; the budget is the only
    bound, as every candidate of a generator is tried.  `seeds` maps a
    generator to its image to try first when that image is a candidate.
    """

    def __init__(self, g1, b1, g2, b2, budget, seeds=None):
        self.g1, self.b1, self.g2, self.b2 = g1, b1, g2, b2
        self.budget, self.seeds = budget, seeds or {}
        self.gens = g1.generating_sequence
        self.nodes = 0

    def __iter__(self):
        return self._backtrack(0, _PairSpan(self.g1.dim), [])

    def _backtrack(self, level: int, span: _PairSpan, determined):
        g1, g2 = self.g1, self.g2
        if level == len(self.gens):
            if span.basis.dim == g1.dim:
                images = tuple(span.image_of(1 << j) for j in range(g1.dim))
                if verify_isometry(g1, self.b1, g2, self.b2, images)[0]:
                    yield images
            return
        gi = self.gens[level]
        v = 1 << gi
        if span.image_of(v) is not None:
            yield from self._backtrack(level + 1, span, determined)
            return
        fits = _FormTest(self.b1, self.b2, span, v)
        cands = _candidate_images(
            g2, self.b2, fits, g1.parity[gi], determined, self.seeds.get(v)
        )
        for w, image in cands:
            self.nodes += 1
            if self.nodes > self.budget:
                raise SearchBudgetExceeded(
                    f"isometry enumeration exceeded {self.budget} nodes"
                )
            if not fits.passes(w, image):
                continue
            child = _grow(g1, g2, self.b1, self.b2, span, (v, w))
            if child is not None:
                pairs_now = determined + [(v, w)]
                yield from self._backtrack(level + 1, child, pairs_now)


def _first_isometry(search: _Isometries, span, determined, proof: str) -> Verdict:
    """The first leaf below the closed span of the pairs `determined`, or
    why there is none: `proof` when the search is exhaustive on two
    structurally sound tables, else the table that is not symmetric,
    alternating and graded."""
    try:
        images = next(search._backtrack(0, span, determined), None)
    except SearchBudgetExceeded as exc:
        return Verdict("budget-exhausted", nodes=search.nodes, reason=str(exc))
    if images is not None:
        return Verdict("found", Isometry(images), nodes=search.nodes)
    if structurally_sound(search.g1) and structurally_sound(search.g2):
        return Verdict("not-found", nodes=search.nodes, reason=proof)
    return Verdict(
        "budget-exhausted",
        nodes=search.nodes,
        reason="a bracket table is not symmetric, alternating and graded",
    )


def search_isometry(
    g1: SuperAlgebra,
    b1: BilinearForm,
    g2: SuperAlgebra,
    b2: BilinearForm,
    budget: int = 200_000,
    seed_pairs: Sequence[tuple[int, int]] | None = None,
) -> Verdict:
    """Backtracking over generator images with form/bracket propagation.

    A seed (v, w) makes w the first candidate for v when v is a basis
    vector of g1.generating_sequence and w is among its candidates,
    whatever its place among them; seeds on other vectors are ignored, and
    no seed constrains the search.

    The candidates of a generator are all the solutions of its equations,
    enumerated lazily in the order of AffineSolution.points, so only those
    tried are built.  Each counts as a node before its form check against
    the parent's span, so `budget` is the one bound on the work.

    The Verdict is "found" with the isometry as witness, "budget-exhausted"
    when the node budget ran out or the search ended on a table that is
    not structurally_sound (reason says which), and else "not-found", a
    proof by three facts:
    - every isometry pi is fixed by the images of the generating sequence,
      whose subalgebra closure is all of g1, since pi preserves brackets
      and squares;
    - the candidates for pi(v) are all nonzero solutions of v's parity to
      B2(w, pi(v_k)) = B1(v, v_k), equations every isometry satisfies;
    - a branch is pruned only when the bracket and squaring closure of its
      pairs maps 0 to a nonzero vector or breaks the forms, which no subset
      of the graph of an isometry does; the closure of the pairs of pi
      reaches the whole graph, so the leaf of pi has full rank.
    """
    if g1.sdim != g2.sdim or b1.parity != b2.parity:
        return Verdict("not-found", reason="superdimension or form parity differ")
    search = _Isometries(g1, b1, g2, b2, budget, dict(seed_pairs or ()))
    return _first_isometry(
        search, _PairSpan(g1.dim), [], "generator-image search exhausted"
    )


def isometry_group(
    g: SuperAlgebra, form: BilinearForm, budget: int = 500_000
) -> list[Isometry]:
    """All isometries of (g, form); exhaustive backtracking, small dims only.

    Raises SearchBudgetExceeded rather than returning a partial group, so
    callers can rely on completeness of a returned list.
    """
    return [Isometry(images) for images in _Isometries(g, form, g, form, budget)]


# ---------------------------------------------------------------------------
# Adapted-mode decision for extension pairs
# ---------------------------------------------------------------------------


def adapted_isometry_decision(
    a: SuperAlgebra,
    form: BilinearForm,
    recipe_src: ExtensionRecipe,
    recipe_tgt: ExtensionRecipe,
    budget: int = 200_000,
) -> Verdict:
    """Decide existence of an adapted isometry between two extensions.

    The adapted isometries are exactly the isometries Pi of the extensions
    with Pi(x) = x.  Adapted maps fix x by definition.  Conversely, let Pi
    fix x.  B(x, a) = B(x, x) = 0 and B(x, x*) = 1, so Pi(a) lies in
    x^perp = a + Kx and Pi(x*) has x*-coefficient 1.  As x is central, the
    a-projection pi0 of Pi on a preserves brackets and squares, and it
    preserves B because x is isotropic and orthogonal to a.  With pi0(t)
    the a-part of Pi(x*), 0 = B(Pi a_j, Pi x*) makes the Kx-part of Pi(a_j)
    equal to B(t, a_j): Pi is the block map of (pi0, t, nu).

    So the generator-image search of search_isometry, started from the
    closed pair (x, x) with every basis vector seeded to itself (pi0 = id
    first), decides the question: a leaf is an adapted isometry, and an
    exhausted search is a proof on the terms of search_isometry.  A recipe
    that breaks self-adjointness gives an extension table that is not
    symmetric, on which an exhausted search proves nothing.  So the
    Verdict is "found" with the adapted isometry as witness, "not-found"
    (a proof, by a linear route or the search) or "budget-exhausted" (the
    node budget ran out, or the search ended on an unsound table; reason
    says which).  A recipe field the case does not have raises
    FieldNotInCase, and a derivation of the wrong size DimensionMismatch.

    Two linear routes run first.  The rank of the self-adjointness defect
    (_adjointness_defect_rank) is the same on both sides of an adapted
    isometry, which separates a self-adjoint recipe from one that is not.
    t-forcing: when both derivations vanish on the even part, the transport
    condition forces [t, a_even] = 0 whatever pi0 is, and the pi0-free
    conditions can refute every such t.
    """
    recipe_src = recipe_src.strictly_normalized()
    recipe_tgt = recipe_tgt.strictly_normalized()
    for recipe in (recipe_src, recipe_tgt):
        _sized(a, recipe.derivation)
    if recipe_src.case != recipe_tgt.case:
        return Verdict("not-found", reason="extension cases differ")
    domain = _transport_domain(a, recipe_src.case)
    rank_src, rank_tgt = (
        _adjointness_defect_rank(a, form, r.derivation, domain)
        for r in (recipe_src, recipe_tgt)
    )
    if rank_src != rank_tgt:
        return Verdict(
            "not-found",
            reason="B(D u, v) + B(u, D v) has different ranks on the two sides",
        )
    _, t_parity = case_parities(recipe_src.case)
    t_idxs = a.odd_indices() if t_parity else a.even_indices()
    evens = a.even_indices()
    if not any(
        d.images[j]
        for d in (recipe_src.derivation, recipe_tgt.derivation)
        for j in evens
    ):
        # [t, a_even] = 0, independently of pi0
        kernel = centralizer(a, evens, t_idxs)
        ts = AffineSolution(0, tuple(kernel))
        if len(kernel) <= 12 and all(
            _pi0_free_conditions_fail(a, form, recipe_src, recipe_tgt, t)
            for t in ts
        ):
            return Verdict(
                "not-found",
                reason=(
                    "every t with [t, a_even] = 0 violates a pi0-free"
                    " condition (m / a0 / beta* transport)"
                ),
            )
    src = extend(a, form, recipe_src, unchecked=True)
    tgt = extend(a, form, recipe_tgt, unchecked=True)
    g1, b1, g2, b2 = src.algebra, src.form, tgt.algebra, tgt.form
    # x is central, isotropic and squares to 0 in both, so (x, x) closes
    fixed = [(1 << src.x_index, 1 << tgt.x_index)]
    start = _close(g1, g2, b1, b2, _PairSpan(g1.dim), fixed)
    identity = {1 << i: 1 << i for i in range(g1.dim)}
    search = _Isometries(g1, b1, g2, b2, budget, identity)
    return _first_isometry(
        search, start, fixed, "no isometry of the extensions fixes x"
    )


def _pi0_free_conditions_fail(a, form, recipe_src, recipe_tgt, t) -> bool:
    """Whether t breaks an adapted condition that does not involve pi0: the
    m and beta* relations, or a0 = 0 on one side only (pi0 is a bijection
    and the target a0 is the pi0-image of the shifted one)."""
    shifted = _shifted(a, form, recipe_src, t)
    return (
        shifted.m != recipe_tgt.m
        or shifted.beta_star != recipe_tgt.beta_star
        or (shifted.a0 == 0) != (recipe_tgt.a0 == 0)
    )
