"""Double extensions: the four cases and the inverse reduction.

Each case adjoins a central element x and a derivation carrier
(x* or e) to a NIS superalgebra, after checking the case's conditions.
The reducer splits a 2-dimensional slice back off a given central element
and recovers the full recipe, bit-exactly on constructor output.

Case tags (form parity - derivation parity).  This module owns what a case
means; its recipe fields follow from the two parities (recipe_fields):
  evenB-evenD   x even, x* even; a quadratic form alpha and beta*
  evenB-oddD    x odd, x* odd; a0
  oddB-oddD     x even, e odd; alpha, a0 and the scalar m
  oddB-evenD    x odd, e even; nothing beyond D
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .derivations import (
    Derivation,
    _sized,
    case_parities,
    compatibility_values,
    is_derivation,
)
from .errors import (
    CaseParityMismatch,
    ConditionViolated,
    DimensionMismatch,
    FieldNotInCase,
    HypothesisNotMet,
    SplitsOff,
)
from .forms import BilinearForm, QuadraticForm
from .gf2 import GF2Matrix, bits, combine, dependencies, restrict, solve_affine, span_basis
from .superalgebra import (
    SuperAlgebra,
    ad,
    bracket,
    center,
    square_element,
    squares_span,
)


def recipe_fields(case: str) -> tuple[str, ...]:
    """The recipe fields of a case: alpha when B and D have equal parity
    (x is even), a0 when D is odd, m when both are odd, beta* when both are
    even."""
    b, d = case_parities(case)
    has = {"alpha": b == d, "a0": d == 1, "m": b == d == 1, "beta_star": b == d == 0}
    return tuple(f for f, yes in has.items() if yes)


def refuse_foreign_fields(case: str, **values) -> None:
    """Raise FieldNotInCase for the first field given a value (not None)
    that recipe_fields(case) does not list."""
    has = recipe_fields(case)
    for field, value in values.items():
        if value is not None and field not in has:
            raise FieldNotInCase(field, case)


# The paper's label of each condition per case, "-" where the case has no
# such condition: self-adjointness, B(D a, a) = 0 on the even part, the polar
# of alpha (and B(D a, a) = 0 on the odd part), D^2 = ad_a0 and D(a0) = 0 (the
# hypotheses), then the derivation, alpha and a0 transport (adapted maps).
_CONDITIONS = "self_adjoint diagonal polar square a0 transport alpha_transport a0_transport"
LABELS = {
    case: dict(zip(_CONDITIONS.split(), row.split()))
    for case, row in {
        "evenB-evenD": "D1  D1   D3       -   -   Cd  Ca  -",
        "evenB-oddD": "2D1 -    -        2D2 2D3 Cd  -   a0-transport",
        "oddB-oddD": "3D1 3D1p 3D-polar 3D2 3D3 3Cd 3Ca 3Ce",
        "oddB-evenD": "4D1 -    -        -   -   4Cd -   -",
    }.items()
}


@dataclass(frozen=True)
class ExtensionRecipe:
    case: str
    derivation: Derivation
    alpha: QuadraticForm | None = None
    a0: int | None = None
    m: int | None = None
    beta_star: int | None = None

    def normalized(self) -> "ExtensionRecipe":
        """Fill in the case's defaults (0 but for alpha) and drop the fields
        it does not have."""
        has = recipe_fields(self.case)
        kw = {f: (getattr(self, f) or 0) if f in has else None for f in ("a0", "m", "beta_star")}
        return replace(self, alpha=self.alpha if "alpha" in has else None, **kw)

    def strictly_normalized(self) -> "ExtensionRecipe":
        """normalized(), after refusing (FieldNotInCase) a field given a
        value that the case does not have."""
        refuse_foreign_fields(
            self.case, alpha=self.alpha, a0=self.a0, m=self.m, beta_star=self.beta_star
        )
        return self.normalized()


@dataclass(frozen=True)
class ExtensionResult:
    algebra: SuperAlgebra
    form: BilinearForm
    x_index: int
    star_index: int
    recipe: ExtensionRecipe


def _odd_polar_matrix(g: SuperAlgebra, form: BilinearForm, d: Derivation) -> GF2Matrix:
    """B(D(.), .) restricted to the odd part, as a k x k matrix."""
    odd = g.odd_indices()
    return form.matrix_on([d.images[i] for i in odd], [1 << j for j in odd])


def check_conditions(
    a: SuperAlgebra, form: BilinearForm, recipe: ExtensionRecipe
) -> None:
    """Raise ConditionViolated at the first failing case hypothesis.

    The hypotheses on D are evaluated as derivations defines them:
    compatibility_values (what compatible_subspace cuts by), then ad_a0 =
    D^2 and D(a0) = 0 (what find_a0 solves).  In order, with the case's
    LABELS: D is a derivation (Der); self-adjointness, first pair
    (i, j >= i) in row order; B(D e_i, e_i) = 0 on even e_i (diagonal),
    then on odd e_i (polar, as polar forms are alternating); alpha given,
    of the odd part's size (polar); its polar entries (polar); for odd D,
    a0 even (a0-parity), D^2 = ad_a0 at the first failing e_j (square),
    D(a0) = 0 (a0).
    """
    case = recipe.case
    form_parity, der_parity = case_parities(case)
    d = recipe.derivation
    if form.parity != form_parity or d.parity != der_parity:
        raise CaseParityMismatch(
            f"case {case} expects B parity {form_parity}, D parity {der_parity}"
        )
    ok, witness = is_derivation(a, d)
    if not ok:
        raise ConditionViolated("Der", witness, "D is not a derivation")

    n = a.dim
    labels = LABELS[case]
    names = a.names
    failing = compatibility_values(form, case, d)
    if failing & ((1 << n * n) - 1):
        i, j = divmod(next(bits(failing)), n)
        raise ConditionViolated(
            labels["self_adjoint"],
            (i, j),
            f"B(D {names[i]}, {names[j]}) != B({names[i]}, D {names[j]})",
        )
    diagonal = failing >> (n * n)
    for condition, mask in (("diagonal", a.even_mask), ("polar", a.odd_mask)):
        if diagonal & mask:
            i = next(bits(diagonal & mask))
            raise ConditionViolated(
                labels[condition], (i, i), f"B(D {names[i]}, {names[i]}) = 1"
            )

    if form_parity == der_parity:
        alpha = recipe.alpha
        polar_label = labels["polar"]
        if alpha is None or alpha.n != len(a.odd_indices()):
            raise ConditionViolated(
                polar_label, None, "quadratic form missing or of wrong size"
            )
        want = _odd_polar_matrix(a, form, d)
        odd = a.odd_indices()
        for i, (got, row) in enumerate(zip(alpha.polar.rows, want.rows)):
            if got != row:
                raise ConditionViolated(
                    polar_label,
                    (odd[i], odd[next(bits(got ^ row))]),
                    "polar(alpha) != B(D ., .) on the odd part",
                )

    if der_parity == 1:
        a0 = recipe.a0 or 0
        if a0 >> n:
            raise DimensionMismatch("a0 outside the algebra")
        if a0 & a.odd_mask:
            raise ConditionViolated("a0-parity", None, "a0 must be even")
        for j, (got, image) in enumerate(zip(ad(a, a0), d.images)):
            if got != d.apply(image):
                raise ConditionViolated(labels["square"], (j,), f"D^2 != ad_a0 at {names[j]}")
        if d.apply(a0):
            raise ConditionViolated(labels["a0"], None, "D(a0) != 0")


def _unique_names(base: tuple[str, ...], wanted: list[str]) -> list[str]:
    taken = set(base)
    out = []
    for w in wanted:
        name, k = w, 2
        while name in taken:
            name = f"{w}{k}"
            k += 1
        taken.add(name)
        out.append(name)
    return out


def extend(
    a: SuperAlgebra,
    form: BilinearForm,
    recipe: ExtensionRecipe,
    unchecked: bool = False,
) -> ExtensionResult:
    """Build the double extension for the recipe's case.

    unchecked=True skips the hypothesis checks and materializes the literal
    structure; the result need not satisfy the superalgebra axioms then.
    A recipe field the case does not have is refused either way, and so is
    a derivation that is not one image inside a per basis vector.
    """
    recipe = recipe.strictly_normalized()
    if not unchecked:
        check_conditions(a, form, recipe)
    form_parity, der_parity = case_parities(recipe.case)
    d = _sized(a, recipe.derivation)
    n = a.dim
    xi, si = n, n + 1

    star_name = "e" if form_parity else "xstar"
    names = tuple(a.names) + tuple(_unique_names(a.names, ["x", star_name]))
    parity = tuple(a.parity) + (form_parity ^ der_parity, der_parity)

    odd = a.odd_indices()
    odd_units = [1 << j for j in odd]
    alpha = recipe.alpha
    if alpha is not None and alpha.n != len(odd):
        raise DimensionMismatch("quadratic form and odd part differ in size")
    # central-extension cocycle B(D e_i, e_j): the quadratic-form cases
    # replace its odd-odd block by the (alternating) polar form
    cocycle = form.matrix_on(d.images, [1 << j for j in range(n)]).rows
    squaring = [0] * (n + 2)
    for k, i in enumerate(odd):
        squaring[i] = a.squaring[i]
        if alpha is not None:
            odd_row = combine(odd_units, alpha.polar.rows[k])
            cocycle[i] = cocycle[i] & a.even_mask | odd_row
            squaring[i] |= ((alpha.diag >> k) & 1) << xi

    table = [[0] * (n + 2) for _ in range(n + 2)]
    for i in range(n):
        for j in range(n):
            if i != j:
                table[i][j] = a.bracket_table[i][j] | ((cocycle[i] >> j) & 1) << xi
    for j in range(n):
        table[si][j] = d.images[j]
        table[j][si] = d.images[j]
    if der_parity:
        squaring[si] = recipe.a0 | ((recipe.m or 0) & 1) << xi
    # an even D: s(x) = 0 when x is odd, and the carrier is even

    gram_rows = [r for r in form.gram.rows]
    x_row = 1 << si
    star_row = 1 << xi
    if recipe.beta_star:
        star_row |= 1 << si
    gram_rows.append(x_row)
    gram_rows.append(star_row)

    g = SuperAlgebra(
        names=names,
        parity=parity,
        bracket_table=tuple(tuple(r) for r in table),
        squaring=tuple(squaring),
        degrees=None,
    )
    b = BilinearForm(GF2Matrix(gram_rows, n + 2), form.parity)
    return ExtensionResult(g, b, xi, si, recipe)


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionResult:
    algebra: SuperAlgebra
    form: BilinearForm
    recipe: ExtensionRecipe
    x: int
    xstar: int
    embedding: tuple[int, ...]  # g-elements realizing [a-basis..., x, xstar]


def reduction_candidates(
    g: SuperAlgebra, form: BilinearForm, case: str
) -> list[int]:
    """Basis of the subspace of central elements satisfying the hypothesis.

    The center is graded and s restricted to the odd center is additive
    (cross brackets vanish there), so every hypothesis is a linear cut:
    the dependencies of the hypothesis values on the center's part of
    x's parity.
    """
    form_parity, der_parity = case_parities(case)
    if form.parity != form_parity:
        return []
    mask = g.odd_mask if form_parity ^ der_parity else g.even_mask
    part = span_basis(v & mask for v in center(g))
    # values[k]: the values at part[k] of the maps the case needs to vanish,
    # side by side; the cut keeps the combinations where all of them vanish
    values = [0] * len(part)
    if der_parity == 0:  # B(v, w) = 0 on the squares w, bit r for squares[r]
        values = form.matrix_on(part, squares_span(g)).rows
    if form_parity ^ der_parity:  # odd x: s(v) = 0 too, in the n bits below
        values = [square_element(g, v) | p << g.dim for v, p in zip(part, values)]
    return [combine(part, c) for c in dependencies(values)]


def reduce(
    g: SuperAlgebra, form: BilinearForm, x: int, case: str
) -> ReductionResult:
    """Split off the D-extension along the central element x."""
    form_parity, der_parity = case_parities(case)
    if form.parity != form_parity:
        raise CaseParityMismatch("form parity does not match the case")
    n = g.dim
    x_parity = form_parity ^ der_parity
    if x == 0 or g.parity_of(x) != x_parity:
        raise HypothesisNotMet(f"x must be nonzero of parity {x_parity}")
    for j in range(n):
        if bracket(g, x, 1 << j):
            raise HypothesisNotMet("x is not central")
    if x_parity and square_element(g, x) != 0:
        raise HypothesisNotMet(
            "s(x) != 0; reduce along s(x) with the even-x case instead"
        )
    if not der_parity and any(form.pair(x, w) for w in squares_span(g)):
        raise HypothesisNotMet("x is not orthogonal to the squares")
    if form.pair(x, x):
        raise SplitsOff("B(x,x) != 0, the line through x splits off")

    # dual vector of the right parity with B(x, xstar) = 1
    star_idx = g.odd_indices() if der_parity else g.even_indices()
    row = restrict(form.pair_row(x), star_idx)
    sol = solve_affine(GF2Matrix([row], len(star_idx)), 1)
    if sol is None:
        raise HypothesisNotMet("no dual vector pairs with x (degenerate form?)")
    xstar = sol.lift(star_idx).particular

    a_basis = form.orthogonal_complement([x, xstar])
    if len(a_basis) != n - 2:
        raise HypothesisNotMet("orthogonal complement has wrong dimension")
    for v in a_basis:
        if g.parity_of(v) is None:
            raise HypothesisNotMet("complement basis is not homogeneous")

    # coordinates in the basis a_basis + [x, xstar] (the columns of P)
    cols = a_basis + [x, xstar]
    p_inv = GF2Matrix(cols, n).transpose().inverse()

    d = n - 2
    x_bit, star_bit = 1 << d, 1 << (d + 1)
    amask = x_bit - 1

    def project(v: int, what: str) -> int:
        c = p_inv.mat_vec(v)
        if c & star_bit:
            raise HypothesisNotMet(f"{what} leaves the ideal K + a")
        return c

    table = [[0] * d for _ in range(d)]
    x_rows = [0] * d  # bit j of row i: the x-coefficient of [a_i, a_j]
    for i in range(d):
        for j in range(i + 1, d):
            c = project(bracket(g, a_basis[i], a_basis[j]), "[a,a]")
            table[i][j] = c & amask
            table[j][i] = c & amask
            if c & x_bit:
                x_rows[i] |= 1 << j
                x_rows[j] |= 1 << i

    squaring = [0] * d
    x_squares = 0  # bit k: the x-coefficient of s(a_k)
    sub_odd = [k for k in range(d) if g.parity_of(a_basis[k]) == 1]
    for k in sub_odd:
        c = project(square_element(g, a_basis[k]), "s(a)")
        squaring[k] = c & amask
        x_squares |= (c >> d & 1) << k

    d_images = []
    for k in range(d):
        c = project(bracket(g, xstar, a_basis[k]), "[xstar, a]")
        if c & x_bit:
            raise HypothesisNotMet("[xstar, a] has an x component")
        d_images.append(c & amask)

    degrees = None
    if g.degrees is not None and all(v.bit_count() == 1 for v in a_basis):
        degrees = tuple(g.degrees[v.bit_length() - 1] for v in a_basis)
    sub = SuperAlgebra(
        names=tuple(
            g.names[v.bit_length() - 1] if v.bit_count() == 1 else f"a{k}"
            for k, v in enumerate(a_basis)
        ),
        parity=tuple(
            0 if g.parity_of(v) == 0 else 1 for v in a_basis
        ),
        bracket_table=tuple(tuple(r) for r in table),
        squaring=tuple(squaring),
        degrees=degrees,
    )
    sub_form = BilinearForm(form.matrix_on(a_basis, a_basis), form.parity)
    derivation = Derivation(tuple(d_images), der_parity)

    # every field the parities allow; normalized() drops the others
    alpha = a0 = m_val = None
    if form_parity == der_parity:
        k = len(sub_odd)
        alpha = QuadraticForm(
            k,
            restrict(x_squares, sub_odd),
            GF2Matrix([restrict(x_rows[i], sub_odd) for i in sub_odd], k),
        )
    if der_parity == 1:
        c = project(square_element(g, xstar), "s(xstar)")
        a0 = c & amask
        m_val = c >> d & 1

    recipe = ExtensionRecipe(
        case,
        derivation,
        alpha=alpha,
        a0=a0,
        m=m_val,
        beta_star=form.pair(xstar, xstar),
    ).normalized()
    return ReductionResult(
        sub, sub_form, recipe, x, xstar, tuple(cols)
    )
