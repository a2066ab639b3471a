"""Seeded input generators for the benchmark.

Everything here is a pure function of the `random.Random` it is given, so a
workload seed fixes its inputs exactly.
"""

from __future__ import annotations

import random

from nislie.forms import BilinearForm
from nislie.gf2 import GF2Matrix
from nislie.superalgebra import SuperAlgebra


def _permute_bits(v: int, sigma: list[int]) -> int:
    out = 0
    k = 0
    while v:
        if v & 1:
            out |= 1 << sigma[k]
        v >>= 1
        k += 1
    return out


def relabel(
    g: SuperAlgebra, form: BilinearForm | None, rng: random.Random
) -> tuple[SuperAlgebra, BilinearForm | None]:
    """The same structure on a shuffled basis.

    Basis vector i becomes vector sigma(i), where sigma only exchanges vectors
    of equal parity and, for graded algebras, equal degree.  The result is
    isometric to the input, so every invariant (axiom verdicts, outer
    dimensions per degree, isometry class) must come out unchanged.
    """
    n = g.dim
    classes: dict[tuple, list[int]] = {}
    for i in range(n):
        degree = None if g.degrees is None else g.degrees[i]
        classes.setdefault((g.parity[i], degree), []).append(i)
    sigma = [0] * n
    for members in classes.values():
        targets = members[:]
        rng.shuffle(targets)
        for i, t in zip(members, targets):
            sigma[i] = t
    inv = [0] * n
    for i, t in enumerate(sigma):
        inv[t] = i
    table = g.bracket_table
    g2 = SuperAlgebra(
        names=tuple(g.names[inv[a]] for a in range(n)),
        parity=tuple(g.parity[inv[a]] for a in range(n)),
        bracket_table=tuple(
            tuple(_permute_bits(table[inv[a]][inv[b]], sigma) for b in range(n))
            for a in range(n)
        ),
        squaring=tuple(_permute_bits(g.squaring[inv[a]], sigma) for a in range(n)),
        degrees=None
        if g.degrees is None
        else tuple(g.degrees[inv[a]] for a in range(n)),
    )
    if form is None:
        return g2, None
    rows = [_permute_bits(form.gram.rows[inv[a]], sigma) for a in range(n)]
    return g2, BilinearForm(GF2Matrix(rows, n), form.parity)


FLIP_KINDS = ("bracket-pair", "bracket-entry", "squaring", "gram")


def flip_one_bit(
    g: SuperAlgebra, form: BilinearForm, rng: random.Random
) -> tuple[SuperAlgebra, BilinearForm, str]:
    """Flip one structure-constant bit of (g, form).

    The four kinds: one output bit of [e_i, e_j] in both table entries
    (keeps the table symmetric), the same in one entry only (breaks
    symmetry), one bit of s(e_i), or one symmetric pair of Gram entries.
    Returns the perturbed pair and a label "kind:i,j,k".
    """
    n = g.dim
    kind = FLIP_KINDS[rng.randrange(len(FLIP_KINDS))]
    table = [list(row) for row in g.bracket_table]
    squaring = list(g.squaring)
    gram = list(form.gram.rows)
    if kind in ("bracket-pair", "bracket-entry"):
        i, j = rng.sample(range(n), 2)
        k = rng.randrange(n)
        table[i][j] ^= 1 << k
        if kind == "bracket-pair":
            table[j][i] ^= 1 << k
        where = (i, j, k)
    elif kind == "squaring":
        i, k = rng.randrange(n), rng.randrange(n)
        squaring[i] ^= 1 << k
        where = (i, k)
    else:
        i, j = rng.randrange(n), rng.randrange(n)
        gram[i] ^= 1 << j
        if i != j:
            gram[j] ^= 1 << i
        where = (i, j)
    g2 = SuperAlgebra(
        g.names,
        g.parity,
        tuple(tuple(row) for row in table),
        tuple(squaring),
        g.degrees,
    )
    label = f"{kind}:{','.join(map(str, where))}"
    return g2, BilinearForm(GF2Matrix(gram, n), form.parity), label
