"""Independent checks that confirm the library's verdicts.

These re-derive each axiom from the raw structure constants with plain
coordinate loops; they call nothing in nislie, so a defect there cannot
hide itself here.  They are slow and run outside every timed region.
"""

from __future__ import annotations


def _coords(v: int) -> list[int]:
    return [k for k in range(v.bit_length()) if (v >> k) & 1]


def _br(table, x: int, y: int) -> int:
    acc = 0
    ys = _coords(y)
    for i in _coords(x):
        row = table[i]
        for j in ys:
            acc ^= row[j]
    return acc


def _pair(gram_rows, x: int, y: int) -> int:
    acc = 0
    for i in _coords(x):
        acc ^= (gram_rows[i] & y).bit_count() & 1
    return acc


def _rank(rows: list[int]) -> int:
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pivot = rows.pop()
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def _parity_mask(g, parity: int) -> int:
    return sum(1 << i for i in range(g.dim) if g.parity[i] == parity)


def jacobi_defect(g, i: int, j: int, k: int) -> int:
    t = g.bracket_table
    return (
        _br(t, 1 << i, t[j][k]) ^ _br(t, 1 << j, t[k][i]) ^ _br(t, 1 << k, t[i][j])
    )


def squaring_defect(g, i: int, j: int) -> int:
    """[s(e_i), e_j] + [e_i, [e_i, e_j]] for odd e_i."""
    t = g.bracket_table
    return _br(t, g.squaring[i], 1 << j) ^ _br(t, 1 << i, t[i][j])


def invariance_defect(g, gram_rows, i: int, j: int, k: int) -> int:
    """B([e_i, e_j], e_k) + B(e_i, [e_j, e_k])."""
    t = g.bracket_table
    return _pair(gram_rows, t[i][j], 1 << k) ^ _pair(gram_rows, 1 << i, t[j][k])


def _wrong_parity_bits(g, value: int, parity: int) -> int:
    return value & _parity_mask(g, 1 - parity)


def axiom_witness_holds(g, axiom: str, witness: tuple) -> bool:
    """True when the reported axiom failure is a real defect."""
    t = g.bracket_table
    if axiom == "alternating":
        (i, _) = witness
        return t[i][i] != 0
    if axiom == "symmetry":
        i, j = witness
        return t[i][j] != t[j][i]
    if axiom == "squaring-domain":
        (i,) = witness
        return g.parity[i] == 0 and g.squaring[i] != 0
    if axiom == "grading":
        if len(witness) == 1:
            return _wrong_parity_bits(g, g.squaring[witness[0]], 0) != 0
        i, j = witness
        return _wrong_parity_bits(g, t[i][j], g.parity[i] ^ g.parity[j]) != 0
    if axiom == "jacobi":
        return jacobi_defect(g, *witness) != 0
    if axiom == "squaring-jacobi":
        i, j = witness
        return g.parity[i] == 1 and squaring_defect(g, i, j) != 0
    return False


def nis_witness_holds(g, form, kind: str, witness: tuple) -> bool:
    """True when the reported form defect is real."""
    rows = form.gram.rows
    n = g.dim

    def entry(i, j):
        return (rows[i] >> j) & 1

    if kind == "symmetric":
        i, j = witness
        if i == j:
            return g.parity[i] == 1 and entry(i, i) == 1
        return entry(i, j) != entry(j, i)
    if kind == "parity":
        i, j = witness
        return entry(i, j) == 1 and (g.parity[i] ^ g.parity[j]) != form.parity
    if kind == "invariant":
        return invariance_defect(g, rows, *witness) != 0
    if kind == "non-degenerate":
        return _rank(list(rows)) < n
    return False


def fully_valid(g, form) -> bool:
    """Every axiom and every NIS condition, checked on all basis instances."""
    n = g.dim
    t = g.bracket_table
    for i in range(n):
        if t[i][i] or (g.parity[i] == 0 and g.squaring[i]):
            return False
        if _wrong_parity_bits(g, g.squaring[i], 0):
            return False
        for j in range(n):
            if t[i][j] != t[j][i]:
                return False
            if _wrong_parity_bits(g, t[i][j], g.parity[i] ^ g.parity[j]):
                return False
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if jacobi_defect(g, i, j, k):
                    return False
        if g.parity[i] == 1:
            for j in range(n):
                if squaring_defect(g, i, j):
                    return False
    if form is None:
        return True
    rows = form.gram.rows
    for i in range(n):
        if g.parity[i] == 1 and (rows[i] >> i) & 1:
            return False
        for j in range(n):
            e = (rows[i] >> j) & 1
            if e != (rows[j] >> i) & 1:
                return False
            if e and (g.parity[i] ^ g.parity[j]) != form.parity:
                return False
            for k in range(n):
                if invariance_defect(g, rows, i, j, k):
                    return False
    return _rank(list(rows)) == n


def same_structure(doc_a, doc_b) -> bool:
    """Equal basis names, parities, structure constants and Gram matrix."""
    a, b = doc_a.algebra, doc_b.algebra
    if (a.names, a.parity, a.bracket_table, a.squaring) != (
        b.names,
        b.parity,
        b.bracket_table,
        b.squaring,
    ):
        return False
    if (doc_a.form is None) != (doc_b.form is None):
        return False
    return doc_a.form is None or (
        doc_a.form.gram.rows == doc_b.form.gram.rows
        and doc_a.form.parity == doc_b.form.parity
    )
