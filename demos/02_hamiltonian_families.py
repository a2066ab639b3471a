#!/usr/bin/env python3
"""Tour: the Hamiltonian monomial algebras and their double extensions.

The derived algebra of h(0|4) has three non-isometric even extensions
(distinguished by their outer-derivation dimensions); one is the Poisson
algebra on four odd indeterminates, one is gl(2|2).  The odd case m = 5
exposes the theta obstruction: the only odd outer class D6 pairs theta with
its complementary monomial on the diagonal, so no quadratic lift exists and
the literal "Poisson with constants" structure constants fail the axioms.
"""

from nislie.catalog import (
    contraction,
    h105_cocycles,
    hamiltonian,
    mult_op,
    named,
    top_bracket,
    weight_op,
)
from nislie.derivations import (
    class_coordinates,
    map_degree,
    outer_derivations,
    outer_dimension_by_degree,
)
from nislie.extension import reduce as ext_reduce
from nislie.forms import check_nis
from nislie.gf2 import span_basis
from nislie.isometry import adapted_isometry_decision, verify_isometry
from nislie.superalgebra import validate

g4, b4, basis4 = hamiltonian(4, derived=True)
oe, oo = outer_derivations(g4)
print(f"h1(0|4): dim {g4.dim}, out = {oe.dim + oo.dim}")

print("\nthe three even extensions and their fingerprints:")
for name in ("h104-D2ext", "h104-D6ext", "h104-D7ext"):
    obj = named(name)
    oe, oo = outer_derivations(obj.algebra)
    print(
        f"  {name}: sdim {obj.algebra.sdim}, out = {oe.dim + oo.dim},"
        f" valid = {validate(obj.algebra).passed}"
    )

po = named("po-0-4")
oe, oo = outer_derivations(po.algebra)
print(f"po(0|4) built directly on all 16 monomials: out = {oe.dim + oo.dim}")

g5, b5, basis5 = hamiltonian(5, derived=True)
oe, oo = outer_derivations(g5)
print(f"\nh1(0|5): dim {g5.dim}, out = {oe.dim} even + {oo.dim} odd")
print("odd outer classes by degree:", outer_dimension_by_degree(g5, 1))

cc = h105_cocycles(g5, basis5)
th = basis5.find("theta")
print(
    "the obstruction: B(D6 theta, theta) =",
    b5.pair(cc["D6"].images[th], 1 << th),
)

m0, m1 = named("po05-m0"), named("po05-m1")
print(
    "literal m=0 structure passes axioms:",
    validate(m0.algebra).passed,
    "/ NIS:",
    check_nis(m0.algebra, m0.form).passed,
)
dec = adapted_isometry_decision(
    g5, b5, m1.extension.recipe, m0.extension.recipe
)
print("adapted isometry m=1 vs m=0:", dec.status)

po5 = named("po-0-5")
images = [
    1 << po5.basis.index[m0.basis.monomials[i]]
    for i in range(m0.algebra.dim - 2)
]
images.append(1 << po5.basis.find(""))
images.append(1 << po5.basis.index[frozenset(range(5))])
ok, _ = verify_isometry(
    m0.algebra, m0.form, po5.algebra, po5.form, tuple(images)
)
print("m=0 extension matches the direct Poisson data under x -> 1:", ok)

print("\nconjecture support: the named outer classes of h1(0|m)")
for m in (6, 7):
    g, _, basis = hamiltonian(m, derived=True)
    pairs = [(f"xi{i}", f"eta{i}") for i in range(1, m // 2 + 1)]
    ops = {
        f"{v} d/d({dv})": mult_op(g, basis, v, dv)
        for x, e in pairs
        for v, dv in ((x, e), (e, x))
    }
    weights = basis.var_names if m % 2 else tuple(x for x, _ in pairs)
    ops[f"weight({' '.join(weights)})"] = weight_op(g, basis, weights)
    ops["top bracket"] = top_bracket(g, basis)
    if m % 2 == 0:
        ops["contraction"] = contraction(g, basis)
    outer = outer_derivations(g)
    coords = ([], [])
    for d in ops.values():
        coords[d.parity].append(class_coordinates(g, outer[d.parity], d))
    independent = len(span_basis(coords[0])) + len(span_basis(coords[1]))
    print(
        f"  m={m}: out = {outer[0].dim} even + {outer[1].dim} odd;"
        f" {len(ops)} named classes, {independent} independent"
    )
    for label, d in ops.items():
        print(f"    {label}: degree {map_degree(g, d)}, parity {d.parity}")
