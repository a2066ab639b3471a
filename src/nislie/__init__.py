"""Exact computer algebra for Lie superalgebras over GF(2).

Validation of characteristic-2 superalgebra axioms and NIS forms,
derivation/outer-derivation spaces, the four double-extension flavors with
their reductions and adapted isometries, and a catalog of the worked
examples.
"""

from .derivations import (
    Derivation,
    compatible_subspace,
    cohomologous,
    derivation_space,
    find_a0,
    inner_derivations,
    outer_derivations,
    self_adjoint_coefficients,
)
from .extension import (
    ExtensionRecipe,
    ExtensionResult,
    extend,
    reduce,
    reduction_candidates,
)
from .forms import (
    BilinearForm,
    QuadraticForm,
    arf_invariant,
    check_nis,
    quadratic_lifts,
)
from .gf2 import GF2Matrix, quotient_basis, solve_affine
from .isometry import (
    Isometry,
    adapted_isometry_decision,
    build_adapted_isometry,
    complete_by_bracketing,
    is_semi_trivial,
    isometry_group,
    search_isometry,
    verify_isometry,
)
from .superalgebra import (
    SuperAlgebra,
    bracket,
    center,
    cone_contains,
    derived_subalgebra,
    is_two_step_nilpotent,
    sharp_complement,
    special_center,
    square_element,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BilinearForm",
    "Derivation",
    "ExtensionRecipe",
    "ExtensionResult",
    "GF2Matrix",
    "Isometry",
    "QuadraticForm",
    "SuperAlgebra",
    "adapted_isometry_decision",
    "arf_invariant",
    "bracket",
    "build_adapted_isometry",
    "center",
    "check_nis",
    "cohomologous",
    "compatible_subspace",
    "complete_by_bracketing",
    "cone_contains",
    "derivation_space",
    "derived_subalgebra",
    "extend",
    "find_a0",
    "inner_derivations",
    "is_semi_trivial",
    "is_two_step_nilpotent",
    "isometry_group",
    "outer_derivations",
    "quadratic_lifts",
    "quotient_basis",
    "reduce",
    "reduction_candidates",
    "search_isometry",
    "self_adjoint_coefficients",
    "sharp_complement",
    "solve_affine",
    "special_center",
    "square_element",
    "validate",
    "verify_isometry",
]
