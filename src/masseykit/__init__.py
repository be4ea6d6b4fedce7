"""Mod-p group cohomology operations and Massey product decisions.

Exact toolkit for finite groups given by multiplication tables and for
finitely presented groups: cup products, Bockstein, restriction and
transfer, unitriangular matrix groups over prime fields, and
defined/vanishing decisions for Massey products of degree-1 characters.
"""

__version__ = "0.1.0"

SIGN_CONVENTION = (
    "defining system: d(a[i][j]) = -sum_l a[i][l] cup a[l][j]; "
    "value = class of -sum_l a[1][l] cup a[l][n+1]; "
    "lift obstruction = class of +sum_l a[1][l] cup a[l][n+1]"
)

from . import errors  # noqa: F401,E402
from .gf_core import (  # noqa: F401,E402
    SmithDecomposition,
    smith_normal_form,
)
from .unitriangular import (  # noqa: F401,E402
    UniMatrix,
    UniShape,
    commutator,
    conjugacy_class_of,
    centralizer_of,
    enumerate_group,
    uni_inv,
    uni_mul,
    verify_u3_resolution,
)
from .groups import (  # noqa: F401,E402
    AbelianStructure,
    FiniteGroup,
    GroupHom,
    Presentation,
    SubgroupData,
    abelianization,
    catalog,
    closure_group,
    enumerate_subgroups,
    evaluate_word,
    hom_lift_to_Zmod,
    kernel_of_character,
    reidemeister_schreier,
)
from .cohomology import (  # noqa: F401,E402
    Character,
    Cochain,
    CohomClass,
    Orientation,
    bockstein,
    coboundary,
    conjugate_character,
    corestriction_deg0,
    corestriction_deg1,
    cup,
    formal_h90_check,
    four_term_exactness,
    h_basis,
    is_coboundary,
    norm_operators,
    restriction,
)
from .massey import (  # noqa: F401,E402
    DefiningSystem,
    LiftSet,
    MasseyReport,
    MasseyStatus,
    UniLift,
    defining_system_from_lift,
    defining_system_value,
    degenerate_fourfold_criterion,
    lift_search,
    massey_status_finite,
    validate_defining_system,
    verify_worked_example,
)
