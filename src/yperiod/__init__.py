"""Exact-arithmetic engine and verifier for Zamolodchikov periodicity:
quiver mutation, quiver products, seed dynamics in factored form,
folding to valued quivers, and machine verification that the restricted
pattern of a product of Dynkin quivers returns to its initial seed
after the sum of the Coxeter numbers."""

__version__ = "0.1.0"

from .algebra import Polynomial, RationalPoint
from .direct import YSystemState, initial_state, y_system_step
from .dynkin import (
    Bipartition,
    DynkinType,
    bipartition,
    cartan_matrix,
    coxeter_element,
    coxeter_number,
    incidence_matrix,
    positive_roots,
    symmetrizer,
)
from .errors import DivisibilityError, FoldingError, InputError, SeedInvariantError
from .folding import (
    GroupAction,
    Lift,
    action_from_labels,
    is_admissible,
    lift_dynkin,
    product_action,
    valued_orbit_quiver,
)
from .quiver import (
    Quiver,
    ValuedQuiver,
    alternating_quiver,
    alternating_valued_quiver,
    format_quiver,
    is_constrained,
    mutate_set,
    quiver_from_json,
    quiver_to_json,
    source_sink_vertices,
    square_product,
    tensor_product,
    triangle_product,
)
from .seed import Seed, XExpression, YExpression
from .ysystem import (
    CheckResult,
    PeriodicityReport,
    mu_boxtimes_sequence,
    mu_square_sequence,
    verify_direct_ysystem,
    verify_folding,
    verify_periodicity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
