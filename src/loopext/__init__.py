"""Linear abelian extensions of finite abelian groups by finite loops.

The package builds loops F(P, Q) on L x A from a loop L, an abelian group A
and a cocycle (P, Q) of automorphism pairs, checks the closed-form conditions
equivalent to commutativity and the left/right/full inverse properties of the
extension, generates such cocycles from seeds, and decides which loop orders
admit strongly linear inverse-property extensions.
"""

from .abelian import (
    AbelianGroup,
    AutomorphismGroup,
    DEFAULT_SIZE_CAP,
    enumerate_automorphisms,
    make_group,
    parse_group_spec,
)
from .cardinality import (
    CardinalityCertificate,
    enumerate_feasible,
    feasible_cardinality,
)
from .constructions import (
    ChoiceSource,
    construct_ip_cocycle,
    construct_lip_cocycle,
    construct_pq,
    construct_rip_cocycle,
    random_cocycle,
)
from .extension import (
    LoopCocycle,
    build_extension,
    check_cip,
    check_equivariance,
    check_ip_conditions,
    check_lip_conditions,
    check_rip_conditions,
    is_commutative_extension,
    is_strongly_linear,
    make_cocycle,
    opposite_cocycle,
)
from .loops import (
    FiniteLoop,
    LoopPropertyReport,
    analyze_properties,
    is_normal_subloop,
    make_loop,
    quotient_loop,
)
from .orbits import (
    CELL_MAPS,
    PAIR_MAPS,
    OrbitDecomposition,
    gamma_orbits,
    phi_orbits,
    psi_orbits,
    sigma_set,
)

__version__ = "0.1.0"
