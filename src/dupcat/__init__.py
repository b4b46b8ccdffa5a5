"""Duplicated path algebras over Q: the left part, its Ext-injectives, and
the bijection between left-part tilting modules and cluster-tilting objects,
all through exact rational linear algebra."""

from .quiver import (
    Quiver,
    classify_dynkin,
    duplicated_quiver,
    opposite,
    parse_quiver,
    sinks_and_sources,
)
from .linalg import RMatrix, cokernel_basis, nullspace_basis, rank
from .reps import Rep, RepMap, hom_basis, is_isomorphic, sum_rep
from .hereditary import (
    injective_rep,
    knit_ind_A,
    path_category,
    projective_rep,
    simple_rep,
)
from .dup import (
    dim_vectors,
    dup_category,
    embed_A,
    junction_composite_pattern,
    knit_ind_dup,
    standard_dup_modules,
)
from .leftpart import (
    canonical_tilting,
    left_part_catalog,
    sectional_check,
    verify_ext_injectives,
    verify_left_part_definition,
)
from .cluster import (
    ClusterObject,
    enumerate_cluster_tilting,
    fundamental_domain,
    pi_bar,
    shifted_projective,
)
from .tilting import (
    enumerate_L_tilting,
    expected_count,
    is_tilting_module,
    verify_bijection,
)
from .verify import run_all_checks
from .errors import (
    CapExceededError,
    CatalogError,
    CycleDetectedError,
    CyclicQuiverError,
    DupcatError,
    NotDynkinError,
    NotInDomainError,
    QuiverSyntaxError,
)

__version__ = "0.1.0"
