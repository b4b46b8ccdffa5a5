"""The left part of the duplicated module category and its Ext-injectives.

The left part consists of the indecomposables all of whose predecessors
have projective dimension at most one.  It is exactly the embedded module
category plus the Ext-injectives, and the latter are the translates of the
embedded injectives together with the qualifying projective-injectives.
Every claim is verified by two independent routes.
"""

from dupcat import (
    canonical_tilting,
    knit_ind_dup,
    left_part_catalog,
    sectional_check,
    verify_ext_injectives,
    verify_left_part_definition,
)
from dupcat.fixtures import a_n, d4_subspace

for name, q in [("A2", a_n(2)), ("A3 linear", a_n(3)), ("D4", d4_subspace())]:
    print(f"== {name} ==")
    lp = left_part_catalog(q)
    n = len(q.vertices)
    print(f"left part: {len(lp.members)} members, "
          f"{len(lp.non_proj_inj)} of them not projective-injective "
          f"(= |ind A| + {n})")
    print(f"Ext-injectives: {len(lp.sigma)} "
          f"({len(lp.cosyzygies)} translates of injectives, "
          f"{len(lp.proj_inj)} projective-injectives)")

    cat = knit_ind_dup(q)
    print("two-route equality:", verify_left_part_definition(lp, cat).passed)
    print("Ext-injective brute force:", verify_ext_injectives(lp).passed)
    print("sectional-path property:", sectional_check(cat).passed)

    res = canonical_tilting(q)
    print(f"canonical tilting module: {len(res.summands)} summands, "
          f"verdict {'tilting' if res.verdict.passed else 'NOT tilting'}")
    print()
