"""Modules over the duplicated algebra.

A module is a representation of the duplicated quiver, and its triple
(X, Y, theta) is derived from it: X and Y are the restrictions to the two
copies of the base algebra, and theta : nu(Y) -> X records the action of the
connecting arrows (the dual bimodule).  The projective at a primed vertex is
(nu P_x, P_x, id): injective with simple socle at x and simple top at x'.
"""

from dupcat import (
    covers_and_envelopes,
    embed_A,
    ext1_dup,
    is_isomorphic_dup,
    knit_ind_dup,
    pd_dup,
    standard_dup_modules,
    structure,
    syzygy_pair,
    tau_dup_pair,
)
from dupcat.fixtures import a_n, d4_subspace
from dupcat.hereditary import projective_rep

q = a_n(2)
std = standard_dup_modules(q)

print("== the projective-injectives over duplicated A2 ==")
for x in q.vertices:
    pp = std.projective_primed[x]
    print(f"P[{x}'] = (X={pp.x_part.dim_vector()}, Y={pp.y_part.dim_vector()})")
    st = structure(pp)
    print(f"   top {st.top.dim_vectors()}, socle {st.socle.dim_vectors()}")

print("\n== cosyzygies glue the two copies together ==")
p1 = embed_A(projective_rep(q, "1"))
z1 = syzygy_pair(p1).cosyzygy
print("cosyzygy of embedded P1:", z1.dim_vectors())
print("equals tau^{-1} of the embedded injective I1:",
      is_isomorphic_dup(z1, tau_dup_pair(embed_A(projective_rep(q, "2"))).tau_inv))

ce = covers_and_envelopes(p1)
print("injective envelope of embedded P1 is P[1']:",
      is_isomorphic_dup(ce.envelope, std.projective_primed["1"]))

print("\nprojective dimensions: ",
      {f"S[{x}']": pd_dup(std.simple_primed[x]) for x in q.vertices})
print("Ext^1(embedded S2, embedded P1) =",
      ext1_dup(std.simple["2"], p1), "(the almost split extension survives)")

print("\n== knitted sizes of the duplicated module categories ==")
for name, quiver in [("A1", a_n(1)), ("A2", a_n(2)), ("A3", a_n(3)), ("D4", d4_subspace())]:
    cat = knit_ind_dup(quiver)
    print(f"{name}: {len(cat.entries)} indecomposables "
          f"({sum(cat.in_ind_A)} embedded, {sum(cat.proj_injective)} projective-injective)")
