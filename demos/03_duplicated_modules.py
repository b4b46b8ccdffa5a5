"""Modules over the duplicated algebra.

A module is a representation of the duplicated quiver, and its triple
(X, Y, theta) is derived from it: X and Y are the restrictions to the two
copies of the base algebra, and theta : nu(Y) -> X records the action of the
connecting arrows (the dual bimodule).  The projective at a primed vertex is
(nu P_x, P_x, id): injective with simple socle at x and simple top at x'.
The category ``dup_category`` returns computes on ``m.rep()``, and
``rep_to_triple`` views a result as a module with its triple again.  The
knitted catalog ``knit_ind_dup`` returns reads Ext^1 off its hom table.
"""

from dupcat import (
    dup_category,
    embed_A,
    knit_ind_dup,
    rep_to_triple,
    standard_dup_modules,
)
from dupcat.fixtures import a_n, d4_subspace
from dupcat.hereditary import projective_rep

q = a_n(2)
std = standard_dup_modules(q)
cat = dup_category(q)

print("== the projective-injectives over duplicated A2 ==")
for x in q.vertices:
    pp = std.projective_primed[x]
    print(f"P[{x}'] = (X={pp.x_part.dim_vector()}, Y={pp.y_part.dim_vector()})")
    top = rep_to_triple(cat.top(pp.rep())[0], q)
    socle = rep_to_triple(cat.socle(pp.rep())[0], q)
    print(f"   top {top.dim_vectors()}, socle {socle.dim_vectors()}")

print("\n== cosyzygies glue the two copies together ==")
p1 = embed_A(projective_rep(q, "1"))
z1 = rep_to_triple(cat.cosyzygy(p1.rep())[0], q)
print("cosyzygy of embedded P1:", z1.dim_vectors())
print("equals tau^{-1} of the embedded injective I1:",
      cat.is_isomorphic(z1.rep(), cat.tau_inv(embed_A(projective_rep(q, "2")).rep())))

_, envelope, _ = cat.envelope(p1.rep())
print("injective envelope of embedded P1 is P[1']:",
      cat.is_isomorphic(envelope, std.projective_primed["1"].rep()))

print("\nprojective dimensions: ",
      {f"S[{x}']": cat.pd(std.simple_primed[x].rep()) for x in q.vertices})
ind = knit_ind_dup(q)
print("Ext^1(embedded S2, embedded P1) =",
      ind.ext1_dim(ind.find_module(std.simple["2"]), ind.find_module(p1)),
      "(the almost split extension survives)")

print("\n== knitted sizes of the duplicated module categories ==")
for name, quiver in [("A1", a_n(1)), ("A2", a_n(2)), ("A3", a_n(3)), ("D4", d4_subspace())]:
    cat = knit_ind_dup(quiver)
    print(f"{name}: {len(cat.entries)} indecomposables "
          f"({sum(cat.in_ind_A)} embedded, {sum(cat.proj_injective)} projective-injective)")
