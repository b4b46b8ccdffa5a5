"""Modules over the duplicated algebra.

A module is a representation of the duplicated quiver.  The duplicated
quiver lists the base vertices first, so ``dim_vectors`` splits a module's
dimension vector into its halves (X, Y): the dimension vectors on the two
copies of the base algebra.  The connecting arrows carry the action of the
dual bimodule.  The projective at a primed vertex is (nu P_x, P_x, id):
injective with simple socle at x and simple top at x'.  The category
``dup_category`` returns computes on the modules themselves, and the
knitted catalog ``knit_ind_dup`` returns reads Ext^1 off its hom table.
"""

from dupcat import (
    dim_vectors,
    dup_category,
    embed_A,
    knit_ind_dup,
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
    px, py = dim_vectors(pp)
    print(f"P[{x}'] = (X={px}, Y={py})")
    top, socle = cat.top(pp)[0], cat.socle(pp)[0]
    print(f"   top {dim_vectors(top)}, socle {dim_vectors(socle)}")

print("\n== cosyzygies glue the two copies together ==")
p1 = embed_A(projective_rep(q, "1"))
z1 = cat.cosyzygy(p1)[0]
print("cosyzygy of embedded P1:", dim_vectors(z1))
print("equals tau^{-1} of the embedded injective I1:",
      cat.iso(z1, cat.tau_inv(embed_A(projective_rep(q, "2")))))

_, envelope, _ = cat.envelope(p1)
print("injective envelope of embedded P1 is P[1']:",
      cat.iso(envelope, std.projective_primed["1"]))

print("\nprojective dimensions: ",
      {f"S[{x}']": cat.pd(std.simple_primed[x]) for x in q.vertices})
ind = knit_ind_dup(q)
print("Ext^1(embedded S2, embedded P1) =",
      ind.ext1_dim(ind.catalog.find(std.simple["2"]), ind.catalog.find(p1)),
      "(the almost split extension survives)")

print("\n== knitted sizes of the duplicated module categories ==")
for name, quiver in [("A1", a_n(1)), ("A2", a_n(2)), ("A3", a_n(3)), ("D4", d4_subspace())]:
    cat = knit_ind_dup(quiver)
    print(f"{name}: {len(cat.entries)} indecomposables "
          f"({sum(cat.in_ind_A)} embedded, {sum(cat.proj_injective)} projective-injective)")
