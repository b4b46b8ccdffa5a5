"""The module category of a hereditary path algebra, fully machine-checked.

Everything is exact linear algebra over Q: Hom spaces are joint kernels of
commuting-square constraints, and the AR translate is the kernel of the
Nakayama functor applied to a minimal presentation; both are methods of the
category ``path_category`` returns.  The knitted AR catalog reads dim Hom
off its certified hom table, and Ext^1 off the same table by the AR formula
Ext^1(M, N) = D Hom(N, tau M), which holds since the algebra is hereditary.
"""

from dupcat import knit_ind_A, path_category
from dupcat.fixtures import a_n, d4_subspace

q = a_n(2)
cat = path_category(q)
print("== standard modules over A2 (arrow 2 -> 1) ==")
for x in q.vertices:
    print(
        f"vertex {x}: S{cat.simple[x].dim_vector()} "
        f"P{cat.proj[x].dim_vector()} I{cat.inj[x].dim_vector()}"
    )

ar = knit_ind_A(q)
p1, p2, s2 = ar.find(cat.proj["1"]), ar.find(cat.proj["2"]), ar.find(cat.simple["2"])
print("\ndim Hom(P1, P2) =", ar.hom_table[p1][p2])
print("dim Ext^1(S2, P1) =", ar.ext1_by_tau(s2, p1))

print("tau(S2) has dimension vector", cat.tau(cat.simple["2"]).dim_vector(), "(the projective P1)")

print("\nNakayama functor sends projectives to injectives:")
for x in q.vertices:
    print(f"  nu(P{x}) iso I{x}:", cat.iso(cat.nakayama(cat.proj[x]), cat.inj[x]))

print("\n== knitting the AR quiver ==")
for name, quiver in [("A2", a_n(2)), ("A3", a_n(3)), ("D4", d4_subspace())]:
    cat = knit_ind_A(quiver)
    print(f"{name}: {len(cat.entries)} indecomposables, "
          f"{sum(cat.projective)} projective, {sum(cat.injective)} injective, "
          f"{len(cat.arrows)} irreducible-arrow classes")

cat = knit_ind_A(a_n(3))
print("\nAlmost split sequences of A3 (linear):")
for tgt, seq in sorted(cat.sequences.items()):
    mid = " + ".join(
        f"{cat.entries[i].dim_vector()}x{m}" for i, m in seq.middle
    )
    print(
        f"  0 -> {cat.entries[seq.left].dim_vector()} -> {mid} "
        f"-> {cat.entries[tgt].dim_vector()} -> 0"
    )
