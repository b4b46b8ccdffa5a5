"""The bijection between left-part tilting modules and cluster-tilting sets.

Every tilting module over the duplicated algebra contains all
projective-injectives; projecting away the projective-injectives and
passing to the orbit category identifies the remaining summands with a
maximal rigid collection of fundamental-domain objects.  Both sides are
enumerated independently and matched set by set.
"""

from dupcat import (
    classify_dynkin,
    dim_vectors,
    enumerate_L_tilting,
    expected_count,
    pi_bar,
    verify_bijection,
)
from dupcat.cluster import describe_object
from dupcat.fixtures import a_n, d4_subspace

print("== the pentagon for A2 ==")
q = a_n(2)
for rec in enumerate_L_tilting(q):
    image = sorted(describe_object(pi_bar(q, m)) for m in rec.free)
    frees = ", ".join(f"(X={x},Y={y})" for x, y in map(dim_vectors, rec.free))
    print(f"free part [{frees}]  ->  {image}")

print("\n== counts across fixtures ==")
print(f"{'fixture':<12}{'tilting':>8}{'cluster':>8}{'formula':>8}  bijection")
for name, quiver in [
    ("A1", a_n(1)),
    ("A2", a_n(2)),
    ("A3 linear", a_n(3)),
    ("A3 zigzag", a_n(3, "zigzag")),
    ("A4", a_n(4)),
    ("D4", d4_subspace()),
]:
    rep = verify_bijection(quiver)
    formula = expected_count(classify_dynkin(quiver))
    status = "verified" if rep.matched else "FAILED"
    print(f"{name:<12}{rep.left_count:>8}{rep.right_count:>8}{formula:>8}  {status}")

print("\nThe counts agree across orientations of the same diagram: the")
print("cluster side only depends on the underlying Dynkin type.")
