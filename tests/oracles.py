"""Independent Hom and Ext^1 dimensions that tests compare the library with.

The library reads dim Hom off its kept bases and the knitted hom table, and
Ext^1 off that table by the AR formula.  These oracles take another route:
the rank of the Hom system, and Ext^1 as a cokernel over a projective
presentation, from full Hom bases.
"""

from dupcat import reps
from dupcat.linalg import RMatrix, rank


def hom_dim_by_rank(m, n) -> int:
    """dim Hom(m, n): the unknowns of the ``reps.hom_basis`` system minus
    its rank, with no basis built."""
    system, _ = reps._hom_system(m, n)
    return system.cols - rank(system)


def ext1_by_bases(cat, m, n) -> int:
    """dim Ext^1(m, n) as the cokernel of Hom(P0, n) -> Hom(Omega m, n),
    from full Hom bases over the minimal presentation ``cat`` keeps."""
    pres = cat.presentation(m)
    hom_omega = reps.hom_basis(pres.omega, n)
    if pres.cover1 is None or not hom_omega:
        return 0
    restricted = [h.compose(pres.incl).flatten() for h in reps.hom_basis(pres.cover0.p0, n)]
    width = len(hom_omega[0].flatten())
    return len(hom_omega) - rank(RMatrix([list(r) for r in restricted], len(restricted), width))
