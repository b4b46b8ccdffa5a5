"""Independent Hom and Ext^1 dimensions that tests compare the library with.

The library reads dim Hom off its kept bases and the knitted hom table, and
Ext^1 off that table by the AR formula.  These oracles take another route:
the rank of the Hom system, and Ext^1 as a cokernel over a projective
presentation, from full Hom bases.

``rebuilt`` makes the tampered copies of catalogs that the tamper tests
feed to the checks.
"""

import inspect

from dupcat import reps
from dupcat.linalg import RMatrix, rank


def rebuilt(obj, **changes):
    """A new ``type(obj)`` from its constructor: each argument is the
    attribute of ``obj`` with its name, or its value in ``changes``.  The
    copy is built afresh, so none of the cached properties of ``obj``
    (``hom_table``, ``index``, ``reach``, ``pd_table``) carries over into it,
    as ``copy.copy`` would carry them."""
    params = inspect.signature(type(obj)).parameters
    unknown = set(changes) - set(params)
    if unknown:
        raise TypeError(f"{type(obj).__name__} takes no argument {sorted(unknown)}")
    return type(obj)(**{name: changes.get(name, getattr(obj, name)) for name in params})


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
