"""Round-trip identities of the AR translates and morphism validity."""

from dupcat.dup import dup_category, knit_ind_dup
from dupcat.fixtures import a_n, d4_subspace
from dupcat.hereditary import knit_ind_A, path_category
from dupcat.reps import RepMap, hom_basis, is_isomorphic


def test_translate_round_trips_base():
    for q in (a_n(2), a_n(3), d4_subspace()):
        ctx = path_category(q)
        cat = knit_ind_A(q)
        for i, m in enumerate(cat.entries):
            if not cat.projective[i]:
                t = ctx.tau(m)
                back = ctx.tau_inv(t)
                assert is_isomorphic(back, m)
            if not cat.injective[i]:
                t = ctx.tau_inv(m)
                back = ctx.tau(t)
                assert is_isomorphic(back, m)


def test_translate_round_trips_duplicated():
    q = a_n(2)
    ctx = dup_category(q)
    cat = knit_ind_dup(q)
    for i, e in enumerate(cat.entries):
        if not cat.catalog.projective[i]:
            assert is_isomorphic(ctx.tau_inv(ctx.tau(e)), e)
        if not cat.catalog.injective[i]:
            assert is_isomorphic(ctx.tau(ctx.tau_inv(e)), e)


def test_hom_basis_maps_commute():
    # the solver only ever emits genuine morphisms
    q = d4_subspace()
    cat = knit_ind_A(q)
    m, n = cat.entries[1], cat.entries[5]
    for h in hom_basis(m, n):
        RepMap(m, n, h.mats, check=True)
