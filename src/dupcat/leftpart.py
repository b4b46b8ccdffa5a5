"""The left part of the duplicated module category and its Ext-injectives.

The left part consists of the indecomposables all of whose predecessors
(under chains of nonzero morphisms) have projective dimension at most one.
Structurally it is the embedded module category of the base algebra together
with the Ext-injectives: the cosyzygy-type modules tau^{-1} of the embedded
injectives, plus the projective-injectives that happen to lie in the left
part.  Every characterization has a brute-force counterpart here, used by
the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import NotDynkinError
from .quiver import Quiver, classify_dynkin, prime, sinks_and_sources
from . import dup as dupmod
from .dup import (
    DupCatalog,
    DupModule,
    dup_category,
    embed_A,
    is_isomorphic_dup,
    pd_dup,
    proj_primed,
    tau_dup_pair,
)
from .dup import hom_reach as _hom_reach  # noqa: F401  (used by the verification tests)
from .hereditary import injective_rep, knit_ind_A
from .reps import cokernel as rep_cokernel, split_pair


@dataclass
class Report:
    """Outcome of one verification check."""

    name: str
    passed: bool
    witnesses: list = field(default_factory=list)

    def as_dict(self):
        return {"check": self.name, "passed": self.passed, "witnesses": list(self.witnesses)}

    def __bool__(self):
        return self.passed


def _require_dynkin(q: Quiver):
    d = classify_dynkin(q)
    if d is None:
        raise NotDynkinError("operation requires a Dynkin quiver")
    return d


@dataclass
class LeftPartCatalog:
    """Members of the left part, partitioned by how they arise."""

    base: Quiver
    members: tuple  # DupModules
    ind_a_flags: tuple
    cosyzygy_flags: tuple  # the tau^{-1} of embedded injectives, indexed by vertex
    proj_inj_flags: tuple
    cosyzygy_by_vertex: dict  # vertex -> member index
    sigma_indices: tuple

    @property
    def sigma(self):
        return tuple(self.members[i] for i in self.sigma_indices)

    def non_proj_inj_members(self):
        return tuple(
            m for m, f in zip(self.members, self.proj_inj_flags) if not f
        )

    def member_index(self, m: DupModule) -> Optional[int]:
        for i, e in enumerate(self.members):
            if is_isomorphic_dup(e, m):
                return i
        return None


def sigma_catalog(q: Quiver):
    """The Ext-injectives of the left part, per the structural description:
    the tau^{-1} of the embedded injectives together with the
    projective-injectives lying in the left part."""
    _require_dynkin(q)
    return left_part_catalog(q).sigma


def left_part_catalog(q: Quiver) -> LeftPartCatalog:
    """Structure-based left part: embedded ind A plus the Ext-injectives.

    A projective-injective lies in the left part iff all its predecessors
    do, and its predecessors are itself plus those of its radical summands.
    Since the left part is exactly the embedded modules, the translates of
    the embedded injectives and the qualifying projective-injectives, the
    membership test reduces to peeling the radical into these candidates,
    recursing along the primed arrows.  No knitting of the duplicated
    category is needed.
    """
    _require_dynkin(q)
    cat_a = knit_ind_A(q)
    embeds = [embed_A(e) for e in cat_a.entries]
    cosyz = {}
    for x in q.vertices:
        t = tau_dup_pair(embed_A(injective_rep(q, x))).tau_inv
        assert isinstance(t, DupModule), "embedded injective cannot be injective here"
        assert not t.y_part.is_zero(), "cosyzygy candidate fell into ind A"
        cosyz[x] = t
    pis = {x: proj_primed(q, x) for x in q.vertices}
    ctx = dup_category(q)
    always_in_l = [m.rep() for m in embeds] + [cosyz[x].rep() for x in q.vertices]
    pi_in_l: dict = {}

    def pbar_in_left_part(x) -> bool:
        # dependency runs along primed arrows, hence is acyclic
        if x in pi_in_l:
            return pi_in_l[x]
        rad, _ = ctx.radical(pis[x].rep())
        _, residual = ctx.try_decompose(rad, always_in_l)
        ok = True
        for y in q.vertices:
            if residual.is_zero():
                break
            while not residual.is_zero():
                py = pis[y].rep()
                if any(py.dims[v] > residual.dims[v] for v in ctx.quiver.vertices):
                    break
                pair = split_pair(py, residual)
                if pair is None:
                    break
                if not pbar_in_left_part(y):
                    ok = False
                    break
                residual, _ = rep_cokernel(pair[0])
            if not ok:
                break
        ok = ok and residual.is_zero()
        pi_in_l[x] = ok
        return ok

    for x in q.vertices:
        pbar_in_left_part(x)
    n_embed = len(embeds)
    n = len(q.vertices)
    members = list(embeds)
    ind_a_flags = [True] * n_embed
    cosyz_flags = [False] * n_embed
    pi_flags = [False] * n_embed
    cosyz_by_vertex = {}
    for x in q.vertices:
        cosyz_by_vertex[x] = len(members)
        members.append(cosyz[x])
        ind_a_flags.append(False)
        cosyz_flags.append(True)
        pi_flags.append(False)
    sigma_indices = list(cosyz_by_vertex.values())
    for x in q.vertices:
        if pi_in_l[x]:
            sigma_indices.append(len(members))
            members.append(pis[x])
            ind_a_flags.append(False)
            cosyz_flags.append(False)
            pi_flags.append(True)
    lpc = LeftPartCatalog(
        q,
        tuple(members),
        tuple(ind_a_flags),
        tuple(cosyz_flags),
        tuple(pi_flags),
        cosyz_by_vertex,
        tuple(sigma_indices),
    )
    # structural invariants
    assert sum(lpc.cosyzygy_flags) == n
    for i, m in enumerate(lpc.members):
        assert pd_dup(m) <= 1, f"left-part member {i} has projective dimension > 1"
        for j in range(i + 1, len(lpc.members)):
            assert not is_isomorphic_dup(m, lpc.members[j]), "duplicate member"
    return lpc


def annotate_catalog(cat: DupCatalog, lpc: LeftPartCatalog) -> DupCatalog:
    """Fill the in_L / in_sigma flags of a knitted catalog from the left part."""
    in_l = []
    in_sigma = []
    sigma_set = set(lpc.sigma_indices)
    for m in cat.modules:
        idx = lpc.member_index(m)
        in_l.append(idx is not None)
        in_sigma.append(idx in sigma_set if idx is not None else False)
    cat.in_L = tuple(in_l)
    cat.in_sigma = tuple(in_sigma)
    return cat


# -- verification reports ---------------------------------------------------


def verify_ext_injectives(lpc: LeftPartCatalog) -> Report:
    """Brute-force check that sigma is exactly the Ext-injectives of the left
    part, and that they are exactly the members whose tau^{-1} leaves it."""
    witnesses = []
    sigma_set = set(lpc.sigma_indices)
    for i, m in enumerate(lpc.members):
        ext_vanishes = all(
            dupmod.ext1_dup(n, m) == 0 for n in lpc.members
        )
        if ext_vanishes != (i in sigma_set):
            witnesses.append(
                f"member {i} {m}: Ext-injective={ext_vanishes} but sigma={i in sigma_set}"
            )
        ti = tau_dup_pair(m).tau_inv
        if isinstance(ti, DupModule):
            leaves = lpc.member_index(ti) is None
        else:
            leaves = True  # injective members have no tau^{-1}
        if leaves != (i in sigma_set):
            witnesses.append(
                f"member {i} {m}: tau-inverse outside L={leaves} but sigma={i in sigma_set}"
            )
    return Report("ext-injectives-characterization", not witnesses, witnesses)


def definition_left_part_indices(cat: DupCatalog):
    """First-principles left part inside a knitted catalog: predecessor
    closure of the nonzero-hom relation plus projective dimensions."""
    reach, pd_table = cat.reach, cat.pd_table
    out = []
    for j in range(len(cat.modules)):
        preds = [i for i in range(len(cat.modules)) if reach[i][j]]
        if all(pd_table[i] <= 1 for i in preds):
            out.append(j)
    return tuple(out)


def verify_left_part_definition(lpc: LeftPartCatalog, cat: DupCatalog) -> Report:
    """The definition-based left part of the knitted catalog must equal the
    structure-based one as a set."""
    witnesses = []
    def_indices = set(definition_left_part_indices(cat))
    struct_indices = set()
    for m in lpc.members:
        idx = cat.find_module(m)
        if idx is None:
            witnesses.append(f"structural member {m} missing from the catalog")
        else:
            struct_indices.add(idx)
    for j in sorted(def_indices - struct_indices):
        witnesses.append(f"catalog entry {j} is in the definition-based left part only")
    for j in sorted(struct_indices - def_indices):
        witnesses.append(f"catalog entry {j} is in the structure-based left part only")
    return Report("left-part-two-route-equality", not witnesses, witnesses)


def verify_sink_reachability(lpc: LeftPartCatalog, cat: DupCatalog) -> Report:
    """Every indecomposable outside the embedded module category admits a
    path from a projective-injective at a sink."""
    q = cat.base
    sinks, _ = sinks_and_sources(q)
    reach = cat.reach
    pi_idx = {a: cat.catalog.entries.index(dup_category(q).proj[prime(a)]) for a in sinks}
    witnesses = []
    for j, m in enumerate(cat.modules):
        if m.y_part.is_zero():
            continue
        if not any(reach[pi_idx[a]][j] for a in sinks):
            witnesses.append(f"entry {j} {m} unreachable from any sink projective")
    return Report("sink-reachability", not witnesses, witnesses)


def verify_pd_criterion(cat: DupCatalog) -> Report:
    """pd M <= 1 iff no injective maps nonzero into tau M."""
    q = cat.base
    ctx = dup_category(q)
    injectives = [ctx.inj[z] for z in ctx.quiver.vertices]
    witnesses = []
    for i, e in enumerate(cat.entries):
        pd = cat.pd_table[i]
        t = ctx.tau(e)
        if t is None:
            hom_from_inj = 0
        else:
            hom_from_inj = sum(ctx.hom_dim(iz, t) for iz in injectives)
        if (pd <= 1) != (hom_from_inj == 0):
            witnesses.append(
                f"entry {i}: pd={pd} but Hom(injectives, tau)={hom_from_inj}"
            )
    return Report("projective-dimension-criterion", not witnesses, witnesses)


def _ar_paths(cat: DupCatalog, start: int):
    """All directed paths in the AR quiver from ``start`` (DAG assumed)."""
    adj = {}
    for s, t, _ in cat.catalog.arrows:
        adj.setdefault(s, set()).add(t)
    paths = []

    def walk(path):
        paths.append(tuple(path))
        for t in sorted(adj.get(path[-1], ())):
            if t in path:
                raise ValueError("AR quiver has an oriented cycle")
            walk(path + [t])

    walk([start])
    return paths


def sectional_check(lpc: LeftPartCatalog, cat: DupCatalog) -> Report:
    """Paths of irreducible maps from sink projective-injectives into the
    left part must be sectional; targets outside it must exhibit either a
    non-sectional path or a predecessor of projective dimension >= 2."""
    if cat.in_L is None:
        annotate_catalog(cat, lpc)
    q = cat.base
    sinks, _ = sinks_and_sources(q)
    ctx = dup_category(q)
    tau_of = cat.catalog.tau_of
    witnesses = []
    modules = cat.modules
    reach, pd_table = cat.reach, cat.pd_table
    for a in sinks:
        start = cat.catalog.entries.index(ctx.proj[prime(a)])
        try:
            paths = _ar_paths(cat, start)
        except ValueError as exc:
            return Report("sectional-paths", False, [str(exc)])
        nonsectional_targets = set()
        for path in paths:
            sectional = True
            for k in range(1, len(path) - 1):
                if tau_of.get(path[k + 1]) == path[k - 1]:
                    sectional = False
                    break
            if not sectional:
                nonsectional_targets.add(path[-1])
                if cat.in_L[path[-1]]:
                    witnesses.append(
                        f"non-sectional path {path} from sink {a} ends inside the left part"
                    )
        for j in range(len(modules)):
            if cat.in_L[j] or not reach[start][j]:
                continue
            has_bad_pred = any(
                reach[i][j] and pd_table[i] >= 2 for i in range(len(modules))
            )
            if j not in nonsectional_targets and not has_bad_pred:
                witnesses.append(
                    f"entry {j} outside the left part lacks a non-sectional path "
                    f"from sink {a} and a pd>=2 predecessor"
                )
    return Report("sectional-paths", not witnesses, witnesses)


@dataclass
class CanonicalTilting:
    u_part: tuple  # the Ext-injectives
    v_part: tuple  # projective-injectives outside the left part
    summands: tuple
    verdict: object  # TiltingVerdict


def canonical_tilting(q: Quiver) -> CanonicalTilting:
    """The canonical tilting module: Ext-injectives plus the projectives
    not in the left part (always the primed ones here)."""
    _require_dynkin(q)
    from .tilting import is_tilting_module

    lpc = left_part_catalog(q)
    u = list(lpc.sigma)
    in_l_pi_vertices = {
        x
        for x in q.vertices
        if any(
            lpc.proj_inj_flags[i]
            and is_isomorphic_dup(lpc.members[i], proj_primed(q, x))
            for i in lpc.sigma_indices
        )
    }
    v = [proj_primed(q, x) for x in q.vertices if x not in in_l_pi_vertices]
    summands = tuple(u) + tuple(v)
    verdict = is_tilting_module(list(summands))
    return CanonicalTilting(tuple(u), tuple(v), summands, verdict)
