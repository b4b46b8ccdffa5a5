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

from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import NamedTuple, Optional

from .errors import CatalogError, NotDynkinError
from .quiver import Quiver, classify_dynkin, prime, sinks_and_sources
from .dup import (
    DupCatalog,
    DupModule,
    dup_category,
    embed_A,
    knit_ind_dup,
    rep_to_triple,
    standard_dup_modules,
)
from .hereditary import knit_ind_A
from .modcat import dim_index
from .session import session


class Report:
    """Outcome of one verification check."""

    def __init__(self, name: str, passed: bool, witnesses: Optional[list] = None):
        self.name = name
        self.passed = passed
        self.witnesses = [] if witnesses is None else witnesses

    def as_dict(self):
        return {"check": self.name, "passed": self.passed, "witnesses": list(self.witnesses)}

    def __bool__(self):
        return self.passed


def _require_dynkin(q: Quiver):
    d = classify_dynkin(q)
    if d is None:
        raise NotDynkinError("operation requires a Dynkin quiver")
    return d


class LeftPartCatalog:
    """Members of the left part, partitioned by how they arise.

    Frozen (assigning an attribute raises AttributeError): one catalog per
    quiver is shared by every caller of :func:`left_part_catalog`.
    """

    def __init__(
        self, base: Quiver, members: tuple, ind_a_flags: tuple, cosyzygy_flags: tuple,
        proj_inj_flags: tuple, cosyzygy_by_vertex: dict, sigma_indices: tuple
    ):
        """``members`` are DupModules; ``cosyzygy_flags`` mark the tau^{-1}
        of the embedded injectives; ``cosyzygy_by_vertex`` maps a vertex to
        its member index."""
        self.__dict__.update(
            base=base,
            members=members,
            ind_a_flags=ind_a_flags,
            cosyzygy_flags=cosyzygy_flags,
            proj_inj_flags=proj_inj_flags,
            cosyzygy_by_vertex=cosyzygy_by_vertex,
            sigma_indices=sigma_indices,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def sigma(self):
        return tuple(self.members[i] for i in self.sigma_indices)

    def non_proj_inj_members(self):
        return tuple(
            m for m, f in zip(self.members, self.proj_inj_flags) if not f
        )

    @cached_property
    def _by_dim(self):
        """The members' representations and their :func:`dim_index`."""
        member_reps = [m.rep() for m in self.members]
        return member_reps, dim_index(member_reps)

    def member_index(self, m: DupModule) -> Optional[int]:
        """Index of the member isomorphic to m, or None; exact because the
        members are indecomposable."""
        member_reps, index = self._by_dim
        return dup_category(self.base).find_iso(m.rep(), member_reps, index)


def left_part_catalog(q: Quiver) -> LeftPartCatalog:
    """Structure-based left part: embedded ind A plus the Ext-injectives.

    The session's catalog, so the checks that read it share its members and
    their Hom/Ext caches.

    A projective-injective lies in the left part iff all its predecessors
    do, and its predecessors are itself plus those of its radical summands.
    Since the left part is exactly the embedded modules, the translates of
    the embedded injectives and the qualifying projective-injectives, the
    membership test reduces to decomposing the radical into these
    candidates, recursing along the primed arrows.  No knitting of the
    duplicated category is needed.
    """
    _require_dynkin(q)
    return session(q).left_part


def build_cosyzygies(q: Quiver) -> dict:
    """Vertex x -> tau^{-1} of the embedded injective at x."""
    ctx = dup_category(q)
    cosyz = {}
    for x, i in standard_dup_modules(q).embedded_injective.items():
        t = ctx.tau_inv(i.rep())
        if t is None:
            raise CatalogError("embedded injective cannot be injective here")
        t = rep_to_triple(t, q)
        if t.y_part.is_zero():
            raise CatalogError("cosyzygy candidate fell into ind A")
        cosyz[x] = t
    return cosyz


def build_left_part_catalog(q: Quiver) -> LeftPartCatalog:
    cat_a = knit_ind_A(q)
    embeds = [embed_A(e) for e in cat_a.entries]
    cosyz = session(q).cosyzygies
    pis = standard_dup_modules(q).projective_primed
    ctx = dup_category(q)
    # the modules always in the left part, then P_y' for the vertices y
    candidates = [m.rep() for m in embeds] + [cosyz[x].rep() for x in q.vertices]
    n_always = len(candidates)
    candidates += [pis[y].rep() for y in q.vertices]
    index = dim_index(candidates)
    pi_in_l: dict = {}

    def pbar_in_left_part(x) -> bool:
        # dependency runs along primed arrows, hence is acyclic
        if x not in pi_in_l:
            rad, _ = ctx.radical(pis[x].rep())
            mults, residual = ctx.try_decompose(rad, candidates, index)
            pi_in_l[x] = residual.is_zero() and all(
                pbar_in_left_part(q.vertices[i - n_always]) for i, _ in mults if i >= n_always
            )
        return pi_in_l[x]

    for x in q.vertices:
        pbar_in_left_part(x)
    # members: ind A, then one cosyzygy per vertex, then the P_y' in the left part
    n_embed, n = len(embeds), len(q.vertices)
    members = tuple(embeds) + tuple(cosyz[x] for x in q.vertices)
    members += tuple(pis[y] for y in q.vertices if pi_in_l[y])
    sizes = (n_embed, n, len(members) - n_embed - n)

    def block(k):
        return tuple(b == k for b, size in enumerate(sizes) for _ in range(size))

    lpc = LeftPartCatalog(
        q,
        members,
        block(0),
        block(1),
        block(2),
        {x: n_embed + k for k, x in enumerate(q.vertices)},
        tuple(range(n_embed, len(members))),
    )
    # structural invariants
    member_reps = [m.rep() for m in lpc.members]
    for i, m in enumerate(member_reps):
        if ctx.pd(m) > 1:
            raise CatalogError(f"left-part member {i} has projective dimension > 1")
        for j in range(i + 1, len(member_reps)):
            if ctx.iso(m, member_reps[j]):
                raise CatalogError("duplicate member")
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
    part, and that they are exactly the members whose tau^{-1} leaves it.

    Both read the session's knitted catalog: Ext^1 between members from its
    hom table (every member has projective dimension <= 1, see
    ``DupCatalog.ext1_dim``) and tau^{-1} from its links."""
    cat = knit_ind_dup(lpc.base)
    witnesses = []
    sigma_set = set(lpc.sigma_indices)
    found = cat.indices(lpc.members)
    in_l = set(found)
    for i, (m, k) in enumerate(zip(lpc.members, found)):
        ext_vanishes = all(cat.ext1_dim(l, k) == 0 for l in found)
        if ext_vanishes != (i in sigma_set):
            witnesses.append(
                f"member {i} {m}: Ext-injective={ext_vanishes} but sigma={i in sigma_set}"
            )
        # injective members have no tau^{-1}
        leaves = cat.catalog.tau_inv_of.get(k) not in in_l
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
    """pd M <= 1 iff no injective maps nonzero into tau M.

    tau M is read from the knit's links, which the almost split sequences
    certify, and dim Hom(I, tau M) from the catalog's hom table, summed over
    the injective entries (each indecomposable injective once); the
    projective dimensions come from presentations, with no Hom system."""
    ar = cat.catalog
    table = ar.hom_table
    injectives = [k for k, flag in enumerate(ar.injective) if flag]
    witnesses = []
    for i, pd in enumerate(cat.pd_table):
        t = ar.tau_of.get(i)
        hom_from_inj = 0 if t is None else sum(table[k][t] for k in injectives)
        if (pd <= 1) != (hom_from_inj == 0):
            witnesses.append(
                f"entry {i}: pd={pd} but Hom(injectives, tau)={hom_from_inj}"
            )
    return Report("projective-dimension-criterion", not witnesses, witnesses)


def nonsectional_targets(arrows, tau_of: dict, start: int) -> dict:
    """Every end of a non-sectional AR path from ``start``, with one such
    path to it.

    A path x0 -> ... -> xk is sectional when no x_{i+1} has tau x_{i+1} =
    x_{i-1}.  A worklist runs over the states (previous, current) of the
    sectional paths from ``start``; a step c -> t from (p, c) with
    tau_of[t] == p ends a non-sectional path, and every extension of a
    non-sectional path is non-sectional, so the targets are the forward
    closure of those t.  Parent pointers name one path per target.  Raises
    ValueError when an oriented cycle is reachable from ``start``.
    """
    succ = {}
    for s, t, _ in arrows:
        succ.setdefault(s, set()).add(t)
    succ = {s: sorted(ts) for s, ts in succ.items()}
    reachable = {start: succ.get(start, ())}
    order = [start]
    for v in order:
        for t in reachable[v]:
            if t not in reachable:
                reachable[t] = succ.get(t, ())
                order.append(t)
    try:
        TopologicalSorter(reachable).prepare()
    except CycleError:
        raise ValueError("AR quiver has an oriented cycle") from None

    state_parent = {(start, t): None for t in succ.get(start, ())}
    states = list(state_parent)
    first_step = {}  # t -> the state (p, c) whose step to t is non-sectional
    for p, c in states:
        for t in succ.get(c, ()):
            if tau_of.get(t) == p:
                first_step.setdefault(t, (p, c))
            elif (c, t) not in state_parent:
                state_parent[(c, t)] = (p, c)
                states.append((c, t))
    node_parent = dict.fromkeys(sorted(first_step))
    closure = list(node_parent)
    for v in closure:
        for t in succ.get(v, ()):
            if t not in node_parent:
                node_parent[t] = v
                closure.append(t)

    def path_to(t):
        tail = [t]
        while node_parent[tail[-1]] is not None:
            tail.append(node_parent[tail[-1]])
        head = []
        state = first_step[tail[-1]]
        while state is not None:
            head.append(state[1])
            if state_parent[state] is None:
                head.append(state[0])
            state = state_parent[state]
        return tuple(reversed(head)) + tuple(reversed(tail))

    return {t: path_to(t) for t in sorted(closure)}


def sectional_check(lpc: LeftPartCatalog, cat: DupCatalog) -> Report:
    """Paths of irreducible maps from sink projective-injectives into the
    left part must be sectional; targets outside it must exhibit either a
    non-sectional path or a predecessor of projective dimension >= 2.

    The non-sectional targets come from :func:`nonsectional_targets`, with
    one offending path as the witness of each target inside the left part.
    An oriented cycle reachable from a sink is the only witness reported;
    a hom table that fails its certificate (``DupCatalog.reach``) is
    reported after the paths into the left part.
    """
    if cat.in_L is None:
        annotate_catalog(cat, lpc)
    q = cat.base
    sinks, _ = sinks_and_sources(q)
    ctx = dup_category(q)
    starts = {a: cat.catalog.entries.index(ctx.proj[prime(a)]) for a in sinks}
    try:
        by_sink = {
            a: nonsectional_targets(cat.catalog.arrows, cat.catalog.tau_of, start)
            for a, start in starts.items()
        }
    except ValueError as exc:
        return Report("sectional-paths", False, [str(exc)])
    witnesses = []
    inside = {
        a: [
            f"non-sectional path {path} from sink {a} ends inside the left part"
            for j, path in targets.items()
            if cat.in_L[j]
        ]
        for a, targets in by_sink.items()
    }
    try:
        reach = cat.reach
    except CatalogError as exc:
        # the hom table behind reach failed its certificate: the arrows or
        # links the paths were read from are wrong
        return Report("sectional-paths", False, sum(inside.values(), []) + [str(exc)])
    n = len(cat.modules)
    pd_table = cat.pd_table
    bad_pred = [any(reach[i][j] and pd_table[i] >= 2 for i in range(n)) for j in range(n)]
    for a, targets in by_sink.items():
        start = starts[a]
        witnesses += inside[a]
        for j in range(n):
            if cat.in_L[j] or not reach[start][j]:
                continue
            if j not in targets and not bad_pred[j]:
                witnesses.append(
                    f"entry {j} outside the left part lacks a non-sectional path "
                    f"from sink {a} and a pd>=2 predecessor"
                )
    return Report("sectional-paths", not witnesses, witnesses)


class CanonicalTilting(NamedTuple):
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
    u = lpc.sigma
    # sigma holds the session's own P_x' objects, so membership is identity
    v = [p for p in standard_dup_modules(q).projective_primed.values() if p not in u]
    summands = u + tuple(v)
    verdict = is_tilting_module(list(summands))
    return CanonicalTilting(u, tuple(v), summands, verdict)
