"""The left part of the duplicated module category and its Ext-injectives.

The left part consists of the indecomposables all of whose predecessors
(under chains of nonzero morphisms) have projective dimension at most one.
Structurally it is the embedded module category of the base algebra together
with the Ext-injectives: the cosyzygy-type modules tau^{-1} of the embedded
injectives, plus the projective-injectives that happen to lie in the left
part.  It is read off the knit of the duplicated algebra as a set of entry
indices (:class:`LeftPart`): its links give the tau^{-1}, and its AR arrows
the radical summands of the projective-injectives.  Every characterization
has a brute-force counterpart here, used by the verification suite.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import NamedTuple, Optional

from .errors import CatalogError, NotDynkinError
from .quiver import Quiver, classify_dynkin, sinks_and_sources
from .dup import DupCatalog, dim_vectors, dup_category, embed_A, knit_ind_dup
from .hereditary import knit_ind_A
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


class LeftPart(NamedTuple):
    """The left part as entry indices of the session's knitted catalog of
    the duplicated algebra of ``base`` (:func:`knit_ind_dup`)."""

    base: Quiver
    ind_a: tuple  # each entry of ind A embedded, in ind A order
    cosyzygies: tuple  # tau^{-1} of the embedded injective I_x, x in vertex order
    proj_inj: tuple  # the P_y' in the left part, y in vertex order

    @property
    def non_proj_inj(self) -> tuple:
        return self.ind_a + self.cosyzygies

    @property
    def sigma(self) -> tuple:
        """The Ext-injectives: the cosyzygies, then the P_y' in the left part."""
        return self.cosyzygies + self.proj_inj

    @property
    def members(self) -> tuple:
        return self.ind_a + self.sigma


def left_part_catalog(q: Quiver) -> LeftPart:
    """Structure-based left part: embedded ind A plus the Ext-injectives.

    The session's, as entry indices of the session's knit of the
    duplicated algebra, which it knits under the default cap if no caller
    has; NotDynkinError off Dynkin type, on every call.

    The left part is the embedded ind A, tau^{-1} of the embedded
    injectives and the projective-injectives all of whose predecessors lie
    in it (Happel-Reiten-Smalo, Memoirs AMS 575).  The predecessors of P_y'
    are itself and those of its radical summands, the sources of the AR
    arrows into it (Assem-Simson-Skowronski vol. 1, IV.3), so membership
    recurses along the primed arrows.
    """
    return session(q).left_part


def primed_projective_entry(q: Quiver, x) -> int:
    """The entry of P_x' in a catalog of the duplicated algebra of q: P_z is
    entry k when z is vertex k, and the primed vertices follow the base ones
    in the same order."""
    return len(q.vertices) + q.vertices.index(x)


def build_left_part(q: Quiver) -> LeftPart:
    # once per session; a build that raises keeps nothing, so it raises again
    if classify_dynkin(q) is None:
        raise NotDynkinError("operation requires a Dynkin quiver")
    cat_a, cat = knit_ind_A(q), knit_ind_dup(q)
    ind_a = tuple(cat.indices([embed_A(e) for e in cat_a.entries]))
    cosyzygies = tuple(cat.catalog.tau_inv_of.get(ind_a[k]) for k in cat_a.injective_at)
    if None in cosyzygies:
        raise CatalogError("embedded injective cannot be injective here")
    if any(cat.in_ind_A[k] for k in cosyzygies):
        raise CatalogError("cosyzygy candidate fell into ind A")
    sources = {}
    for s, t, _ in cat.catalog.arrows:
        sources.setdefault(t, []).append(s)
    in_l = dict.fromkeys(ind_a + cosyzygies, True)
    primed = [primed_projective_entry(q, y) for y in q.vertices]

    def in_left_part(k) -> bool:
        # only a P_y' is decided here; the arrows between them are acyclic
        if k not in in_l:
            in_l[k] = k in primed and all(in_left_part(s) for s in sources.get(k, ()))
        return in_l[k]

    lp = LeftPart(q, ind_a, cosyzygies, tuple(k for k in primed if in_left_part(k)))
    # structural invariants
    if len(set(lp.members)) != len(lp.members):
        raise CatalogError("duplicate member")
    ctx = dup_category(q)
    for i, k in enumerate(lp.members):
        if not ctx.pd_at_most_one(cat.entries[k]):
            raise CatalogError(f"left-part member {i} has projective dimension > 1")
    return lp


# -- verification reports ---------------------------------------------------


def verify_ext_injectives(lp: LeftPart) -> Report:
    """Brute-force check that sigma is exactly the Ext-injectives of the left
    part, and that they are exactly the members whose tau^{-1} leaves it.

    Both read the session's knitted catalog: Ext^1 between members from its
    hom table (every member has projective dimension <= 1, see
    ``DupCatalog.ext1_dim``) and tau^{-1} from its links."""
    cat = knit_ind_dup(lp.base)
    witnesses = []
    sigma, members = set(lp.sigma), lp.members
    for i, k in enumerate(members):
        dims = dim_vectors(cat.entries[k])
        ext_vanishes = all(cat.ext1_dim(l, k) == 0 for l in members)
        if ext_vanishes != (k in sigma):
            witnesses.append(f"member {i} {dims}: Ext-injective={ext_vanishes} but sigma={k in sigma}")
        # injective members have no tau^{-1}
        leaves = cat.catalog.tau_inv_of.get(k) not in members
        if leaves != (k in sigma):
            witnesses.append(f"member {i} {dims}: tau-inverse outside L={leaves} but sigma={k in sigma}")
    return Report("ext-injectives-characterization", not witnesses, witnesses)


def definition_left_part_indices(cat: DupCatalog):
    """First-principles left part inside a knitted catalog: predecessor
    closure of the nonzero-hom relation plus the pd <= 1 flags."""
    reach, pd_table = cat.reach, cat.pd_table
    out = []
    for j in range(len(cat.entries)):
        preds = [i for i in range(len(cat.entries)) if reach[i][j]]
        if all(pd_table[i] for i in preds):
            out.append(j)
    return tuple(out)


def verify_left_part_definition(lp: LeftPart, cat: DupCatalog) -> Report:
    """The definition-based left part of the knitted catalog must equal the
    structure-based one as a set."""
    witnesses = []
    def_indices = set(definition_left_part_indices(cat))
    struct_indices = set(lp.members)
    for j in sorted(def_indices - struct_indices):
        witnesses.append(f"catalog entry {j} is in the definition-based left part only")
    for j in sorted(struct_indices - def_indices):
        witnesses.append(f"catalog entry {j} is in the structure-based left part only")
    return Report("left-part-two-route-equality", not witnesses, witnesses)


def verify_sink_reachability(cat: DupCatalog) -> Report:
    """Every indecomposable outside the embedded module category admits a
    path from a projective-injective at a sink."""
    q = cat.base
    sinks, _ = sinks_and_sources(q)
    reach = cat.reach
    starts = [primed_projective_entry(q, a) for a in sinks]
    witnesses = []
    for j, m in enumerate(cat.entries):
        if not any(dim_vectors(m)[1]):
            continue
        if not any(reach[start][j] for start in starts):
            witnesses.append(f"entry {j} {dim_vectors(m)} unreachable from any sink projective")
    return Report("sink-reachability", not witnesses, witnesses)


def verify_pd_criterion(cat: DupCatalog) -> Report:
    """pd M <= 1 iff no injective maps nonzero into tau M.

    tau M is read from the knit's links, which the almost split sequences
    certify, and dim Hom(I, tau M) from the catalog's hom table, summed over
    the injective entries (each indecomposable injective once); pd <= 1 is
    read off the first syzygy inside its projective cover, with no Hom
    system, and the exact pd is computed only for a witness."""
    ar = cat.catalog
    table = ar.hom_table
    injectives = [k for k, flag in enumerate(ar.injective) if flag]
    witnesses = []
    for i, at_most_one in enumerate(cat.pd_table):
        t = ar.tau_of.get(i)
        hom_from_inj = 0 if t is None else sum(table[k][t] for k in injectives)
        if at_most_one != (hom_from_inj == 0):
            pd = dup_category(cat.base).pd(cat.entries[i])
            witnesses.append(f"entry {i}: pd={pd} but Hom(injectives, tau)={hom_from_inj}")
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


def sectional_check(cat: DupCatalog) -> Report:
    """Paths of irreducible maps from sink projective-injectives into the
    left part must be sectional; targets outside it must exhibit either a
    non-sectional path or a predecessor of projective dimension >= 2.

    The non-sectional targets come from :func:`nonsectional_targets`, with
    one offending path as the witness of each target inside the left part.
    An oriented cycle reachable from a sink is the only witness reported;
    a hom table that fails its certificate (``DupCatalog.reach``) is
    reported after the paths into the left part.
    """
    q = cat.base
    sinks, _ = sinks_and_sources(q)
    starts = {a: primed_projective_entry(q, a) for a in sinks}
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
    n = len(cat.entries)
    pd_table = cat.pd_table
    bad_pred = [any(reach[i][j] and not pd_table[i] for i in range(n)) for j in range(n)]
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
    """Entry indices of the knit of the duplicated algebra."""

    u_part: tuple  # the Ext-injectives
    v_part: tuple  # projective-injectives outside the left part
    summands: tuple
    verdict: object  # TiltingVerdict


def canonical_tilting(q: Quiver) -> CanonicalTilting:
    """The canonical tilting module: Ext-injectives plus the projectives
    not in the left part (always the primed ones here)."""
    from .tilting import is_tilting_module

    lp = left_part_catalog(q)
    primed = (primed_projective_entry(q, y) for y in q.vertices)
    v = tuple(k for k in primed if k not in lp.proj_inj)
    summands = lp.sigma + v
    return CanonicalTilting(lp.sigma, v, summands, is_tilting_module(q, summands))
