"""One Session per quiver: the owner of every per-quiver fact.

A :class:`Session` builds each fact on first read and keeps it; a build that
raises keeps nothing.  :func:`session` returns the one Session of a quiver
(by ``Quiver`` equality), so every caller in a process shares its facts.
The builders live in the modules that read the facts, so each is imported
on first read.
"""

from __future__ import annotations

from functools import cached_property

from .quiver import Quiver, duplicated_quiver


class Session:
    """Every fact about one quiver, each built on first read."""

    def __init__(self, q: Quiver):
        self.quiver = q
        self.embedded = {}  # A-module uid -> its module (X, 0, 0), see embed_A

    @cached_property
    def path_category(self):
        """The module category of A with its standard modules."""
        from .hereditary import build_path_category
        return build_path_category(self.quiver)

    @cached_property
    def report(self):
        """The duplicated quiver and its connecting arrows."""
        return duplicated_quiver(self.quiver)

    @cached_property
    def standard_dup_modules(self):
        """The embedded P_x, I_x, S_x and the primed P_x', I_x', S_x'."""
        from .dup import build_standard_dup_modules
        return build_standard_dup_modules(self.quiver)

    @cached_property
    def dup_category(self):
        """The module category of the duplicated algebra."""
        from .dup import build_dup_category
        return build_dup_category(self.quiver)

    @cached_property
    def dup_catalog(self):
        """The knitted catalog of the duplicated algebra (a DupCatalog);
        read it through ``knit_ind_dup``, which applies the cap."""
        from .dup import build_dup_catalog
        return build_dup_catalog(self.quiver)

    @cached_property
    def cosyzygies(self) -> dict:
        """Vertex x -> tau^{-1} of the embedded injective at x."""
        from .leftpart import build_cosyzygies
        return build_cosyzygies(self.quiver)

    @cached_property
    def left_part(self):
        """The structure-based left part (a LeftPartCatalog)."""
        from .leftpart import build_left_part_catalog
        return build_left_part_catalog(self.quiver)

    @cached_property
    def fundamental_domain(self) -> tuple:
        """ind A by (total dimension, dimension vector), then P_x[1] per vertex."""
        from .cluster import build_fundamental_domain
        return build_fundamental_domain(self.quiver)


_sessions: dict = {}


def session(q: Quiver) -> Session:
    """The Session of q, made on first call."""
    s = _sessions.get(q)
    if s is None:
        s = _sessions[q] = Session(q)
    return s
