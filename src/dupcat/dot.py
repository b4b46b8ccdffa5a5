"""Graphviz DOT output for AR quivers of duplicated algebras.

Follows the usual drawing conventions: the left part is boxed as a cluster,
projective-injectives are circles, the free summands of a chosen tilting
module are diamonds, and translate links are dashed.
"""

from __future__ import annotations

from .dup import DupCatalog, dim_vectors


def _label(cat: DupCatalog, idx: int) -> str:
    x, y = dim_vectors(cat.entries[idx])
    return "".join(str(d) for d in x) + "|" + "".join(str(d) for d in y)


def ar_quiver_dot(cat: DupCatalog, free=()) -> str:
    """Render the knitted AR quiver, with the entries at the indices
    ``free`` (the free part of a tilting module) as diamonds; the left
    part, read off the catalog's flags, needs a Dynkin base
    (NotDynkinError otherwise)."""
    diamond = set(free)
    lines = ["digraph ar_quiver {", "  rankdir=LR;", '  node [fontsize=10];']

    def node_line(i):
        attrs = [f'label="{_label(cat, i)}"']
        if cat.proj_injective[i]:
            attrs.append("shape=circle")
        elif i in diamond:
            attrs.append("shape=diamond")
        else:
            attrs.append("shape=ellipse")
        if cat.in_sigma[i]:
            attrs.append("style=bold")
        return f'  n{i} [{", ".join(attrs)}];'

    inside = [i for i in range(len(cat.entries)) if cat.in_L[i]]
    outside = [i for i in range(len(cat.entries)) if not cat.in_L[i]]
    if inside:
        lines.append("  subgraph cluster_left_part {")
        lines.append('    label="left part";')
        for i in inside:
            lines.append("  " + node_line(i))
        lines.append("  }")
    for i in outside:
        lines.append(node_line(i))
    for s, t, mult in cat.catalog.arrows:
        for _ in range(mult):
            lines.append(f"  n{s} -> n{t};")
    for m, t in sorted(cat.catalog.tau_inv_of.items()):
        lines.append(f"  n{t} -> n{m} [style=dashed, dir=none, color=gray];")
    lines.append("}")
    return "\n".join(lines) + "\n"
