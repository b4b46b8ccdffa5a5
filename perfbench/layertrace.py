"""Outside-in layer trace for the benchmark.

``install`` wraps the public functions of each ``dupcat`` module from the
outside, at every name they are bound to across the loaded ``dupcat.*``
modules (found by function identity), so that a call through any alias opens
the same span.  ``ModuleCategory`` methods are wrapped on the class.  Nothing
under ``src/`` is changed.

Each span has a name, a start, an end and the span that was open when it
started.  Per name the tracer keeps the number of calls, the time of the
outermost spans (``total_s``: a recursive call is not counted twice) and the
self time (the span's duration minus the time covered by its child spans).
Some spans also add exact size counters (``cells``, ``unknowns``, ``hits``).
"""

from __future__ import annotations

import functools
import sys
import time

_clock = time.perf_counter


def _nullspace_cells(args, result):
    m = args[0]
    return {"cells": m.rows * m.cols}


def _hom_unknowns(args, result):
    m, n = args[0], args[1]
    return {"unknowns": sum(m.dims[v] * n.dims[v] for v in m.quiver.vertices)}


def _split_hits(args, result):
    return {"hits": int(result is not None)}


# (module, function or Class.method, size counter).  The span is named
# ``<module>.<function>``; a method span drops the class name.
SPANS = [
    ("linalg", "nullspace_basis", _nullspace_cells),
    ("linalg", "rank", None),
    ("linalg", "generic_max_rank", None),
    ("linalg", "coordinates_in_span", None),
    ("reps", "hom_basis", _hom_unknowns),
    ("reps", "split_pair", _split_hits),
    ("reps", "is_isomorphic", None),
    ("reps", "cokernel", None),
    ("modcat", "ModuleCategory.hom", None),
    ("modcat", "ModuleCategory.presentation", None),
    ("modcat", "ModuleCategory.tau", None),
    ("modcat", "ModuleCategory.tau_inv", None),
    ("modcat", "ModuleCategory.ext1_dim", None),
    ("modcat", "ModuleCategory.ext1_middle", None),
    ("modcat", "ModuleCategory.pd", None),
    ("modcat", "ModuleCategory.knit", None),
    ("modcat", "ModuleCategory.decompose", None),
    ("hereditary", "knit_ind_A", None),
    ("hereditary", "path_category", None),
    ("dup", "knit_ind_dup", None),
    ("dup", "rep_to_triple", None),
    ("dup", "triple_to_rep", None),
    ("dup", "ext1_dup", None),
    ("dup", "is_isomorphic_dup", None),
    ("dup", "tau_dup_pair", None),
    ("leftpart", "sectional_check", None),
    ("leftpart", "left_part_catalog", None),
    ("leftpart", "verify_sink_reachability", None),
    ("leftpart", "verify_pd_criterion", None),
    ("leftpart", "verify_ext_injectives", None),
    ("leftpart", "canonical_tilting", None),
    ("cluster", "enumerate_cluster_tilting", None),
    ("cluster", "ext1_cluster_dim", None),
    ("cluster", "pi_bar", None),
    ("tilting", "enumerate_L_tilting", None),
    ("tilting", "verify_bijection", None),
    ("tilting", "is_tilting_module", None),
    ("verify", "run_all_checks", None),
    ("quiver", "parse_quiver", None),
    ("quiver", "duplicated_quiver", None),
    ("catalog_io", "dup_catalog_to_dict", None),
    ("catalog_io", "dumps", None),
    ("dot", "ar_quiver_dot", None),
    ("cli", "cmd_analyze", None),
    ("cli", "cmd_verify", None),
    ("cli", "cmd_enumerate", None),
    ("cli", "cmd_emit_dot", None),
    ("cli", "cmd_export", None),
]

# Constructors that are only counted: a span per matrix would cost more than
# the construction itself.
COUNTED = [("linalg", "RMatrix.__init__", "linalg.RMatrix.init")]

# The stage functions ``run_all_checks`` calls, in pipeline order.  Each gets
# a ``verify.<stage>`` span around its binding in ``dupcat.verify``, outside
# any layer span the same function already has (several are ``leftpart``
# functions).
STAGES = [
    "check_embedding_fidelity",
    "verify_pd_criterion",
    "verify_sink_reachability",
    "sectional_check",
    "verify_ext_injectives",
    "verify_left_part_definition",
    "check_cosyzygy_tau_identity",
    "check_socle_quotient_sequences",
    "check_fundamental_domain_counts",
    "check_ext_symmetry_and_cross_model",
    "check_tilting_bijection",
    "check_canonical_tilting",
]

# A ``modcat.hom`` call is a cache hit when it opens no ``reps.hom_basis``.
HIT_WATCH = {"modcat.hom": "reps.hom_basis"}


class Tracer:
    """In-memory span recorder.  Single-threaded: spans nest by call stack."""

    def __init__(self, keep_spans: bool = False):
        self.keep_spans = keep_spans
        self.reset()

    def reset(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counters = {}  # "name.counter" -> int
        self.edges = {}  # "parent>child" -> seconds spent in child spans
        self.spans = [] if self.keep_spans else None
        self._stack = []  # open frames: [id, name, start, child_s]
        self._open = {}  # name -> number of open spans of that name
        self._next_id = 1

    def count(self, key: str, k: int = 1):
        self.counters[key] = self.counters.get(key, 0) + k

    def calls(self, name: str) -> int:
        s = self.stats.get(name)
        return s[0] if s else 0

    def open(self, name: str):
        frame = [self._next_id, name, _clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def close(self, frame):
        end = _clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("trace spans closed out of order")
        span_id, name, start, child_s = frame
        dur = end - start
        self._open[name] -= 1
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = [0, 0.0, 0.0]
        s[0] += 1
        s[2] += dur - child_s
        if self._open[name] == 0:
            s[1] += dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
            edge = f"{parent[1]}>{name}"
            self.edges[edge] = self.edges.get(edge, 0.0) + dur
        if self.spans is not None:
            self.spans.append(
                (span_id, parent[0] if parent else 0, name, start, end)
            )

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "edges": dict(self.edges),
            "spans": list(self.spans) if self.spans is not None else None,
        }


def span_wrapper(tracer: Tracer, name: str, fn, sizes=None):
    watch = HIT_WATCH.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = tracer.calls(watch) if watch else 0
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if sizes is not None:
            for key, k in sizes(args, result).items():
                tracer.count(f"{name}.{key}", k)
        if watch and tracer.calls(watch) == before:
            tracer.count(f"{name}.hits")
        return result

    return wrapper


def count_wrapper(tracer: Tracer, name: str, fn):
    key = f"{name}.calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)

    return wrapper


def _noop(*args, **kwargs):
    return None


def wrapper_cost(n: int = 5000):
    """Seconds one span wrapper and one count wrapper add to a call, measured
    on a no-op function in this process."""
    scratch = Tracer()
    pairs = [(_noop, span_wrapper(scratch, "cal", _noop)), (_noop, count_wrapper(scratch, "cal", _noop))]
    costs = []
    for plain, wrapped in pairs:
        t0 = _clock()
        for _ in range(n):
            plain()
        t1 = _clock()
        for _ in range(n):
            wrapped()
        t2 = _clock()
        costs.append(max(0.0, ((t2 - t1) - (t1 - t0)) / n))
    return tuple(costs)


def overhead_s(tracer: Tracer) -> float:
    """Estimated time the wrappers added to the traced run: spans opened and
    constructions counted, times the measured per-call wrapper cost."""
    per_span, per_count = wrapper_cost()
    spans = sum(s[0] for s in tracer.stats.values())
    counted = sum(tracer.counters.get(f"{name}.calls", 0) for _, _, name in COUNTED)
    return spans * per_span + counted * per_count


def _dupcat_modules():
    return [
        m
        for n, m in sorted(sys.modules.items())
        if m is not None and (n == "dupcat" or n.startswith("dupcat."))
    ]


def _rebind(originals: dict, bound: dict):
    """Replace every module-level binding, and every value of a module-level
    dict, whose identity is a key of ``originals`` by its wrapper; count the
    replacements per span name in ``bound``."""

    def swap(value, put):
        hit = originals.get(id(value))
        if hit is not None and hit[0] is value:
            put(hit[1])
            bound[hit[2]] = bound.get(hit[2], 0) + 1

    for mod in _dupcat_modules():
        for attr, value in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            swap(value, functools.partial(setattr, mod, attr))
            if isinstance(value, dict):
                for key, item in list(value.items()):
                    swap(item, functools.partial(value.__setitem__, key))


def _lookup(mods: dict, module: str, attr: str):
    """``(owner, function)`` for ``module.attr`` (``attr`` may be
    ``Class.method``), or ``(None, None)`` when the program no longer has it;
    its span then reports zero calls."""
    owner = mods.get(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, last, None) if owner is not None else None
    return (owner, fn) if callable(fn) else (None, None)


def install(tracer: Tracer) -> dict:
    """Wrap every listed function for ``tracer``.  Call once per process,
    after ``dupcat.cli`` (and through it every module) is imported.

    Returns ``{span name: number of bindings wrapped}``.
    """
    import dupcat.cli  # noqa: F401  (loads every module the spans name)

    mods = {m.__name__.split(".")[-1]: m for m in _dupcat_modules()}
    originals = {}
    bound = {}
    for module, attr, sizes in SPANS:
        name = f"{module}.{attr.split('.')[-1]}"
        owner, fn = _lookup(mods, module, attr)
        bound[name] = 0
        if fn is None:
            continue
        wrapper = span_wrapper(tracer, name, fn, sizes)
        if "." in attr:  # a method: wrap it on the class
            setattr(owner, attr.split(".")[-1], wrapper)
            bound[name] = 1
        else:
            originals[id(fn)] = (fn, wrapper, name)
    for module, attr, name in COUNTED:
        owner, fn = _lookup(mods, module, attr)
        if fn is not None:
            setattr(owner, attr.split(".")[-1], count_wrapper(tracer, name, fn))
        bound[name] = int(fn is not None)
    _rebind(originals, bound)
    for stage in STAGES:
        owner, fn = _lookup(mods, "verify", stage)
        if fn is not None:
            setattr(owner, stage, span_wrapper(tracer, f"verify.{stage}", fn))
        bound[f"verify.{stage}"] = int(fn is not None)
    return bound


def layer_metrics(stats: dict, counters: dict) -> dict:
    """Flatten tracer output into ``{metric name: value}``."""
    out = dict(counters)
    for name, (calls, total_s, self_s) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total_s
        out[f"{name}.self_s"] = self_s
    return out


def _m(spec: str, unit: str, better: str):
    return [(name, unit, better) for name in spec.split()]


# The per-layer metrics the traced run reports, in the order of BENCHMARK.json.
# Values are per pass, summed over its operations.  ``ops.*`` are the times
# of one class of operation (spawn to exit), ``trace.wall_s`` the traced pass
# time, ``trace.overhead_s`` the wrapper cost (``overhead_s``) and
# ``trace.unspanned_s`` the time of the ``verify`` operations covered neither
# by set-up nor by a direct child span of ``verify.run_all_checks``.
PER_LAYER = (
    _m("linalg.nullspace_basis.calls linalg.nullspace_basis.cells linalg.rank.calls "
       "linalg.generic_max_rank.calls linalg.RMatrix.init.calls", "count", "lower")
    + _m("linalg.nullspace_basis.self_s linalg.rank.self_s linalg.generic_max_rank.self_s "
         "linalg.coordinates_in_span.self_s", "s", "lower")
    + _m("reps.hom_basis.calls reps.hom_basis.unknowns reps.split_pair.calls "
         "reps.is_isomorphic.calls", "count", "lower")
    + _m("reps.hom_basis.self_s reps.split_pair.self_s reps.is_isomorphic.self_s "
         "reps.cokernel.self_s", "s", "lower")
    + _m("reps.split_pair.hit_ratio modcat.hom.hit_ratio", "ratio", "higher")
    + _m("modcat.hom.calls modcat.presentation.calls modcat.ext1_dim.calls modcat.pd.calls",
         "count", "lower")
    + _m("modcat.presentation.self_s modcat.tau.self_s modcat.tau_inv.self_s "
         "modcat.ext1_dim.self_s modcat.ext1_middle.self_s modcat.knit.self_s "
         "modcat.knit.total_s modcat.decompose.self_s", "s", "lower")
    + _m("hereditary.knit_ind_A.total_s hereditary.path_category.total_s "
         "dup.knit_ind_dup.total_s dup.rep_to_triple.self_s dup.tau_dup_pair.total_s",
         "s", "lower")
    + _m("dup.rep_to_triple.calls dup.triple_to_rep.calls dup.ext1_dup.calls "
         "dup.is_isomorphic_dup.calls", "count", "lower")
    + _m("leftpart.sectional_check.self_s leftpart.sectional_check.total_s "
         "leftpart.left_part_catalog.total_s leftpart.verify_sink_reachability.total_s "
         "leftpart.verify_pd_criterion.total_s leftpart.verify_ext_injectives.total_s "
         "leftpart.canonical_tilting.total_s", "s", "lower")
    + _m("leftpart.sectional_check.wall_share", "ratio", "lower")
    + _m("cluster.enumerate_cluster_tilting.total_s cluster.pi_bar.self_s "
         "tilting.enumerate_L_tilting.total_s tilting.verify_bijection.total_s "
         "tilting.is_tilting_module.total_s", "s", "lower")
    + _m("cluster.ext1_cluster_dim.calls cluster.pi_bar.calls", "count", "lower")
    + _m(" ".join(f"verify.{s}.total_s" for s in STAGES) + " verify.run_all_checks.total_s",
         "s", "lower")
    + _m("quiver.parse_quiver.total_s quiver.duplicated_quiver.total_s "
         "catalog_io.dup_catalog_to_dict.total_s catalog_io.dumps.total_s "
         "dot.ar_quiver_dot.total_s cli.cmd_analyze.total_s cli.cmd_verify.total_s "
         "cli.cmd_enumerate.total_s cli.cmd_export.total_s cli.cmd_emit_dot.total_s",
         "s", "lower")
    + _m("ops.enumerate_s ops.guard_s trace.wall_s trace.overhead_s trace.unspanned_s",
         "s", "lower")
)
