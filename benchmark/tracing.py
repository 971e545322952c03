"""Spans around the public functions of each layer, installed from outside.

``Tracer.install`` rebinds the module attributes that callers look up (for
example ``hive.feasible`` or ``horn.cone_implied``) to wrappers that open a
span, so the program itself is unchanged.  Spans are aggregated in memory by
(parent, name): calls, total CPU time and self time, where self time is a
span's duration minus the time covered by its child spans.  Counters are
recorded at the same boundaries.
"""

from __future__ import annotations

import time
from functools import wraps

# prefix of the line a traced cli child writes last to stderr
TRACE_TAG = "BENCHTRACE "

# (module, attribute, span name): every lookup site of a layer's entry point
SPANS = (
    ("lr", "lr_coefficient", "lr.coefficient"),
    ("generalized", "lr_coefficient", "lr.coefficient"),
    ("cli", "lr_coefficient", "lr.coefficient"),
    ("hive", "lr_hive_count", "lr.hive_count"),
    ("cli", "lr_hive_count", "lr.hive_count"),
    ("generalized", "f_sun", "generalized.f_sun"),
    ("horn", "f_sun", "generalized.f_sun"),
    ("quiver", "f_sun", "generalized.f_sun"),
    ("generalized", "cyclic_chain_sum", "generalized.chain_sum"),
    ("generalized", "f1", "generalized.open_chain"),
    ("generalized", "f2", "generalized.open_chain"),
    ("hive", "positivity", "hive.positivity"),
    ("hive", "build_linear_system", "hive.build"),
    ("hive", "count_sun_hives", "hive.count"),
    ("hive", "feasible", "linprog.feasible"),
    ("linprog", "eliminate_equalities", "linprog.elim"),
    ("linprog", "fourier_motzkin_feasible", "linprog.fm"),
    ("linprog", "simplex_feasible", "linprog.simplex"),
    ("horn", "cone_implied", "linprog.cone_implied"),
    ("horn", "generate_T", "horn.generate_T"),
    ("horn", "minimal_facets", "horn.minimal_facets"),
    ("horn", "in_cone", "horn.in_cone"),
    ("quiver", "dim_si_sun", "quiver.dim_si"),
)

# box enumerators: counted (partitions returned per chain slot), not timed
BOX_ENUMERATORS = (("generalized", "partitions_in_box"), ("generalized", "partitions_of_size_in_box"))

PER_LAYER = (
    ("lr.coefficient_calls", "count"),
    ("lr.coefficient_self_s", "s"),
    ("lr.tableau_cache_hits", "count"),
    ("lr.tableau_cache_misses", "count"),
    ("lr.hive_count_calls", "count"),
    ("lr.hive_count_self_s", "s"),
    ("generalized.f_sun_calls", "count"),
    ("generalized.chain_sum_calls", "count"),
    ("generalized.chain_sum_self_s", "s"),
    ("generalized.open_chain_self_s", "s"),
    ("generalized.box_states", "count"),
    ("hive.systems_built", "count"),
    ("hive.system_rows", "count"),
    ("hive.build_self_s", "s"),
    ("hive.count_self_s", "s"),
    ("linprog.elim_self_s", "s"),
    ("linprog.elim_decided", "count"),
    ("linprog.fm_calls", "count"),
    ("linprog.fm_self_s", "s"),
    ("linprog.fm_fallbacks", "count"),
    ("linprog.simplex_calls", "count"),
    ("linprog.simplex_self_s", "s"),
    ("linprog.cone_implied_calls", "count"),
    ("linprog.cone_implied_self_s", "s"),
    ("horn.generate_T_self_s", "s"),
    ("horn.candidates_kept", "count"),
    ("horn.minimal_facets_self_s", "s"),
    ("horn.in_cone_calls", "count"),
    ("quiver.dim_si_calls", "count"),
    ("quiver.dim_si_self_s", "s"),
    ("cli.import_cpu_s", "s"),
    ("cli.request_cpu_s", "s"),
    ("trace.overhead_s", "s"),
)


def _accumulate(table, key, rec):
    """Add (calls, total_s, self_s) to table[key]."""
    acc = table.setdefault(key, [0, 0.0, 0.0])
    for i, x in enumerate(rec):
        acc[i] += x


class Tracer:
    def __init__(self):
        self.spans = {}  # (parent, name) -> [calls, total_s, self_s]
        self.counters = {}
        self._stack = []  # [name, child_s] per open span
        self._saved = []

    def count(self, key, k=1):
        self.counters[key] = self.counters.get(key, 0) + k

    def _wrap(self, fn, name):
        clock = time.process_time
        stack, spans = self._stack, self.spans
        before, after, on_error = _HOOKS.get(name, (None, None, None))

        @wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            seen = before(args) if before else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(self, exc)
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = spans.setdefault((parent, name), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if after:
                after(self, args, result, seen)
            return result

        return span

    def _count_states(self, fn):
        @wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.count("generalized.box_states", len(out))
            return out

        return counted

    def install(self, modules):
        for mod, attr, name in SPANS:
            if mod in modules:
                self._rebind(modules[mod], attr, self._wrap(getattr(modules[mod], attr), name))
        for mod, attr in BOX_ENUMERATORS:
            self._rebind(modules[mod], attr, self._count_states(getattr(modules[mod], attr)))

    def _rebind(self, module, attr, fn):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def read_tableau_cache(self, lr):
        info = lr._lr_tableau_count.cache_info()
        self.count("lr.tableau_cache_hits", info.hits)
        self.count("lr.tableau_cache_misses", info.misses)

    # aggregation across processes (the cli workload traces its children)

    def to_json(self):
        return {
            "spans": [[p, n, *v] for (p, n), v in sorted(self.spans.items(), key=str)],
            "counters": self.counters,
        }

    def merge_json(self, doc):
        for parent, name, *rec in doc["spans"]:
            _accumulate(self.spans, (parent, name), rec)
        for key, k in doc["counters"].items():
            self.count(key, k)

    def by_name(self):
        out = {}
        for (_, name), rec in self.spans.items():
            _accumulate(out, name, rec)
        return out

    def layer_metrics(self):
        """The per-layer metrics that spans and counters give; 0 where a layer was idle."""
        spans = self.by_name()

        def calls(name):
            return spans.get(name, (0, 0.0, 0.0))[0]

        def self_s(name):
            return spans.get(name, (0, 0.0, 0.0))[2]

        c = self.counters.get
        return {
            "lr.coefficient_calls": calls("lr.coefficient"),
            "lr.coefficient_self_s": self_s("lr.coefficient"),
            "lr.tableau_cache_hits": c("lr.tableau_cache_hits", 0),
            "lr.tableau_cache_misses": c("lr.tableau_cache_misses", 0),
            "lr.hive_count_calls": calls("lr.hive_count"),
            "lr.hive_count_self_s": self_s("lr.hive_count"),
            "generalized.f_sun_calls": calls("generalized.f_sun"),
            "generalized.chain_sum_calls": calls("generalized.chain_sum"),
            "generalized.chain_sum_self_s": self_s("generalized.chain_sum"),
            "generalized.open_chain_self_s": self_s("generalized.open_chain"),
            "generalized.box_states": c("generalized.box_states", 0),
            "hive.systems_built": calls("hive.build"),
            "hive.system_rows": c("hive.system_rows", 0),
            "hive.build_self_s": self_s("hive.build"),
            "hive.count_self_s": self_s("hive.count"),
            "linprog.elim_self_s": self_s("linprog.elim"),
            "linprog.elim_decided": c("linprog.elim_decided", 0),
            "linprog.fm_calls": calls("linprog.fm"),
            "linprog.fm_self_s": self_s("linprog.fm"),
            "linprog.fm_fallbacks": c("linprog.fm_fallbacks", 0),
            "linprog.simplex_calls": calls("linprog.simplex"),
            "linprog.simplex_self_s": self_s("linprog.simplex"),
            "linprog.cone_implied_calls": calls("linprog.cone_implied"),
            "linprog.cone_implied_self_s": self_s("linprog.cone_implied"),
            "horn.generate_T_self_s": self_s("horn.generate_T"),
            "horn.candidates_kept": c("horn.candidates_kept", 0),
            "horn.minimal_facets_self_s": self_s("horn.minimal_facets"),
            "horn.in_cone_calls": calls("horn.in_cone"),
            "quiver.dim_si_calls": calls("quiver.dim_si"),
            "quiver.dim_si_self_s": self_s("quiver.dim_si"),
        }


# per-span counters: name -> (before(args), after(tracer, args, result, before's value),
# on_error(tracer, exc)), any of them None


def _rows_built(tracer, args, system, _):
    tracer.count("hive.system_rows", len(system.ineqs) + len(system.eqs))


def _elim_decided(tracer, args, result, _):
    if not result[0]:
        tracer.count("linprog.elim_decided")


def _fm_fallback(tracer, exc):
    from sunlr.errors import InvalidInputError

    if isinstance(exc, InvalidInputError):
        tracer.count("linprog.fm_fallbacks")


def _T_cached(args):
    from sunlr import horn

    variant = args[2] if len(args) > 2 else "one"
    return (args[0], args[1], variant) in horn._T_CACHE


def _T_kept(tracer, args, result, cached):
    if not cached:
        tracer.count("horn.candidates_kept", len(result))


_HOOKS = {
    "hive.build": (None, _rows_built, None),
    "linprog.elim": (None, _elim_decided, None),
    "linprog.fm": (None, None, _fm_fallback),
    "horn.generate_T": (_T_cached, _T_kept, None),
}
