"""Per-layer tracing of k3lat from outside the package.

The tracer wraps the public functions of the k3lat layers and rebinds every
module namespace that imported them (``from .discforms import ...`` copies a
reference, so patching the defining module alone would miss those callers).
Each wrapped call records a span (id, name, start, end, parent id, item id)
in memory; calls, self time (span minus child spans) and inclusive time are
accumulated per name.  Everything is single threaded, so a plain stack gives
the parent of each span and no layer ever waits on another.

``FiniteQuadraticForm.q`` and ``.b`` run ~25 000 times per acceptance pass
and once per element in every q histogram (up to 2^16 elements).  They are
counted and timed like the others but keep no span record, so the span list
stays small enough to keep in memory and write out at the end.

Work is recorded only between ``begin_item`` and ``end_item``; calls made
while building inputs or checking outputs are not counted.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

#: layer functions wrapped by name, as "module.attribute"
FUNCTIONS = (
    "linalg.smith_normal_form",
    "linalg.hermite_normal_form",
    "linalg.rational_inverse",
    "linalg.bareiss_determinant",
    "linalg.signature_of_symmetric",
    "lattice.enumerate_vectors_of_norm",
    "lattice.orthogonal_complement",
    "discforms.discriminant_form",
    "discforms.action_on_disc",
    "discforms.orbits_under_generators",
    "discforms.lattice_fingerprint",
    "discforms.enumerate_isotropic_subgroups",
    "gluing.glue",
    "gluing.is_primitive",
    "involution.str_invariants",
    "involution.invariant_and_antiinvariant",
    "nsfamilies.classify_ns",
    "nsfamilies.canonical_glue_vector",
    "nsfamilies.transcendental_fingerprint",
    "nsfamilies.k3_model_with_u_plus_n",
    "elliptic.irreducible_factors",
    "elliptic.fiber_configuration",
    "elliptic.torsion_section_translation_data",
)

#: constructors, traced through the class's ``__init__`` so isinstance holds
CONSTRUCTORS = ("lattice.Lattice", "involution.QuotientCohomology")

#: hot methods kept as counts and times without span records
COUNT_ONLY = ("discforms.FiniteQuadraticForm.q", "discforms.FiniteQuadraticForm.b")

#: input keys for the repeat ratios (calls on an input already seen in the item)
REPEAT_KEYS = {
    "discforms.discriminant_form": lambda lattice: lattice.gram,
    "discforms.lattice_fingerprint": lambda lattice: lattice.gram,
    "lattice.enumerate_vectors_of_norm": lambda lattice, norm: (lattice.gram, norm),
    "nsfamilies.canonical_glue_vector": lambda d: d,
    "elliptic.irreducible_factors": lambda p: p.coeffs,
}

#: work counters: metric name -> (traced name, size of one call's work)
WORK = {
    "discforms.discriminant_form.elements": (
        "discforms.discriminant_form", lambda args, kwargs, out: out.order),
    "discforms.action_on_disc.elements_lifted": (
        "discforms.action_on_disc",
        lambda args, kwargs, out: (args[0] if args else kwargs["form"]).order),
    "lattice.enumerate_vectors_of_norm.vectors": (
        "lattice.enumerate_vectors_of_norm", lambda args, kwargs, out: len(out)),
    "gluing.glue.glue_order": ("gluing.glue", lambda args, kwargs, out: out.glue_order),
    "linalg.hermite_normal_form.rows": (
        "linalg.hermite_normal_form",
        lambda args, kwargs, out: len(args[0] if args else kwargs["rows"])),
}

#: every name that gets ``calls`` and ``self_s`` metrics
TIMED_NAMES = FUNCTIONS + CONSTRUCTORS + COUNT_ONLY

CRITERIA = tuple(f"verify.criterion_{n:02d}" for n in range(1, 12))


class Tracer:
    """Spans and per-name totals of one traced phase."""

    def __init__(self):
        self.item = None
        self.items = 0
        self._stack = []  # open frames: [span id, child time]
        self._next_id = 0
        self.spans = []  # (id, name, start, end, parent id, item)
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.work = Counter()
        self.repeats = Counter()
        self._seen = {}

    # -- items ---------------------------------------------------------------

    def begin_item(self, item) -> None:
        self.item = item
        self.items += 1
        self._seen = {}

    def end_item(self) -> None:
        self.item = None

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name, fn, record_span=True):
        key_of = REPEAT_KEYS.get(name)
        work = [(metric, size) for metric, (traced, size) in WORK.items() if traced == name]
        tracer = self

        def traced(*args, **kwargs):
            if tracer.item is None:
                return fn(*args, **kwargs)
            if key_of is not None:
                key = key_of(*args, **kwargs)
                seen = tracer._seen.setdefault(name, set())
                if key in seen:
                    tracer.repeats[name] += 1
                else:
                    seen.add(key)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            span_id = None
            if record_span:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                tracer.total_s[name] += dur
                if stack:
                    stack[-1][1] += dur
                if record_span:
                    tracer.spans.append((span_id, name, start, end, parent, tracer.item))
            for metric, size in work:
                tracer.work[metric] += size(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced layer function in every namespace that holds it."""
        import k3lat.cli  # noqa: F401  (imports every layer module)

        # every loaded module, so the workloads' own imports are rebound too
        modules = [m for m in list(sys.modules.values()) if isinstance(getattr(m, "__dict__", None), dict)]
        for qualname in FUNCTIONS:
            module_name, attr = qualname.split(".")
            original = getattr(sys.modules[f"k3lat.{module_name}"], attr)
            wrapped = self.wrap(qualname, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapped)
        for qualname in CONSTRUCTORS:
            module_name, cls_name = qualname.split(".")
            cls = getattr(sys.modules[f"k3lat.{module_name}"], cls_name)
            cls.__init__ = self.wrap(qualname, cls.__init__)
        for qualname in COUNT_ONLY:
            module_name, cls_name, method = qualname.split(".")
            cls = getattr(sys.modules[f"k3lat.{module_name}"], cls_name)
            setattr(cls, method, self.wrap(qualname, getattr(cls, method), record_span=False))

        verify = sys.modules["k3lat.verify"]
        criteria = []
        for number, title, func in verify.CRITERIA:
            wrapped = self.wrap(f"verify.criterion_{number:02d}", func)
            for module in modules:
                if module.__dict__.get(func.__name__) is func:
                    setattr(module, func.__name__, wrapped)
            criteria.append((number, title, wrapped))
        verify.CRITERIA = tuple(criteria)

    # -- results --------------------------------------------------------------

    def totals(self) -> dict:
        """Plain-data totals, mergeable across processes with ``merge``."""
        return {
            "items": self.items,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "work": dict(self.work),
            "repeats": dict(self.repeats),
        }


def write_spans(span_list, path) -> None:
    """Spans as JSON lines: id, name, start, end, parent id, item id."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in span_list:
            fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "item"), span))) + "\n")


def merge(totals_list) -> dict:
    out = {"items": 0, "calls": Counter(), "self_s": Counter(), "total_s": Counter(),
           "work": Counter(), "repeats": Counter()}
    for totals in totals_list:
        out["items"] += totals["items"]
        for key in ("calls", "self_s", "total_s", "work", "repeats"):
            out[key].update(totals[key])
    return out


def layer_metrics(totals) -> dict:
    """Per-item layer metrics from (merged) totals: name -> (value, unit)."""
    items = max(totals["items"], 1)
    calls, self_s, total_s = totals["calls"], totals["self_s"], totals["total_s"]
    out = {}
    for name in TIMED_NAMES:
        out[f"{name}.calls"] = (calls.get(name, 0) / items, "count/item")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) / items, "s/item")
    for metric in WORK:
        out[metric] = (totals["work"].get(metric, 0) / items, "count/item")
    for name in REPEAT_KEYS:
        n = calls.get(name, 0)
        out[f"{name}.repeat_ratio"] = (totals["repeats"].get(name, 0) / n if n else 0.0, "1")
    for name in CRITERIA:
        out[f"{name}.wall_s"] = (total_s.get(name, 0.0) / items, "s/item")
    return out
