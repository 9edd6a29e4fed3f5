"""Span tracing around the package's public functions, installed from outside.

``Tracer.install`` replaces each listed function with a wrapper in every
``multlattice.*`` namespace that binds it (under any name, including values
of module-level dicts such as the suite table), and ``uninstall`` puts the
originals back.  A span records its id, name, start, end, parent span and
op id; spans are kept in flat arrays in memory and written out by ``write``.
Calls and self time (a span's duration minus the time its child spans cover)
are also aggregated as spans close, so the per-layer figures stay exact when
the span store is full.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from array import array
from time import perf_counter

# The layers are the package's modules; these are the calls into each.
LAYERS = {
    "core": ("validate", "replace_mult", "build_order", "check_axioms"),
    "spectrum": ("spectrum", "classify_all", "primes_of", "v_set",
                 "hyperabelian_report"),
    "systems": ("saturate", "classify_system", "equal_saturations",
                "all_m_systems", "saturated_m_systems", "inverse_topology",
                "correspondence_check", "system_of_points"),
    "families": ("residual_left", "residual_right", "classify_family",
                 "pip_check", "sigma_of_system"),
    "constructions": ("product", "product_spec_check", "interval", "spec_map",
                      "disjointness_criteria", "lying_over",
                      "open_subspace_homeo"),
    "series": ("series", "solvable_witness_chain"),
    "ingest": ("parse", "to_json", "export_dot"),
    "verify": ("verify_all", "suite_axioms", "suite_spectrum", "suite_hyper",
               "suite_systems", "suite_families", "suite_constructions",
               "suite_series"),
    "cli": ("main",),
}

# Keeps the span store near 130 MB; calls past it are still aggregated.
MAX_SPANS = 3_000_000


def _content_key(L):
    return hash((L.relation, L.mult_table, L.generators))


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.active = [0] * n
        self.enabled = False
        self.op_id = -1
        self.dropped = 0
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []          # [span id, time covered by children]
        self._next_span = 0
        self._patches = []        # (namespace, key, original)
        index = {name: i for i, name in enumerate(self.names)}
        self._product = index["constructions.product"]
        self._validate = index["core.validate"]
        self._check_axioms = index["core.check_axioms"]
        self.validate_under_product = 0
        self.product_inputs = set()
        self.axiom_lattices = 0
        self._axiom_seen = {}     # id -> weakref, so reused ids count again

    # -- installation

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "multlattice"
                                         or name.startswith("multlattice."))]
        for idx, qualified in enumerate(self.names):
            mod, fn = qualified.split(".")
            original = getattr(sys.modules[f"multlattice.{mod}"], fn)
            wrapper = self._wrap(idx, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m.__dict__, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, wrapper)
        if not self._patches:
            raise RuntimeError("no multlattice function was found to trace")

    def _patch(self, namespace, key, wrapper):
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = wrapper

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    # -- recording

    def _on_call(self, idx, args):
        if idx == self._validate and self.active[self._product]:
            self.validate_under_product += 1
        elif idx == self._product:
            self.product_inputs.add((_content_key(args[0]), _content_key(args[1])))
        elif idx == self._check_axioms:
            L = args[0]
            ref = self._axiom_seen.get(id(L))
            if ref is None or ref() is not L:
                self.axiom_lattices += 1
                self._axiom_seen[id(L)] = weakref.ref(L)

    def _wrap(self, idx, fn):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._on_call(idx, args)
            span = tracer._next_span
            tracer._next_span += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            tracer.active[idx] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.active[idx] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[idx] += 1
                tracer.total_s[idx] += duration
                tracer.self_s[idx] += duration - frame[1]
                if len(tracer.span_start) < MAX_SPANS:
                    tracer.span_id.append(span)
                    tracer.span_name.append(idx)
                    tracer.span_parent.append(parent)
                    tracer.span_op.append(tracer.op_id)
                    tracer.span_start.append(start)
                    tracer.span_end.append(end)
                else:
                    tracer.dropped += 1

        return traced

    # -- results

    def metrics(self) -> dict:
        """Per-function calls and self time, per-module self time, and the
        waste ratios measured at the call boundaries."""
        out = {}
        module_self = {}
        for idx, qualified in enumerate(self.names):
            mod, fn = qualified.split(".")
            module_self[mod] = module_self.get(mod, 0.0) + self.self_s[idx]
            out[f"{qualified}.calls"] = (self.calls[idx], "count")
            if fn.startswith("suite_"):
                out[f"{qualified}.total_s"] = (self.total_s[idx], "s")
            else:
                out[f"{qualified}.self_s"] = (self.self_s[idx], "s")
        for mod, value in module_self.items():
            out[f"{mod}.self_s"] = (value, "s")
        products = self.calls[self._product]
        axioms = self.calls[self._check_axioms]
        out["constructions.validate_per_product"] = (
            self.validate_under_product / products if products else 0.0, "ratio")
        out["constructions.product.distinct_input_ratio"] = (
            len(self.product_inputs) / products if products else 0.0, "ratio")
        out["core.check_axioms.distinct_lattice_ratio"] = (
            self.axiom_lattices / axioms if axioms else 0.0, "ratio")
        out["trace.self_sum_s"] = (sum(module_self.values()), "s")
        out["trace.spans"] = (self._next_span, "count")
        out["trace.spans_dropped"] = (self.dropped, "count")
        return out

    def write(self, stem):
        """Write the spans as ``<stem>.json`` (layout and names) and
        ``<stem>.bin`` (the columns, one after another, native byte order);
        spans are stored as they close, so children come before parents."""
        columns = (("id", self.span_id), ("name", self.span_name),
                   ("parent", self.span_parent),
                   ("op", self.span_op), ("start", self.span_start),
                   ("end", self.span_end))
        with open(f"{stem}.bin", "wb") as handle:
            for _, column in columns:
                column.tofile(handle)
        header = {"spans": len(self.span_start), "dropped": self.dropped,
                  "byteorder": sys.byteorder, "names": self.names,
                  "columns": [[name, column.typecode, column.itemsize]
                              for name, column in columns]}
        with open(f"{stem}.json", "w", encoding="utf-8") as handle:
            json.dump(header, handle, indent=1)
