"""Span recorder for one traced monoidrep process, and the per-layer
numbers derived from the spans.

install() wraps every public module-level function of the seven layer
modules, plus the few methods and private kernels named in EXTRA, and
rebinds each wrapper at every name the original is reachable under in any
monoidrep module (`from .green import eggbox` in cli binds a second name).
A call records a span (name, start, end, parent) in memory; write() dumps
them once, when the process ends.  Nothing in monoidrep is edited.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = ("elements", "lattice", "green", "specht", "linrep", "cliffmunn", "cli")

# Methods and private kernels that carry the work the per-layer metrics name;
# module-level public functions are found without being listed.
EXTRA = {
    "elements": ("FiniteMonoid.from_elements", "FiniteMonoid._validate",
                 "FiniteMonoid.is_group", "FiniteMonoid.generating_set"),
    "linrep": ("Representation.verify", "Subspace.from_vectors", "Subspace.coords",
               "_rref_rows"),
    "cli": ("_build_rep",),
}


def _rows_entries(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


# Per-call counts, taken from the arguments and the result after the call.
MEASURES = {
    "elements.FiniteMonoid.from_elements": lambda args, res: {
        "elements": len(res), "cells": len(res) ** 2, "table_bytes": res.table.nbytes},
    "linrep.Representation.verify": lambda args, res: {
        "elements": len(args[0].monoid), "dim": args[0].dim},
    "linrep._rref_rows": lambda args, res: {"entries": _rows_entries(args[0])},
    "linrep.serialize_representation": lambda args, res: {"bytes": len(res.encode())},
    "cliffmunn.cm_catalog": lambda args, res: {"entries": len(res)},
}


class Recorder:
    """Spans of one process, held in parallel lists until write()."""

    def __init__(self):
        self.names = []  # span name per wrapped callable, indexed by name id
        self.name_of = []  # name id per span
        self.start = []
        self.end = []
        self.parent = []
        self.attrs = {}
        self._stack = [-1]

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        measure = MEASURES.get(name)
        clock = time.perf_counter
        stack, name_of, start, end, parent, attrs = (
            self._stack, self.name_of, self.start, self.end, self.parent, self.attrs)

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if measure is not None:
                attrs[idx] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names, "name": self.name_of, "start": self.start,
                "end": self.end, "parent": self.parent,
                "attrs": {str(k): v for k, v in self.attrs.items()},
            }, fh)


def install() -> Recorder:
    """Wrap the layer functions of the already imported monoidrep package."""
    rec = Recorder()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "monoidrep" or name.startswith("monoidrep."))]
    replaced = {}
    for layer in LAYERS:
        module = sys.modules[f"monoidrep.{layer}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_") and not inspect.isgeneratorfunction(obj)):
                replaced[id(obj)] = rec.wrap(obj, f"{layer}.{attr}")
        for dotted in EXTRA.get(layer, ()):
            owner_name, _, attr = dotted.rpartition(".")
            if not owner_name:
                obj = getattr(module, attr)
                replaced[id(obj)] = rec.wrap(obj, f"{layer}.{attr}")
                continue
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(rec.wrap(raw.__func__, f"{layer}.{dotted}")))
            else:
                setattr(owner, attr, rec.wrap(raw, f"{layer}.{dotted}"))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])
    return rec


# -- analysis, in the benchmark process ---------------------------------------

# metric -> span names whose covered time it reports (nested spans count once)
INCLUSIVE = {
    "elements.build_s": ("elements.FiniteMonoid.from_elements", "elements.closure"),
    "lattice.make_lattice_s": ("lattice.make_lattice",),
    "lattice.sgl_monoid_s": ("lattice.sgl_monoid",),
    "lattice.sgl_order_s": ("lattice.sgl_order",),
    "green.structure_s": ("green.green_structure",),
    "green.eggbox_s": ("green.eggbox",),
    "green.subgroup_s": ("green.maximal_subgroup", "green.transversal",
                         "green.hclass_decompose"),
    "specht.specht_rep_s": ("specht.specht_rep",),
    "specht.young_tensor_s": ("specht.young_tensor",),
    "linrep.verify_s": ("linrep.Representation.verify",),
    "linrep.rref_s": ("linrep.rref", "linrep._rref_rows"),
    "linrep.intertwiner_s": ("linrep.intertwiner_space",),
    "linrep.iso_test_s": ("linrep.iso_test",),
    "linrep.quotient_s": ("linrep.quotient_rep",),
    "linrep.serialize_s": ("linrep.serialize_representation",),
    "cliffmunn.catalog_s": ("cliffmunn.cm_catalog",),
    "cliffmunn.induce_s": ("cliffmunn.induce", "cliffmunn.induce_raw"),
    "cliffmunn.annihilator_s": ("cliffmunn.annihilator",),
    "cliffmunn.reduce_s": ("cliffmunn.reduce_rep",),
    "cliffmunn.roundtrip_s": ("cliffmunn.cm_roundtrip_check",),
    "cli.parse_and_build_s": ("cli.parse_and_build",),
}
# metric -> span names whose self time (span minus child spans) it reports
SELF = {
    "cli.report_s": ("cli.cmd_order", "cli.cmd_eggbox", "cli.cmd_irreps", "cli.cmd_rep"),
}
# metric -> span name whose calls it counts
CALLS = {
    "elements.build_calls": "elements.FiniteMonoid.from_elements",
    "green.structure_calls": "green.green_structure",
    "specht.specht_rep_calls": "specht.specht_rep",
    "linrep.verify_calls": "linrep.Representation.verify",
    "linrep.rref_calls": "linrep._rref_rows",
}
# metric -> (span name, attribute, "sum" | "max")
ATTRS = {
    "elements.elements_built": ("elements.FiniteMonoid.from_elements", "elements", "sum"),
    "elements.table_bytes": ("elements.FiniteMonoid.from_elements", "table_bytes", "sum"),
    "elements.cells_built": ("elements.FiniteMonoid.from_elements", "cells", "sum"),
    "linrep.verify_elements": ("linrep.Representation.verify", "elements", "sum"),
    "linrep.verify_max_dim": ("linrep.Representation.verify", "dim", "max"),
    "linrep.rref_entries": ("linrep._rref_rows", "entries", "sum"),
    "linrep.payload_bytes": ("linrep.serialize_representation", "bytes", "sum"),
    "cliffmunn.catalog_entries": ("cliffmunn.cm_catalog", "entries", "sum"),
}


def combine(per_process: list) -> dict:
    """Per-layer numbers of several processes: sums, or maxima where ATTRS says so."""
    total = {}
    for numbers in per_process:
        for name, value in numbers.items():
            if name in ATTRS and ATTRS[name][2] == "max":
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


def summarize(trace: dict) -> dict:
    """Per-layer numbers of one process from its written spans."""
    names = trace["names"]
    name_of, start, end, parent = trace["name"], trace["start"], trace["end"], trace["parent"]
    attrs = {int(k): v for k, v in trace["attrs"].items()}
    count = len(name_of)
    span_name = [names[i] for i in name_of]
    dur = [end[k] - start[k] for k in range(count)]
    child = [0.0] * count
    for k in range(count):
        if parent[k] >= 0:
            child[parent[k]] += dur[k]
    self_time = [dur[k] - child[k] for k in range(count)]

    out = {}
    for metric, wanted in INCLUSIVE.items():
        wanted = set(wanted)
        total = 0.0
        for k in range(count):
            if span_name[k] not in wanted:
                continue
            p = parent[k]
            while p >= 0 and span_name[p] not in wanted:
                p = parent[p]
            if p < 0:  # outermost span of the set: its time is not yet counted
                total += dur[k]
        out[metric] = total
    for metric, wanted in SELF.items():
        out[metric] = sum(self_time[k] for k in range(count) if span_name[k] in wanted)
    for metric, wanted in CALLS.items():
        out[metric] = sum(1 for k in range(count) if span_name[k] == wanted)
    for metric, (wanted, key, how) in ATTRS.items():
        values = [attrs[k][key] for k in range(count) if span_name[k] == wanted and k in attrs]
        out[metric] = (max(values, default=0) if how == "max" else sum(values))
    for layer in LAYERS:
        mine = [k for k in range(count) if span_name[k].split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(self_time[k] for k in mine)
        out[f"{layer}.calls"] = len(mine)
    return out
