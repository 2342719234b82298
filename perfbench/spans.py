"""Per-layer tracing of stratdual from outside the package.

``Tracer.install`` replaces each public callable listed in ``LAYERS`` with a
wrapper that records a span: name, parent span, workload call, start and end
in ``perf_counter_ns``.  A function is replaced at every ``stratdual`` module
that binds it, because ``cli`` and ``model`` import by name; a method or a
class constructor is replaced on its class.  Spans stay in memory and are
written as JSON lines when the run ends.  No file of the package changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer (= module) -> [(metric name, attribute path within the module)]
LAYERS = {
    "simplicial": [
        ("parse_complex", "parse_complex"),
        ("decompose", "decompose"),
        ("fundamental_chain", "fundamental_chain"),
        ("boundary_matrix", "SimplicialComplex.boundary_matrix"),
    ],
    "rational": [
        ("rref", "rref"),
        ("kernel_basis", "kernel_basis"),
        ("image_basis", "image_basis"),
        ("complement_basis", "complement_basis"),
        ("Solver", "Solver.__init__"),
        ("matmul", "RationalMatrix.__matmul__"),
        ("apply", "RationalMatrix.apply"),
    ],
    "cochains": [
        ("simplicial_cochains", "simplicial_cochains"),
        ("PairComplexes", "PairComplexes.__init__"),
        ("cohomology", "CochainComplex.cohomology"),
        ("cup", "CupStructure.cup"),
        ("integrate", "integrate"),
        ("induced_map", "induced_map"),
        ("connecting", "ShortExactSequence.connecting"),
    ],
    "cotruncation": [
        ("cotruncate", "cotruncate"),
        ("quotient_by_cotruncation", "quotient_by_cotruncation"),
        ("check_product_vanishing", "check_product_vanishing"),
        ("truncated_duality", "truncated_duality"),
    ],
    "model": [
        ("build_model", "build_model"),
    ],
    "duality": [
        ("main_pairing", "main_pairing"),
        ("ladder_check", "ladder_check"),
        ("lefschetz_pairing", "lefschetz_pairing"),
        ("well_definedness_probe", "well_definedness_probe"),
        ("stokes_vanishing_probe", "stokes_vanishing_probe"),
    ],
    "cone": [
        ("intersection_space_cone", "intersection_space_cone"),
        ("compare", "compare"),
    ],
    "cli": [
        ("run_verification", "run_verification"),
        ("render_report", "render_report"),
    ],
}

SPAN_NAMES = [f"{layer}.{name}" for layer, entries in LAYERS.items()
              for name, _ in entries]

# Reached only from the `properties` check, which not every workload runs.
# Their times would read exactly 0 on those workloads, so only their call
# counts are metrics; their spans are still in the trace file.
COUNT_ONLY = ("cotruncation.check_product_vanishing", "duality.stokes_vanishing_probe")


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for span in SPAN_NAMES:
        names.append(f"{span}.calls")
        if span not in COUNT_ONLY:
            names += [f"{span}.total_s", f"{span}.self_s"]
    return names + [
        "simplicial.boundary_matrix.distinct_ratio",
        "cochains.simplicial_cochains.distinct_ratio",
        "rational.rref.cells",
        "rational.rref.nnz",
    ]


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.call = -1           # index of the workload call in progress
        self.spans = []          # [name index, parent span, call, start_ns, end_ns]
        self._stack = []
        self.distinct = {"simplicial.boundary_matrix": set(),
                         "cochains.simplicial_cochains": set()}
        self.rref_cells = 0
        self.rref_nnz = 0
        # Complexes seen, kept alive so that id() keys stay unique.
        self._complex_keys = {}

    def install(self):
        """Wrap every callable in LAYERS."""
        notes = {
            "simplicial.boundary_matrix": self._note_boundary_matrix,
            "cochains.simplicial_cochains": self._note_cochains,
            "rational.rref": self._note_rref,
        }
        for layer, entries in LAYERS.items():
            module = importlib.import_module(f"stratdual.{layer}")
            for name, path in entries:
                span = f"{layer}.{name}"
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    wrapper = self._wrap(span, cls.__dict__[attr], notes.get(span))
                    setattr(cls, attr, wrapper)
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(span, original, notes.get(span))
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "stratdual" or mod_name.startswith("stratdual."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)

    def _wrap(self, span, fn, note):
        name_index = SPAN_NAMES.index(span)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(args)
            record = [name_index, stack[-1] if stack else -1, self.call, clock(), 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()

        return wrapper

    def _complex_key(self, K):
        entry = self._complex_keys.get(id(K))
        if entry is None:
            entry = self._complex_keys[id(K)] = (K, K.facets)
        return entry[1]

    def _note_boundary_matrix(self, args):
        K, r = args
        self.distinct["simplicial.boundary_matrix"].add((self._complex_key(K), r))

    def _note_cochains(self, args):
        self.distinct["cochains.simplicial_cochains"].add(self._complex_key(args[0]))

    def _note_rref(self, args):
        m = args[0]
        self.rref_cells += m.rows * m.cols
        self.rref_nnz += len(m.entries)

    def summary(self) -> dict:
        """Per-layer metrics: calls, total and self seconds per callable.

        Self time is a span's duration minus the durations of its child
        spans.  No listed callable runs inside itself, so summing the
        durations of its spans counts no time twice.
        """
        count = len(SPAN_NAMES)
        calls = [0] * count
        total = [0] * count
        self_ns = [0] * count
        child_ns = [0] * len(self.spans)
        # A span is appended after its parent, so walking backwards reaches
        # every child before its parent.
        for index in range(len(self.spans) - 1, -1, -1):
            name, parent, _, start, end = self.spans[index]
            duration = end - start
            calls[name] += 1
            self_ns[name] += duration - child_ns[index]
            total[name] += duration
            if parent >= 0:
                child_ns[parent] += duration
        metrics = {}
        for i, span in enumerate(SPAN_NAMES):
            metrics[f"{span}.calls"] = calls[i]
            metrics[f"{span}.total_s"] = total[i] / 1e9
            metrics[f"{span}.self_s"] = self_ns[i] / 1e9
        for span, keys in self.distinct.items():
            attempts = calls[SPAN_NAMES.index(span)]
            metrics[f"{span}.distinct_ratio"] = len(keys) / attempts if attempts else 0.0
        metrics["rational.rref.cells"] = self.rref_cells
        metrics["rational.rref.nnz"] = self.rref_nnz
        return metrics

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, parent, call, start, end) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "parent": parent, "call": call,
                                      "name": SPAN_NAMES[name],
                                      "start_ns": start, "end_ns": end}) + "\n")
