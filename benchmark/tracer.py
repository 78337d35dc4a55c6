"""Span recorder for the traced benchmark run.

The program under test has no timers of its own, so the traced run wraps
the public functions of each otlab layer from here.  A wrapper replaces the
function in its defining module and in every otlab module that imported it
with ``from ... import``, so calls through either name are recorded.

Each span keeps a name, start and end (perf_counter seconds), CPU time at
both ends, and the index of its parent span.  Spans stay in memory; the
operation writes them out once it has finished.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name).  A dotted attribute names a method or
# classmethod; several functions may share one span name.
SPANS = [
    ("otlab.solver", "assemble", "solver.assemble"),
    ("otlab.solver", "solve_dirichlet", "solver.solve_dirichlet"),
    ("otlab.solver", "DiscreteOperator.factorization", "solver.factorization"),
    ("otlab.medium", "split_real_imag", "medium.split_real_imag"),
    ("otlab.medium", "verify_ellipticity", "medium.verify_ellipticity"),
    ("otlab.dnmap", "assemble_dn", "dnmap.assemble_dn"),
    ("otlab.dnmap", "_whitened", "dnmap.whiten"),
    ("otlab.dnmap", "sobolev_operator_norm", "dnmap.operator_norm"),
    ("otlab.dnmap", "SobolevScale.build", "dnmap.sobolev_build"),
    ("otlab.stability", "run_stability_experiment", "stability.run"),
    ("otlab.singular", "potential_decay_fit", "singular.potential"),
    ("otlab.singular", "correction_w", "singular.correction_w"),
    ("otlab.singular", "leading_term", "singular.leading_term"),
    ("otlab.cli", "_write_json", "cli.report"),
    ("otlab.cli", "_write_csv", "cli.report"),
    ("otlab.svgplot", "loglog_svg", "cli.report"),
]

SPAN_NAMES = sorted({name for _, _, name in SPANS})


# counters read from returned objects: span name -> (counter, reader, combine).
# SuperLU.nnz is the stored L+U count; reading lu.L / lu.U instead would build
# copies of both factors and inflate the traced run's time and memory.
COUNTERS = {
    "solver.factorization": ("solver.lu_nnz", lambda lu: int(lu.nnz), max),
    "dnmap.assemble_dn": ("dnmap.dn_columns", lambda dn: int(dn.matrix.shape[1]), sum),
    "stability.run": ("stability.amplitudes", lambda report: len(report.rows), sum),
}


class Tracer:
    """In-memory span list plus the counters read from returned objects.

    Spans nest through one stack of open spans, which holds because the
    benchmark runs otlab on one thread (the sweep's config sets threads=1).
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._open = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
                "cpu_start": time.process_time(),
            }
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu_end"] = time.process_time()
                self._open.pop()
            if counter is not None:
                key, read, combine = counter
                value = read(result)
                self.counts[key] = combine((self.counts[key], value)) if key in self.counts else value
            return result

        return traced

    def install(self):
        """Replace every traced function in every loaded otlab module."""
        for module_name, attr, name in SPANS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(name, raw))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "otlab":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def layer_metrics(spans: list, counts: dict, op_s: float) -> dict:
    """Per-layer figures of one traced operation.

    ``<name>.s`` is self time (span duration minus the duration of its
    direct child spans), ``<name>.cpu_s`` the same for CPU time and
    ``<name>.calls`` the number of calls.  ``trace.span_coverage`` is the
    share of the operation's wall time spent inside top-level spans.
    """
    self_s = {name: 0.0 for name in SPAN_NAMES}
    self_cpu = {name: 0.0 for name in SPAN_NAMES}
    calls = {name: 0 for name in SPAN_NAMES}
    covered = 0.0
    for span in spans:
        calls[span["name"]] += 1
        self_s[span["name"]] += span["end"] - span["start"]
        self_cpu[span["name"]] += span["cpu_end"] - span["cpu_start"]
        if span["parent"] is None:
            covered += span["end"] - span["start"]
        else:
            parent = spans[span["parent"]]
            self_s[parent["name"]] -= span["end"] - span["start"]
            self_cpu[parent["name"]] -= span["cpu_end"] - span["cpu_start"]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = (self_s[name], "s")
        out[f"{name}.cpu_s"] = (self_cpu[name], "s")
        out[f"{name}.calls"] = (calls[name], "count")
    out["solver.lu_nnz"] = (counts.get("solver.lu_nnz", 0), "count")
    out["stability.amplitudes"] = (counts.get("stability.amplitudes", 0), "count")
    columns = counts.get("dnmap.dn_columns", 0)
    dn_s = self_s["dnmap.assemble_dn"]
    out["dnmap.dn_columns_per_s"] = (columns / dn_s if dn_s > 0 else 0.0, "1/s")
    out["trace.span_coverage"] = (covered / op_s, "share")
    return out
