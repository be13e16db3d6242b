"""Spans around the package's public entry points, kept in memory.

The tracer wraps each function in ``TRACED`` wherever a ``matchsticks``
module bound it, so calls made inside the package (``construct`` calling
``refine``, ``cli`` calling ``theorem1_coverage``) are recorded too.  No
package file is changed: the wrappers are installed by assigning module
attributes and the originals are put back when tracing stops.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: module -> traced public functions; a span's layer is the module's last name
TRACED = {
    "matchsticks.ingest": ("parse_segment_file", "build_graph"),
    "matchsticks.refine": ("refine",),
    "matchsticks.construct": ("realize", "chain_extend"),
    "matchsticks.verify": ("verify_matchstick",),
    "matchsticks.rigidity": ("analyze_rigidity",),
    "matchsticks.counting": ("theorem1_coverage",),
    "matchsticks.cli": ("main",),
}

#: per-layer metrics of one pass, with their units
LAYER_METRICS = {
    "ingest.parse_s": "s",
    "ingest.build_s": "s",
    "refine.polish_s": "s",
    "refine.polish_iterations": "count",
    "refine.preflex_s": "s",
    "refine.glue_s": "s",
    "refine.glue_iterations": "count",
    "refine.glue_unknowns": "count",
    "refine.unconverged": "count",
    "refine.max_residual": "length",
    "construct.realize_s": "s",
    "construct.layout_self_s": "s",
    "verify.time_s": "s",
    "verify.calls": "count",
    "verify.edges": "count",
    "rigidity.time_s": "s",
    "rigidity.calls": "count",
    "rigidity.flexes": "count",
    "counting.coverage_s": "s",
    "cli.format_s": "s",
}


@dataclass
class Span:
    layer: str
    name: str
    graph: str | None
    parent: int | None  # index of the enclosing span in the same pass
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one list of spans per traced pass; ``graph`` tags new spans."""

    def __init__(self) -> None:
        self.passes: list[list[Span]] = []
        self.graph: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def start_pass(self) -> None:
        """Open a new span list and install the wrappers."""
        self.passes.append([])
        packages = [
            module for name, module in sys.modules.items()
            if name == "matchsticks" or name.startswith("matchsticks.")
        ]
        for module_name, functions in TRACED.items():
            home = sys.modules[module_name]
            layer = module_name.rsplit(".", 1)[1]
            for function_name in functions:
                original = getattr(home, function_name)
                wrapper = self._wrap(layer, original)
                for module in packages:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def stop_pass(self) -> None:
        """Put the original functions back."""
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        self._stack.clear()

    def _wrap(self, layer: str, fn):
        signature = inspect.signature(fn)
        annotate = _ANNOTATORS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.passes[-1]
            span = Span(layer, fn.__name__, self.graph, self._stack[-1] if self._stack else None)
            self._stack.append(len(spans))
            spans.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if annotate is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    annotate(span.attrs, bound.arguments, result)

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Each per-layer metric over the traced passes: the median, or the worst."""
        per_pass = [pass_metrics(spans) for spans in self.passes]
        out = {}
        for name in LAYER_METRICS:
            values = [m[name] for m in per_pass]
            worst = name in ("refine.unconverged", "refine.max_residual")
            out[name] = max(values) if worst else statistics.median(values)
        return out

    def span_records(self) -> list[dict]:
        """Every span as plain data, for writing out when the run ends."""
        return [
            {"pass": p, "id": i, "parent": s.parent, "layer": s.layer, "name": s.name,
             "graph": s.graph, "start": s.start, "end": s.end, **s.attrs}
            for p, spans in enumerate(self.passes)
            for i, s in enumerate(spans)
        ]


def _refine_attrs(attrs: dict, args: dict, result) -> None:
    g = args["g"]
    if len(args["coincidences"]):
        attrs["kind"] = "glue"
    elif len(args["distance_constraints"]):
        attrs["kind"] = "preflex"
    else:
        attrs["kind"] = "polish"
    pins = args["opts"].pinned
    if pins is None:
        pins = sys.modules["matchsticks.refine"].default_pins(g)
    attrs["unknowns"] = 2 * g.vertex_count - len(set(pins))
    if result is not None:
        attrs["iterations"] = result.iterations
        attrs["converged"] = result.converged
        attrs["residual"] = result.final_residual


def _verify_attrs(attrs: dict, args: dict, result) -> None:
    attrs["edges"] = args["g"].edge_count


def _rigidity_attrs(attrs: dict, args: dict, result) -> None:
    if result is not None:
        attrs["flexes"] = result.internal_flexes


_ANNOTATORS = {
    "refine": _refine_attrs,
    "verify_matchstick": _verify_attrs,
    "analyze_rigidity": _rigidity_attrs,
}


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass; self time is a span minus its direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    m: dict[str, float] = dict.fromkeys(LAYER_METRICS, 0)
    for index, span in enumerate(spans):
        duration = span.duration
        if span.layer == "ingest":
            m["ingest.parse_s" if span.name == "parse_segment_file" else "ingest.build_s"] += duration
        elif span.layer == "refine":
            kind = span.attrs["kind"]
            m[f"refine.{kind}_s"] += duration
            iterations = span.attrs.get("iterations", 0)
            if kind == "polish":
                m["refine.polish_iterations"] += iterations
            elif kind == "glue":
                m["refine.glue_iterations"] += iterations
                m["refine.glue_unknowns"] += span.attrs["unknowns"]
            # preflex is a best-effort initializer whose result is allowed not to converge
            if kind != "preflex":
                if not span.attrs.get("converged", False):
                    m["refine.unconverged"] += 1
                m["refine.max_residual"] = max(
                    m["refine.max_residual"], span.attrs.get("residual", float("inf"))
                )
        elif span.layer == "construct":
            outermost = span.parent is None or spans[span.parent].layer != "construct"
            if outermost:
                m["construct.realize_s"] += duration
            m["construct.layout_self_s"] += duration - child_time[index]
        elif span.layer == "verify":
            m["verify.time_s"] += duration
            m["verify.calls"] += 1
            m["verify.edges"] += span.attrs["edges"]
        elif span.layer == "rigidity":
            m["rigidity.time_s"] += duration
            m["rigidity.calls"] += 1
            m["rigidity.flexes"] += span.attrs.get("flexes", 0)
        elif span.layer == "counting":
            m["counting.coverage_s"] += duration
        elif span.layer == "cli":
            m["cli.format_s"] += duration - child_time[index]
    return m
