"""The certification pipeline: refine, then verify, with rigidity on demand.

``certify(g)`` drives g's edge lengths to the unit value with ``refine`` and
verifies the refined graph, in one place for every caller.  The rigidity
report is computed on first access only, so callers that never ask for it
never pay for the analysis.

``Certificate.to_json_dict()`` is a graph's one JSON document: a ``graph``
summary, then each report's own ``to_json_dict()`` as a section.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .model import EmbeddedGraph
from .refine import RefineResult, refine
from .rigidity import RigidityReport, analyze_rigidity
from .verify import VerificationReport, verify_matchstick


@dataclass(frozen=True)
class Certificate:
    """Refinement and verification of one graph; rigidity on first access."""

    refinement: RefineResult
    verification: VerificationReport

    @property
    def graph(self) -> EmbeddedGraph:
        """The refined graph that was verified."""
        return self.refinement.graph

    @property
    def certified(self) -> bool:
        """The refinement converged and the refined graph is a matchstick graph."""
        return self.refinement.converged and self.verification.is_matchstick

    @cached_property
    def rigidity(self) -> RigidityReport:
        """First-order rigidity of the refined graph, computed once when asked."""
        return analyze_rigidity(self.graph)

    def to_json_dict(self) -> dict:
        """The whole document; computes the rigidity report if not yet asked for."""
        return {
            "graph": _graph_json(self.graph),
            "refinement": self.refinement.to_json_dict(),
            "verification": self.verification.to_json_dict(),
            "rigidity": self.rigidity.to_json_dict(),
            "certified": self.certified,
        }


def _graph_json(g: EmbeddedGraph) -> dict:
    """The ``graph`` section every JSON report starts with."""
    return {"name": g.name, "vertices": g.vertex_count, "edges": g.edge_count}


def certify(g: EmbeddedGraph) -> Certificate:
    """Refine g with the default options and verify the refined graph."""
    result = refine(g)
    return Certificate(result, verify_matchstick(result.graph))
