"""Infinitesimal rigidity of embedded graphs via the rigidity matrix.

The rigidity matrix is the e x 2v Jacobian of edge lengths with respect to
vertex coordinates (identical to the refinement Jacobian).  A connected
framework in the plane has 2v - 3 degrees of freedom once the rigid-body
motions are removed; it is infinitesimally rigid exactly when the matrix
reaches that rank.  Rank is decided numerically from the singular values, so
refined input (edges near unit length) is recommended: figure-accuracy
coordinates blur the small singular values that separate flexes from noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import EmbeddedGraph, _components
from .refine import residual_jacobian

DEFAULT_RANK_TOL = 1e-8


class DisconnectedGraphError(ValueError):
    """Rigidity analysis is defined here for connected graphs only."""


@dataclass(frozen=True)
class RigidityReport:
    """Numerical rank audit of the rigidity matrix.

    internal_flexes = (2v - 3) - rank counts independent first-order motions
    that preserve all edge lengths but are not rigid-body motions.
    """

    rank: int
    dof_bound: int
    internal_flexes: int
    classification: str  # "rigid" | "flexible"
    singular_values: tuple[float, ...]  # descending

    @property
    def rigid(self) -> bool:
        return self.internal_flexes == 0

    def singular_tail(self, count: int = 10) -> tuple[float, ...]:
        """The smallest ``count`` singular values (ascending), for audit."""
        return tuple(sorted(self.singular_values)[:count])

    def to_json_dict(self) -> dict:
        return {
            "rigid": self.rigid,
            "rank": self.rank,
            "dof_bound": self.dof_bound,
            "internal_flexes": self.internal_flexes,
            "classification": self.classification,
            "singular_value_tail": list(self.singular_tail()),
        }


def rigidity_matrix(g: EmbeddedGraph) -> np.ndarray:
    """The e x 2v rigidity matrix at g's coordinates (= refinement Jacobian)."""
    return residual_jacobian(g)


def is_connected(g: EmbeddedGraph) -> bool:
    """Connectivity over the edge list; isolated vertices disconnect a graph."""
    if g.vertex_count == 0:
        return False
    e = g.edge_array()
    return not _components(g.vertex_count, e[:, 0], e[:, 1]).any()


def analyze_rigidity(g: EmbeddedGraph, rank_tol_factor: float = DEFAULT_RANK_TOL) -> RigidityReport:
    """Classify g as infinitesimally rigid or flexible.

    rank = number of singular values above rank_tol_factor times the largest.
    Note the one-sided soundness: finite flexibility implies an infinitesimal
    flex, so "flexible" claims are certified; a symmetric framework can be
    rigid yet still show an infinitesimal flex, so a nonzero flex count for a
    supposedly rigid graph warrants looking at the singular-value tail.
    """
    if g.vertex_count < 2:
        raise ValueError("rigidity analysis needs at least 2 vertices")
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")
    matrix = rigidity_matrix(g)
    sigma = np.linalg.svd(matrix, compute_uv=False)
    rank = int(np.sum(sigma > rank_tol_factor * sigma[0])) if len(sigma) else 0
    dof_bound = 2 * g.vertex_count - 3
    flexes = dof_bound - rank
    return RigidityReport(
        rank=rank,
        dof_bound=dof_bound,
        internal_flexes=flexes,
        classification="rigid" if flexes == 0 else "flexible",
        singular_values=tuple(float(s) for s in sigma),
    )


@dataclass(frozen=True)
class CompositionRigidityVerdict:
    """Consistency of a realized composition with the 2-or-3-part rule.

    The rule: a cycle composition of 2 or 3 rigid parts (each with two
    degree-2 join vertices) is rigid.  ``applicable`` is False when the
    premise does not hold (more parts, or some part flexible); ``consistent``
    is None in that case.
    """

    applicable: bool
    consistent: bool | None
    whole: RigidityReport
    part_classifications: tuple[str, ...]
    note: str


def check_composition_rigidity(
    realized: EmbeddedGraph,
    part_reports: Sequence[RigidityReport],
    rank_tol_factor: float = DEFAULT_RANK_TOL,
) -> CompositionRigidityVerdict:
    """Check a realized composition against the 2-or-3-rigid-parts rule."""
    whole = analyze_rigidity(realized, rank_tol_factor)
    k = len(part_reports)
    classes = tuple(r.classification for r in part_reports)
    all_rigid = all(r.rigid for r in part_reports)
    if k not in (2, 3):
        return CompositionRigidityVerdict(
            False, None, whole, classes, f"rule covers 2 or 3 parts, composition has {k}"
        )
    if not all_rigid:
        return CompositionRigidityVerdict(
            False, None, whole, classes, "rule requires all parts rigid"
        )
    if whole.rigid:
        note = "consistent: all parts rigid and composition rigid"
    else:
        note = (
            f"inconsistent: {k} rigid parts composed, but whole reports "
            f"{whole.internal_flexes} internal flexes "
            f"(rank {whole.rank} of {whole.dof_bound})"
        )
    return CompositionRigidityVerdict(True, whole.rigid, whole, classes, note)
