"""Infinitesimal rigidity of embedded graphs via the rigidity matrix.

The rigidity matrix is the e x 2v Jacobian of edge lengths with respect to
vertex coordinates (identical to the refinement Jacobian).  A connected
framework in the plane has 2v - 3 degrees of freedom once the rigid-body
motions are removed; it is infinitesimally rigid exactly when the matrix
reaches that rank.  Rank is decided numerically from the singular values, so
refined input (edges near unit length) is recommended: figure-accuracy
coordinates blur the small singular values that separate flexes from noise.

Only the smallest singular values and the largest one matter to the rank.
Small graphs take a dense SVD.  From ``_BANDED_FROM`` vertices on, where the
dense SVD's cubic cost overtakes it, they come from block inverse iteration
on J^T J in the block-tridiagonal storage of ``refine``'s solver, with
Sylvester inertia counts on the same factorization to make sure no small
singular value is missed and to bracket the largest.  Memory and time then
grow linearly in the vertex count for long, thin drawings such as chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EmbeddedGraph, _components
from .refine import _link_columns, _link_values, _NormalEquations, residual_jacobian

DEFAULT_RANK_TOL = 1e-8
_BANDED_FROM = 150  # vertices; measured crossover of the dense and banded paths
_SHIFT = 1e-8  # delta / largest diagonal entry; smaller shifts lose accuracy in the solves
_MAX_SWEEPS = 50
_SETTLED = 1e-15  # Ritz values moving less than this times the sigma_max bound have settled
_MAX_BISECTIONS = 60


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
    smallest_singular_values: tuple[float, ...]  # ascending; at least min(10, all) of them

    @property
    def rigid(self) -> bool:
        return self.internal_flexes == 0

    def singular_tail(self, count: int = 10) -> tuple[float, ...]:
        """The smallest ``count`` singular values (ascending), for audit."""
        return self.smallest_singular_values[:count]

    def to_json_dict(self) -> dict:
        return {
            "rigid": self.rigid,
            "rank": self.rank,
            "dof_bound": self.dof_bound,
            "internal_flexes": self.internal_flexes,
            "classification": self.classification,
            "singular_value_tail": list(self.singular_tail()),
        }


def is_connected(g: EmbeddedGraph) -> bool:
    """Connectivity over the edge list; isolated vertices disconnect a graph."""
    if g.vertex_count == 0:
        return False
    e = g.edges
    return not _components(g.vertex_count, e[:, 0], e[:, 1]).any()


def analyze_rigidity(g: EmbeddedGraph, rank_tol_factor: float = DEFAULT_RANK_TOL) -> RigidityReport:
    """Classify g as infinitesimally rigid or flexible.

    rank = number of singular values above rank_tol_factor times the largest.
    Note the one-sided soundness: finite flexibility implies an infinitesimal
    flex, so "flexible" claims are certified; a symmetric framework can be
    rigid yet still show an infinitesimal flex, so a nonzero flex count for a
    supposedly rigid graph warrants looking at the singular-value tail.
    rank_tol_factor must lie strictly between 0 and 1 (ValueError otherwise).
    """
    if not 0.0 < rank_tol_factor < 1.0:  # also refuses NaN
        raise ValueError(f"rank tolerance must lie in (0, 1), got {rank_tol_factor}")
    if g.vertex_count < 2:
        raise ValueError("rigidity analysis needs at least 2 vertices")
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")
    if g.vertex_count < _BANDED_FROM:
        sigma = np.linalg.svd(residual_jacobian(g), compute_uv=False)
        rank = int(np.sum(sigma > rank_tol_factor * sigma[0]))
        tail = sigma[::-1]
    else:
        rank, tail = _banded_rank(g, rank_tol_factor)
    dof_bound = 2 * g.vertex_count - 3
    flexes = dof_bound - rank
    return RigidityReport(
        rank=rank,
        dof_bound=dof_bound,
        internal_flexes=flexes,
        classification="rigid" if flexes == 0 else "flexible",
        smallest_singular_values=tuple(tail.tolist()),
    )


def _banded_rank(g: EmbeddedGraph, rank_tol_factor: float) -> tuple[int, np.ndarray]:
    """Rank and the smallest singular values (ascending), without a dense matrix.

    J^T J is assembled in the block-tridiagonal form that ``refine`` solves
    with.  Inverse subspace iteration with (J^T J + delta I)^-1 turns a seeded
    block of p vectors V towards the eigenvectors of the smallest
    eigenvalues; the Ritz values are the singular values of the e x p product
    J V, taken without squaring, and the iteration stops once they settle.
    Every singular value below mu must be among them: Sylvester's law of
    inertia counts the eigenvalues of J^T J below mu^2, and p doubles until
    as many Ritz values lie below mu.  sigma_max lies between the square
    roots of the largest diagonal entry and of the Gershgorin bound; that
    bracket is bisected (are all eigenvalues below m^2?) only while a small
    singular value could fall on either side of rank_tol_factor * sigma_max.
    """
    coords = g.vertices
    links = g.edges
    n, e = 2 * g.vertex_count, len(links)
    system = _NormalEquations(coords, links, np.ones(n, dtype=bool))
    system.assemble(coords, np.zeros(e))
    rows = system.position[_link_columns(links)]
    values = _link_values(coords, links)
    top, gershgorin = system.bounds()
    lo, hi = math.sqrt(top), math.sqrt(gershgorin)
    mu = max(1e-6 * lo, 2 * rank_tol_factor * hi)
    small = system.factor(-mu * mu).negative_count()
    inverse = system.factor(_SHIFT * top)
    structural = max(n - e, 0)  # zero eigenvalues of J^T J that are not singular values of J

    def ritz(v: np.ndarray) -> np.ndarray:
        found = np.linalg.svd(np.einsum("rk,rkp->rp", values, v[rows]), compute_uv=False)
        return np.concatenate([np.zeros(v.shape[1] - len(found)), found[::-1]])

    rng = np.random.default_rng(0)
    p = min(n, structural + 3 + 10 + 8)  # rigid motions, reported values, spares
    while True:
        v = np.linalg.qr(rng.standard_normal((n, p)))[0]
        theta = np.full(p, np.inf)
        watch = min(p, max(small, structural + 10))  # the values reported or counted
        for _ in range(_MAX_SWEEPS):
            v = np.linalg.qr(inverse.solve(v))[0]
            previous, theta = theta, ritz(v)
            settled = np.max(np.abs(theta[:watch] - previous[:watch])) <= _SETTLED * hi
            if settled:
                break
        if p == n or (settled and np.count_nonzero(theta < mu) == small):
            break
        p = min(2 * p, n)
    tail = theta[structural:watch]
    for _ in range(_MAX_BISECTIONS):
        if not np.any((rank_tol_factor * lo <= tail) & (tail <= rank_tol_factor * hi)):
            break
        m = (lo + hi) / 2
        if system.factor(-m * m).negative_count() == n:
            hi = m
        else:
            lo = m
    rank = min(e, n) - int(np.count_nonzero(tail <= rank_tol_factor * hi))
    return rank, tail
