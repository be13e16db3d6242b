"""Polish vertex coordinates until every edge has unit length.

Figure data is rounded to 4 decimals and composed graphs start with small
gaps at their glue points; this module drives both to near machine precision
with a damped Gauss-Newton iteration on one kind of residual row, a distance
minus its target: edge lengths minus one, plus optional distance constraints
between any two vertices.
Glue points that must coincide are not rows: each group of them is one
vertex while solving (elimination of a linear equality constraint).  The
edge-length Jacobian built here doubles as the rigidity matrix.

The solver never forms the dense Jacobian.  Every residual row touches at
most two vertices, so ordering the free coordinates along the drawing's
principal axis makes the normal matrix J^T J banded: unit edges keep
neighbours within one unit of each other along the axis.  It is scattered
straight into block-tridiagonal storage and each damped step is a block
LDL^T solve, so memory and time grow linearly in the vertex count for
drawings of bounded width, such as long chains.  The rigidity module factors
the same storage with other shifts.  The solver needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import EmbeddedGraph, _components

_TINY = 1e-12  # lengths below this count as degenerate
_DAMPING = 1e-6  # the first step's damping
_DAMPING_FLOOR = 1e-12
_DAMPING_CEIL = 1e14

Pin = tuple[int, int]  # (vertex index, coordinate 0=x / 1=y)


class ZeroLengthEdgeError(ValueError):
    """An edge's endpoints (nearly) coincide; direction is undefined."""


@dataclass(frozen=True)
class RefineOptions:
    """Solver knobs.

    ``pinned`` holds (vertex, coordinate) pairs fixed during solving to remove
    the three rigid-body degrees of freedom; None selects a default gauge
    (vertex 0 fully, plus one coordinate of the vertex farthest from it).
    The damping is no option: every solve starts at ``_DAMPING`` and adapts
    it within ``_DAMPING_FLOOR`` and ``_DAMPING_CEIL``.
    """

    max_iterations: int = 200
    target_residual: float = 1e-12
    pinned: tuple[Pin, ...] | None = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.target_residual > 0:
            raise ValueError("target_residual must be positive")


@dataclass(frozen=True)
class RefineResult:
    """Last iterate (the lowest residual norm reached), with convergence bookkeeping.

    Residuals are max |edge length - 1| in matchstick units.
    """

    graph: EmbeddedGraph
    iterations: int
    initial_residual: float
    final_residual: float
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "initial_residual": self.initial_residual,
            "final_residual": self.final_residual,
            "converged": self.converged,
        }


def residual_jacobian(g: EmbeddedGraph) -> np.ndarray:
    """Jacobian of the edge-length residuals, e rows by 2v columns.

    The row for edge (u, w) carries the unit direction vector from w to u in
    u's two columns and its negation in w's columns, so each row has
    Euclidean norm sqrt(2) regardless of edge length.
    """
    coords = g.vertices
    eidx = g.edges
    J = np.zeros((len(eidx), 2 * g.vertex_count))
    np.put_along_axis(J, _link_columns(eidx), _link_values(coords, eidx), axis=1)
    return J


def default_pins(g: EmbeddedGraph) -> tuple[Pin, ...]:
    """Gauge fixing: vertex 0 fully, plus one coordinate of the farthest vertex.

    Pinning y of the far vertex blocks rotation about vertex 0 unless the two
    are vertically aligned, in which case x is pinned instead.
    """
    if g.vertex_count < 2:
        return ((0, 0), (0, 1))
    coords = g.vertices
    rel = coords - coords[0]
    far = int(np.argmax(np.hypot(rel[:, 0], rel[:, 1])))
    coord = 1 if abs(rel[far, 0]) >= abs(rel[far, 1]) else 0
    return ((0, 0), (0, 1), (far, coord))


def refine(
    g: EmbeddedGraph,
    opts: RefineOptions = RefineOptions(),
    coincidences: Sequence[tuple[int, int]] = (),
    distance_constraints: Sequence[tuple[int, int, float]] = (),
) -> RefineResult:
    """Damped Gauss-Newton on edge lengths plus optional extra constraints.

    ``coincidences`` are vertex-index pairs required to coincide.  They are
    eliminated, not solved for: each group of coincident vertices starts at
    its members' average and moves as its smallest member, whose position
    every member takes in the output.  Indices are kept -- merging them is
    the construct module's job.  An edge or distance constraint between two
    coincident vertices raises ZeroLengthEdgeError.  ``distance_constraints``
    are (i, j, target) triples holding two vertices at a prescribed distance.

    A step is accepted only if it lowers the residual norm, so the last
    iterate is always the best one; a rejected step raises the damping
    tenfold and retries.  Non-convergence is reported, not raised: the last
    iterate comes back with ``converged=False``.
    """
    coords = g.vertices.copy()
    v, e = g.vertex_count, g.edge_count
    pairs = np.array([(int(i), int(j)) for i, j in coincidences], dtype=int).reshape(-1, 2)
    for i, j in pairs:
        if not (0 <= i < v and 0 <= j < v) or i == j:
            raise ValueError(f"bad coincidence pair ({i}, {j})")
    label = _components(v, pairs[:, 0], pairs[:, 1])
    if len(pairs):
        total = np.zeros_like(coords)
        np.add.at(total, label, coords)  # in vertex order, smallest member first
        coords = total[label] / np.bincount(label, minlength=v)[label, None]
    # edges and distance constraints share one row form: |p_i - p_j| - target
    distance_ends = [(int(i), int(j)) for i, j, _ in distance_constraints]
    ends = np.vstack([g.edges, np.array(distance_ends, dtype=int).reshape(-1, 2)])
    links = label[ends]
    targets = np.concatenate([np.ones(e), [float(t) for _, _, t in distance_constraints]])

    pins = opts.pinned if opts.pinned is not None else default_pins(g)
    free = np.repeat(label == np.arange(v), 2)  # only a group's smallest member moves
    for vi, ci in pins:
        if not (0 <= vi < v and ci in (0, 1)):
            raise ValueError(f"bad pin ({vi}, {ci})")
        free[2 * label[vi] + ci] = False

    def row_name(k: int) -> str:
        kind = f"edge {k}" if k < e else f"distance constraint {k - e}"
        return f"{kind} (vertices {ends[k, 0]}, {ends[k, 1]})"

    def full_residual(c: np.ndarray) -> np.ndarray:
        return _lengths(c, links, row_name)[1] - targets

    def maxima(r: np.ndarray) -> tuple[float, float]:
        """(max |edge residual|, max distance-constraint violation)."""
        size = np.abs(r)
        return (
            float(np.max(size[:e])) if e else 0.0,
            float(np.max(size[e:])) if len(r) > e else 0.0,
        )

    r = full_residual(coords)
    initial_residual, extra0 = maxima(r)
    lam = _DAMPING
    iterations = 0
    converged = max(initial_residual, extra0) <= opts.target_residual
    system: _NormalEquations | None = None  # built on the first iteration only

    while not converged and iterations < opts.max_iterations:
        if system is None:
            system = _NormalEquations(coords, links, free)
        system.assemble(coords, r)
        norm = float(np.linalg.norm(r))
        stepped = False
        while lam <= _DAMPING_CEIL:
            try:
                dx = system.factor(lam).solve(system.rhs)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            candidate = coords.copy()
            candidate.reshape(-1)[system.unknowns] += dx
            try:
                candidate_r = full_residual(candidate)
            except ZeroLengthEdgeError:
                lam *= 10
                continue
            if float(np.linalg.norm(candidate_r)) < norm:
                coords, r = candidate, candidate_r
                lam = max(lam / 3, _DAMPING_FLOOR)
                stepped = True
                break
            lam *= 10
        if not stepped:
            break  # no acceptable step at any damping: give up
        iterations += 1
        converged = max(maxima(r)) <= opts.target_residual

    return RefineResult(
        graph=EmbeddedGraph(coords[label], g.edges, name=g.name),
        iterations=iterations,
        initial_residual=initial_residual,
        final_residual=maxima(r)[0],
        converged=converged,
    )


# -- residual rows ------------------------------------------------------------


def _lengths(
    coords: np.ndarray, links: np.ndarray, row_name: Callable[[int], str] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Difference vectors p_i - p_j and their lengths, one per (i, j) row.

    A degenerate row raises ZeroLengthEdgeError naming it ``row_name(k)``,
    by default as edge k with the vertices of ``links``.
    """
    diff = coords[links[:, 0]] - coords[links[:, 1]]
    lengths = np.hypot(diff[:, 0], diff[:, 1])
    if len(lengths) and float(lengths.min()) < _TINY:
        k = int(np.argmin(lengths))
        name = row_name(k) if row_name else f"edge {k} (vertices {links[k, 0]}, {links[k, 1]})"
        raise ZeroLengthEdgeError(f"{name} has length {lengths[k]:.3e}")
    return diff, lengths


def _link_values(coords: np.ndarray, links: np.ndarray) -> np.ndarray:
    """Jacobian values of the length rows at ``_link_columns``: (u, -u)."""
    diff, lengths = _lengths(coords, links)
    unit = diff / lengths[:, None]
    return np.hstack([unit, -unit])


def _link_columns(links: np.ndarray) -> np.ndarray:
    """Flat coordinates (x_i, y_i, x_j, y_j) each length row touches."""
    i2, j2 = 2 * links[:, 0:1], 2 * links[:, 1:2]
    return np.hstack([i2, i2 + 1, j2, j2 + 1])


# -- banded normal equations --------------------------------------------------


class _NormalEquations:
    """(J^T J + lam I) dx = -J^T r over the free coordinates, block tridiagonal.

    The unknowns are the free coordinates ordered by their vertex's projection
    on the principal axis of the drawing.  The block size is the bandwidth of
    that ordering measured on the row pattern, so every nonzero lies in a
    diagonal block or in the sub-diagonal block below it (the matrix is
    symmetric; the super-diagonal blocks are their transposes).  When fewer
    than two full blocks fit, a single block holds the whole matrix and the
    step is one dense solve.  Otherwise the last block is padded with zero
    rows whose damping term keeps it nonsingular.

    Every row is a length row touching four coordinates.  The pattern is
    fixed at construction; ``assemble`` scatters the current values,
    ``factor`` factors the matrix at one shift of the diagonal, such as a
    damping, and ``negative_count`` counts its inertia at another.
    ``position`` maps each flat coordinate to its place in the ordering (-1
    when not free).
    """

    def __init__(self, coords: np.ndarray, links: np.ndarray, free: np.ndarray) -> None:
        centered = coords - coords.mean(axis=0)
        (sxx, sxy), (_, syy) = centered.T @ centered
        angle = 0.5 * math.atan2(2 * sxy, sxx - syy)  # direction of largest spread
        along = np.argsort(centered @ [math.cos(angle), math.sin(angle)], kind="stable")
        flat = (2 * along[:, None] + np.array([0, 1])).ravel()
        self.unknowns = flat[free[flat]]  # flat coordinate of each unknown
        n = len(self.unknowns)
        self.position = pos = np.full(free.size, -1)
        pos[self.unknowns] = np.arange(n)

        self._links = links
        rows = pos[_link_columns(links)]
        span = rows.max(axis=1) - np.where(rows >= 0, rows, n).min(axis=1)
        bandwidth = max(1, int(span.max()))
        self.size, self.count = bandwidth, -(-n // bandwidth)
        if n // bandwidth < 2:
            self.size, self.count = n, 1
        self._cells = (2 * self.count - 1) * self.size * self.size

        # Storage holds diagonal block k at slot 2k and the block below it at
        # slot 2k + 1.  Products touching a coordinate that is not free or
        # falling above the diagonal blocks are dropped.
        p = np.repeat(rows, 4, axis=1).ravel()
        q = np.tile(rows, 4).ravel()
        bp, bq = p // self.size, q // self.size
        keep = (p >= 0) & (q >= 0) & ((bp == bq) | (bp == bq + 1))
        slot = bq + bp  # 2k on the diagonal, 2k + 1 below it
        index = (slot * self.size + p % self.size) * self.size + q % self.size
        self._scatter_index, self._scatter_keep = index[keep], np.flatnonzero(keep)
        # J^T r: unknown of each (row, column) entry
        self._grad_keep = np.flatnonzero(rows.ravel() >= 0)
        self._grad_index = rows.ravel()[self._grad_keep]

    def assemble(self, coords: np.ndarray, r: np.ndarray) -> None:
        """Scatter J^T J and J^T r at ``coords`` with residual vector ``r``."""
        vals = _link_values(coords, self._links)
        products = (vals[:, :, None] * vals[:, None, :]).reshape(-1)[self._scatter_keep]
        self._hessian = np.bincount(self._scatter_index, products, minlength=self._cells)
        weights = (vals * r[:, None]).ravel()[self._grad_keep]
        self.rhs = -np.bincount(self._grad_index, weights, minlength=len(self.unknowns))

    def factor(self, shift: float) -> "_BlockFactor":
        """J^T J + shift I, to be solved."""
        s, nb = self.size, self.count
        blocks = self._hessian.reshape(2 * nb - 1, s, s)
        return _BlockFactor(blocks[0::2] + shift * np.eye(s), blocks[1::2], len(self.unknowns))

    def negative_count(self, shift: float, pins: Sequence[int] = (), weight: float = 0.0) -> int:
        """How many eigenvalues of J^T J + shift I are negative (Sylvester's law of inertia).

        ``weight`` is added on the diagonal at ``pins``, flat coordinates, in
        a copy of the storage.  No factor is kept.  An eigenvalue within
        rounding of zero may count either way.  A singular pivot does not
        raise: the count is then that of the matrix shifted up by n eps times
        its largest entry, so that eigenvalues within that distance of zero
        count as non-negative.
        """
        s, nb, n = self.size, self.count, len(self.unknowns)
        hessian = self._hessian
        if pins:
            at = self.position[list(pins)]
            hessian = hessian.copy()
            hessian[(2 * (at // s) * s + at % s) * s + at % s] += weight
        blocks = hessian.reshape(2 * nb - 1, s, s)
        below = blocks[1::2]
        while True:
            diagonal = blocks[0::2] + shift * np.eye(s)
            try:
                pivots = _eliminate(diagonal, below, np.zeros((nb, s, 0)))[0]
                break
            except np.linalg.LinAlgError:
                largest = max(np.abs(diagonal).max(), np.abs(below).max(initial=0.0))
                shift += n * np.finfo(float).eps * largest
        # padded rows hold the shift alone, so they sit below zero when it does
        padding = nb * s - n if shift < 0 else 0
        return int(np.count_nonzero(np.linalg.eigvalsh(pivots) < 0)) - padding


def _eliminate(diagonal: np.ndarray, below: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pivot blocks P_k and gains G_k = P_k^-1 B_k^T of a block L D L^T.

    ``diagonal`` and ``below`` hold the shifted matrix's diagonal blocks and
    the blocks B_k below them.  The right-hand sides ``y`` (nb, s, q) are
    carried through the same elimination, with ``np.linalg.solve`` on each
    pivot, and overwritten with D^-1 L^-1 y.  Raises LinAlgError when a
    pivot block is singular.
    """
    nb, s = diagonal.shape[:2]
    pivots, gains = [], []
    pivot = diagonal[0]
    for k in range(nb - 1):
        solved = np.linalg.solve(pivot, np.concatenate([below[k].T, y[k]], axis=1))
        pivots.append(pivot)
        gains.append(solved[:, :s])
        y[k] = solved[:, s:]
        update = below[k] @ solved
        pivot = diagonal[k + 1] - update[:, :s]
        y[k + 1] -= update[:, s:]
    pivots.append(pivot)
    y[-1] = np.linalg.solve(pivot, y[-1])
    return np.stack(pivots), np.array(gains).reshape(nb - 1, s, s)  # also for a single block


class _BlockFactor:
    """L D L^T of a shifted block-tridiagonal matrix.

    D holds the pivot blocks P_k; L's block below P_k is B_k P_k^-1, kept as
    the gain G_k = P_k^-1 B_k^T.  The first solve forms them by
    ``_eliminate``, which carries its right-hand sides through the
    elimination, so it is backward stable however close to singular the
    shifted matrix is; it is the only solve that ``refine`` makes.  Later
    solves reuse the gains, sweeping forward with G_k^T, and apply the
    pivots as inverse products, formed in one batch on the first reuse.
    Their forward error is about the condition number times eps, which
    suits a positive shift such as that of ``rigidity``'s inverse iteration
    (condition up to about 1e9): its values come from J V, not from the
    solve.
    """

    def __init__(self, diagonal: np.ndarray, below: np.ndarray, n: int) -> None:
        self._diagonal, self._below, self._n = diagonal, below, n
        self._pivots = self._gains = self._inverses = None  # formed by the first solve

    def solve(self, x: np.ndarray) -> np.ndarray:
        """The solution for one right-hand side (n,) or several (n, p).

        Raises LinAlgError when a pivot block is singular.
        """
        nb, s = self._diagonal.shape[:2]
        q = x.shape[1] if x.ndim > 1 else 1
        y = np.zeros((nb * s, q))
        y[: self._n] = x.reshape(self._n, q)
        y = y.reshape(nb, s, q)
        if self._pivots is None:
            self._pivots, self._gains = _eliminate(self._diagonal, self._below, y)
        else:
            for k in range(nb - 1):
                y[k + 1] -= self._gains[k].T @ y[k]
            if self._inverses is None:
                self._inverses = np.linalg.inv(self._pivots)
            y = self._inverses @ y
        for k in range(nb - 2, -1, -1):
            y[k] -= self._gains[k] @ y[k + 1]
        return y.reshape(nb * s, q)[: self._n].reshape(x.shape)
