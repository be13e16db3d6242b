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
    fixed at construction; ``assemble`` scatters the current values, and
    ``factor`` shifts the diagonal, by a damping for instance, and may add a
    penalty at some coordinates.  Each caller solves with or counts the
    factor it made (``_BlockFactor``).
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

    def factor(self, shift: float, pins: Sequence[int] = (), weight: float = 0.0) -> "_BlockFactor":
        """J^T J + shift I, plus ``weight`` on the diagonal at flat coordinates ``pins``."""
        s, nb = self.size, self.count
        blocks = self._hessian.reshape(2 * nb - 1, s, s)
        diagonal, at = blocks[0::2].copy(), self.position[list(pins)]
        diagonal[at // s, at % s, at % s] += weight
        diagonal += shift * np.eye(s)
        return _BlockFactor(diagonal, blocks[1::2], len(self.unknowns))


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
    """L D L^T of one matrix A from ``_NormalEquations.factor``, to be counted or solved.

    D holds the pivot blocks P_k; L's block below P_k is B_k P_k^-1, kept as
    the gain G_k = P_k^-1 B_k^T.  ``negative_count`` forms them by an
    elimination without right-hand sides and keeps them for
    ``negative_space``.  The first solve forms them by ``_eliminate``, which
    carries its right-hand sides through the elimination, so it is backward
    stable however close to singular A is; it is the only solve that
    ``refine`` makes.  Later solves reuse the gains, sweeping forward with
    G_k^T, and apply the pivots as inverse products, formed in one batch on
    the first reuse.  Their forward error is about the condition number
    times eps, which suits a positive shift such as that of ``rigidity``'s
    inverse iteration (condition up to about 1e9): its values come from J
    V, not from the solve.
    """

    def __init__(self, diagonal: np.ndarray, below: np.ndarray, n: int) -> None:
        self._diagonal, self._below, self._n = diagonal, below, n
        self._pivots = self._gains = self._inverses = self._eigenvalues = None

    def negative_count(self) -> int:
        """How many eigenvalues of A are negative (Sylvester's law of inertia).

        An eigenvalue within rounding of zero may count either way.  A
        singular pivot does not raise: the count is then that of A shifted
        up by n eps times its largest entry, so that eigenvalues within that
        distance of zero count as non-negative, and nothing is kept for
        ``negative_space``.
        """
        nb, s = self._diagonal.shape[:2]
        diagonal = self._diagonal
        while True:
            try:
                pivots, gains = _eliminate(diagonal, self._below, np.zeros((nb, s, 0)))
                break
            except np.linalg.LinAlgError:
                largest = max(np.abs(diagonal).max(), np.abs(self._below).max(initial=0.0))
                diagonal = diagonal + self._n * np.finfo(float).eps * largest * np.eye(s)
        eigenvalues = np.linalg.eigvalsh(pivots)
        if diagonal is self._diagonal:  # A itself was eliminated
            self._pivots, self._gains, self._eigenvalues = pivots, gains, eigenvalues
        # padded rows hold the shift alone, each an eigenvalue of the last pivot
        padding = diagonal[-1].diagonal()[self._n - (nb - 1) * s :]
        return int(np.count_nonzero(eigenvalues < 0) - np.count_nonzero(padding < 0))

    def negative_space(self) -> np.ndarray | None:
        """One inverse iteration step on the negative space of the counted A.

        With A = L D L^T, Z holds the eigenvectors of D's negative
        eigenvalues, each within its pivot block, so that A is negative
        definite on the span of L^-T Z (the Rayleigh quotients are Z^T D Z).
        Returns A^-1 L^-T Z, one column per negative eigenvalue, in the order
        of the unknowns: a back sweep with the gains, a forward sweep, one
        solve per pivot block (backward stable however indefinite the pivots
        are) and a back sweep.  None when the count met a singular pivot.
        """
        if self._eigenvalues is None:
            return None
        nb, s = self._pivots.shape[:2]
        rest = self._n - (nb - 1) * s  # the last block's rows that are not padding
        at = np.flatnonzero((self._eigenvalues < 0).any(axis=1))  # the blocks with a negative eigenvalue
        blocks = self._pivots[at]
        if at.size and at[-1] == nb - 1:
            blocks[-1, rest:, rest:] = np.eye(s - rest)  # keeps the padding out of the negatives
        values, vectors = np.linalg.eigh(blocks)
        block, column = np.nonzero(values < 0)
        y = np.zeros((nb, s, len(block)))
        y[at[block], :, np.arange(len(block))] = vectors[block, :, column]
        _back_sweep(self._gains, y)
        _forward_sweep(self._gains, y)
        y = np.linalg.solve(self._pivots, y)
        _back_sweep(self._gains, y)
        return y.reshape(nb * s, -1)[: self._n]

    def solve(self, x: np.ndarray) -> np.ndarray:
        """A^-1 x for one right-hand side (n,) or several (n, p).

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
            _forward_sweep(self._gains, y)
            if self._inverses is None:
                self._inverses = np.linalg.inv(self._pivots)
            y = self._inverses @ y
        _back_sweep(self._gains, y)
        return y.reshape(nb * s, q)[: self._n].reshape(x.shape)


def _forward_sweep(gains: np.ndarray, y: np.ndarray) -> None:
    """y <- L^-1 y in place, for the unit block lower factor L with gains G_k."""
    for k in range(len(gains)):
        y[k + 1] -= gains[k].T @ y[k]


def _back_sweep(gains: np.ndarray, y: np.ndarray) -> None:
    """y <- L^-T y in place."""
    for k in range(len(gains) - 1, -1, -1):
        y[k] -= gains[k] @ y[k + 1]
