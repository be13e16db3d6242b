"""Infinitesimal rigidity of embedded graphs via the rigidity matrix.

The rigidity matrix is the e x 2v Jacobian of edge lengths with respect to
vertex coordinates (identical to the refinement Jacobian).  A connected
framework in the plane has 2v - 3 degrees of freedom once the rigid-body
motions are removed; it is infinitesimally rigid exactly when the matrix
reaches that rank.  Rank is decided numerically from the singular values, so
refined input (edges near unit length) is recommended: figure-accuracy
coordinates blur the small singular values that separate flexes from noise.

Only the smallest singular values and the largest one, which the vertex
degrees bound, matter to the rank.  Small graphs take a dense SVD.  From
``_BANDED_FROM`` vertices on, where the dense SVD's cubic cost overtakes it,
they come from block inverse iteration on J^T J in the block-tridiagonal
storage of ``refine``'s solver.  A Sylvester inertia count of that
storage, with the three ``default_pins`` coordinates held by a penalty,
bounds how many small singular values there are.  When that count finds
none besides the three rigid motions, the verdict is rigid without any
sweep or SVD.  When it finds k more, one inverse iteration step with the
count's own factor gives k vectors, and the Ritz values of J on their span
and the rigid motions' (a thin QR and an SVD of a 3 + k column product)
bound the smallest singular values from above: when they all lie below
the rank cutoff, the flexible verdict needs nothing more.  Otherwise the
count sizes the one block of vectors and makes sure none is missed; the
verdict takes one more count per undecided value.  The shifted matrix is
factored once; each sweep costs a forward sweep, one batched product with
the pivots' inverses, a back substitution, a CholeskyQR orthonormalization
and the eigenvalues of a p x p Gram matrix, which only decide whether to
stop.  The singular values of the tall product J V are taken once, after
the last sweep.  The iteration hands the graph to the dense SVD when its
block would need half the columns, when the sweeps run out, or when the
block misses a small singular value.  Memory and time grow linearly in the
vertex count for long, thin drawings.

The verdict iterates only until the values below the cutoff mu have
settled; the reported tail of the ten smallest singular values is computed
only when it is first read: from the verdict's dense SVD when it took one,
else by its own pass, which also waits for those ten.  That pass starts at
``_BANDED_TAIL_FROM`` vertices, later than the verdict's: it cannot stop at
the count, and waits for ten values where a verdict waits for those below
mu, so its crossover with the dense SVD lies higher.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import EmbeddedGraph, _components
from .refine import _BlockFactor, _link_columns, _link_values, _NormalEquations
from .refine import default_pins, residual_jacobian

DEFAULT_RANK_TOL = 1e-8
_BANDED_FROM = 60  # vertices; measured crossover of the dense and banded verdicts
# vertices; the banded tail pass overtakes the dense SVD near 110-125, and below
# 150 every reported tail stays the dense SVD's, bit for bit
_BANDED_TAIL_FROM = 150
_SHIFT = 1e-8  # delta / largest diagonal entry; smaller shifts lose accuracy in the solves
_MAX_SWEEPS = 50
_REPORTED = 10  # singular values in the reported tail
# a sweep's Gram estimates of the Ritz values have settled when they move by less
# than this times the sigma_max bound, beyond rounding
_SETTLED = 1e-15


class DisconnectedGraphError(ValueError):
    """Rigidity analysis is defined here for connected graphs only."""


@dataclass(frozen=True)
class RigidityReport:
    """Numerical rank audit of the rigidity matrix.

    internal_flexes = (2v - 3) - rank counts independent first-order motions
    that preserve all edge lengths but are not rigid-body motions.  The
    report keeps the analyzed graph and tolerance; its singular-value tail
    is computed on first read, from the verdict's dense SVD when it took
    one, else by a banded pass of its own (a graph's arrays are read-only,
    so the tail cannot go stale).
    """

    rank: int
    dof_bound: int
    internal_flexes: int
    classification: str  # "rigid" | "flexible"
    graph: EmbeddedGraph = field(repr=False, compare=False)
    rank_tol_factor: float
    #: the dense SVD's singular values (descending), when the verdict took it
    _dense_sigma: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def smallest_singular_values(self) -> tuple[float, ...]:
        """Ascending; at least min(10, all) of them; computed once, when first read."""
        sigma = self._dense_sigma
        if sigma is None:
            found = None
            if self.graph.vertex_count >= _BANDED_TAIL_FROM:
                found = _banded(self.graph, self.rank_tol_factor, _REPORTED)
            if found is not None:
                return tuple(found[1].tolist())
            sigma = _singular_values(self.graph)
        return tuple(sigma[::-1].tolist())

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
    Soundness runs one way only: no internal flex (``internal_flexes == 0``)
    proves infinitesimal, and so finite, rigidity, as far as the numerical
    rank is right.  A first-order flex ("flexible") only fails to prove
    rigidity: a symmetric framework can be rigid yet still show an
    infinitesimal flex, so a nonzero flex count for a supposedly rigid graph
    warrants looking at the singular-value tail, which the report computes
    when it is first read.
    rank_tol_factor must lie strictly between 0 and 1, and at or above 2v
    eps (ValueError otherwise): below that floor the rounding of the rigid
    motions, measured at up to 0.05 v eps sigma_max on the drawings, rings
    and chains, could count towards the rank.
    """
    if not 0.0 < rank_tol_factor < 1.0:  # also refuses NaN
        raise ValueError(f"rank tolerance must lie in (0, 1), got {rank_tol_factor}")
    if g.vertex_count < 2:
        raise ValueError("rigidity analysis needs at least 2 vertices")
    floor = 2 * g.vertex_count * np.finfo(float).eps  # n eps, n = 2v columns
    if rank_tol_factor < floor:
        raise ValueError(
            f"rank tolerance {rank_tol_factor:g} is below the rounding floor {floor:.2g} "
            f"(2v eps) of the rigid motions of a {g.vertex_count}-vertex graph"
        )
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")
    found = _banded(g, rank_tol_factor, 0) if g.vertex_count >= _BANDED_FROM else None
    if found is None:
        sigma = _singular_values(g)
        rank = int(np.sum(sigma > rank_tol_factor * sigma[0]))
    else:
        rank, sigma = found[0], None
    dof_bound = 2 * g.vertex_count - 3
    flexes = dof_bound - rank
    return RigidityReport(
        rank=rank,
        dof_bound=dof_bound,
        internal_flexes=flexes,
        classification="rigid" if flexes == 0 else "flexible",
        graph=g,
        rank_tol_factor=rank_tol_factor,
        _dense_sigma=sigma,
    )


def _singular_values(g: EmbeddedGraph) -> np.ndarray:
    """All singular values of the rigidity matrix, descending, by a dense SVD."""
    return np.linalg.svd(residual_jacobian(g), compute_uv=False)


def _bracket(g: EmbeddedGraph, columns: np.ndarray, values: np.ndarray) -> tuple[float, ...]:
    """``_banded``'s top, lo and hi, from J's entries ``values`` at ``columns``."""
    top = float(np.bincount(columns.ravel(), (values * values).ravel()).max())
    return top, math.sqrt(top), math.sqrt(g.degrees()[g.edges].sum(axis=1).max())


def _banded(
    g: EmbeddedGraph, rank_tol_factor: float, reported: int
) -> tuple[int | None, np.ndarray] | None:
    """The rank and the smallest singular values (ascending), without a dense matrix.

    The values are every singular value below mu = max(1e-6 lo, 2
    rank_tol_factor hi), and at least the ``reported`` smallest.  lo and hi
    bracket sigma_max (``_bracket``): lo^2 = top, the largest diagonal entry
    of J^T J, and hi^2 is the largest d_u + d_v over the edges uv.  J's rows
    are unit vectors, so J^T J <= L (x) I_2 <= hi^2 I for the graph's
    Laplacian L (Anderson & Morley 1985).  Every value at or above mu is
    above the rank cutoff, so only those below it decide the rank.  J^T J is
    assembled in the block-tridiagonal form that ``refine`` solves with;
    ``top`` added on its diagonal at the three ``default_pins`` coordinates
    makes it J_pin^T J_pin, J_pin being J with three rows that hold those
    coordinates.  Sylvester's law of inertia counts its eigenvalues below
    mu^2 on its factor at -mu^2, ``pinned``; ``small``, three more, bounds
    those of J^T J (Weyl's inequalities: the penalty has rank three).  A
    verdict (``reported`` zero) with small = 3 is rigid: block LDL^T is
    stable on the positive definite J_pin^T J_pin - mu^2 I, so
    sigma_min(J_pin) >= mu, and by interlacing J's 2v - 3 largest singular
    values are at least mu, above the rank cutoff.

    A verdict with k = small - 3 > 0 whose block would stay below half the
    columns is first certified from the counted factor.  ``_ritz_values``
    gives J's Ritz values theta on the span of the rigid motions and of k
    vectors from one inverse iteration step with it.  By
    Courant-Fischer the i-th smallest theta is at least J^T J's i-th
    smallest eigenvalue's square root, so when the largest theta plus its
    rounding allowance lies below rank_tol_factor lo, J^T J has at least
    ``small`` eigenvalues below (rank_tol_factor lo)^2, none of them above
    the rank cutoff, and the count allows no more below mu^2: the rank is n -
    small (the n - e structural zeros of a graph with e < n are among them).
    With k = 0 the span is the rigid motions', which J maps to rounding far
    below the 2v eps floor of ``analyze_rigidity``, so the rigid verdict
    above is the same test without its Ritz step.  The certificate fails
    when a singular value lies between the cutoff and mu (the theta cannot
    fall below it), when the count met a singular pivot, and always on a
    tail pass; those go on as below with the same ``small``.

    Otherwise ``small`` sizes the one block of p = max(structural + 21,
    small + 17) vectors.  Inverse subspace iteration with (J^T J + delta
    I)^-1 turns the block V towards the eigenvectors of the smallest
    eigenvalues, orthonormalizing V after each solve (``_orthonormal``).
    Each sweep estimates the Ritz values theta from the eigenvalues of the
    p x p Gram matrix (J V)^T (J V), whose absolute rounding is about eps
    times the largest theta^2, and stops once the watched ones settle: each
    moved by at most _SETTLED * hi plus that rounding, or by no more than
    the Gram can resolve (theta^2 below 8 eps theta_max^2 counts as that
    floor).  The first sweep has no estimate, so the earliest stop is the
    third sweep, compared with the second.  The Ritz values are then taken
    once, without squaring, as the singular values of the e x p product
    J V.  A verdict's rank counts one factor per value t between
    rank_tol_factor times lo and hi, and t is zero when J^T J - (t /
    rank_tol_factor)^2 I has fewer than n negative eigenvalues.  A tail pass
    (``reported`` nonzero) takes none of those counts and its rank is None.

    None hands the graph to the dense SVD, in three cases: the block would
    reach half the columns (2p >= n, decided before the shifted matrix is
    factored), the sweeps run out before the watched values settle, or the
    number of Ritz values below mu is not ``small``.  Otherwise e > p.  A
    verdict answered by the count or its certificate comes back with an
    empty tail.
    """
    coords, links = g.vertices, g.edges
    n, e = 2 * g.vertex_count, len(links)
    columns, values = _link_columns(links), _link_values(coords, links)
    top, lo, hi = _bracket(g, columns, values)
    system = _NormalEquations(coords, links, np.ones(n, dtype=bool))
    system.assemble(coords, np.zeros(e))
    mu = max(1e-6 * lo, 2 * rank_tol_factor * hi)
    pinned = system.factor(-mu * mu, [2 * vertex + axis for vertex, axis in default_pins(g)], top)
    small = 3 + pinned.negative_count()
    if small == 3 and not reported:  # only the rigid motions lie below mu
        return n - 3, np.empty(0)
    structural = max(n - e, 0)  # zero eigenvalues of J^T J that are not singular values of J
    # rigid motions, reported values and spares, or the small values and spares
    p = max(structural + 3 + _REPORTED + 8, small + 17)
    if 2 * p >= n:
        return None
    rows = system.position[columns]

    def product(v: np.ndarray) -> np.ndarray:  # J V, e x p
        return np.einsum("rk,rkp->rp", values, v[rows])

    ritz = None if reported else _ritz_values(g, system.unknowns, pinned, product, hi)
    if ritz is not None:
        theta, rounding = ritz
        if len(theta) == small and theta[0] + rounding < rank_tol_factor * lo:
            return n - small, np.empty(0)
    inverse = system.factor(_SHIFT * top)

    def squares(v: np.ndarray) -> np.ndarray:  # ascending theta^2; J V is not kept past the call
        jv = product(v)
        return np.linalg.eigvalsh(jv.T @ jv)

    v = _orthonormal(_hashed_block(n, p))
    watch = max(small, structural + reported)  # the values counted or reported
    previous = np.full(watch, np.inf)
    for sweep in range(_MAX_SWEEPS):
        v = _orthonormal(inverse.solve(v))
        if sweep == 0:
            continue
        estimates = squares(v)
        rounding = np.finfo(float).eps * estimates[-1]  # absolute, in each theta^2
        floor = 8 * rounding  # theta^2 below this is not resolved
        theta = np.sqrt(np.maximum(estimates[:watch], floor))
        # a move times theta is a change of theta^2: settled within _SETTLED * hi
        # plus two Grams' rounding, or within what the Gram cannot resolve
        change = np.abs(theta - previous) * theta
        if np.all(change <= np.maximum(_SETTLED * hi * theta + rounding, floor)):
            break
        previous = theta
    else:
        return None
    theta = np.linalg.svd(product(v), compute_uv=False)[::-1]
    if np.count_nonzero(theta < mu) != small:
        return None
    tail = theta[structural:watch]
    if reported:
        return None, tail
    zero = tail < rank_tol_factor * lo
    for i in np.flatnonzero(~zero & (tail <= rank_tol_factor * hi)):
        m = tail[i] / rank_tol_factor  # t is zero exactly when sigma_max >= m
        zero[i] = system.factor(-m * m).negative_count() < n
    return min(e, n) - int(np.count_nonzero(zero)), tail


def _ritz_values(
    g: EmbeddedGraph, unknowns: np.ndarray, counted: _BlockFactor, product: Callable[..., np.ndarray], hi: float
) -> tuple[np.ndarray, float] | None:
    """J's Ritz values on the rigid motions and the negative space of a counted factor.

    Returns the Ritz values theta (descending) on the span of the two
    translations, the rotation about the centroid and the k vectors of
    ``counted.negative_space()``, and how far each computed theta may lie
    below the exact one: eps (n theta_max + 8 hi sqrt(3 + k)).  The span's
    basis Q, its rows in the order ``unknowns``, comes from a Householder QR
    and the theta are the singular values of the e x (3 + k) product J Q
    (``product``).  Q is orthonormal to within about n eps, and the SVD is
    backward stable, which the relative term covers.  Each entry of J Q sums
    four products, so its rounding is at most 4.01 eps (|J| |Q|), of norm
    below 6 eps hi sqrt(3 + k): the rows of |J| are unit vectors, so
    |||J|||^2 <= 2 max d_v < 2 hi^2, and |||Q||| is at most Q's Frobenius
    norm.  None when the count met a singular pivot.
    """
    flexes = counted.negative_space()
    if flexes is None:
        return None
    centered = g.vertices - g.vertices.mean(axis=0)
    motions = np.zeros((2 * g.vertex_count, 3))
    motions[0::2, 0] = motions[1::2, 1] = 1.0
    motions[0::2, 2], motions[1::2, 2] = -centered[:, 1], centered[:, 0]
    basis = np.linalg.qr(np.hstack([motions[unknowns], flexes]))[0]
    theta = np.linalg.svd(product(basis), compute_uv=False)
    eps = np.finfo(float).eps
    return theta, eps * (len(basis) * theta[0] + 8 * hi * math.sqrt(len(theta)))


def _orthonormal(w: np.ndarray) -> np.ndarray:
    """Orthonormal columns Q with w = Q R, R upper triangular (w of full rank).

    Shifted CholeskyQR3 (Fukaya, Kannan, Nakatsukasa, Yamamoto & Yanagisawa,
    SIAM J. Sci. Comput. 42, 2020): three passes of Q = w R^-1, with R the
    Cholesky factor of the Gram matrix.  The first Gram matrix is shifted by
    11 (mp + p(p + 1)) u times its trace (u the unit roundoff), enough for
    its Cholesky factor to exist in floating point; that pass lowers the
    condition number far enough for the two unshifted passes, which leave Q
    orthonormal to rounding.  This holds for condition numbers of w up to
    1e12 and beyond, well above the 1e9 or so of the inverse iteration's
    blocks, (J^T J + delta I)^-1 V with V orthonormal.  On those tall, thin
    blocks it is several times faster than a Householder QR.
    """
    m, p = w.shape
    gram = w.T @ w
    shift = 11 * (m * p + p * (p + 1)) * 2.0**-53 * np.trace(gram)
    upper = np.linalg.cholesky(gram + shift * np.eye(p)).T
    for _ in range(2):
        w = w @ np.linalg.inv(upper)
        upper = np.linalg.cholesky(w.T @ w).T
    return w @ np.linalg.inv(upper)


def _hashed_block(n: int, p: int) -> np.ndarray:
    """A fixed n x p start block with entries in [-1/2, 1/2).

    Each entry is the splitmix64 finalizer (Steele, Lea & Flood, OOPSLA 2014)
    of its index: a deterministic stand-in for a random block that does not
    import ``numpy.random`` and its dependencies.
    """
    z = np.arange(1, n * p + 1, dtype=np.uint64).reshape(n, p)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53 - 0.5
