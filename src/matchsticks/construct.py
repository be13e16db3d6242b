"""Build larger matchstick graphs by gluing parts at degree-2 vertices.

Merging two degree-2 vertices produces one degree-4 vertex, so parts whose
only sub-4 degrees are a few degree-2 "ports" can be composed into 4-regular
graphs: rings of k parts joined in a cycle, chains with 5-vertex spacers
slotted between two end parts (a facing pair of two parts is a chain with
none), and mirror doubles (a two-part plan: a part facing its reflected or
half-turned copy).  A composition is a declarative plan with one realization
path, ``realize``: each part is taken as given and moved rigidly into
place (ring parts around a closed polygon, chain parts each against the
one before); one solve then closes every glue gap
(``refine`` moves each glued group of vertices as one, and brings the edges
of unrefined parts to unit length), and only then are vertex indices merged.
Long chains are not solved whole: ``chain_extend`` solves a base chain of
four or five spacers and repeats its two-spacer period, falling back to the
whole solve if the result misses the target.  Certification is deliberately
separate: callers pass the result to ``pipeline.certify``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .model import EmbeddedGraph, _components, edge_lengths
from .refine import RefineOptions, refine


class ConstructError(RuntimeError):
    """Construction could not be carried out."""


class WrongDegreeError(ConstructError):
    """A designated join vertex does not have degree 2."""


class PlanError(ValueError):
    """Composition plan violates its invariants."""


class RealizationFailedError(ConstructError):
    """Layout or glue solving failed; the plan may be geometrically infeasible."""


# -- plans --------------------------------------------------------------------


@dataclass(frozen=True)
class PartSpec:
    """One part of a composition: a graph plus an optional label."""

    graph: EmbeddedGraph
    label: str | None = None

    @property
    def display_label(self) -> str:
        return self.label or self.graph.name or "part"


@dataclass(frozen=True)
class CompositionPlan:
    """Parts plus pairwise identifications of their degree-2 ports.

    Each identification is (part a, slot a, part b, slot b), where a slot
    indexes the part's degree-2 vertices in vertex-index order.  Every listed
    port may appear in exactly one identification and the identification
    graph over parts must be connected.
    """

    parts: tuple[PartSpec, ...]
    identifications: tuple[tuple[int, int, int, int], ...]
    name: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(
            self,
            "identifications",
            tuple(tuple(int(x) for x in ident) for ident in self.identifications),
        )
        validate_plan(self)


def degree2_vertices(g: EmbeddedGraph) -> tuple[int, ...]:
    """Indices of the degree-2 vertices, ascending; these are the glue ports."""
    deg = g.degrees()
    return tuple(int(i) for i in np.nonzero(deg == 2)[0])


def validate_plan(plan: CompositionPlan) -> None:
    k = len(plan.parts)
    if k == 0:
        raise PlanError("plan has no parts")
    ports = [degree2_vertices(spec.graph) for spec in plan.parts]
    used: set[tuple[int, int]] = set()
    for a, sa, b, sb in plan.identifications:
        for part, slot in ((a, sa), (b, sb)):
            if not 0 <= part < k:
                raise PlanError(f"part index {part} out of range")
            if not 0 <= slot < len(ports[part]):
                raise PlanError(
                    f"part {part} has {len(ports[part])} degree-2 vertices, no slot {slot}"
                )
            if (part, slot) in used:
                raise PlanError(f"port (part {part}, slot {slot}) used twice")
            used.add((part, slot))
        if a == b:
            raise PlanError(f"identification joins part {a} to itself")
    links = np.array(plan.identifications, dtype=np.intp).reshape(-1, 4)
    if _components(k, links[:, 0], links[:, 2]).any():
        raise PlanError("identification graph over parts is not connected")


def ring_plan(parts: Sequence[PartSpec | EmbeddedGraph], name: str | None = None) -> CompositionPlan:
    """Cycle composition: part i's slot 1 glued to part i+1's slot 0 (mod k)."""
    specs = tuple(p if isinstance(p, PartSpec) else PartSpec(p) for p in parts)
    k = len(specs)
    if k < 2:
        raise PlanError("a ring needs at least 2 parts")
    idents = tuple((i, 1, (i + 1) % k, 0) for i in range(k))
    if name is None:
        name = "ring(" + ",".join(s.display_label for s in specs) + ")"
    return CompositionPlan(specs, idents, name)


@dataclass(frozen=True)
class ChainSpec:
    """Two end parts joined through n flexible 5-vertex spacers.

    Each spacer contributes 5 vertices and consumes 2 identifications per
    neighbor, and each identification merges two vertices into one, so the
    chain has v_left + v_right + 5n - 2(n+1) vertices; every spacer adds 3
    net vertices.
    ``spacer=None`` selects the bundled 5-vertex corpus part.
    """

    left: PartSpec
    right: PartSpec
    spacer_count: int
    spacer: EmbeddedGraph | None = None

    def __post_init__(self) -> None:
        if self.spacer_count < 0:
            raise PlanError("spacer_count must be >= 0")


def chain_plan(spec: ChainSpec) -> CompositionPlan:
    """Expand a ChainSpec into an explicit plan (left + spacers + right)."""
    spacer = spec.spacer
    if spacer is None:
        from .corpus import refined_graph  # deferred: corpus is optional here

        spacer = refined_graph("fig5b")
    _spacer_port_pairs(spacer)  # raises PlanError if the shape is not a spacer
    parts: list[PartSpec] = [spec.left]
    parts += [PartSpec(spacer, label=spacer.name) for _ in range(spec.spacer_count)]
    parts.append(spec.right)
    n = spec.spacer_count
    exits = [_facing_slots(spec.left.graph, exit_side=True)]
    exits += [_facing_slots(spacer, exit_side=True)] * n
    entries = [_facing_slots(spacer, exit_side=False)] * n
    entries.append(_facing_slots(spec.right.graph, exit_side=False))
    idents: list[tuple[int, int, int, int]] = []
    for t in range(len(parts) - 1):
        idents.append((t, exits[t][0], t + 1, entries[t][0]))
        idents.append((t, exits[t][1], t + 1, entries[t][1]))
    return CompositionPlan(tuple(parts), tuple(idents), _chain_name(spec))


def _chain_name(spec: ChainSpec) -> str:
    return (
        f"chain({spec.left.display_label},"
        f"{spec.spacer_count} spacers,{spec.right.display_label})"
    )


def _facing_slots(g: EmbeddedGraph, exit_side: bool) -> tuple[int, int]:
    """Which two slots of a chain part face a given neighbor.

    End parts have exactly two ports (both face their only neighbor); spacers
    offer one port pair per side, in pair order (entry = pair 0, exit = 1).
    """
    ports = degree2_vertices(g)
    if len(ports) == 2:
        return 0, 1
    pairs = _spacer_port_pairs(g)
    pair = pairs[1] if exit_side else pairs[0]
    return ports.index(pair[0]), ports.index(pair[1])


def chain_extend(spec: ChainSpec) -> EmbeddedGraph:
    """Realize a chain composition; vertex count comes out as predicted.

    A glue-solved chain repeats with a period of two spacers: spacer k + 2 is
    spacer k translated by T, |T| ~ 2 along the chain.  So chains of more
    than five spacers realize one base chain of 4 spacers (5 for odd counts)
    through ``realize``, then repeat its spacers 2 and 3 with translation T
    as often as needed and shift the rest of the base along.  Vertex and edge order
    are those ``realize`` gives the whole chain.  Edges where one copy meets
    the next are unit only as far as the base is periodic, so if any edge of
    the tiled chain misses ``RefineOptions().target_residual`` the whole
    chain is glue-solved instead.  Chains of up to five spacers are always
    solved whole.  The chain has one flex, and the tiled chain may sit at
    another point on it than the whole solve would.
    """
    n = spec.spacer_count
    base_count = 4 + n % 2
    if n < base_count + 2:  # not one whole period beyond the base
        return realize(chain_plan(spec))
    base_plan = chain_plan(replace(spec, spacer_count=base_count))
    base = realize(base_plan)
    # _merge_pairs keeps each joint at its earlier part's port, so the base
    # lists the left end's vertices, then each spacer's v - 2 new ones, then
    # the right end's rest; its edges follow the parts in the same order.
    spacer = base_plan.parts[1].graph
    step = spacer.vertex_count - 2
    v0 = spec.left.graph.vertex_count + step  # spacer 2's first vertex
    e0 = spec.left.graph.edge_count + spacer.edge_count  # and first edge
    v1, e1 = v0 + 2 * step, e0 + 2 * spacer.edge_count  # spacer 4's
    coords, edges = base.vertices, base.edges
    period = coords[v1 : v1 + step].mean(axis=0) - coords[v0 : v0 + step].mean(axis=0)
    m = (n - base_count) // 2
    copies = np.arange(1, m + 1)[:, None, None]
    shift = v1 - v0  # one period's vertices
    tiled_coords = np.concatenate(
        [coords[:v1], (coords[v0:v1] + copies * period).reshape(-1, 2), coords[v1:] + m * period]
    )
    tiled_edges = np.concatenate(
        [edges[:e1], (edges[e0:e1] + copies * shift).reshape(-1, 2), edges[e1:] + m * shift]
    )
    tiled = EmbeddedGraph(tiled_coords, tiled_edges, name=_chain_name(spec))
    if np.abs(edge_lengths(tiled) - 1.0).max() > RefineOptions().target_residual:
        return realize(chain_plan(spec))
    return tiled


# -- plan reading -------------------------------------------------------------


def plan_from_json(text: str, resolver: Callable[[str], EmbeddedGraph]) -> CompositionPlan:
    """Read a plan from JSON text; PlanError if the document is malformed.

    ``resolver`` turns each part reference into a graph, which ``realize``
    takes as given.  The document holds ``parts`` (each a name or an object
    ``{"part": name}``), ``identifications`` (each four integers) and an
    optional ``name`` (a string or null); any other key is refused.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"plan document is not JSON: {exc}") from None
    except RecursionError:
        raise PlanError("plan document is nested too deeply") from None
    fields = ("parts", "identifications")
    if not isinstance(data, dict) or not all(isinstance(data.get(f), list) for f in fields):
        raise PlanError("plan document needs the list fields 'parts' and 'identifications'")
    _refuse_keys(data, {"parts", "identifications", "name"}, "plan document")
    entries = [{"part": e} if isinstance(e, str) else e for e in data["parts"]]
    if not all(isinstance(e, dict) and isinstance(e.get("part"), str) for e in entries):
        raise PlanError("each part must be a name or an object with a string 'part'")
    for e in entries:
        _refuse_keys(e, {"part"}, f"part {e['part']!r}")
    for ident in data["identifications"]:
        # bool is a subclass of int, so compare exact types
        if not (isinstance(ident, list) and len(ident) == 4 and all(type(x) is int for x in ident)):
            raise PlanError(f"identification {ident!r} is not a list of four integers")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise PlanError(f"plan name must be a string, not {name!r}")
    parts = tuple(PartSpec(resolver(e["part"]), e["part"]) for e in entries)
    return CompositionPlan(parts, data["identifications"], name)


def _refuse_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise PlanError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


# -- mirror doubling ----------------------------------------------------------


def mirror_double(
    g: EmbeddedGraph,
    axis_vertex_a: int,
    axis_vertex_b: int,
    mode: str = "line",
) -> EmbeddedGraph:
    """Glue g to a copy of itself at two of its degree-2 vertices.

    The double is a two-part plan realized by ``realize``.  In ``line`` mode
    each join vertex is glued to its own copy, so the copy is laid out as
    g reflected across the line through the two vertices; in ``point`` mode
    each is glued to the other's copy, so the copy is g turned half a turn
    about their midpoint.  The result has 2v - 2 vertices; when g is
    (2,4)-regular with exactly these two degree-2 vertices it is 4-regular.
    The output is not verified here (a vertex on the mirror axis lands on
    its own copy): certify it separately.
    """
    a, b = int(axis_vertex_a), int(axis_vertex_b)
    deg = g.degrees()
    for vtx in (a, b):
        if not 0 <= vtx < g.vertex_count:
            raise WrongDegreeError(f"vertex {vtx} out of range for {g.vertex_count} vertices")
        if deg[vtx] != 2:
            raise WrongDegreeError(f"vertex {vtx} has degree {deg[vtx]}, need 2")
    if a == b:
        raise WrongDegreeError("join vertices must be distinct")
    if mode not in ("line", "point"):
        raise ValueError(f"mode must be 'line' or 'point', got {mode!r}")
    ports = degree2_vertices(g)
    sa, sb = ports.index(a), ports.index(b)
    copy_a, copy_b = (sa, sb) if mode == "line" else (sb, sa)
    part = PartSpec(g)
    idents = ((0, sa, 1, copy_a), (0, sb, 1, copy_b))
    return realize(CompositionPlan((part, part), idents, f"mirror({g.name or 'graph'},{mode})"))


# -- realization --------------------------------------------------------------


def realize(plan: CompositionPlan) -> EmbeddedGraph:
    """Place the parts as given, solve all glue gaps closed, and merge the joints.

    Each part is moved only rigidly by the layout; the one glue solve then
    closes every gap and also brings the edges of parts that were not
    refined to unit length.  The parts must form a path
    or a cycle of neighbors.  A cycle (a ring of three or more parts, one
    joint between neighbors) is laid out around a closed polygon.  A path is
    a chain: neighbors share two joints, interior parts are 5-vertex
    spacers, and each part is placed against the one before it (a facing
    pair or a mirror double is a chain with no spacers).
    Raises RealizationFailedError when the layout is unsupported or the glue
    constraints cannot be closed; the result is otherwise exact to the
    refinement target but deliberately unverified.
    """
    parts = [spec.graph for spec in plan.parts]
    ports = [degree2_vertices(g) for g in parts]
    idents = [
        (a, ports[a][sa], b, ports[b][sb]) for a, sa, b, sb in plan.identifications
    ]
    order, joints, closed = _walk_parts(len(parts), idents)
    layout = _layout_cycle if closed else _layout_chain
    placed = layout(parts, order, joints)
    return _solve_and_merge(plan, placed, idents)


_Joints = dict[tuple[int, int], list[tuple[int, int]]]


def _walk_parts(
    k: int, idents: list[tuple[int, int, int, int]]
) -> tuple[list[int], _Joints, bool]:
    """Order the parts along the path or cycle their joints form.

    ``joints[a, b]`` lists the (port of a, port of b) pairs glued between
    neighbors a and b, in plan order.  A path starts at its first end; a
    cycle (``closed``) starts at part 0 and goes towards the part of its
    first joint.  Plans are connected, so with at most two neighbors per
    part the walk reaches every part.
    """
    joints: _Joints = {}
    for a, va, b, vb in idents:
        joints.setdefault((a, b), []).append((va, vb))
        joints.setdefault((b, a), []).append((vb, va))
    neighbors: list[list[int]] = [[] for _ in range(k)]
    for a, b in joints:
        neighbors[a].append(b)
    if any(len(n) > 2 for n in neighbors):
        raise RealizationFailedError(
            "unsupported plan topology (a part has more than two neighbors)"
        )
    ends = [i for i in range(k) if len(neighbors[i]) < 2]
    order = [ends[0] if ends else 0]
    while len(order) < k:  # step to the neighbor that is not the part before
        order.append(next(b for b in neighbors[order[-1]] if b not in order[-2:]))
    return order, joints, not ends


# -- cycle layout -------------------------------------------------------------


def _layout_cycle(
    parts: list[EmbeddedGraph], order: list[int], joints: _Joints
) -> list[np.ndarray]:
    """Place a cycle of parts around a closed polygon, one joint per corner."""
    k = len(parts)
    nexts = order[1:] + order[:1]
    if any(len(joints[i, j]) != 1 for i, j in zip(order, nexts)):
        raise RealizationFailedError("cycle neighbors must share exactly one joint")
    exit_vertex_of = {i: joints[i, j][0][0] for i, j in zip(order, nexts)}
    entry_vertex_of = {j: joints[i, j][0][1] for i, j in zip(order, nexts)}

    gaps = []
    for i in order:
        p = parts[i].vertices
        gaps.append(float(np.hypot(*(p[exit_vertex_of[i]] - p[entry_vertex_of[i]]))))

    polygon = _closed_polygon(gaps)  # counterclockwise, one vertex per joint
    placed: list[np.ndarray] = [None] * k  # type: ignore[list-item]
    for pos, i in enumerate(order):  # bodies outward = right of ccw edges
        corners = polygon[pos], polygon[(pos + 1) % k]
        placed[i] = _place_two_ports(
            parts[i].vertices, entry_vertex_of[i], exit_vertex_of[i], *corners, body_side=-1.0
        )
    return placed


def _closed_polygon(sides: list[float]) -> np.ndarray:
    """Vertices of a counterclockwise closed polygon with the given side lengths.

    Three sides use the direct triangle; more sides use the polygon inscribed
    in a circle (side i subtends central angle 2 asin(d_i / 2R); the radius
    solving "angles sum to a full turn" is found by bisection).  Raises on
    infeasible side lists, e.g. one side longer than the rest combined.
    """
    d = [float(x) for x in sides]
    if min(d) <= 0:
        raise RealizationFailedError("degenerate port gap in cycle layout")
    if 2 * max(d) >= sum(d):
        raise RealizationFailedError(
            f"cycle cannot close: side {max(d):.6g} is at least the sum of the others"
        )
    if len(d) == 3:
        x = (d[0] ** 2 + d[2] ** 2 - d[1] ** 2) / (2 * d[0])
        y_sq = d[2] ** 2 - x**2
        if y_sq <= 0:
            raise RealizationFailedError("triangle layout degenerate")
        return np.array([[0.0, 0.0], [d[0], 0.0], [x, math.sqrt(y_sq)]])

    def half_angle_sum(radius: float) -> float:
        return sum(math.asin(min(1.0, s / (2 * radius))) for s in d) - math.pi

    lo = max(d) / 2
    if half_angle_sum(lo * (1 + 1e-15)) < 0:
        # circumcenter would fall outside the polygon; not needed for the
        # compositions this library builds
        raise RealizationFailedError("cycle layout unsupported for these proportions")
    hi = sum(d)
    while half_angle_sum(hi) > 0:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if half_angle_sum(mid) > 0:
            lo = mid
        else:
            hi = mid
    radius = 0.5 * (lo + hi)
    angles = np.cumsum([0.0] + [2 * math.asin(min(1.0, s / (2 * radius))) for s in d[:-1]])
    return radius * np.column_stack([np.cos(angles), np.sin(angles)])


def _place_two_ports(
    coords: np.ndarray,
    entry: int,
    exit_: int,
    target_entry: np.ndarray,
    target_exit: np.ndarray,
    body_side: float,
) -> np.ndarray:
    """Rigidly map a part so its ports land on (or straddle) their targets.

    The direction entry->exit is aligned with the target direction and the
    midpoints are matched, which is the exact two-point map when the gaps
    agree.  ``body_side`` (+1 left / -1 right of the directed target segment)
    says where the part's body belongs; the part is pre-reflected across its
    own port line when needed.
    """
    p_entry, p_exit = coords[entry], coords[exit_]
    side = _body_side(coords, p_entry, p_exit)
    if side * body_side < 0:
        coords = _reflect_across(coords, p_entry, p_exit)
        p_entry, p_exit = coords[entry], coords[exit_]
    source_mid = (p_entry + p_exit) / 2
    target_mid = (target_entry + target_exit) / 2
    angle = math.atan2(*(target_exit - target_entry)[::-1]) - math.atan2(
        *(p_exit - p_entry)[::-1]
    )
    rot = np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    )
    return (coords - source_mid) @ rot.T + target_mid


def _body_side(coords: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """Which side of the directed line p->q the body mass sits on (+1 left)."""
    d = q - p
    rel = coords - p
    return float(np.sign(np.sum(d[0] * rel[:, 1] - d[1] * rel[:, 0])))


def _reflect_across(coords: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    u = (q - p) / np.hypot(*(q - p))
    rel = coords - p
    along = (rel @ u)[:, None] * u
    return p + 2 * along - rel


# -- chain layout -------------------------------------------------------------


def _spacer_port_pairs(g: EmbeddedGraph) -> tuple[tuple[int, int], tuple[int, int]]:
    """Group a 5-vertex spacer's four ports into its two facing pairs.

    The spacer is two triangles sharing a hub vertex; deleting the hub leaves
    one edge per triangle, joining its two ports, and each facing pair takes
    one port from each triangle (the pairing minimizing the within-pair
    distances).
    """
    deg = g.degrees()
    ports = degree2_vertices(g)
    hubs = [int(i) for i in np.nonzero(deg == 4)[0]]
    if g.vertex_count != 5 or g.edge_count != 6 or len(ports) != 4 or len(hubs) != 1:
        raise PlanError("interior chain parts must be the 5-vertex two-triangle spacer")
    # The hub meets all four ports, so the two other edges pair each port
    # with its triangle's other port; sorted, the smallest vertex comes first.
    (p1, p2), (q1, q2) = sorted(edge for edge in g.edges.tolist() if hubs[0] not in edge)

    def dist(i: int, j: int) -> float:
        return float(np.hypot(*(g.vertices[i] - g.vertices[j])))

    if dist(p1, q1) + dist(p2, q2) <= dist(p1, q2) + dist(p2, q1):
        pairs = ((p1, q1), (p2, q2))
    else:
        pairs = ((p1, q2), (p2, q1))
    # deterministic pair order: by midpoint along the axis between pair midpoints
    mid0 = (g.vertices[pairs[0][0]] + g.vertices[pairs[0][1]]) / 2
    mid1 = (g.vertices[pairs[1][0]] + g.vertices[pairs[1][1]]) / 2
    if tuple(mid0) > tuple(mid1):
        pairs = (pairs[1], pairs[0])
    return pairs


def _layout_chain(
    parts: list[EmbeddedGraph], order: list[int], joints: _Joints
) -> list[np.ndarray]:
    """Place a chain part by part, each against the one before it.

    The first end keeps its given position.  Each next part is entered
    through two ports, glued to two ports of the part before: the entry
    ports straddle their partners, with the body on the far side of them.
    Interior parts must be spacers entered through one facing pair (so they
    leave through the other).
    """
    placed: list[np.ndarray] = [None] * len(parts)  # type: ignore[list-item]
    placed[order[0]] = parts[order[0]].vertices
    for t, (prev, cur) in enumerate(zip(order, order[1:]), start=1):
        if len(joints[prev, cur]) != 2:
            raise RealizationFailedError("chain neighbors must share exactly two joints")
        (p0, c0), (p1, c1) = joints[prev, cur]
        if t < len(order) - 1 and {c0, c1} not in map(set, _spacer_port_pairs(parts[cur])):
            raise RealizationFailedError("chain joints do not respect spacer port pairs")
        q0, q1 = placed[prev][p0], placed[prev][p1]
        placed[cur] = _place_two_ports(
            parts[cur].vertices, c0, c1, q0, q1, body_side=-_body_side(placed[prev], q0, q1)
        )
    return placed


# -- glue solving and merging -------------------------------------------------


def _solve_and_merge(
    plan: CompositionPlan,
    placed: list[np.ndarray],
    idents: list[tuple[int, int, int, int]],
) -> EmbeddedGraph:
    offsets = np.cumsum([0] + [len(c) for c in placed[:-1]])
    union_coords = np.concatenate(placed)
    union_edges = np.concatenate(
        [spec.graph.edges + off for spec, off in zip(plan.parts, offsets)]
    )
    pairs = [(offsets[a] + va, offsets[b] + vb) for a, va, b, vb in idents]

    union = EmbeddedGraph(union_coords, union_edges, name=plan.name)
    result = refine(union, coincidences=pairs)
    if not result.converged:
        raise RealizationFailedError(
            f"glue constraints did not close (edge residual {result.final_residual:.3e})"
        )

    return _merge_pairs(result.graph, pairs)


def _merge_pairs(g: EmbeddedGraph, pairs: Sequence[tuple[int, int]]) -> EmbeddedGraph:
    """Merge each group of joined vertices into its smallest member.

    Vertices keep their order; a merged one keeps its smallest member's place
    and coordinates, which callers have made those of every member.
    """
    joints = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    label = _components(g.vertex_count, joints[:, 0], joints[:, 1])
    keep = label == np.arange(g.vertex_count)
    target = (np.cumsum(keep) - 1)[label]
    return EmbeddedGraph(g.vertices[keep], target[g.edges], name=g.name)
