"""Count ring compositions and certify which vertex counts are reachable.

A ring of k parts glued at degree-2 vertices has (sum of part sizes) - k
vertices, so multiset selections from a part inventory generate a table
"vertex count -> number of distinct combinations".  Together with a few
explicit graphs, mirror doubles, and three arithmetic chain families with
stride 3, that table covers every vertex count from 63 upward; the checker
here assembles those sources from a declarative manifest and produces a
certificate with one witness per covered count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Mapping

_TABLE_COLUMN_ROWS = 8  # text layout: column-major blocks of 8 rows


@dataclass(frozen=True)
class Inventory:
    """Vertex counts of the available two-port parts, ascending."""

    part_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(sorted(int(s) for s in self.part_sizes))
        if not sizes:
            raise ValueError("inventory must not be empty")
        if sizes[0] < 3:
            raise ValueError(f"part sizes must be >= 3, got {sizes[0]}")
        object.__setattr__(self, "part_sizes", sizes)

    def __len__(self) -> int:
        return len(self.part_sizes)

    def __iter__(self):
        return iter(self.part_sizes)


@dataclass(frozen=True)
class CoverageTable:
    """Rows v -> g: how many distinct part multisets give v vertices.

    Rows span a contiguous vertex-count range (zero-filled gaps included) so
    the table reads as a complete interval.
    """

    rows: Mapping[int, int]

    def __post_init__(self) -> None:
        rows = {int(v): int(g) for v, g in self.rows.items()}
        if not rows:
            raise ValueError("coverage table must have at least one row")
        if any(g < 0 for g in rows.values()):
            raise ValueError("combination counts must be >= 0")
        lo, hi = min(rows), max(rows)
        object.__setattr__(
            self, "rows", {v: rows.get(v, 0) for v in range(lo, hi + 1)}
        )

    def total(self) -> int:
        return sum(self.rows.values())

    def to_text(self) -> str:
        """Aligned text: column-major blocks of 8 (v, g) pairs per line."""
        items = sorted(self.rows.items())
        columns = [
            items[i : i + _TABLE_COLUMN_ROWS]
            for i in range(0, len(items), _TABLE_COLUMN_ROWS)
        ]
        v_width = max(len(str(v)) for v in self.rows)
        g_width = max(len(str(g)) for g in self.rows.values())
        lines = []
        for line_index in range(min(_TABLE_COLUMN_ROWS, len(items))):
            cells = [
                f"{v:>{v_width}} {g:>{g_width}}"
                for column in columns
                for v, g in column[line_index : line_index + 1]
            ]
            lines.append("   ".join(cells))
        lines.append(f"total {self.total()}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "rows": {str(v): g for v, g in sorted(self.rows.items())},
            "total": self.total(),
        }


def combinations_table(inv: Inventory, parts: int) -> CoverageTable:
    """Vertex counts of all rings of ``parts`` inventory members (with repeats).

    Each multiset of inventory entries contributes one combination to row
    v = (sum of sizes) - parts; the number of multisets is
    C(len(inv) + parts - 1, parts).  Entries count by position, so a size
    listed twice gives two entries.  The multisets are counted by total size,
    one entry at a time, rather than listed.  Raises ValueError, before
    counting anything, when the counts could take more than a million
    entries.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    # ways[j] has at most j * spread + 1 keys, and the table is zero-filled
    # over fewer than that many counts
    spread = inv.part_sizes[-1] - inv.part_sizes[0]
    if spread * parts * (parts + 1) // 2 + parts > 10**6:
        raise ValueError(
            f"{parts} parts of sizes {inv.part_sizes[0]} to {inv.part_sizes[-1]} "
            "need more than a million table entries"
        )
    # ways[j][s]: multisets of j entries so far with sizes summing to s
    ways: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(parts)]
    for size in inv.part_sizes:
        for j in range(1, parts + 1):  # ascending, so ways[j - 1] may hold this entry already
            row = ways[j]
            for s, n in ways[j - 1].items():
                row[s + size] = row.get(s + size, 0) + n
    return CoverageTable({s - parts: n for s, n in ways[parts].items()})


# -- coverage manifest --------------------------------------------------------


@dataclass(frozen=True)
class ArithmeticFamily:
    """Counts {offset + stride*n : n >= 0}, realized by a named construction."""

    offset: int
    stride: int
    description: str

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError(
                f"family {self.offset}+{self.stride}n ({self.description}): "
                f"stride must be >= 1"
            )


@dataclass(frozen=True)
class CoverageSources:
    """Declarative inputs of the coverage checker, auditable as plain data."""

    inventory: Inventory
    ring_size: int
    mirror_doubles: Mapping[int, str]  # vertex count -> doubled corpus part
    corpus_graphs: Mapping[int, str]  # vertex count -> corpus name
    extra_rings: Mapping[int, str]  # vertex count -> ring description
    families: tuple[ArithmeticFamily, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mirror_doubles", dict(self.mirror_doubles))
        object.__setattr__(self, "corpus_graphs", dict(self.corpus_graphs))
        object.__setattr__(self, "extra_rings", dict(self.extra_rings))
        object.__setattr__(self, "families", tuple(self.families))


PART_INVENTORY = Inventory((22, 30, 31, 34, 35, 36, 40, 41))

DEFAULT_COVERAGE = CoverageSources(
    inventory=PART_INVENTORY,
    ring_size=3,
    mirror_doubles={66: "fig2d", 68: "fig2e", 70: "fig2f", 78: "fig2g", 80: "fig2h"},
    corpus_graphs={
        64: "fig3a",
        65: "fig3b",
        67: "fig4a",
        69: "fig4b",
        73: "fig4c",
        74: "fig4d",
    },
    extra_rings={116: "ring of four fig2b parts"},
    families=(
        ArithmeticFamily(94, 3, "fig5a doubled, extended by 5-vertex spacers"),
        ArithmeticFamily(95, 3, "fig5a+fig5c pair, extended by 5-vertex spacers"),
        ArithmeticFamily(96, 3, "fig5c doubled, extended by 5-vertex spacers"),
    ),
)

@dataclass(frozen=True)
class CoverageCertificate:
    """Outcome of the coverage check over [63, max_check].

    ``witnesses`` maps each covered count to its construction, in ascending
    count order.
    """

    max_check: int
    missing: tuple[int, ...]
    witnesses: Mapping[int, str] = field(repr=False)

    @property
    def complete(self) -> bool:
        return not self.missing

    def to_json_dict(self) -> dict:
        return {
            "range": [63, self.max_check],
            "complete": self.complete,
            "missing": list(self.missing),
            "witnesses": dict(self.witnesses),
        }


def theorem1_coverage(
    max_check: int, sources: CoverageSources = DEFAULT_COVERAGE
) -> CoverageCertificate:
    """Which vertex counts in [63, max_check] have a known 4-regular graph.

    Witness precedence per count: ring combination from the inventory table,
    then mirror double, explicit corpus graph, extra ring, and finally the
    arithmetic families (which alone cover everything from 94 upward when
    their strides partition the residues).  Sources are written one at a
    time in reverse precedence, so a stronger source overwrites a weaker one;
    each family fills its members as one strided slice.
    """
    if max_check < 63:
        raise ValueError("max_check must be >= 63")
    slots: list[str | None] = [None] * (max_check - 62)  # slots[v - 63]: witness of v

    for family in reversed(sources.families):
        offset, stride = family.offset, family.stride
        # member indices n with 63 <= offset + stride*n <= max_check
        members = range(max(0, -((offset - 63) // stride)), (max_check - offset) // stride + 1)
        if members:
            prefix = f"family {offset}+{stride}n at n="
            suffix = f": {family.description}"
            slots[offset + stride * members[0] - 63 :: stride] = [
                f"{prefix}{n}{suffix}" for n in members
            ]

    explicit = (  # weakest first
        sources.extra_rings,
        {v: f"corpus graph {name}" for v, name in sources.corpus_graphs.items()},
        {v: f"mirror double of {name}" for v, name in sources.mirror_doubles.items()},
        _ring_witnesses(sources.inventory, sources.ring_size),
    )
    for table in explicit:
        for v, witness in table.items():
            if 63 <= v <= max_check:
                slots[v - 63] = witness

    counts = range(63, max_check + 1)
    missing = tuple(v for v, w in zip(counts, slots) if w is None)
    witnesses = {v: w for v, w in zip(counts, slots) if w is not None}
    return CoverageCertificate(max_check, missing, witnesses)


def _ring_witnesses(inv: Inventory, ring_size: int) -> dict[int, str]:
    """Vertex count -> the first ring of ``ring_size`` inventory parts that reaches it."""
    witnesses: dict[int, str] = {}
    for combo in combinations_with_replacement(inv.part_sizes, ring_size):
        v = sum(combo) - ring_size
        if v not in witnesses:
            parts = "+".join(str(s) for s in combo)
            witnesses[v] = f"ring of {ring_size} parts ({parts} vertices)"
    return witnesses
