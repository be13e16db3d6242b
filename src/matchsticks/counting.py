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

from bisect import bisect_left
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, compress

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
    C(len(inv.part_sizes) + parts - 1, parts).  Entries count by position, so
    a size listed twice gives two entries.  The multisets are counted by total
    size, one entry at a time, rather than listed.  Raises ValueError, before
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

    def members(self, lo: int, hi: int) -> range:
        """The member indices n with lo <= offset + stride*n < hi."""
        offset, stride = self.offset, self.stride
        return range(max(0, -((offset - lo) // stride)), (hi - 1 - offset) // stride + 1)

    def witness_affixes(self) -> tuple[str, str]:
        """The witness of member n reads ``before + str(n) + after``."""
        return f"family {self.offset}+{self.stride}n at n=", f": {self.description}"


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

WINDOW = 6144  # counts rendered at a time; output holds one window's rows, never the table


class WitnessTable(Mapping[int, str]):
    """Read-only view: covered count -> witness text, in ascending count order.

    It stores the explicit witnesses (ring table, mirror doubles, corpus
    graphs, extra rings; at most one per count), the families and one mark
    per count; a family member's text is made only when it is read, by
    ``__getitem__`` one count at a time or by ``rows`` a window of counts at
    a time: each family fills a strided slice of the window from a template,
    families in reverse order so that the first family wins, and then the
    explicit witnesses, which win over every family, overwrite their rows.
    """

    def __init__(
        self,
        max_check: int,
        explicit: Mapping[int, str],
        families: tuple[ArithmeticFamily, ...],
        marks: bytearray,
    ) -> None:
        self._max_check = max_check
        self._explicit = dict(sorted(explicit.items()))
        self._explicit_counts = list(self._explicit)
        self._families = families
        self._affixes = [(f.offset, f.stride, *f.witness_affixes()) for f in families]
        self._marks = marks  # marks[v - 63] is nonzero iff v is covered
        self._len = len(marks) - marks.count(0)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        return compress(range(63, self._max_check + 1), self._marks)

    def __getitem__(self, v: int) -> str:
        if isinstance(v, int) and 63 <= v <= self._max_check:
            if v in self._explicit:
                return self._explicit[v]
            for offset, stride, before, after in self._affixes:
                n, r = divmod(v - offset, stride)
                if n >= 0 and not r:
                    return f"{before}{n}{after}"
        raise KeyError(v)

    def rows(
        self,
        lead: str,
        sep: str,
        escape: Callable[[str], str] = str,
        close: str = "",
    ) -> Iterator[list[str]]:
        """The table as the rows of one window of ``WINDOW`` counts at a time.

        Each window's list holds the row of each covered count v in it,
        ascending: ``lead + str(v) + sep + escape(witness) + close``.
        ``escape`` must act character by character and leave digits alone,
        so that each family's text is escaped once around its member index.
        """
        templates = [  # (family, row text before the member index, row text after it)
            (f, sep + escape(before), escape(after) + close)
            for f in reversed(self._families)
            for before, after in [f.witness_affixes()]
        ]
        counts = self._explicit_counts
        for lo in range(63, self._max_check + 1, WINDOW):
            hi = min(lo + WINDOW, self._max_check + 1)
            rows: list[str | None] = [None] * (hi - lo)
            for f, head, tail in templates:
                offset, stride = f.offset, f.stride
                if members := f.members(lo, hi):
                    rows[offset + stride * members[0] - lo :: stride] = [
                        f"{lead}{offset + stride * n}{head}{n}{tail}" for n in members
                    ]
            for v in counts[bisect_left(counts, lo) : bisect_left(counts, hi)]:
                rows[v - lo] = f"{lead}{v}{sep}{escape(self._explicit[v])}{close}"
            if self._marks.find(0, lo - 63, hi - 63) >= 0:
                rows = [row for row in rows if row is not None]
            yield rows


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
            "witnesses": dict(self.witnesses.items()),
        }


_MISSING = bytes([1]) + bytes(255)  # translation table: mark 0 -> 1, any other -> 0


def theorem1_coverage(
    max_check: int, sources: CoverageSources = DEFAULT_COVERAGE
) -> CoverageCertificate:
    """Which vertex counts in [63, max_check] have a known 4-regular graph.

    Witness precedence per count: ring combination from the inventory table,
    then mirror double, explicit corpus graph, extra ring, and finally the
    arithmetic families in order (which alone cover everything from 94
    upward when their strides partition the residues).  Only one mark per
    count is made here, each family's as one strided slice; the witness
    texts are made when the table is read (see ``WitnessTable``).
    """
    if max_check < 63:
        raise ValueError("max_check must be >= 63")
    marks = bytearray(max_check - 62)  # marks[v - 63]: 1 if v is covered
    for f in sources.families:
        if members := f.members(63, max_check + 1):
            marks[f.offset + f.stride * members[0] - 63 :: f.stride] = b"\x01" * len(members)

    explicit: dict[int, str] = {}
    for table in (  # weakest first, so a stronger source overwrites a weaker one
        sources.extra_rings,
        {v: f"corpus graph {name}" for v, name in sources.corpus_graphs.items()},
        {v: f"mirror double of {name}" for v, name in sources.mirror_doubles.items()},
        _ring_witnesses(sources.inventory, sources.ring_size),
    ):
        for v, witness in table.items():
            if 63 <= v <= max_check:
                explicit[v] = witness
                marks[v - 63] = 1

    missing = tuple(compress(range(63, max_check + 1), marks.translate(_MISSING)))
    witnesses = WitnessTable(max_check, explicit, sources.families, marks)
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
