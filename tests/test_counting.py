"""Ring-combination tables and the vertex-count coverage certificate."""

import math
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

from matchsticks.counting import (
    BELOW_63_GRAPHS,
    DEFAULT_COVERAGE,
    PART_INVENTORY,
    ArithmeticFamily,
    CoverageSources,
    CoverageTable,
    Inventory,
    combinations_table,
    theorem1_coverage,
)

inventories = st.lists(
    st.integers(min_value=3, max_value=60), min_size=1, max_size=8, unique=True
).map(lambda sizes: Inventory(tuple(sizes)))


def brute_force_rows(sizes, parts):
    """Oracle: distinct sorted selections, counted per resulting vertex count."""
    multisets = {tuple(sorted(c)) for c in product(sizes, repeat=parts)}
    rows = Counter(sum(combo) - parts for combo in multisets)
    return dict(rows)


# -- inventory and table basics -----------------------------------------------


def test_inventory_sorts_and_validates():
    inv = Inventory((30, 22, 41))
    assert inv.part_sizes == (22, 30, 41)
    assert len(inv) == 3
    assert list(inv) == [22, 30, 41]
    with pytest.raises(ValueError):
        Inventory(())
    with pytest.raises(ValueError):
        Inventory((22, 2))


def test_part_inventory_matches_the_two_port_corpus():
    assert PART_INVENTORY.part_sizes == (22, 30, 31, 34, 35, 36, 40, 41)


def test_single_size_inventory():
    table = combinations_table(Inventory((5,)), 3)
    assert dict(table.rows) == {12: 1}


def test_two_size_inventory_pairs():
    table = combinations_table(Inventory((22, 30)), 2)
    assert {v: g for v, g in table.rows.items() if g} == {42: 1, 50: 1, 58: 1}
    assert (min(table.rows), max(table.rows)) == (42, 58)
    assert table.rows[43] == 0  # gaps are zero-filled, not absent


def test_combinations_table_rejects_zero_parts():
    with pytest.raises(ValueError):
        combinations_table(PART_INVENTORY, 0)


def test_coverage_table_validates_rows():
    with pytest.raises(ValueError):
        CoverageTable({})
    with pytest.raises(ValueError):
        CoverageTable({63: -1})


def test_coverage_table_text_layout():
    table = CoverageTable({63 + i: i for i in range(10)})
    lines = table.to_text().splitlines()
    # ten rows fold into a full column of 8 plus a second column of 2
    assert lines[0].split() == ["63", "0", "71", "8"]
    assert lines[1].split() == ["64", "1", "72", "9"]
    assert lines[7].split() == ["70", "7"]
    assert lines[-1] == "total 45"


def test_coverage_table_json():
    payload = CoverageTable({63: 1, 65: 2}).to_json_dict()
    assert payload == {"rows": {"63": 1, "64": 0, "65": 2}, "total": 3}


# -- frozen contract rows -----------------------------------------------------


def test_three_part_ring_table_contract_rows():
    table = combinations_table(PART_INVENTORY, 3)
    assert (min(table.rows), max(table.rows)) == (63, 120)
    assert table.total() == math.comb(8 + 3 - 1, 3) == 120
    assert table.rows[63] == 1  # 22+22+22
    assert table.rows[64] == 0
    assert table.rows[81] == 2  # 22+22+40 and 22+31+31
    assert table.rows[103] == 6
    assert table.rows[120] == 1  # 41+41+41


def test_three_part_ring_table_zero_rows():
    table = combinations_table(PART_INVENTORY, 3)
    zeros = {v for v, g in table.rows.items() if g == 0}
    assert zeros == {64, 65, 66, 67, 68, 69, 70, 73, 74, 78, 116}


def test_three_part_ring_table_against_brute_force():
    table = combinations_table(PART_INVENTORY, 3)
    expected = brute_force_rows(PART_INVENTORY.part_sizes, 3)
    assert {v: g for v, g in table.rows.items() if g} == expected


# -- property tests -----------------------------------------------------------


@given(inventories, st.integers(min_value=1, max_value=6))
def test_table_total_is_multiset_count(inv, parts):
    table = combinations_table(inv, parts)
    assert table.total() == math.comb(len(inv) + parts - 1, parts)


@given(inventories, st.integers(min_value=1, max_value=4))
def test_table_matches_brute_force(inv, parts):
    table = combinations_table(inv, parts)
    expected = brute_force_rows(inv.part_sizes, parts)
    assert {v: g for v, g in table.rows.items() if g} == expected


@given(inventories, st.integers(min_value=3, max_value=60), st.integers(1, 4))
def test_adding_a_part_never_shrinks_a_row(inv, extra, parts):
    bigger = Inventory(tuple(set(inv.part_sizes) | {extra}))
    before = combinations_table(inv, parts)
    after = combinations_table(bigger, parts)
    for v, g in before.rows.items():
        assert after.rows.get(v, 0) >= g


@given(inventories, st.integers(min_value=1, max_value=5))
def test_table_vertex_range_endpoints(inv, parts):
    table = combinations_table(inv, parts)
    lo, hi = min(table.rows), max(table.rows)
    assert lo == min(inv) * parts - parts
    assert hi == max(inv) * parts - parts
    assert table.rows[lo] == 1 and table.rows[hi] == 1


# -- arithmetic families ------------------------------------------------------


def test_arithmetic_family_member_index():
    family = ArithmeticFamily(94, 3, "spacer chain")
    assert family.member_index(94) == 0
    assert family.member_index(97) == 1
    assert family.member_index(95) is None
    assert family.member_index(91) is None


# -- coverage certificates ----------------------------------------------------


def test_coverage_is_complete_to_ten_thousand():
    cert = theorem1_coverage(10_000)
    assert cert.complete
    assert cert.missing == ()
    assert set(cert.witnesses) == set(range(63, 10_001))


def test_coverage_witness_precedence():
    cert = theorem1_coverage(130)
    assert cert.witnesses[63] == "ring of 3 parts (22+22+22 vertices)"
    assert cert.witnesses[64] == "corpus graph fig3a"
    assert cert.witnesses[66] == "mirror double of fig2d"
    assert cert.witnesses[116] == "ring of four fig2b parts"
    assert cert.witnesses[121].startswith("family 94+3n at n=9:")
    # ring combinations win over the arithmetic families inside [63, 120]
    assert cert.witnesses[94].startswith("ring of 3 parts")


def test_coverage_rejects_short_range():
    with pytest.raises(ValueError):
        theorem1_coverage(62)


def test_dropping_a_family_breaks_coverage():
    sources = CoverageSources(
        inventory=DEFAULT_COVERAGE.inventory,
        ring_size=DEFAULT_COVERAGE.ring_size,
        mirror_doubles=DEFAULT_COVERAGE.mirror_doubles,
        corpus_graphs=DEFAULT_COVERAGE.corpus_graphs,
        extra_rings=DEFAULT_COVERAGE.extra_rings,
        families=tuple(f for f in DEFAULT_COVERAGE.families if f.offset != 94),
    )
    cert = theorem1_coverage(200, sources)
    assert not cert.complete
    assert cert.missing == tuple(range(121, 201, 3))


@given(st.data())
def test_coverage_is_monotone_in_its_sources(data):
    """Removing sources can only grow the missing set, never shrink it."""
    doubles = sorted(DEFAULT_COVERAGE.mirror_doubles)
    graphs = sorted(DEFAULT_COVERAGE.corpus_graphs)
    offsets = [f.offset for f in DEFAULT_COVERAGE.families]
    sizes = list(DEFAULT_COVERAGE.inventory)
    removals = {
        "doubles": data.draw(st.sets(st.sampled_from(doubles))),
        "graphs": data.draw(st.sets(st.sampled_from(graphs))),
        "families": data.draw(st.sets(st.sampled_from(offsets))),
        "sizes": data.draw(
            st.sets(st.sampled_from(sizes), max_size=len(sizes) - 1)
        ),
    }
    fewer_removals = {
        key: data.draw(st.sets(st.sampled_from(sorted(dropped))))
        if dropped
        else set()
        for key, dropped in removals.items()
    }

    def weakened(drop: dict) -> CoverageSources:
        return CoverageSources(
            inventory=Inventory(
                tuple(s for s in sizes if s not in drop["sizes"])
            ),
            ring_size=DEFAULT_COVERAGE.ring_size,
            mirror_doubles={
                v: n
                for v, n in DEFAULT_COVERAGE.mirror_doubles.items()
                if v not in drop["doubles"]
            },
            corpus_graphs={
                v: n
                for v, n in DEFAULT_COVERAGE.corpus_graphs.items()
                if v not in drop["graphs"]
            },
            extra_rings=DEFAULT_COVERAGE.extra_rings,
            families=tuple(
                f
                for f in DEFAULT_COVERAGE.families
                if f.offset not in drop["families"]
            ),
        )

    smaller = set(theorem1_coverage(400, weakened(fewer_removals)).missing)
    larger = set(theorem1_coverage(400, weakened(removals)).missing)
    assert smaller <= larger


def test_certificate_json_shape():
    payload = theorem1_coverage(70).to_json_dict()
    assert payload["range"] == [63, 70]
    assert payload["complete"] is True
    assert payload["missing"] == []
    assert payload["witnesses"]["63"].startswith("ring of 3 parts")


def test_below_63_catalog():
    assert set(BELOW_63_GRAPHS) == {52, 54, 57, 60}
    assert BELOW_63_GRAPHS[52] == "fig1a"
    assert BELOW_63_GRAPHS[60] == "fig1d"
