"""Ring-combination tables and the vertex-count coverage certificate."""

import dataclasses
import json
import math
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, strategies as st

from matchsticks import cli
from matchsticks.counting import (
    DEFAULT_COVERAGE,
    PART_INVENTORY,
    WINDOW,
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


def reference_coverage(max_check, sources):
    """Oracle: every count tried against every source in precedence order.

    Returns (witnesses, missing) as ``theorem1_coverage`` should report them.
    """
    ring_witness = {}
    for combo in combinations_with_replacement(sources.inventory.part_sizes, sources.ring_size):
        v = sum(combo) - sources.ring_size
        if v not in ring_witness:
            parts = "+".join(str(s) for s in combo)
            ring_witness[v] = f"ring of {sources.ring_size} parts ({parts} vertices)"
    witnesses, missing = {}, []
    for v in range(63, max_check + 1):
        if v in ring_witness:
            witnesses[v] = ring_witness[v]
        elif v in sources.mirror_doubles:
            witnesses[v] = f"mirror double of {sources.mirror_doubles[v]}"
        elif v in sources.corpus_graphs:
            witnesses[v] = f"corpus graph {sources.corpus_graphs[v]}"
        elif v in sources.extra_rings:
            witnesses[v] = sources.extra_rings[v]
        else:
            for f in sources.families:
                if v >= f.offset and (v - f.offset) % f.stride == 0:
                    n = (v - f.offset) // f.stride
                    witnesses[v] = f"family {f.offset}+{f.stride}n at n={n}: {f.description}"
                    break
            else:
                missing.append(v)
    return witnesses, tuple(missing)


WITHOUT_94_FAMILY = dataclasses.replace(
    DEFAULT_COVERAGE,
    families=tuple(f for f in DEFAULT_COVERAGE.families if f.offset != 94),
)


# -- inventory and table basics -----------------------------------------------


def test_inventory_sorts_and_validates():
    inv = Inventory((30, 22, 41))
    assert inv.part_sizes == (22, 30, 41)
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


def test_combinations_table_bounds_its_entries_at_a_million():
    # 1000 * 44 * 45 / 2 + 44 = 990,044 entries at most; 45 parts could take 1,035,045
    inv = Inventory((3, 1003))
    assert combinations_table(inv, 44).total() == 45
    with pytest.raises(ValueError, match="45 parts of sizes 3 to 1003"):
        combinations_table(inv, 45)


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


@pytest.mark.parametrize("sizes", [PART_INVENTORY.part_sizes, (3, 5, 5, 9), (4,)])
@pytest.mark.parametrize("parts", range(1, 7))
def test_table_counts_entries_by_position(sizes, parts):
    """A size listed twice is two entries, as in ``combinations_with_replacement``."""
    inv = Inventory(sizes)
    listed = CoverageTable(
        Counter(sum(c) - parts for c in combinations_with_replacement(inv.part_sizes, parts))
    )
    table = combinations_table(inv, parts)
    assert table.rows == listed.rows and table.to_text() == listed.to_text()


def test_table_of_sixty_parts_counts_every_multiset():
    assert combinations_table(PART_INVENTORY, 60).total() == math.comb(67, 60)


# -- property tests -----------------------------------------------------------


@given(inventories, st.integers(min_value=1, max_value=6))
def test_table_total_is_multiset_count(inv, parts):
    table = combinations_table(inv, parts)
    assert table.total() == math.comb(len(inv.part_sizes) + parts - 1, parts)


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
    assert lo == min(inv.part_sizes) * parts - parts
    assert hi == max(inv.part_sizes) * parts - parts
    assert table.rows[lo] == 1 and table.rows[hi] == 1


# -- arithmetic families ------------------------------------------------------


@pytest.mark.parametrize("stride", [0, -3])
def test_arithmetic_family_rejects_a_stride_below_one(stride):
    # stride 0 repeats one count forever; a negative stride needs negative member indices
    with pytest.raises(ValueError, match=rf"family 94\+{stride}n \(spacer chain\)"):
        ArithmeticFamily(94, stride, "spacer chain")


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
    cert = theorem1_coverage(200, WITHOUT_94_FAMILY)
    assert not cert.complete
    assert cert.missing == tuple(range(121, 201, 3))


labels = st.text(max_size=8)
explicit_tables = st.dictionaries(st.integers(min_value=0, max_value=700), labels, max_size=12)
families = st.builds(
    ArithmeticFamily,
    st.integers(min_value=0, max_value=300),  # offsets below and above 63
    st.integers(min_value=1, max_value=6),  # few strides, so residues overlap often
    labels,
)
coverage_sources = st.builds(
    CoverageSources,
    inventory=st.lists(st.integers(min_value=3, max_value=200), min_size=1, max_size=6).map(
        lambda sizes: Inventory(tuple(sizes))
    ),
    ring_size=st.integers(min_value=1, max_value=4),
    mirror_doubles=explicit_tables,
    corpus_graphs=explicit_tables,
    extra_rings=explicit_tables,
    families=st.lists(families, max_size=4).map(tuple),
)


@given(coverage_sources, st.integers(min_value=63, max_value=600))
def test_coverage_matches_the_reference_loop(sources, max_check):
    cert = theorem1_coverage(max_check, sources)
    assert (cert.witnesses, cert.missing) == reference_coverage(max_check, sources)
    assert list(cert.witnesses) == sorted(cert.witnesses)  # to_json_dict and the CLI rely on it


@pytest.mark.parametrize("sources", [DEFAULT_COVERAGE, WITHOUT_94_FAMILY], ids=["complete", "gaps"])
@pytest.mark.parametrize("windows", [1, 2])
def test_witness_table_reads_the_same_every_way(sources, windows):
    """Across a rendering window's edge, every read of the view agrees with the reference loop."""
    max_check = 62 + WINDOW * windows + 1
    witnesses, missing = reference_coverage(max_check, sources)
    cert = theorem1_coverage(max_check, sources)
    table = cert.witnesses
    assert cert.missing == missing and len(table) == len(witnesses)
    assert list(table) == list(witnesses) and list(table.values()) == list(witnesses.values())
    assert list(table.items()) == list(witnesses.items())
    assert {v: table[v] for v in witnesses} == witnesses
    assert cert.to_json_dict()["witnesses"] == witnesses
    for v in (*missing[:3], 62, max_check + 1, str(max_check)):
        assert v not in table and table.get(v) is None


@pytest.mark.parametrize(
    "sources, code", [(DEFAULT_COVERAGE, 0), (WITHOUT_94_FAMILY, 1)], ids=["complete", "gaps"]
)
def test_coverage_cli_output_matches_the_reference_loop(capsys, monkeypatch, sources, code):
    monkeypatch.setattr(cli, "theorem1_coverage", lambda m: theorem1_coverage(m, sources))
    witnesses, missing = reference_coverage(400, sources)
    payload = {
        "range": [63, 400],
        "complete": not missing,
        "missing": list(missing),
        "witnesses": {str(v): w for v, w in witnesses.items()},
    }
    assert cli.main(["coverage", "--max", "400", "--json"]) == code
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"  # counts ascending

    lines = ["range: [63, 400]", "missing: " + (", ".join(map(str, missing)) or "none")]
    lines += [f"  {v}: {witnesses[v]}" for v in range(63, 401) if v in witnesses]
    assert cli.main(["coverage", "--max", "400", "--witnesses"]) == code
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


@given(st.data())
def test_coverage_is_monotone_in_its_sources(data):
    """Removing sources can only grow the missing set, never shrink it."""
    doubles = sorted(DEFAULT_COVERAGE.mirror_doubles)
    graphs = sorted(DEFAULT_COVERAGE.corpus_graphs)
    offsets = [f.offset for f in DEFAULT_COVERAGE.families]
    sizes = list(DEFAULT_COVERAGE.inventory.part_sizes)
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
    assert payload["witnesses"][63].startswith("ring of 3 parts")
