import json

import pytest

from beauville.catalog import (
    CatalogDataError,
    CatalogOptions,
    CatalogParseError,
    load_catalog_file,
    parse_catalog,
    parse_matrix_file,
    run_catalog,
    run_entry,
    shipped_catalog_path,
)
from beauville.cli import main
from beauville.matgrp import GroupSpec, standard_generators


def test_parse_catalog_round_trip():
    entries, _ = load_catalog_file(shipped_catalog_path())
    names = [e.name for e in entries]
    assert "SL_3_2" in names and "M11" in names and "SL_4_16" in names
    assert len(names) == len(set(names))
    by_name = {e.name: e for e in entries}
    assert by_name["SL_3_2"].expected_types == ((4, 4, 4), (3, 3, 7))
    assert by_name["SL_4_16"].infeasible
    assert by_name["M11"].triple1.kind == "words"
    assert by_name["M11"].order == 7920


def test_parse_errors_name_line_and_column():
    with pytest.raises(CatalogParseError) as err:
        parse_catalog("group X\nsource builtin:SL:3:2\ntriple1 bogus:1\n")
    assert err.value.line == 3
    with pytest.raises(CatalogParseError) as err:
        parse_catalog("source builtin:SL:3:2\n")
    assert err.value.line == 1
    with pytest.raises(CatalogParseError) as err:
        parse_catalog("group X\nwhatever 3\n")
    assert err.value.line == 2
    with pytest.raises(CatalogParseError):
        parse_catalog("group X\nsource builtin:SL:3:2\n")  # missing recipes


def test_missing_file_is_skipped(tmp_path):
    text = """group GHOST
source file:missing.perm
order 10
triple1 words:ab:b
triple2 words:ba:a
expected_types (2,2,2),(3,3,3)
"""
    path = tmp_path / "cat.txt"
    path.write_text(text)
    entries, base = load_catalog_file(str(path))
    report = run_catalog(entries, CatalogOptions(base_dir=base))
    assert report.entries[0].status == "Skipped"
    assert "not present" in report.entries[0].detail


def test_malformed_file_is_a_data_error(tmp_path):
    (tmp_path / "bad.perm").write_text("perm 3 1\n1 1 2\n")
    path = tmp_path / "cat.txt"
    path.write_text("""group BAD
source file:bad.perm
order 6
triple1 words:ab:b
triple2 words:ba:a
expected_types (2,2,2),(3,3,3)
""")
    entries, base = load_catalog_file(str(path))
    with pytest.raises(CatalogDataError):
        run_catalog(entries, CatalogOptions(base_dir=base))


def test_matrix_file_ingestion(tmp_path):
    gens = standard_generators(GroupSpec("SL", 2, 4))
    d = 2
    lines = [f"mat {d} 2 2 {len(gens)}"]
    for g in gens:
        for row in g.rows:
            lines.append(" ".join(",".join(str(c) for c in g.ctx._decode(v))
                                  for v in row))
    text = "\n".join(lines) + "\n"
    mats = parse_matrix_file(text)
    assert mats == list(gens)
    # run an entry over the ingested file: SL2(4) = Alt(5) has no Beauville
    # structure, but a (5,5,5) triple is findable
    (tmp_path / "sl24.mat").write_text(text)
    cat = tmp_path / "cat.txt"
    cat.write_text("""group SL24
source file:sl24.mat
order 60
triple1 search:5,5,5:3
triple2 search:5,5,5:4
expected_types (5,5,5),(5,5,5)
""")
    entries, base = load_catalog_file(str(cat))
    report = run_catalog(entries, CatalogOptions(base_dir=base))
    assert report.entries[0].status == "Violation"


def test_report_determinism_same_seed():
    entries, base = load_catalog_file(shipped_catalog_path())
    opts1 = CatalogOptions(master_seed=5, only="SL_3_2", base_dir=base)
    opts2 = CatalogOptions(master_seed=5, only="SL_3_2", base_dir=base)
    r1 = run_catalog(entries, opts1)
    r2 = run_catalog(entries, opts2)
    assert r1.canonical_json() == r2.canonical_json()
    # re-check from scratch under an independent master seed: the verified
    # row reproduces the same types and certificate kind
    r3 = run_catalog(entries, CatalogOptions(master_seed=6, only="SL_3_2",
                                             base_dir=base))
    assert r3.entries[0].status == "Verified"
    assert r3.entries[0].types == r1.entries[0].types
    assert r3.entries[0].certificate == r1.entries[0].certificate


def test_construction_recipe_on_matrix_source():
    entry, = parse_catalog("""group Sp_4_4
source builtin:Sp:4:4
triple1 construction:sp42
triple2 search:5,5,5:1
expected_types (4,4,17),(5,5,5)
""")
    report = run_entry(entry, CatalogOptions(), {})
    # the construction's product has order q^2 + 1 = 17, and the order
    # products 4*4*17 and 5*5*5 are coprime
    assert report.status == "Verified"
    assert report.types == ((4, 4, 17), (5, 5, 5))
    assert report.certificate == "CoprimeOrders"


def test_construction_recipe_needs_a_matrix_source(tmp_path, capsys):
    text = """group Alt_7
source builtin:Alt:7
triple1 construction:u41
triple2 search:5,5,5:1
expected_types (5,5,5),(5,5,5)
"""
    entry, = parse_catalog(text)
    with pytest.raises(CatalogDataError, match="Alt_7"):
        run_entry(entry, CatalogOptions(), {})
    cat = tmp_path / "cat.txt"
    cat.write_text(text)
    assert main(["catalog", "--file", str(cat)]) == 2
    err = capsys.readouterr().err
    assert "Alt_7" in err and "construction:u41" in err
    assert "Traceback" not in err


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["zsigmondy", "--base", "2", "--exp", "11"]) == 0
    assert main(["zsigmondy", "--base", "1", "--exp", "11"]) == 2
    out = tmp_path / "report.json"
    assert main(["catalog", "--only", "SL_3_2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema_version"] == 1
    assert data["entries"][0]["status"] == "Verified"
    capsys.readouterr()


def test_cli_strict_fails_on_skipped(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    cat.write_text("group GHOST\ninfeasible not today\n")
    assert main(["catalog", "--file", str(cat)]) == 0
    assert main(["catalog", "--file", str(cat), "--strict"]) == 1
    assert main(["catalog", "--file", str(tmp_path / "nope.txt")]) == 2
    capsys.readouterr()


def test_cli_search_and_unknown_flag(capsys):
    assert main(["search", "--family", "SL", "--d", "2", "--q", "11",
                 "--type", "5,5,11", "--seed", "1"]) == 0
    with pytest.raises(SystemExit) as err:
        main(["search", "--family", "SL", "--bogus", "1"])
    assert err.value.code == 2
    capsys.readouterr()


def test_cli_canonical_report_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["catalog", "--only", "Sp_4_3", "--canonical",
                     "--out", str(out)]) == 0
    assert out1.read_text() == out2.read_text()
    capsys.readouterr()
