import hashlib
import json
import re

import pytest

import beauville.catalog as catalog
import beauville.cli as cli
from beauville.catalog import (
    CatalogDataError,
    CatalogOptions,
    CatalogParseError,
    load_catalog_file,
    parse_catalog,
    parse_matrix_file,
    realize_source,
    run_catalog,
    run_entry,
    shipped_catalog_path,
)
from beauville.cli import main
from beauville.matgrp import GroupSpec, standard_generators
from beauville.permgrp import Permutation, schreier_sims
from beauville.structures import GroupHandle


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
    with pytest.raises(CatalogParseError, match="orders must be at least 2") as err:
        parse_catalog("group X\nsource builtin:SL:3:2\ntriple1 search:1,3,7:1\n")
    assert err.value.line == 3
    # words are parsed with the catalog, not when the recipe runs; the
    # column points into the recipe at the failing position of the word
    for recipe, column, expected in (("words:a(b:ba", 18, "expected ')'"),
                                     ("words:ab:c", 18, "expected 'a', 'b' or '('")):
        with pytest.raises(CatalogParseError, match=re.escape(expected)) as err:
            parse_catalog(f"group X\nsource builtin:SL:3:2\ntriple1 {recipe}\n")
        assert (err.value.line, err.value.column) == (3, column)
    with pytest.raises(CatalogParseError, match="orders must be integers") as err:
        parse_catalog("group X\nsource builtin:SL:3:2\nexpected_types (4,4,x),(3,3,7)\n")
    assert (err.value.line, err.value.column) == (3, 17)


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


def test_words_recipe_needs_two_generators(tmp_path):
    (tmp_path / "one.perm").write_text("perm 5 1\n2 3 4 5 1\n")
    path = tmp_path / "cat.txt"
    path.write_text("""group ONE
source file:one.perm
order 5
triple1 words:ab:b
triple2 words:ba:a
expected_types (5,5,5),(5,5,5)
""")
    entries, base = load_catalog_file(str(path))
    with pytest.raises(CatalogDataError, match=r"ONE \(line 1\): words recipe needs two"):
        run_catalog(entries, CatalogOptions(base_dir=base))


def _matrix_file(gens, p, a):
    """The `mat` generator file of matrices over GF(p^a)."""
    lines = [f"mat {gens[0].d} {p} {a} {len(gens)}"]
    for g in gens:
        for row in g.rows:
            lines.append(" ".join(",".join(str(c) for c in g.ctx._decode(v))
                                  for v in row))
    return "\n".join(lines) + "\n"


def test_matrix_file_ingestion(tmp_path):
    gens = standard_generators(GroupSpec("SL", 2, 4))
    text = _matrix_file(gens, 2, 2)
    mats = parse_matrix_file(text)
    assert mats == list(gens)
    with pytest.raises(ValueError, match="empty matrix file"):
        parse_matrix_file("# no header\n\n")
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


def test_matrix_file_keeps_its_scalars(tmp_path):
    # SL3(4) holds the scalars of order 3, which the projective points of
    # GF(4)^3 would lose: the file must act on the 63 nonzero vectors
    (tmp_path / "sl34.mat").write_text(
        _matrix_file(standard_generators(GroupSpec("SL", 3, 4)), 2, 2))
    G = realize_source("file:sl34.mat", str(tmp_path), declared_order=60480)
    assert G.expected_order == G.bsgs.order() == 60480
    assert G.perm_gens[0].degree == 63


@pytest.mark.parametrize("token", ["1,x", "1,0,1", ""])
def test_bad_matrix_entry_is_a_data_error(tmp_path, token):
    # an entry that is not a number, or has more coefficients than GF(4)
    text = _matrix_file(standard_generators(GroupSpec("SL", 2, 4)), 2, 2)
    lines = text.splitlines()
    lines[1] = " ".join([token or ",", lines[1].split()[1]])
    (tmp_path / "bad.mat").write_text("\n".join(lines) + "\n")
    with pytest.raises(CatalogDataError, match=re.escape("bad.mat")):
        realize_source("file:bad.mat", str(tmp_path), declared_order=60)


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


@pytest.mark.parametrize("n", [5, 8, 9])
def test_builtin_alt_stops_complete_at_its_order(n):
    G = realize_source(f"builtin:Alt:{n}", ".")
    full = schreier_sims(G.perm_gens)
    assert G.bsgs.base == full.base and G.bsgs.order() == full.order() == G.expected_order
    assert [list(t) for t in G.bsgs.transversals] == [list(t) for t in full.transversals]


def test_construction_outside_the_group_fails_cleanly():
    text = """group Sp_4_4
source builtin:Sp:4:4
triple1 construction:sp42
triple2 search:5,5,5:1
expected_types (4,4,17),(5,5,5)
"""
    entry, = parse_catalog(text)
    G = realize_source(entry.source, ".")
    # the same group with two points swapped: a conjugate of Sp(4,4) in the
    # symmetric group, which the injected construction matrices do not lie in
    swap = Permutation.from_cycles(G.perm_gens[0].degree, [(1, 2)])
    H = GroupHandle(G.name, [g.conjugate(swap) for g in G.perm_gens], G.expected_order)
    H.family, H.q, H.action = G.family, G.q, G.action
    report = run_entry(entry, CatalogOptions(), {entry.source: H})
    assert report.status == "TypeMismatch"
    assert "not both in G" in report.detail


def _assert_data_error(tmp_path, capsys, text, *needles):
    """run_entry raises CatalogDataError and the CLI exits 2 with every
    needle in its message, without a traceback.  Sources are read relative
    to tmp_path, where the catalog file is written."""
    entry, = parse_catalog(text)
    with pytest.raises(CatalogDataError, match=re.escape(needles[0])):
        run_entry(entry, CatalogOptions(base_dir=str(tmp_path)), {})
    cat = tmp_path / "cat.txt"
    cat.write_text(text)
    assert main(["catalog", "--file", str(cat)]) == 2
    err = capsys.readouterr().err
    assert all(needle in err for needle in needles)
    assert "Traceback" not in err


def test_construction_recipe_needs_a_matrix_source(tmp_path, capsys):
    text = """group Alt_7
source builtin:Alt:7
triple1 construction:u41
triple2 search:5,5,5:1
expected_types (5,5,5),(5,5,5)
"""
    _assert_data_error(tmp_path, capsys, text, "Alt_7", "construction:u41")


@pytest.mark.parametrize("source,construction,message", [
    ("builtin:Sp:4:4", "u41", "needs a SU_4 source"),
    ("builtin:SL:3:4", "sp42", "needs a Sp_4 source"),
    ("builtin:SL:3:2", "lineardim3", "construction needs q > 3"),
])
def test_construction_recipe_needs_a_matching_source(tmp_path, capsys, source,
                                                     construction, message):
    text = f"""group MISMATCH
source {source}
triple1 construction:{construction}
triple2 search:5,5,5:1
expected_types (5,5,5),(5,5,5)
"""
    _assert_data_error(tmp_path, capsys, text, "MISMATCH (line 1)",
                       f"construction:{construction}", message)


@pytest.mark.parametrize("source,message", [
    ("builtin:SL:3", "expected builtin:SL:<d>:<q>"),
    ("builtin:SL:3:6", "6 is not a prime power"),
    ("builtin:Sp:4:x", "expected builtin:Sp:<d>:<q>"),
    ("builtin:Sz:6", "6 is not a prime power"),
    ("builtin:OmegaMinus:5:2", "need even d >= 4"),
    ("builtin:SL:9:16", "exceeds the cap"),
    ("builtin:PSL:2:4096", "GF(4096) is not supported"),
    ("builtin:SL:2:70001", "GF(70001) is not supported"),
    ("builtin:SU:3:2", "the SU_3(2) generators generate a proper subgroup"),
    ("builtin:PSU:3:2", "the SU_3(2) generators generate a proper subgroup"),
])
def test_malformed_builtin_source_is_a_data_error(tmp_path, capsys, source, message):
    text = f"""group BAD
source {source}
triple1 search:5,5,5:1
triple2 search:5,5,5:2
expected_types (5,5,5),(5,5,5)
"""
    _assert_data_error(tmp_path, capsys, text, "BAD (line 1)", source, message)


@pytest.mark.parametrize("source,content,message", [
    ("file:", None, "expected file:<relative path>"),
    ("file:sub", None, "sub: Is a directory"),
    ("file:latin.perm", "perm 3 1\n# caf\xe9\n2 3 1\n".encode("latin-1"),
     "latin.perm: not UTF-8 text"),
    ("file:noorder.mat", "mat 2 2 1 1\n1 0\n0 1\n".encode(),
     "noorder.mat: matrix sources need an order line"),
], ids=["no-path", "directory", "not-utf8", "mat-without-order"])
def test_unreadable_generator_file_is_a_data_error(tmp_path, capsys, source, content,
                                                   message):
    (tmp_path / "sub").mkdir()
    name = source.split(":")[1]
    if content is not None:
        (tmp_path / name).write_bytes(content)
    text = f"""group BAD
source {source}
triple1 search:5,5,5:1
triple2 search:5,5,5:2
expected_types (5,5,5),(5,5,5)
"""
    _assert_data_error(tmp_path, capsys, text, "BAD (line 1)", message)
    with pytest.raises(CatalogDataError) as err:
        realize_source(source, str(tmp_path))
    assert name == "" or str(err.value).count(name) == 1


@pytest.mark.parametrize("name,content,message", [
    # the bad row is on line 7, after two comments and two blank lines
    ("g.perm", "# generators on 4 points\nperm 4 2\n\n# a 4-cycle\n2 3 4 1\n\n1 1 2 3\n",
     "g.perm: line 7: not a permutation of 1..4"),
    ("m.mat", "# a 2 x 2 matrix over GF(2)\nmat 2 2 1 1\n\n1 0\n# its second row\n0 1 1\n",
     "m.mat: line 6: expected 2 entries"),
    ("h.perm", "\n# no header\n2 3 4 1\n", "h.perm: unknown generator file header '2'"),
    ("h.mat", "\n# header on line 3\nmat 2 2 1\n1 0\n0 1\n",
     "h.mat: line 3: expected header"),
    # a field that is not an integer names its line too
    ("i.perm", "perm 4 1\n# a letter among the images\n2 x 1 4\n",
     "i.perm: line 3: invalid literal for int()"),
    ("j.perm", "# degree is not a number\nperm four 1\n2 3 4 1\n",
     "j.perm: line 2: invalid literal for int()"),
    ("i.mat", "mat 2 2 1 1\n1 0\n\n0 x\n", "i.mat: line 4: invalid literal for int()"),
    ("j.mat", "mat 2 2 1 1\n1 0,1\n0 1\n", "j.mat: line 2: too many coefficients"),
], ids=["perm-row", "mat-row", "perm-header", "mat-header",
        "perm-row-int", "perm-header-int", "mat-entry-int", "mat-entry-coefficients"])
def test_generator_file_errors_name_the_file_line(tmp_path, capsys, name, content, message):
    (tmp_path / name).write_text(content)
    text = f"""group BAD
source file:{name}
order 6
triple1 search:5,5,5:1
triple2 search:5,5,5:2
expected_types (5,5,5),(5,5,5)
"""
    _assert_data_error(tmp_path, capsys, text, "BAD (line 1)", message)


# a small source of each builtin family (mostly the least simple group in it),
# with its formula order; a family added to the table needs a row here
BUILTIN_SOURCES = {
    "Sz": ("8", 29120),
    "OmegaMinus": ("4:2", 60),
    "Alt": ("5", 60),
    "SL": ("2:4", 60),
    "PSL": ("2:5", 60),
    "Sp": ("4:2", 720),
    "PSp": ("4:3", 25920),
    "SU": ("3:3", 6048),
    "PSU": ("3:3", 6048),
}


@pytest.mark.parametrize("fam", sorted(catalog._BUILTINS))
def test_every_builtin_family_realizes_at_its_formula_order(fam):
    fields, order = BUILTIN_SOURCES[fam]
    G = realize_source(f"builtin:{fam}:{fields}", ".")
    assert G.expected_order == G.bsgs.order() == order
    names = catalog._BUILTINS[fam][0]
    usage = ":".join(["builtin", fam] + [f"<{n}>" for n in names])
    with pytest.raises(CatalogDataError, match=re.escape(f"expected {usage}")):
        realize_source(f"builtin:{fam}:{fields}:2", ".")


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["zsigmondy", "--base", "2", "--exp", "11"]) == 0
    assert main(["zsigmondy", "--base", "1", "--exp", "11"]) == 2
    out = tmp_path / "report.json"
    assert main(["catalog", "--only", "SL_3_2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema_version"] == 1
    assert data["entries"][0]["status"] == "Verified"
    capsys.readouterr()
    # input errors exit 2 with an error line, and check nothing first
    for argv, message in ((["covers", "--nmax", "15"], "--nmax must be in 3..14"),
                          (["covers", "--nmax", "2"], "--nmax must be in 3..14"),
                          (["catalog", "--only", "SL_3_2", "--budget", "-5"],
                           "--budget must be at least 1"),
                          (["catalog", "--only", "SL_3_2", "--budget", "0"],
                           "--budget must be at least 1"),
                          (["catalog", "--only", "SL_3_2", "--cap", "0"],
                           "--cap must be at least 1"),
                          (["catalog", "--only", "SL_3_2", "--cap", "-5"],
                           "--cap must be at least 1"),
                          (["catalog", "--only", "NoSuchRow"],
                           "no entry named 'NoSuchRow'")):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"error: {message}" in err and "Traceback" not in err


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
    assert main(["search", "--family", "Sz", "--q", "8", "--type", "5,7,13"]) == 0
    assert "in Sz_8, group order 29120" in capsys.readouterr().out
    assert main(["search", "--family", "OmegaMinus", "--d", "4", "--q", "2",
                 "--type", "5,5,5"]) == 0
    assert "in OmegaMinus_4_2, group order 60" in capsys.readouterr().out
    # realization errors exit 2 with an error line; SU_3(2)'s generators
    # generate a proper subgroup, which the source check refuses
    for argv, message in ((["SL", "--d", "2", "--q", "6"], "6 is not a prime power"),
                          (["SU", "--d", "3", "--q", "2"], "generate a proper subgroup")):
        assert main(["search", "--family"] + argv + ["--type", "5,5,5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err and "Traceback" not in err
    for argv, message in ((["--type", "1,3,7"], "each order at least 2"),
                          (["--type", "5,5"], "each order at least 2"),
                          (["--type", "5,5,5", "--budget", "-5"],
                           "--budget must be at least 1")):
        assert main(["search", "--family", "SL", "--d", "2", "--q", "11"] + argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: " in err and message in err and "Traceback" not in err
    with pytest.raises(SystemExit) as err:
        main(["search", "--family", "SL", "--bogus", "1"])
    assert err.value.code == 2
    capsys.readouterr()


def test_cli_search_does_not_hide_program_faults(monkeypatch):
    # only catalog-data errors are usage errors; anything else propagates
    def fault(source, base_dir):
        raise ValueError("BSGS order 54 != formula/declared 216")

    monkeypatch.setattr(cli, "realize_source", fault)
    with pytest.raises(ValueError, match="BSGS order 54"):
        main(["search", "--family", "SU", "--d", "3", "--q", "3", "--type", "5,5,5"])


# sha256 of the stdout of `beauville covers --nmax 12`
COVERS_REPORT_SHA256 = "81be0c38b49a88324b87ba28407bafb2cb49a65c562ea0daf8b3efe1329a92c8"


def test_cli_covers_report_golden(capsys):
    assert main(["covers", "--nmax", "12"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COVERS_REPORT_SHA256


def test_cli_canonical_report_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["catalog", "--only", "Sp_4_3", "--canonical",
                     "--out", str(out)]) == 0
    assert out1.read_text() == out2.read_text()
    capsys.readouterr()


# sha256 of `beauville catalog --canonical` on the shipped catalog; a change
# made only for speed must leave this report byte-identical
CANONICAL_REPORT_SHA256 = "67ed64f0b7f6c78e5220c1e8dbb11abec88fecee66c48ac0e49c11ab73e766c6"


def test_cli_canonical_report_golden(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["catalog", "--canonical", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CANONICAL_REPORT_SHA256
    capsys.readouterr()
