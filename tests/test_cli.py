import json

import pytest

from helpers import table_with_entry
from scparse import compile_grammar, load_grammar
from scparse.cli import main

G2 = """
%root S
S -> A1 b | A2 c ;
A1 -> a | a A1 ;
A2 -> a | a A2 ;
"""


@pytest.fixture
def g2_file(tmp_path):
    path = tmp_path / "g2.g"
    path.write_text(G2)
    return str(path)


def test_parse_grammatical(g2_file, capsys):
    assert main(["parse", "-g", g2_file, "a a a b", "--count-trees"]) == 0
    assert capsys.readouterr().out.strip() == "trees: 1"


def test_parse_non_grammatical(g2_file):
    assert main(["parse", "-g", g2_file, "a a b b"]) == 1


def test_parse_missing_grammar(tmp_path, capsys):
    assert main(["parse", "-g", str(tmp_path / "nope.g"), "a"]) == 2
    assert "error" in capsys.readouterr().err


def test_parse_invalid_grammar(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("S -> a ;")  # no %root
    assert main(["compile", str(bad)]) == 2


def test_compile_round_trip(g2_file, tmp_path, capsys):
    out = tmp_path / "g2.scp"
    assert main(["compile", g2_file, "-o", str(out)]) == 0
    first = out.read_text()
    assert main(["compile", g2_file, "-o", str(out)]) == 0
    assert out.read_text() == first  # deterministic
    # parse can consume the compiled table directly
    assert main(["parse", "-g", str(out), "a a a b"]) == 0


def test_parse_malformed_compiled_table(g2_file, tmp_path, capsys):
    good = tmp_path / "g2.scp"
    assert main(["compile", g2_file, "-o", str(good)]) == 0
    bad = tmp_path / "bad.scp"
    bad.write_text(good.read_text().replace("productions 6", "productions x"))
    assert main(["parse", "-g", str(bad), "a b"]) == 2
    assert "error: line 10: bad compiled-grammar file: 'x' is not a number" \
        in capsys.readouterr().err


def test_compile_dump_relations(g2_file, capsys):
    assert main(["compile", g2_file, "--dump-relations"]) == 0
    assert "LA(b) = {A1, a}" in capsys.readouterr().out


def test_parse_table_with_useless_coverage_entry(tmp_path, capsys):
    g = load_grammar("%root S\nS -> a ;\nV -> d ;\n")
    table = tmp_path / "table.scp"
    table.write_text(table_with_entry(compile_grammar(g), f"{g.symbol('d').id} 1 0 CC"))
    assert main(["parse", "-g", str(table), "a"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "belongs to useless production V -> d" in err


def test_parse_stats_json(g2_file, capsys):
    assert main(["parse", "-g", g2_file, "a a a b", "--stats", "json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["events_created"] >= 13  # 13 initial, plus fusion products
    assert stats["nodes"] == 8
    assert stats["packed_derivations"] == 0


def test_parse_stats_show_packed_derivations(tmp_path, capsys):
    path = tmp_path / "catalan.g"
    path.write_text("%root S\nS -> S S | a ;\n")
    assert main(["parse", "-g", str(path), "a a a a", "--stats"]) == 0
    assert "packed_derivations=4" in capsys.readouterr().out.splitlines()


def test_parse_trace(g2_file, capsys):
    assert main(["parse", "-g", g2_file, "a b", "--trace"]) == 0
    assert "create" in capsys.readouterr().out


def test_parse_lattice_file(g2_file, tmp_path):
    lat = tmp_path / "in.lat"
    lat.write_text('%points 3\n0 1 "a" a\n1 2 "b" b\n')
    assert main(["parse", "-g", g2_file, "--lattice", str(lat)]) == 0


def test_parse_lexicon(g2_file, tmp_path):
    lex = tmp_path / "lex.txt"
    lex.write_text("foo a\nbar b\n")
    assert main(["parse", "-g", g2_file, "foo bar", "--lexicon", str(lex)]) == 0


def test_parse_earley_engine(g2_file):
    assert main(["parse", "-g", g2_file, "a a a b", "--engine", "earley"]) == 0
    assert main(["parse", "-g", g2_file, "a a b b", "--engine", "earley"]) == 1


def test_parse_forest_dump(g2_file, tmp_path):
    out = tmp_path / "forest.txt"
    assert main(["parse", "-g", g2_file, "a b", "--forest", str(out)]) == 0
    assert "S [0,2]" in out.read_text()


def test_parse_without_input(g2_file, capsys):
    assert main(["parse", "-g", g2_file]) == 2


def test_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--suite", "recursive", "--lengths", "8,16,32",
                 "--csv", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "suite,W,events_created,events_deleted,events_run,fusions,nodes,links,T"
    assert len(lines) == 4
    assert "PCC" in capsys.readouterr().out


def test_bench_bad_lengths(capsys):
    assert main(["bench", "--suite", "recursive", "--lengths", "x"]) == 2


@pytest.mark.parametrize("engine", ["scp", "earley"])
def test_parse_unknown_preterminal(tmp_path, capsys, engine):
    g = tmp_path / "g.g"
    g.write_text("%root S\nS -> a ;")
    assert main(["parse", "-g", str(g), "zz", "--engine", engine]) == 2
    assert "error: " in capsys.readouterr().err


def test_bench_constant_events_per_word(capsys):
    # one length makes every series constant: E/W cannot be fitted
    assert main(["bench", "--suite", "local", "--lengths", "8"]) == 0
    assert "E / W   = degenerate fit" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["compile", "{g}", "-o", "{missing}/g.scp"],
    ["parse", "-g", "{g}", "a b", "--forest", "{missing}/forest.txt"],
    ["bench", "--suite", "local", "--lengths", "8,16", "--csv", "{missing}/bench.csv"],
], ids=["compile-output", "parse-forest", "bench-csv"])
def test_unwritable_output_is_a_usage_error(g2_file, tmp_path, capsys, argv):
    missing = tmp_path / "no-such-dir"
    assert main([a.format(g=g2_file, missing=missing) for a in argv]) == 2
    assert f"error: cannot write {missing}" in capsys.readouterr().err
    assert not missing.exists()


def test_grammar_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    g = tmp_path / "latin1.g"
    g.write_bytes("%root S\nS -> caf\xe9 ;".encode("latin-1"))
    assert main(["compile", str(g)]) == 2
    assert f"error: cannot read {g}: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["scp", "earley"])
def test_count_past_the_cap_prints_the_cap(tmp_path, capsys, engine):
    g = tmp_path / "catalan.g"
    g.write_text("%root S\nS -> S S | a ;")
    # Catalan(11) = 58,786 trees, past the default cap of 10,000
    assert main(["parse", "-g", str(g), " ".join(["a"] * 12), "--count-trees",
                 "--engine", engine]) == 0
    assert capsys.readouterr().out.strip() == "trees: >10000"
