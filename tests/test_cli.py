import json

import pytest

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


def test_parse_table_of_an_older_format(g2_file, tmp_path, capsys):
    table = tmp_path / "g2.scp"
    assert main(["compile", g2_file, "-o", str(table)]) == 0
    old = tmp_path / "old.scp"
    old.write_text(table.read_text().replace("SCPC2", "SCPC1", 1))
    assert main(["parse", "-g", str(old), "a a a b"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "bad compiled-grammar file: format SCPC1, not SCPC2 (a table saved in an older " \
           "format must be recompiled)" in err


def test_compile_dump_relations(g2_file, capsys):
    assert main(["compile", g2_file, "--dump-relations"]) == 0
    assert "LA(b) = {A1, a}" in capsys.readouterr().out


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
    # every later derivation is of a closed form, which its node takes at
    # once: 4 of them, besides the first analyses of the 6 nodes made at once
    out = capsys.readouterr().out.splitlines()
    assert "packed_derivations=0" in out and "fired_at_once=6" in out
    assert "packed_at_once=10" in out


def test_parse_shows_forms_fired_at_once(tmp_path, capsys):
    path = tmp_path / "unit.g"
    path.write_text("%root S\nS -> A ;\nA -> a ;\n")
    assert main(["parse", "-g", str(path), "a", "--trace", "--stats", "json"]) == 0
    # A's run makes S -> . A . closed and supported on both sides: it fires
    # with no event
    *trace, last = capsys.readouterr().out.splitlines()
    stats = json.loads(last)
    assert stats["events_created"] == stats["events_run"] == stats["fired_at_once"] == 1
    assert trace[trace.index("run e0 A -> . a . @ [0,1]") + 2:] == [
        "fire S -> . A . @ [0,1]", "node 2 S [0,1] derived"]


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


@pytest.mark.parametrize("flags", [["--trace"], ["--forest", "forest.txt"], ["--stats"],
                                   ["--stats", "json"]])
def test_parse_earley_engine_rejects_scp_outputs(g2_file, tmp_path, monkeypatch, capsys, flags):
    # the Earley engine has no trace, forest or counters to print
    monkeypatch.chdir(tmp_path)
    assert main(["parse", "-g", g2_file, "a a a b", "--engine", "earley", *flags]) == 2
    assert capsys.readouterr().err == f"error: {flags[0]} needs --engine scp\n"
    assert not (tmp_path / "forest.txt").exists()


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


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_bench_reps_below_one_is_a_usage_error(capsys, reps):
    assert main(["bench", "--suite", "recursive", "--lengths", "8", "--reps", reps]) == 2
    assert "reps must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["scp", "earley"])
def test_parse_unknown_preterminal(tmp_path, capsys, engine):
    g = tmp_path / "g.g"
    g.write_text("%root S\nS -> a ;")
    assert main(["parse", "-g", str(g), "zz", "--engine", engine]) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["scp", "earley"])
def test_parse_nonterminal_preterminal(tmp_path, capsys, engine):
    g = tmp_path / "g.g"
    g.write_text("%root S\nS -> X ;\nX -> a a ;")
    lat = tmp_path / "in.lat"
    lat.write_text('%points 3\n0 2 "xx" X\n0 1 "x" a\n1 2 "x" a\n')
    assert main(["parse", "-g", str(g), "--lattice", str(lat), "--engine", engine]) == 2
    assert "preterminal 'X' is a nonterminal" in capsys.readouterr().err


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
