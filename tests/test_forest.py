import pytest

from scparse import compile_grammar, load_grammar, tokenize_plain
from scparse.bench import suite_grammar, suite_input
from scparse.engine import init_session
from scparse.forest import (TreeCount, build_forest, count_trees, dump_forest,
                            enumerate_trees, reachable_nodes, render_tree,
                            useless_count)


def forest_for(grammar_text, text):
    cg = compile_grammar(load_grammar(grammar_text))
    chart = init_session(cg, tokenize_plain(text))
    chart.parse_cycle()
    return build_forest(chart)


CATALAN = "%root S\nS -> S S | a ;"


def test_tree_count_classification():
    assert TreeCount.of(3, 10).kind == "finite"
    assert TreeCount.of(3, 10).value == 3
    assert TreeCount.of(11, 10) == TreeCount("capped", 10)


def test_count_catalan():
    assert count_trees(forest_for(CATALAN, "a a a a")).value == 5
    assert count_trees(forest_for(CATALAN, "a a a a a")).value == 14


def test_count_rejected_input_is_zero():
    f = forest_for("%root S\nS -> a b ;", "a a")
    assert count_trees(f).value == 0
    assert enumerate_trees(f, 10) == []


def test_count_infinite_on_cyclic_grammar():
    f = forest_for("%root S\nS -> S | a ;", "a")
    assert count_trees(f).kind == "infinite"


def test_count_infinite_via_nullable_cycle():
    # S => S S with nullable S gives unboundedly many derivations
    f = forest_for("%root S\nS -> S S | a | ;", "a")
    assert count_trees(f).kind == "infinite"


def test_count_caps():
    f = forest_for(CATALAN, " ".join(["a"] * 10))  # C9 = 4862
    assert count_trees(f, cap=100).kind == "capped"
    assert count_trees(f, cap=5000).value == 4862


def test_count_matches_enumeration_when_acyclic():
    f = forest_for(CATALAN, "a a a a")
    assert count_trees(f).value == len(enumerate_trees(f, 10 ** 6))


def test_enumerate_respects_limit():
    f = forest_for(CATALAN, "a a a a")
    assert len(enumerate_trees(f, 2)) == 2


def test_enumerate_cyclic_terminates():
    f = forest_for("%root S\nS -> S | a ;", "a")
    trees = enumerate_trees(f, 50)
    # only the derivations that never revisit a (symbol, span) on a path
    assert render_tree(trees[0]) == "S(a)"


def test_render_tree_shape():
    f = forest_for("%root S\nS -> A b ;\nA -> a ;", "a b")
    [tree] = enumerate_trees(f, 5)
    assert render_tree(tree) == "S(A(a),b)"


def test_reachable_and_useless():
    f = forest_for("%root S\nS -> A1 b | A2 c ;\nA1 -> a | a A1 ;\nA2 -> a | a A2 ;",
                   "a a a b")
    assert useless_count(f) == 0
    reach = reachable_nodes(f)
    assert len(reach) == len(f.store)


def test_dump_forest_lists_nodes_and_roots():
    f = forest_for("%root S\nS -> a ;", "a")
    dump = dump_forest(f)
    assert "S [0,1]" in dump
    assert "roots" in dump


def test_epsilon_children_render_as_leaves():
    f = forest_for("%root S\nS -> a B ;\nB -> ;", "a")
    [tree] = enumerate_trees(f, 5)
    assert render_tree(tree) == "S(a,B)"



def suite_rendering(suite, words):
    """The one tree of a `recursive` or `local` suite input, rendered."""
    if suite == "recursive":  # a ... a b
        return "S(" + "A1(a," * (len(words) - 2) + "A1(a" + ")" * (len(words) - 1) + ",b)"
    pairs = [f"P(P{a[1:]}({a},{b}))" for a, b in zip(words[::2], words[1::2])]
    return "".join(f"S({p}," for p in pairs[:-1]) + f"S({pairs[-1]})" + ")" * (len(pairs) - 1)


@pytest.mark.parametrize("suite", ["recursive", "local"])
@pytest.mark.parametrize("w", [8, 1024])
def test_trees_deeper_than_the_recursion_limit_enumerate_and_render(suite, w):
    # at W=1024 the one tree nests 1023 (recursive) or 512 (local) deep
    words = suite_input(suite, w)
    chart = init_session(compile_grammar(suite_grammar(suite)), tokenize_plain(words))
    trees = enumerate_trees(build_forest(chart.parse_cycle()), 10)
    assert [render_tree(t) for t in trees] == [suite_rendering(suite, words.split())]
