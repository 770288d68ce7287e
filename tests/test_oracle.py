import pytest

from scparse import load_grammar, tokenize_plain
from scparse.lattice import InputLattice, LexicalItem
from scparse.forest import EPS
from scparse.oracle import (CaseLimits, derives_exhaustive, earley_count_trees,
                            earley_enumerate, earley_forest, earley_recognize, random_case)


def g(text):
    return load_grammar(text)


def test_recognizes_simple_membership():
    gr = g("%root S\nS -> a S b | a b ;")
    assert earley_recognize(gr, tokenize_plain("a a b b"))
    assert not earley_recognize(gr, tokenize_plain("a a b"))
    assert not earley_recognize(gr, tokenize_plain(""))


def test_epsilon_productions():
    gr = g("%root S\nS -> A a ;\nA -> | a ;")
    assert earley_recognize(gr, tokenize_plain("a"))
    assert earley_recognize(gr, tokenize_plain("a a"))
    assert not earley_recognize(gr, tokenize_plain("a a a"))
    # the first A completes over [0, 0] before the second is predicted there
    gr = g("%root S\nS -> A A x ;\nA -> | B ;\nB -> A ;")
    assert earley_recognize(gr, tokenize_plain("x"))
    assert not earley_recognize(gr, tokenize_plain("x x"))


def test_empty_input():
    assert earley_recognize(g("%root S\nS -> | a ;"), tokenize_plain(""))
    assert not earley_recognize(g("%root S\nS -> a ;"), tokenize_plain(""))


def test_lattice_recognition():
    gr = g("%root S\nS -> a b | c ;")
    lat = InputLattice(3, [LexicalItem("x", "a", 0, 1), LexicalItem("y", "b", 1, 2),
                           LexicalItem("xy", "c", 0, 2)])
    assert earley_recognize(gr, lat)
    assert earley_count_trees(gr, lat).value == 2


def test_nonterminal_preterminal_rejected():
    # X[0,1] b[1,2] would be a leaf X where the grammar derives X from c
    gr = g("%root S\nS -> X b ;\nX -> c ;")
    lat = InputLattice(3, [LexicalItem("x", "X", 0, 1), LexicalItem("y", "b", 1, 2)])
    for entry in (earley_recognize, earley_count_trees, earley_enumerate, earley_forest):
        with pytest.raises(ValueError, match="lexical item 'x': preterminal 'X' is a nonterminal"):
            entry(gr, lat)


def test_unknown_preterminal_ignored():
    gr = g("%root S\nS -> a | b ;")
    lat = InputLattice(2, [LexicalItem("x", "a", 0, 1), LexicalItem("x", "z", 0, 1)])
    assert earley_recognize(gr, lat)
    assert earley_count_trees(gr, lat).value == 1
    assert len(earley_enumerate(gr, lat)) == 1


def test_count_catalan():
    gr = g("%root S\nS -> S S | a ;")
    assert earley_count_trees(gr, tokenize_plain("a a a a")).value == 5


def test_count_infinite():
    gr = g("%root S\nS -> S | a ;")
    assert earley_count_trees(gr, tokenize_plain("a")).kind == "infinite"


def test_count_zero_when_rejected():
    gr = g("%root S\nS -> a ;")
    assert earley_count_trees(gr, tokenize_plain("b b")).value == 0


def test_enumerate_trees_shape():
    gr = g("%root S\nS -> A b ;\nA -> a ;")
    [tree] = earley_enumerate(gr, tokenize_plain("a b"), 10)
    assert tree == ("S", 0, 2, (("A", 0, 1, (("a", 0, 1, ()),)), ("b", 1, 2, ())))


def test_forest_of_an_ambiguous_sentence():
    gr = g("%root S\nS -> S S | a ;")
    sym = {s.name: s.id for s in gr.symbols}
    forest = earley_forest(gr, tokenize_plain("a a a"))
    s, a = sym["S"], sym["a"]
    # the two splits of [0,3], every node under them, and no other node
    assert forest[s, 0, 3] == {(0, ((s, 0, 1), (s, 1, 3))), (0, ((s, 0, 2), (s, 2, 3)))}
    assert forest[s, 0, 2] == {(0, ((s, 0, 1), (s, 1, 2)))}
    assert forest[s, 1, 2] == {(1, ((a, 1, 2),))}
    assert forest[a, 1, 2] == frozenset()
    assert set(forest) == {(s, 0, 3), (s, 0, 2), (s, 1, 3), *((s, i, i + 1) for i in range(3)),
                           *((a, i, i + 1) for i in range(3))}


def test_forest_keys_zero_width_nodes_by_symbol():
    gr = g("%root S\nS -> A a A ;\nA -> | B ;\nB -> ;")
    sym = {s.name: s.id for s in gr.symbols}
    S, A, B, a = sym["S"], sym["A"], sym["B"], sym["a"]
    forest = earley_forest(gr, tokenize_plain("a"))
    # both empty A's are one node, whatever their position
    assert forest[S, 0, 1] == {(0, ((A, EPS), (a, 0, 1), (A, EPS)))}
    assert forest[A, EPS] == {(1, ()), (2, ((B, EPS),))}
    assert forest[B, EPS] == {(3, ())}
    assert set(forest) == {(S, 0, 1), (a, 0, 1), (A, EPS), (B, EPS)}
    # an empty input: the nullable root's zero-width node
    empty = g("%root S\nS -> | a ;")
    assert set(earley_forest(empty, tokenize_plain(""))) == {(empty.symbol("S").id, EPS)}
    assert earley_forest(gr, tokenize_plain("a a")) == {}


def test_agrees_with_exhaustive_search():
    gr = g("%root S\nS -> a S b | a b | ;")
    for tokens in ([], ["a", "b"], ["a", "a", "b", "b"], ["a", "b", "b"], ["b"]):
        lat = tokenize_plain(" ".join(tokens))
        assert earley_recognize(gr, lat) == derives_exhaustive(gr, tokens)


def test_recognition_agrees_with_the_tree_count():
    # seeds beyond the acceptance gate's random_case(0..499), and longer inputs
    cases = [(seed, None) for seed in range(500, 1500)]
    cases += [(seed, CaseLimits(max_input=24)) for seed in range(140)]
    wrong = []
    for seed, limits in cases:
        gr, lat = random_case(seed, limits)
        if earley_recognize(gr, lat) != (earley_count_trees(gr, lat, cap=10000).value != 0):
            wrong.append((seed, limits))
    assert not wrong


def test_random_cases_are_reproducible():
    g1, lat1 = random_case(42)
    g2, lat2 = random_case(42)
    assert [str(p) for p in g1.productions] == [str(p) for p in g2.productions]
    assert [(i.fbp, i.lbp, i.preterminal) for i in lat1.items] == \
           [(i.fbp, i.lbp, i.preterminal) for i in lat2.items]


def test_random_cases_within_limits():
    limits = CaseLimits()
    for seed in range(50):
        gr, lat = random_case(seed, limits)
        assert len(gr.nonterminals) <= limits.max_nonterminals
        assert len(gr.productions) <= limits.max_productions
        assert lat.n <= limits.max_input + 1
        for point in range(lat.points):
            assert len(lat.items_from(point)) <= limits.max_fanout + 1


def test_random_cases_mix_verdicts():
    grammatical = non = 0
    for seed in range(200):
        gr, lat = random_case(seed)
        if earley_recognize(gr, lat):
            grammatical += 1
        else:
            non += 1
    assert grammatical >= 20  # >= 10% each way
    assert non >= 20
