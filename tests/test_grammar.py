import pytest

from scparse.grammar import Grammar, GrammarError, NONTERMINAL, Production, Symbol, TERMINAL, load_grammar


def test_load_basic(g2):
    assert [s.name for s in g2.symbols] == ["S", "A1", "b", "A2", "c", "a"]
    assert g2.symbol("S").kind == NONTERMINAL
    assert g2.symbol("a").kind == TERMINAL
    assert [r.name for r in g2.roots] == ["S"]
    assert len(g2.productions) == 6


def test_symbol_ids_follow_first_appearance(g2):
    # ids are dense and ordered by first textual appearance
    assert [s.id for s in g2.symbols] == list(range(6))
    assert g2.symbol("S").id == 0
    assert g2.symbol("a").id == 5


def test_alternatives_and_epsilon():
    g = load_grammar("""
        %root S
        S -> a S | ;   # right recursion, epsilon stop
    """)
    prods = [tuple(s.name for s in p.rhs) for p in g.productions]
    assert prods == [("a", "S"), ()]


def test_explicit_terminal_declaration():
    g = load_grammar("""
        %root S
        %terminal x y
        S -> x | y ;
    """)
    assert g.symbol("x").kind == TERMINAL
    assert g.symbol("y").kind == TERMINAL


@pytest.mark.parametrize("text,line,directive", [
    ("%root S\n%terminals a b\nS -> a ;", 2, "%terminals"),  # once declared a terminal 's'
    ("%roots S\nS -> a ;", 1, "%roots"),                      # once failed on a root 's'
    ("%rootS\nS -> a ;", 1, "%rootS"),                        # once read as '%root S'
], ids=["terminals", "roots", "rootS"])
def test_directive_names_match_exactly(text, line, directive):
    with pytest.raises(GrammarError, match=f"line {line}: unknown directive '{directive}'"):
        load_grammar(text)


def test_directive_without_symbols_rejected():
    with pytest.raises(GrammarError, match="line 1: %terminal requires at least one symbol"):
        load_grammar("%terminal\n%root S\nS -> a ;")


def test_comments_and_blank_lines():
    g = load_grammar("# header comment\n\n%root S\nS -> a ; # trailing\n")
    assert len(g.productions) == 1


def test_missing_root_rejected():
    with pytest.raises(GrammarError):
        load_grammar("S -> a ;")


def test_root_without_productions_rejected():
    with pytest.raises(GrammarError, match="undeclared"):
        load_grammar("%root T\nS -> a ;")


def test_terminal_root_rejected():
    with pytest.raises(GrammarError, match="undeclared symbol: root 'a' has no productions"):
        load_grammar("%root a\nS -> a ;")


def test_terminal_as_lhs_rejected():
    with pytest.raises(GrammarError):
        load_grammar("%root S\n%terminal a\nS -> a ;\na -> S ;")


def test_nonterminal_without_production_rejected():
    s = Symbol(0, "S", NONTERMINAL)
    x = Symbol(1, "X", NONTERMINAL)
    with pytest.raises(GrammarError):
        Grammar([s, x], [Production(0, s, (x,))], [s])


def test_unreachable_nonterminal_warns():
    g = load_grammar("""
        %root S
        S -> a ;
        X -> a ;
    """)
    assert any("X" in w for w in g.warnings)


def test_productions_for(g2):
    a1 = g2.symbol("A1")
    assert len(g2.productions_for(a1)) == 2


def test_duplicate_symbol_names_rejected():
    s = Symbol(0, "S", NONTERMINAL)
    s2 = Symbol(1, "S", NONTERMINAL)
    with pytest.raises(GrammarError):
        Grammar([s, s2], [Production(0, s, ()), Production(1, s2, ())], [s])
