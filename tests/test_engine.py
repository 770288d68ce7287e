import pytest

from scparse import Grammar, Production, compile_grammar, load_grammar, tokenize_plain
from scparse import engine, relations
from scparse.engine import (DELETE, LEFT, RIGHT, RUN, EngineError, Event,
                            init_session, parse)
from scparse.forest import (FINITE, INFINITE, build_forest, count_trees, enumerate_trees,
                            render_tree)
from scparse.lattice import InputLattice, LexicalItem
from scparse.oracle import CaseLimits, earley_count_trees, random_case
from scparse.relations import CompiledGrammar


def run(grammar_text, text, **kwargs):
    cg = compile_grammar(load_grammar(grammar_text))
    chart = init_session(cg, tokenize_plain(text), **kwargs)
    chart.parse_cycle()
    return chart


def node_names(chart):
    g = chart.compiled.grammar
    return sorted((g.symbols[n.symbol].name, n.fbp, n.lbp) for n in chart.node_list)


# -- the flagship right/left recursion example ---------------------------------

def test_thirteen_initial_events(g2_compiled):
    chart = init_session(g2_compiled, tokenize_plain("a a a b"))
    assert chart.stats["events_created"] == 13


def test_flagship_unique_parse(g2_compiled):
    chart = init_session(g2_compiled, tokenize_plain("a a a b"))
    chart.parse_cycle()
    assert chart.accept()
    trees = enumerate_trees(build_forest(chart), 10)
    assert [render_tree(t) for t in trees] == ["S(A1(a,A1(a,A1(a))),b)"]


def test_flagship_dead_branch_fully_pruned(g2_compiled):
    chart = init_session(g2_compiled, tokenize_plain("a a a b"))
    chart.parse_cycle()
    a2 = g2_compiled.grammar.symbol("A2")
    assert not any(n.symbol == a2.id for n in chart.node_list)
    assert not any(e.production.lhs is a2 for e in chart.surviving_events())


def test_flagship_rejects_wrong_tail(g2_compiled):
    chart = init_session(g2_compiled, tokenize_plain("a a b b"))
    chart.parse_cycle()
    assert not chart.accept()


def test_other_branch_wins(g2_compiled):
    chart = init_session(g2_compiled, tokenize_plain("a a c"))
    chart.parse_cycle()
    trees = enumerate_trees(build_forest(chart), 10)
    assert [render_tree(t) for t in trees] == ["S(A2(a,A2(a)),c)"]


# -- batch initialization ----------------------------------------------------------

INIT_PHASES = {"node": 0, "create": 1, "pack": 1, "support": 2, "link": 2, "status": 3}


def status_ids(chart):
    return sorted(line.split()[1] for line in chart.trace_lines if line.startswith("status"))


def test_init_sets_each_status_once(g2_compiled):
    chart = init_session(g2_compiled, tokenize_plain("a a a b"), trace=True)
    assert status_ids(chart) == sorted(f"e{i}" for i in range(13))
    phases = [INIT_PHASES[line.split()[0]] for line in chart.trace_lines]
    assert phases == sorted(phases)
    for seed in range(100):
        grammar, lattice = random_case(seed)
        chart = init_session(compile_grammar(grammar), lattice, trace=True)
        assert status_ids(chart) == sorted(f"e{eid}" for eid in chart.events)


def test_debug_init_checks_invariants_before_the_cycle(monkeypatch, g2_compiled):
    seen = []
    check = engine.Chart.check_invariants

    def spy(chart):
        seen.append((chart.stillborn, dict(chart.stats)))
        check(chart)

    monkeypatch.setattr(engine.Chart, "check_invariants", spy)
    init_session(g2_compiled, tokenize_plain("a a a b"))
    assert not seen
    init_session(g2_compiled, tokenize_plain("a a a b"), debug=True)
    [(stillborn, stats)] = seen
    assert stillborn is None and stats["events_created"] == 13
    assert stats["events_run"] == stats["events_deleted"] == stats["fusions"] == 0


def test_form_packed_in_init_before_its_partner_is_built():
    # S -> . M N . C @ [0,1] takes its second derivation (empty M, then N)
    # in init before its fusion partner S -> M N . C . @ [1,2] is built; init
    # merges nothing, and the fusion in the cycle merges both derivations
    cg = compile_grammar(load_grammar(
        "%root S\nS -> M N C ;\nM -> m | ;\nN -> n | ;\nC -> c ;\n%terminal m n c"))
    lat = InputLattice(3, [LexicalItem("x", "M", 0, 1), LexicalItem("x", "N", 0, 1),
                           LexicalItem("y", "C", 1, 2)])
    chart = init_session(cg, lat, trace=True, debug=True)
    [pack] = [i for i, line in enumerate(chart.trace_lines) if line.startswith("pack")]
    assert chart.trace_lines[pack].endswith("S -> . M N . C @ [0,1]")
    [partner] = [i for i, line in enumerate(chart.trace_lines)
                 if line.startswith("create") and line.endswith("S -> M N . C . @ [1,2]")]
    assert pack < partner
    chart.parse_cycle()
    mine = count_trees(build_forest(chart))
    theirs = earley_count_trees(cg.grammar, lat)
    assert (mine.kind, mine.value) == (theirs.kind, theirs.value) == ("finite", 2)


# -- node packing ---------------------------------------------------------------

def test_local_ambiguity_packs_one_node():
    chart = run("""
        %root S
        S -> A | B ;
        A -> x ;
        B -> x ;
    """, "x")
    # A[0,1] and B[0,1] are separate nodes; S[0,1] is one packed node
    names = node_names(chart)
    assert names.count(("S", 0, 1)) == 1
    s = chart.compiled.grammar.symbol("S")
    [s_node] = [n for n in chart.node_list if n.symbol == s.id]
    assert len(s_node.analyses) == 2
    assert chart.stats["packed"] >= 1


# -- event packing: one event per form, holding every child tuple ---------------

CATALAN = "%root S\nS -> S S | a ;"


def catalan_counts(text, **kwargs):
    chart = run(CATALAN, text, **kwargs)
    return (chart, count_trees(build_forest(chart)),
            earley_count_trees(chart.compiled.grammar, tokenize_plain(text)))


def test_derivation_after_its_form_fired_lands_in_the_node():
    # S -> . S S . @ [0,3] fires with S[0,2] S[2,3]; S[0,1] S[1,3] arrives
    # later, and its form's node takes the analysis at once
    chart, mine, theirs = catalan_counts("a a a a", trace=True)
    form = "S -> . S S . @ [0,3]"
    [run_line] = [line for line in chart.trace_lines if line.startswith("run") and form in line]
    eid = run_line.split()[1]
    pack_line = f"pack {eid} {form}"
    assert chart.trace_lines.index(pack_line) > chart.trace_lines.index(run_line)
    assert chart.trace_lines[chart.trace_lines.index(pack_line) + 1] == "pack S [0,3] analysis 0"
    s03 = chart.nodes[(chart.compiled.grammar.symbol("S").id, 0, 3)]
    assert len(s03.analyses) == 2
    assert (mine.kind, mine.value) == (theirs.kind, theirs.value) == ("finite", 5)


@pytest.mark.parametrize("seed,limits", [(120, CaseLimits(max_input=24)), (2314, None)],
                         ids=["long-120", "2314"])
def test_late_derivation_meets_partners_fused_before_it(monkeypatch, seed, limits):
    # a live event's late derivation is merged with every partner facing
    # it, also one whose pair with the event was fused before it arrived:
    # merging it only through the pairs still on the fusion agenda loses
    # trees here (long 120: 29 instead of 37)
    fused_before = []
    pack = engine.Chart._pack

    def spy(chart, ev, children):
        if ev.alive and not ev.holds(children):
            for side in (LEFT, RIGHT):
                if ev.need[side] is not None:
                    for p in chart._partners(ev.production, ev.dot, ev.cad[side], side):
                        pair = (p.id, ev.id) if side == LEFT else (ev.id, p.id)
                        if pair not in chart.fusion_agenda:
                            fused_before.append(pair)
        pack(chart, ev, children)

    monkeypatch.setattr(engine.Chart, "_pack", spy)
    grammar, lattice = random_case(seed, limits)
    mine = count_trees(build_forest(parse(compile_grammar(grammar), lattice)), cap=10000)
    theirs = earley_count_trees(grammar, lattice, cap=10000)
    assert fused_before
    assert (mine.kind, mine.value) == (theirs.kind, theirs.value)


def test_ambiguous_input_builds_fewer_events_than_analyses():
    chart, mine, theirs = catalan_counts(" ".join(["a"] * 10))
    analyses = sum(len(n.analyses) for n in chart.node_list)
    assert chart.stats["events_created"] < analyses
    assert chart.stats["packed_derivations"] > 0
    assert (mine.kind, mine.value) == (theirs.kind, theirs.value) == ("finite", 4862)


# -- epsilon handling -------------------------------------------------------------

def test_trailing_nullable():
    chart = run("%root S\nS -> a B ;\nB -> b | ;", "a")
    assert chart.accept()
    trees = enumerate_trees(build_forest(chart), 5)
    assert [render_tree(t) for t in trees] == ["S(a,B)"]


def test_interior_nullable():
    g = "%root S\n%terminal a b c d\nS -> a B c ;\nB -> b | d | ;"
    assert run(g, "a c").accept()
    assert run(g, "a b c").accept()
    assert run(g, "a d c").accept()
    assert not run(g, "a b").accept()
    assert not run(g, "a b d c").accept()


CHAINED_NULLABLES = """
    %root S
    S -> a A B C b ;
    A -> ;
    B -> A A ;
    C -> x | ;
"""


def test_chained_nullables():
    chart = run(CHAINED_NULLABLES, "a b")
    assert chart.accept()
    assert count_trees(build_forest(chart)).value == 1


def test_empty_input_nullable_root():
    chart = run("%root S\nS -> a | ;", "")
    assert chart.accept()
    assert count_trees(build_forest(chart)).value == 1


def test_empty_input_non_nullable_root():
    chart = run("%root S\nS -> a ;", "")
    assert not chart.accept()


def test_nullable_constituent_in_lattice():
    # both spellings of the first span exist, only one supports a parse,
    # and the nullable B must be realized empty between them
    g = load_grammar("%root S\n%terminal a b c d\nS -> a B c ;\nB -> b | d | ;")
    cg = compile_grammar(g)
    lat = InputLattice(3, [LexicalItem("a", "a", 0, 1), LexicalItem("d", "d", 0, 1),
                           LexicalItem("b", "b", 1, 2), LexicalItem("c", "c", 1, 2)])
    chart = init_session(cg, lat)
    chart.parse_cycle()
    trees = enumerate_trees(build_forest(chart), 5)
    assert [render_tree(t) for t in trees] == ["S(a,B,c)"]


# -- status machine basics ---------------------------------------------------------

def test_closed_closed_without_evidence_deletes(g2_compiled):
    chart = init_session(g2_compiled, tokenize_plain("a"))
    # A1 -> .a. at [0,1]: left boundary holds (LM), right lacks any link
    chart.parse_cycle()
    assert not chart.accept()
    assert chart.stats["events_deleted"] > 0


def test_run_produces_node(g2_compiled):
    chart = init_session(g2_compiled, tokenize_plain("a b"))
    chart.parse_cycle()
    assert ("A1", 0, 1) in node_names(chart)
    assert chart.stats["events_run"] >= 2


def test_status_values_are_legal(g2_compiled):
    chart = init_session(g2_compiled, tokenize_plain("a a b"), debug=True)
    chart.parse_cycle()
    assert chart.status_audit
    for (*_, status) in chart.status_audit:
        assert status in ("RUN", "DELETE", "EPSILON", "DERIVATION")


# -- lattice inputs -------------------------------------------------------------------

def test_lexical_ambiguity():
    g = load_grammar("""
        %root S
        S -> DET N | DET V ;
    """)
    cg = compile_grammar(g)
    lat = InputLattice(3, [LexicalItem("la", "DET", 0, 1),
                           LexicalItem("vela", "N", 1, 2),
                           LexicalItem("vela", "V", 1, 2)])
    chart = init_session(cg, lat)
    chart.parse_cycle()
    assert count_trees(build_forest(chart)).value == 2


def test_multiword_item():
    g = load_grammar("%root S\nS -> a b | c ;")
    cg = compile_grammar(g)
    lat = InputLattice(3, [LexicalItem("x", "a", 0, 1), LexicalItem("y", "b", 1, 2),
                           LexicalItem("xy", "c", 0, 2)])
    chart = init_session(cg, lat)
    chart.parse_cycle()
    assert count_trees(build_forest(chart)).value == 2


def test_unknown_preterminal_rejected(g2_compiled):
    lat = InputLattice(2, [LexicalItem("w", "NOPE", 0, 1)])
    with pytest.raises(EngineError, match="NOPE"):
        init_session(g2_compiled, lat)


# -- misc ----------------------------------------------------------------------------

def test_parse_convenience(g2_compiled):
    chart = parse(g2_compiled, tokenize_plain("a b"))
    assert chart.accept()


def test_trace_lines_mention_events(g2_compiled):
    chart = init_session(g2_compiled, tokenize_plain("a b"), trace=True)
    chart.parse_cycle()
    log = "\n".join(chart.trace_lines)
    assert "create" in log and "S -> A1 . b . @ [1,2]" in log


def test_session_reuses_compiled_grammar(g2_compiled):
    for text in ("a b", "a a a a a b", "a c"):
        chart = init_session(g2_compiled, tokenize_plain(text))
        chart.parse_cycle()
        assert chart.accept()


def test_ambiguous_grammar_packs_catalan():
    chart = run("%root S\nS -> S S | a ;", "a a a a")
    assert count_trees(build_forest(chart)).value == 5


def test_deep_recursion_linear_events(g2_compiled):
    chart = init_session(g2_compiled, tokenize_plain(" ".join(["a"] * 100) + " b"))
    chart.parse_cycle()
    assert chart.accept()
    assert chart.stats["events_created"] < 100 * 12


# -- fixpoint and class-support invariants ------------------------------------------


def parse_case(seed, limits=None, **kwargs):
    grammar, lattice = random_case(seed, limits)
    return parse(compile_grammar(grammar), lattice, **kwargs)


@pytest.mark.parametrize("seed,limits", [(s, None) for s in range(200)]
                         + [(474, None), (18, CaseLimits(max_input=24)),
                            (120, CaseLimits(max_input=24))])
def test_invariants_hold_at_fixpoint(seed, limits):
    # debug mode runs check_invariants when the cycle stops
    chart = parse_case(seed, limits, debug=True)
    # a fired event's key stays indexed, so no closed form fires twice: the
    # indexed events that are not live are exactly those run, and each of
    # their derivations is a distinct analysis of a derived node
    fired = [ev for ev in chart.event_index.values() if not ev.alive]
    assert len(fired) == chart.stats["events_run"]
    derived = [n for n in chart.node_list if n.origin == "derived"]
    assert sum(len(ev.derivations()) for ev in fired) == sum(len(n.analyses) for n in derived)


# Many productions over few terminals: most nonterminals are nullable.
DENSE_40 = CaseLimits(max_nonterminals=40, max_terminals=2, max_productions=240, max_input=3)


def closed_support_by_scan(chart, index, side, lhs):
    """Whether a closed extreme of an lhs event on side at CaD index has
    anything beside it, found by walking every node and every closed and
    open extreme facing it there, or the input boundary."""
    other = 1 - side
    if index == chart.edge[side]:
        return bool(chart.bound[side] >> lhs & 1)
    cad = chart.cads[index]
    adj, pd = chart.adj[side][lhs], chart.pd[side][lhs]
    return (any(adj >> n.symbol & 1 for n in chart.node_list if (n.fbp, n.lbp)[other] == index)
            or any(adj >> p.production.lhs.id & 1 for p in cad.closed[other].values())
            or any(pd >> q.need[other] & 1 for q in cad.open[other].values()))


def closed_support_cases():
    yield from (random_case(seed) for seed in range(200))
    yield from (random_case(seed, CaseLimits(max_input=24)) for seed in range(20))
    yield from (random_case(seed, DENSE_40) for seed in range(30))


def test_closed_support_is_read_from_the_lexical_items(monkeypatch):
    # a closed extreme's support is the input boundary or an adjacent
    # lexical item (the lemma at Chart._support): it agrees with a scan of
    # everything at its CaD whenever it is asked, and never changes after
    support = engine.Chart._support
    asked = []

    def spy(chart, index, side, need, lhs):
        held = support(chart, index, side, need, lhs)
        if need is None:
            asked.append(bool(held) == closed_support_by_scan(chart, index, side, lhs))
        return held

    monkeypatch.setattr(engine.Chart, "_support", spy)
    for grammar, lattice in closed_support_cases():
        parse(compile_grammar(grammar), lattice)
    assert len(asked) > 10000 and all(asked)
    monkeypatch.undo()

    checked = []

    def audit(chart):
        for ev in chart.events.values():
            for side in (LEFT, RIGHT):
                if ev.need[side] is None:
                    scan = closed_support_by_scan(chart, ev.cad[side], side, ev.production.lhs.id)
                    assert ev.support[side] == scan, f"e{ev.id}.{engine.SIDE_NAMES[side]}"
                    checked.append(scan)

    def after(action):
        def wrapped(chart, *args):
            action(chart, *args)
            audit(chart)
        return wrapped

    monkeypatch.setattr(engine.Chart, "run_event", after(engine.Chart.run_event))
    monkeypatch.setattr(engine.Chart, "fuse", after(engine.Chart.fuse))
    for grammar, lattice in ([random_case(seed) for seed in range(40)]
                             + [random_case(seed, DENSE_40) for seed in range(5)]):
        chart = init_session(compile_grammar(grammar), lattice)
        audit(chart)
        chart.parse_cycle()
    assert True in checked and False in checked


def test_invariant_check_catches_a_flipped_support_bit():
    chart = parse_case(474)
    chart.check_invariants()
    ev = next(e for e in chart.events.values() if e.cad[LEFT] > 0 and e.support[LEFT])
    ev.support[LEFT] = False
    with pytest.raises(AssertionError, match=f"e{ev.id}.L: support bit is stale"):
        chart.check_invariants()


def test_invariant_check_catches_an_unindexed_event():
    chart = parse_case(2)
    chart.check_invariants()
    ev = next(iter(chart.events.values()))
    del chart.event_index[ev.key]
    with pytest.raises(AssertionError, match=f"e{ev.id}: key not indexed"):
        chart.check_invariants()


def test_invariant_check_catches_an_extreme_on_the_wrong_side():
    chart = parse_case(2)
    chart.check_invariants()
    ev = next(e for e in chart.events.values() if e.need[LEFT] is None)
    cad = chart.cads[ev.cad[LEFT]]
    cad.open[LEFT][ev.id] = cad.closed[LEFT].pop(ev.id)
    with pytest.raises(AssertionError, match=f"e{ev.id}.L: not in its CaD list"):
        chart.check_invariants()


def test_invariant_check_catches_a_dead_event_in_a_cad_list():
    chart = parse_case(2)
    chart.check_invariants()
    dead = Event(-1, chart.compiled.grammar.productions[0], (0, 1), (0, 1), (), None)
    chart.cads[0].open[RIGHT][dead.id] = dead
    with pytest.raises(AssertionError, match="CaD lists hold extremes of dead events"):
        chart.check_invariants()


def test_invariant_check_catches_a_dropped_class_count():
    chart = parse_case(2)
    chart.check_invariants()
    ev = next(e for e in chart.events.values() if e.need[RIGHT] is None)
    cad = chart.cads[ev.cad[RIGHT]]
    del cad.n_closed[RIGHT][ev.production.lhs.id]
    with pytest.raises(AssertionError, match=f"CaD {cad.index}.R: class counts differ"):
        chart.check_invariants()


def test_invariant_check_catches_a_one_sided_fusion_link():
    chart = parse_case(2)
    chart.check_invariants()
    ev = next(e for e in chart.events.values() if e.fusion[RIGHT])
    partner = next(iter(ev.fusion[RIGHT].values()))
    del partner.fusion[LEFT][ev.id]
    with pytest.raises(AssertionError,
                       match=f"e{ev.id}.R: fusion link with e{partner.id} is one-sided"):
        chart.check_invariants()


def test_invariant_check_catches_a_fusion_link_out_of_order():
    chart = parse_case(2)
    chart.check_invariants()
    ev = next(e for e in chart.events.values() if e.fusion[RIGHT])
    partner = next(iter(ev.fusion[RIGHT].values()))
    ev.dot = (ev.dot[LEFT], partner.dot[LEFT] + 1)  # ev's right dot past partner's left one
    with pytest.raises(AssertionError,
                       match=f"e{ev.id}.R: fusion link with e{partner.id} joins dots that do not meet"):
        chart.check_invariants()


def test_fusion_links_join_meeting_dots(monkeypatch):
    # a fusion joins only extremes whose dots meet; a nullable gap between
    # two events is crossed by their epsilon siblings, never by the link
    links = []
    add_fusion = engine.Chart._add_fusion

    def spy(chart, e1, e2):
        links.append((e1.dot[RIGHT], e2.dot[LEFT]))
        add_fusion(chart, e1, e2)

    monkeypatch.setattr(engine.Chart, "_add_fusion", spy)
    for seed in range(200):
        parse_case(seed)
    assert run(CHAINED_NULLABLES, "a b").accept()
    assert links
    assert all(right == left for right, left in links)


@pytest.mark.parametrize("seeds,limits", [(range(500, 800), None),
                                          (range(40, 140), CaseLimits(max_input=24))],
                         ids=["500-799", "long-40-139"])
def test_tree_counts_match_earley_beyond_the_gate(seeds, limits):
    # the acceptance gate covers random_case(0..499) only; these seeds, and
    # inputs of up to 24 tokens, exercise the nullable handling further
    wrong = []
    for seed in seeds:
        grammar, lattice = random_case(seed, limits)
        mine = count_trees(build_forest(parse(compile_grammar(grammar), lattice)), cap=10000)
        theirs = earley_count_trees(grammar, lattice, cap=10000)
        if (mine.kind, mine.value) != (theirs.kind, theirs.value):
            wrong.append(seed)
    assert not wrong


@pytest.mark.parametrize("limits", [
    DENSE_40,
    CaseLimits(max_nonterminals=80, max_terminals=4, max_productions=480, max_input=2),
    CaseLimits(max_nonterminals=200, max_terminals=10, max_productions=1200, max_input=3),
], ids=["40-nonterminals", "80-nonterminals", "200-nonterminals"])
def test_tree_counts_match_earley_on_dense_nullable_grammars(limits):
    # many productions over few terminals make most nonterminals nullable,
    # a regime the acceptance gate's small grammars never reach; each set
    # holds finite positive counts as well as infinite ones
    wrong, nullable, nonterminals, kinds = [], 0, 0, set()
    for seed in range(30):
        grammar, lattice = random_case(seed, limits)
        compiled = compile_grammar(grammar)
        nullable += sum(s.id in compiled.nullable for s in grammar.nonterminals)
        nonterminals += len(grammar.nonterminals)
        mine = count_trees(build_forest(parse(compiled, lattice)), cap=10000)
        theirs = earley_count_trees(grammar, lattice, cap=10000)
        if (mine.kind, mine.value) != (theirs.kind, theirs.value):
            wrong.append(seed)
        kinds.add("finite positive" if mine.kind == FINITE and mine.value else mine.kind)
    assert nullable > 0.7 * nonterminals
    assert not wrong
    assert {"finite positive", INFINITE} <= kinds


# About 400 symbols, at most 5% of them terminals, up to 6 productions per
# nonterminal; the seeds are those of range(700) whose grammar comes near
# these limits and whose input has 2 or 3 words.
LARGE_DENSE = CaseLimits(max_nonterminals=380, max_terminals=20, max_productions=380 * 6,
                         max_input=3)


def test_tree_counts_match_earley_on_large_dense_grammars():
    wrong = []
    for seed in (106, 118, 225, 318, 481, 523, 573, 639):
        grammar, lattice = random_case(seed, LARGE_DENSE)
        compiled = compile_grammar(grammar)
        assert len(grammar.symbols) >= 360 and lattice.n in (2, 3)
        assert len(grammar.productions) >= 4.5 * len(grammar.nonterminals)
        assert len(compiled.nullable) > 0.75 * len(grammar.nonterminals)
        mine = count_trees(build_forest(parse(compiled, lattice)), cap=10000)
        theirs = earley_count_trees(grammar, lattice, cap=10000)
        if (mine.kind, mine.value) != (theirs.kind, theirs.value):
            wrong.append(seed)
    assert not wrong


def roots_and_counts(compiled, lattice):
    """The accepted roots (symbol and span) and the tree count of a parse."""
    chart = parse(compiled, lattice)
    count = count_trees(build_forest(chart), cap=10000)
    return [(n.symbol, n.fbp, n.lbp) for n in chart.accept()], (count.kind, count.value)


@pytest.mark.parametrize("seeds,limits", [(range(200), None),
                                          (range(20), CaseLimits(max_input=24))],
                         ids=["0-199", "long-0-19"])
def test_reduced_coverage_parses_like_the_full_one(monkeypatch, seeds, limits):
    # coverage holds the useful productions only; events built from the
    # useless ones too (every production counted useful) change no root
    # and no tree count
    dropped = []
    for seed in seeds:
        grammar, lattice = random_case(seed, limits)
        reduced = compile_grammar(grammar)
        with monkeypatch.context() as m:
            m.setattr(relations, "useful_productions", lambda g: {p.id for p in g.productions})
            coverage = relations.build_coverage(grammar, reduced.nullable)
        full = CompiledGrammar(grammar, reduced.nullable, reduced.lpd, reduced.rpd, reduced.la,
                               reduced.ra, reduced.lm, reduced.rm, coverage)
        dropped.append(full.coverage != reduced.coverage)
        assert roots_and_counts(reduced, lattice) == roots_and_counts(full, lattice), seed
    # the reduction has something to drop on most of these grammars
    assert sum(dropped) > len(dropped) // 2


def mirrored(grammar, lattice):
    """The grammar with every rhs reversed, and the lattice read right to left."""
    n = lattice.n
    productions = [Production(p.id, p.lhs, p.rhs[::-1]) for p in grammar.productions]
    items = [LexicalItem(it.unit, it.preterminal, n - it.lbp, n - it.fbp) for it in lattice.items]
    return Grammar(grammar.symbols, productions, grammar.roots), InputLattice(lattice.points, items)


@pytest.mark.parametrize("seeds,limits", [(range(500), None),
                                          (range(40), CaseLimits(max_input=24))],
                         ids=["0-499", "long-0-39"])
def test_mirror_image_parses_to_the_mirrored_forest(seeds, limits):
    # the engine treats both directions alike: parsing the mirror image
    # yields as many trees and the mirrored nodes (counters may differ, as
    # the queues see the events in another order)
    wrong = []
    for seed in seeds:
        grammar, lattice = random_case(seed, limits)
        n = lattice.n
        chart = parse(compile_grammar(grammar), lattice)
        mirror_grammar, mirror_lattice = mirrored(grammar, lattice)
        mirror = parse(compile_grammar(mirror_grammar), mirror_lattice)
        count, mirror_count = (count_trees(build_forest(c), cap=10000) for c in (chart, mirror))
        nodes = {(nd.symbol, nd.fbp, nd.lbp) for nd in chart.node_list}
        mirror_nodes = {(nd.symbol, n - nd.lbp, n - nd.fbp) for nd in mirror.node_list}
        if (count.kind, count.value) != (mirror_count.kind, mirror_count.value) \
                or nodes != mirror_nodes:
            wrong.append(seed)
    assert not wrong


def test_untraced_parse_renders_nothing(monkeypatch):
    def boom(self):
        raise AssertionError("Event.render called with tracing off")

    monkeypatch.setattr(Event, "render", boom)
    chart = parse_case(474)
    assert chart.stats["events_created"] > 0 and not chart.trace_lines


OPTIONAL_ENDS = """
    %root S
    S -> A b C ;
    A -> a | ;
    C -> c | ;
"""


def test_stillborn_form_is_traced_and_counted():
    # fusing A with b makes S -> . A b . C @ [0,2]; its sibling with C
    # empty would close S at 2, where nothing may follow S, so it is not built
    chart = run(OPTIONAL_ENDS, "a b c", trace=True)
    assert chart.stats["stillborn"] == 1
    assert "stillborn S -> . A b C . @ [0,2]" in chart.trace_lines
    assert count_trees(build_forest(chart)).value == 1


def test_untraced_stillborn_form_renders_nothing(monkeypatch):
    def boom(*args):
        raise AssertionError("render called with tracing off")

    monkeypatch.setattr(engine, "render", boom)
    chart = run(OPTIONAL_ENDS, "a b c")
    assert chart.stats["stillborn"] == 1 and not chart.trace_lines


DEAD_EXPANSION = """
    %root S
    %terminal n
    S -> X | z T ;
    X -> x ;
    T -> N N X N N ;
    N -> n | ;
"""

# The node X [0,1] made in the cycle anchors T -> N N . X . N N and its
# epsilon siblings: 3 left dots times 3 right dots.  T is useful (S -> z T
# reaches it), but no T can begin the input, and nothing ends at 0, so no
# left dot has evidence.
DEAD_FORMS = [
    "T -> N N . X . N N @ [0,1]", "T -> N N . X N . N @ [0,1]", "T -> N N . X N N . @ [0,1]",
    "T -> N . N X N N . @ [0,1]", "T -> . N N X N N . @ [0,1]", "T -> N . N X N . N @ [0,1]",
    "T -> . N N X N . N @ [0,1]", "T -> N . N X . N N @ [0,1]", "T -> . N N X . N N @ [0,1]",
]


def test_dead_coverage_expansion_is_stillborn_without_keys(monkeypatch):
    keyed = []
    event_key = engine.event_key

    def spy(production, *args):
        keyed.append(production.lhs.name)
        return event_key(production, *args)

    monkeypatch.setattr(engine, "event_key", spy)
    chart = run(DEAD_EXPANSION, "x", trace=True)
    assert chart.stats["stillborn"] == 9 and "T" not in keyed
    assert [line for line in chart.trace_lines if line.startswith("stillborn")] == \
        [f"stillborn {form}" for form in DEAD_FORMS]
    assert chart.accept()


def test_untraced_dead_coverage_expansion_renders_nothing(monkeypatch):
    def boom(*args):
        raise AssertionError("render called with tracing off")

    monkeypatch.setattr(engine, "render", boom)
    chart = run(DEAD_EXPANSION, "x")
    assert chart.stats["stillborn"] == 9 and not chart.trace_lines


def test_side_with_only_a_fusion_partner_is_not_stillborn():
    # when Y [1,2] is made, S -> X . Y . @ [1,2] waits for X at 1, where no
    # closed extreme is left (X's event has run); its only evidence is the
    # fusion partner S -> . X . Y @ [0,1]
    chart = run("%root S\nS -> X Y ;\nX -> x ;\nY -> y ;", "x y", trace=True)
    assert "create e3 S -> X . Y . @ [1,2]" in chart.trace_lines
    assert "link fusion e2.R <-> e3.L" in chart.trace_lines
    assert chart.stats["stillborn"] == 0 and chart.stats["fusions"] == 1
    assert count_trees(build_forest(chart)).value == 1


def test_epsilon_nodes_are_shared_by_the_sessions_of_a_grammar():
    cg = compile_grammar(load_grammar(OPTIONAL_ENDS))
    first, second = (parse(cg, tokenize_plain(text)) for text in ("a b c", "b"))
    assert first.eps_nodes is second.eps_nodes
    skeleton = {sid: (nd.id, len(nd.analyses)) for sid, nd in first.eps_nodes.items()}
    assert sorted(i for i, _ in skeleton.values()) == list(range(len(skeleton)))
    for chart in (first, second):
        assert chart.node_list[0].id == len(skeleton)
    parse(cg, tokenize_plain("a b"))
    assert {sid: (nd.id, len(nd.analyses)) for sid, nd in first.eps_nodes.items()} == skeleton
