import random
from collections import deque

import pytest

from scparse import Grammar, Production, compile_grammar, load_grammar, tokenize_plain
from scparse import engine, relations
from scparse.bench import suite_grammar, suite_input
from scparse.engine import (DELETE, DERIVATION, EPSILON, LEFT, RIGHT, RUN, EngineError, Event,
                            init_session, parse)
from scparse.forest import (FINITE, INFINITE, build_forest, canonical, count_trees,
                            enumerate_trees, render_tree)
from scparse.lattice import InputLattice, LexicalItem
from scparse.oracle import CaseLimits, earley_count_trees, earley_forest, random_case
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

INIT_PHASES = {"node": 0, "create": 1, "pack": 1, "support": 2, "link": 2, "status": 3,
               "delete": 4}


def traced_ids(chart, verb):
    return sorted(line.split()[1] for line in chart.trace_lines if line.startswith(verb + " "))


def assert_one_status_or_delete_each(chart):
    # every init event gets exactly one status line, or one delete line if
    # it was retired unwired (Chart._new_event); deleting comes last
    status, deleted = traced_ids(chart, "status"), traced_ids(chart, "delete")
    assert status == sorted(f"e{ev.id}" for ev in chart.events.values())
    assert sorted(status + deleted) == sorted(f"e{i}" for i in range(chart.stats["events_created"]))
    assert len(deleted) == chart.stats["events_deleted"]
    phases = [INIT_PHASES[line.split()[0]] for line in chart.trace_lines]
    assert phases == sorted(phases)


def test_init_sets_each_status_once(g2_compiled):
    chart = init_session(g2_compiled, tokenize_plain("a a a b"), trace=True)
    assert chart.stats["events_created"] == 13
    assert_one_status_or_delete_each(chart)
    # the 7 events that, wired, would have status DELETE after init
    assert traced_ids(chart, "delete") == sorted(f"e{i}" for i in (0, 2, 4, 6, 9, 10, 11))
    for seed in range(100):
        grammar, lattice = random_case(seed)
        assert_one_status_or_delete_each(
            init_session(compile_grammar(grammar), lattice, trace=True))


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
    # the 7 events retired in init, and nothing else
    assert stats["events_deleted"] == 7
    assert stats["events_run"] == stats["fusions"] == 0


def test_nonterminal_preterminal_rejected():
    # an item of X over [0,2] would be a leaf where a run also makes X
    # [0,2] from a a, and the forest would count one tree instead of two
    cg = compile_grammar(load_grammar("%root S\nS -> X ;\nX -> a a ;"))
    lat = InputLattice(3, [LexicalItem("xx", "X", 0, 2), LexicalItem("x", "a", 0, 1),
                           LexicalItem("x", "a", 1, 2)])
    with pytest.raises(EngineError, match="lexical item 'xx': preterminal 'X' is a nonterminal"):
        init_session(cg, lat)


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
    # the fusion that closes S -> . S S . @ [0,3] with S[0,2] S[2,3] makes
    # its node at once, with no event; S[0,1] S[1,3] arrives later from a
    # fusion, and the node takes the analysis at once: it stands for the form
    chart, mine, theirs = catalan_counts("a a a a", trace=True)
    form = "S -> . S S . @ [0,3]"
    assert not [line for line in chart.trace_lines if form in line and not line.startswith("fire")]
    fire = chart.trace_lines.index(f"fire {form}")
    assert chart.trace_lines[fire - 1].startswith("fuse ")
    node_line = chart.trace_lines[fire + 1]
    assert node_line.startswith("node ") and node_line.endswith(" S [0,3] derived")
    pack = chart.trace_lines.index("pack S [0,3] analysis 0")
    assert pack > fire
    assert chart.trace_lines[pack - 1].startswith("fuse ")
    assert not [line for line in chart.trace_lines if line.startswith("pack e")]
    s03 = chart.nodes[(chart.compiled.grammar.symbol("S").id, 0, 3)]
    assert len(s03.analyses) == 2
    assert (mine.kind, mine.value) == (theirs.kind, theirs.value) == ("finite", 5)


@pytest.mark.parametrize("seed", [536, 1293, 1959])
def test_late_derivation_meets_partners_fused_before_it(monkeypatch, seed):
    # a live event's late derivation is merged with every partner facing
    # it, also one whose link with the event a fusion consumed before the
    # derivation arrived: no pending fusion merges it with such a partner
    fused_before = []
    pack = engine.Chart._pack

    def spy(chart, ev, children):
        if ev.alive and not ev.holds(children) and chart.stillborn is not None:
            for side in (LEFT, RIGHT):
                if ev.need[side] is not None:
                    for p in chart._partners(ev.production, ev.dot, ev.cad[side], side):
                        e1, e2 = (p, ev) if side == LEFT else (ev, p)
                        if e2.id not in e1.fusion[RIGHT]:
                            fused_before.append((e1.id, e2.id))
        pack(chart, ev, children)

    monkeypatch.setattr(engine.Chart, "_pack", spy)
    grammar, lattice = random_case(seed)
    mine = count_trees(build_forest(parse(compile_grammar(grammar), lattice)), cap=10000)
    theirs = earley_count_trees(grammar, lattice, cap=10000)
    assert fused_before
    assert (mine.kind, mine.value) == (theirs.kind, theirs.value)


@pytest.mark.parametrize("seed,limits", [(120, CaseLimits(max_input=24)), (536, None)],
                         ids=["long-120", "536"])
def test_late_derivation_is_replayed_to_every_partner_whose_link_is_gone(
        monkeypatch, seed, limits):
    # in span order a late derivation is merged with every partner facing
    # it whose link a fusion consumed, since no pending fusion merges the
    # two; a partner whose pair is still queued is left to that fusion
    replayed, pending, offered = [], [], []
    pack, new_event = engine.Chart._pack, engine.Chart._new_event

    def pack_spy(chart, ev, children):
        expected = []
        if not ev.holds(children):
            queued = {pair for bucket in chart.fusion_agenda for pair in bucket}
            for side in (LEFT, RIGHT):
                if ev.need[side] is not None:
                    for p in chart._partners(ev.production, ev.dot, ev.cad[side], side):
                        e1, e2 = (p, ev) if side == LEFT else (ev, p)
                        if e2.id in e1.fusion[RIGHT]:
                            assert (e1, e2) in queued
                            pending.append((e1, e2))
                        else:
                            expected += [kids + children if side == LEFT else children + kids
                                         for kids in p.derivations()]
        start = len(offered)
        pack(chart, ev, children)
        assert set(expected) <= set(offered[start:])
        replayed.extend(expected)

    def new_event_spy(chart, production, dot, cad, children, alts=None):
        offered.append(children)
        new_event(chart, production, dot, cad, children, alts)

    monkeypatch.setattr(engine.Chart, "_pack", pack_spy)
    monkeypatch.setattr(engine.Chart, "_new_event", new_event_spy)
    grammar, lattice = random_case(seed, limits)
    mine = count_trees(build_forest(parse(compile_grammar(grammar), lattice)), cap=10000)
    theirs = earley_count_trees(grammar, lattice, cap=10000)
    assert replayed and pending
    assert (mine.kind, mine.value) == (theirs.kind, theirs.value)


def test_fusions_run_narrowest_first(monkeypatch):
    # the agenda pops its buckets narrowest first and puts a pair that
    # widened while it waited back at its new width, so within a parse the
    # width of the fusions executed never falls
    fuse = engine.Chart.fuse
    widths, requeued = [], [0]

    def spy(chart, e1, e2):
        linked = e1.alive and e2.id in e1.fusion[RIGHT]
        width = e2.cad[RIGHT] - e1.cad[LEFT] if linked else None
        fusions = chart.stats["fusions"]
        fuse(chart, e1, e2)
        if chart.stats["fusions"] > fusions:
            assert width == chart.width
            widths.append(width)
        elif width is not None and width > chart.width:
            requeued[0] += 1

    monkeypatch.setattr(engine.Chart, "fuse", spy)
    fused = 0
    for seed, limits in [*((s, None) for s in range(200)),
                         *((s, CaseLimits(max_input=24)) for s in range(40))]:
        widths.clear()
        chart = parse_case(seed, limits)
        assert widths == sorted(widths), (seed, limits)
        assert not any(chart.fusion_agenda), (seed, limits)  # no pair left behind
        fused += len(widths)
    assert fused and requeued[0]


def test_ambiguous_input_builds_fewer_events_than_analyses():
    chart, mine, theirs = catalan_counts(" ".join(["a"] * 10))
    analyses = sum(len(n.analyses) for n in chart.node_list)
    assert chart.stats["events_created"] < analyses
    assert chart.stats["packed_at_once"] > 0
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
    # A1 -> . a . runs; the fusion that closes S -> . A1 b . makes S's
    # node at once, with no event
    assert chart.stats["events_run"] == chart.stats["fired_at_once"] == 1
    count = count_trees(build_forest(chart))
    assert (count.kind, count.value) == (FINITE, 1)


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


# Nearly half the bodies drawn are empty: over seeds 0..59, three in four
# nonterminals are nullable, and so is a third of the rhs symbols.
NULLABLE_HEAVY = CaseLimits(max_nonterminals=12, max_productions=50, eps_probability=0.45,
                            max_input=10)


@pytest.mark.parametrize("seed,limits", [(s, None) for s in range(200)]
                         + [(474, None), (18, CaseLimits(max_input=24)),
                            (120, CaseLimits(max_input=24))]
                         + [(s, NULLABLE_HEAVY) for s in range(60)])
def test_invariants_hold_at_fixpoint(monkeypatch, seed, limits):
    # debug mode runs check_invariants when the cycle stops
    fired = []  # the form and derivations of each event run
    made = []  # each node made in the cycle, as it waits for its coverage forms
    run_event = engine.Chart.run_event

    def spy(chart, ev):
        fired.append((ev.key, ev.derivations()))
        run_event(chart, ev)

    class Firing(deque):
        def append(self, node):
            made.append(node)
            super().append(node)

    monkeypatch.setattr(engine.Chart, "run_event", spy)
    grammar, lattice = random_case(seed, limits)
    chart = init_session(compile_grammar(grammar), lattice, debug=True)
    chart.firing = Firing()
    chart.parse_cycle()
    # no node is made twice, and no closed form both runs and makes its
    # node at once: a later derivation of the form goes to its node.  A
    # node a run made holds the run's first derivation first; every other
    # one was made at once, by the form of its first analysis.  Each run
    # derivation is a distinct analysis of a derived node, and so is each
    # one a form with no event gave its node (packed_at_once): the two make
    # up every analysis of a derived node
    derived = [n for n in chart.node_list if n.origin == "derived"]
    assert sorted(n.id for n in made) == sorted(n.id for n in derived)
    assert len(fired) == chart.stats["events_run"]
    assert len({key for key, _ in fired}) == len(fired)
    runs = {(key[0], derivations[0]) for key, derivations in fired}
    at_once = [n for n in made
               if (n.analyses[0].production.id, n.analyses[0].children) not in runs]
    assert len(at_once) == chart.stats["fired_at_once"]
    ran = {(key[0], key[2]) for key, _ in fired}
    assert not ran & {(n.analyses[0].production.id, (n.fbp, n.lbp)) for n in at_once}
    assert (sum(len(derivations) for _, derivations in fired)
            + chart.stats["packed_at_once"] == sum(len(n.analyses) for n in derived))
    # with every link queued and the agenda empty, no event is left
    assert not chart.events


def suite_cases(widths):
    for suite in ("recursive", "local", "nonlocal"):
        for w in widths:
            yield suite_grammar(suite), tokenize_plain(suite_input(suite, w))


def test_no_support_bit_goes_off_and_back_on_within_a_run():
    # a run's vanished classes are judged once its node's events are in, so
    # an extreme the node covers again keeps its bit: from a `run` line to
    # the next run, fusion or deletion, no extreme's bit goes off, then on
    runs = 0
    for grammar, lattice in [*(random_case(seed) for seed in range(200)),
                             *suite_cases((16, 32, 96))]:
        chart = parse(compile_grammar(grammar), lattice, trace=True)
        off = None  # the extremes whose bit went off in the current run
        for line in chart.trace_lines:
            verb = line.split(" ", 1)[0]
            if verb == "run":
                runs += 1
                off = set()
            elif verb in ("fuse", "delete"):
                off = None
            elif verb == "support" and off is not None:
                _, extreme, state = line.split()
                if state == "off":
                    off.add(extreme)
                else:
                    assert extreme not in off, f"{extreme} off and on again in one run"
    assert runs


def assert_current(chart):
    """Every live event's stored status and support bits are current."""
    for ev in chart.events.values():
        assert ev.status == chart.compute_status(ev), f"e{ev.id}: stale status"
        for side in (LEFT, RIGHT):
            assert ev.support[side] == bool(chart._support(
                ev.cad[side], side, ev.need[side], ev.production.lhs.id)), \
                f"e{ev.id}.{'LR'[side]}: stale support bit"


def test_statuses_and_bits_are_current_after_every_action(monkeypatch):
    # a status is refreshed only where an extreme may have gained or lost
    # evidence; checked after each deletion, run or fusion that
    # parse_cycle pops, in its own order, not only at the fixpoint
    depth, actions = [0], [0]

    def checked(action):
        def wrapper(chart, *args):
            depth[0] += 1
            action(chart, *args)
            depth[0] -= 1
            if not depth[0]:  # fuse deletes within its own action
                actions[0] += 1
                assert_current(chart)
        return wrapper

    for name in ("delete_event", "run_event", "fuse"):
        monkeypatch.setattr(engine.Chart, name, checked(getattr(engine.Chart, name)))
    for grammar, lattice in [*(random_case(seed) for seed in range(200)), *suite_cases((16,))]:
        parse(compile_grammar(grammar), lattice)
    assert actions[0]


def test_statuses_only_fall_in_the_cycle(monkeypatch):
    # the lemma at Chart._drain: once the cycle runs, no event goes from
    # DELETE or EPSILON to RUN or DERIVATION, so the drain checks no status:
    # every live event popped from the deletion queue is deleted, and every
    # event popped from the run queue is live and RUN, and fires.  No event
    # turns RUN in the cycle at all: a form closed there, built, merged or
    # moved into, makes its node at once, so every event run is an init
    # event in its init form
    log = []  # the queue pops, each with its event's state, and the actions

    class Logged(deque):
        def popleft(self):
            ev = super().popleft()
            log.append((self.name, ev, ev.alive, ev.status))
            return ev

    def logged(name, action):
        def wrapper(chart, ev):
            log.append((name, ev))
            action(chart, ev)
        return wrapper

    monkeypatch.setattr(engine.Chart, "delete_event",
                        logged("deleted", engine.Chart.delete_event))
    monkeypatch.setattr(engine.Chart, "run_event", logged("ran", engine.Chart.run_event))
    falls, pops = set(), {"delete": 0, "run": 0}
    for grammar, lattice in [*(random_case(s) for s in range(200)),
                             *(random_case(s, CaseLimits(max_input=24)) for s in range(40)),
                             *(random_case(s, DENSE_40) for s in range(60)),
                             *(with_extra_items(s, NULLABLE_HEAVY) for s in range(60)),
                             *suite_cases((16, 32, 96))]:
        chart = init_session(compile_grammar(grammar), lattice, trace=True)
        start = len(chart.trace_lines)
        init_forms = {ev.id: ev.key for ev in chart.events.values()}
        for name in ("delete", "run"):
            queue = Logged(getattr(chart, name + "_queue"))
            queue.name = name
            setattr(chart, name + "_queue", queue)
        log.clear()
        chart.parse_cycle()
        status = {}  # each event's last status, from init on
        for i, line in enumerate(chart.trace_lines):
            if line.startswith("status "):
                _, eid, new = line.split()[:3]
                old = status.get(eid)
                assert i < start or new != RUN, f"{eid} turns RUN in the cycle"
                if i >= start and old is not None and old != new:
                    assert not (old in (DELETE, EPSILON) and new in (RUN, DERIVATION)), \
                        f"{eid}: {old} -> {new}"
                    falls.add((old, new))
                status[eid] = new
        for i, entry in enumerate(log):
            if entry[0] not in pops:
                continue
            name, ev, alive, st = entry
            pops[name] += 1
            if name == "run":
                assert alive and st == RUN, f"e{ev.id} popped to run {st}, alive {alive}"
                assert init_forms.get(ev.id) == ev.key, f"e{ev.id} runs, not in its init form"
            if alive:
                assert log[i + 1][:2] == ("deleted" if name == "delete" else "ran", ev), \
                    f"e{ev.id} popped {st} from the {name} queue and not acted on"
    assert pops["delete"] and pops["run"]
    assert (EPSILON, DELETE) in falls


# Many productions over few terminals: most nonterminals are nullable.
DENSE_40 = CaseLimits(max_nonterminals=40, max_terminals=2, max_productions=240, max_input=3)


def test_a_closed_class_new_in_the_cycle_finds_no_unsupported_extreme_it_supports(
        monkeypatch):
    # the lemma at Chart._support: in the cycle, a closed class new at a
    # CaD finds no unsupported open extreme facing it that waits for a
    # symbol in its pd row, so it gives no extreme support it lacked
    wire = engine.Chart._wire
    facing_unsupported = [0]

    def spy(chart, ev, side):
        other, lhs = 1 - side, ev.production.lhs.id
        cad = chart.cads[ev.cad[side]]
        new = (chart.stillborn is not None and ev.need[side] is None
               and lhs not in cad.n_closed[side])
        wire(chart, ev, side)
        if new:
            unsupported = [q for q in cad.open[other].values() if not q.support[other]]
            facing_unsupported[0] += bool(unsupported)
            row = chart.pd[side][lhs]
            assert not any(row >> q.need[other] & 1 for q in unsupported), \
                f"e{ev.id}.{'LR'[side]}: its class would support an unsupported extreme"

    monkeypatch.setattr(engine.Chart, "_wire", spy)
    # a form fired at once brings no class, so each family runs to seed
    # 239: the check then bites about 600 times
    for grammar, lattice in [*(random_case(s, NULLABLE_HEAVY) for s in range(240)),
                             *(random_case(s, DENSE_40) for s in range(240)),
                             *(with_extra_items(s, NULLABLE_HEAVY) for s in range(240))]:
        parse(compile_grammar(grammar), lattice)
    assert facing_unsupported[0] > 200


def test_a_closed_form_whose_node_is_in_becomes_its_analyses(monkeypatch):
    # the lemma at Chart._new_event: in the cycle, a form closed on both
    # sides whose node is in is neither built nor moved into; its
    # derivations become the node's analyses at once, in _new_event or, for
    # a fusion's merged form, in fuse, and the trees stay Earley's
    new_event, mutate, fuse = engine.Chart._new_event, engine.Chart._mutate, engine.Chart.fuse
    at_once = [0, 0]  # forms packed at once by _new_event and by fuse

    def run_node(chart, production, dot, cad):
        if chart.stillborn is None or dot != (0, len(production.rhs)):
            return None
        node = chart.nodes.get((production.lhs.id, *cad))
        return node if node is not None and node.origin == "derived" else None

    def new_event_spy(chart, production, dot, cad, children, alts=None):
        node = run_node(chart, production, dot, cad)
        keyed = engine.event_key(production, dot, cad) in chart.events
        created = chart.stats["events_created"]
        new_event(chart, production, dot, cad, children, alts)
        if node is not None and not keyed:
            at_once[0] += 1
            assert chart.stats["events_created"] == created, \
                f"{engine.render(production, dot, cad)} built with its node in"
            analyses = {(a.production, a.children) for a in node.analyses}
            assert all((production, kids) in analyses for kids in (children, *(alts or ())))

    def mutate_spy(chart, ev, side, dot, cad, merged, key):
        assert run_node(chart, ev.production, dot, cad) is None, \
            f"e{ev.id} moved to {engine.render(ev.production, dot, cad)} with its node in"
        mutate(chart, ev, side, dot, cad, merged, key)

    def fuse_spy(chart, e1, e2):
        production, (dot, cad) = e1.production, chart._join(e1, e2)
        node = None
        if e1.alive and e2.id in e1.fusion[RIGHT] and cad[RIGHT] - cad[LEFT] <= chart.width:
            node = run_node(chart, production, dot, cad)
        keyed = engine.event_key(production, dot, cad) in chart.events
        merged = [a + b for a in e1.derivations() for b in e2.derivations()]
        created = chart.stats["events_created"]
        fuse(chart, e1, e2)
        if node is not None and not keyed:
            at_once[1] += 1
            assert chart.stats["events_created"] == created, \
                f"{engine.render(production, dot, cad)} built with its node in"
            analyses = {(a.production, a.children) for a in node.analyses}
            assert all((production, kids) in analyses for kids in merged)

    monkeypatch.setattr(engine.Chart, "_new_event", new_event_spy)
    monkeypatch.setattr(engine.Chart, "_mutate", mutate_spy)
    monkeypatch.setattr(engine.Chart, "fuse", fuse_spy)
    wrong = []
    for grammar, lattice in [*(random_case(s, NULLABLE_HEAVY) for s in range(60)),
                             *(random_case(s, DENSE_40) for s in range(60)),
                             *(with_extra_items(s, NULLABLE_HEAVY) for s in range(60))]:
        mine = count_trees(build_forest(parse(compile_grammar(grammar), lattice)))
        theirs = earley_count_trees(grammar, lattice)
        if (mine.kind, mine.value) != (theirs.kind, theirs.value):
            wrong.append((grammar, lattice))
    assert not wrong
    assert at_once[0] > 100 and at_once[1] > 100


def test_a_closed_form_with_support_and_no_node_fires_at_once(monkeypatch):
    # in the cycle, a form closed on both sides with closed support on both
    # and neither a node nor an event when its first derivation arrives is
    # not built: it makes its node at once, with no event, and the node
    # waits on `firing` for its coverage forms (test_forest_is_earleys
    # checks the forests)
    admit, run_event = engine.Chart._admit, engine.Chart.run_event
    running, vetted, popped = [None], set(), []

    def run_spy(chart, ev):
        running[0] = ev
        run_event(chart, ev)
        running[0] = None

    def admit_spy(chart, symbol, fbp, lbp, analysis, origin):
        if chart.stillborn is not None:
            # a node made in the cycle: by the event run, or at once by the
            # form of its first analysis, vetted in the state it arrived in
            production, cad = analysis.production, (fbp, lbp)
            dot = (0, len(production.rhs))
            key = engine.event_key(production, dot, cad)
            form = engine.render(production, dot, cad)
            assert (symbol, fbp, lbp) not in chart.nodes, f"{form}: its node made twice"
            if not (running[0] and running[0].key == key):
                assert key not in chart.events, f"{form} made its node with an event"
                assert all(closed_support_by_scan(chart, cad[side], side, symbol)
                           for side in (LEFT, RIGHT)), f"{form} made its node without support"
                vetted.add((symbol, fbp, lbp))
        return admit(chart, symbol, fbp, lbp, analysis, origin)

    class Firing(deque):
        def popleft(self):
            node = super().popleft()
            popped.append((node.symbol, node.fbp, node.lbp))
            return node

    monkeypatch.setattr(engine.Chart, "run_event", run_spy)
    monkeypatch.setattr(engine.Chart, "_admit", admit_spy)
    total = 0
    for grammar, lattice in [*(random_case(s) for s in range(200)),
                             *(random_case(s, DENSE_40) for s in range(60)),
                             *(with_extra_items(s, NULLABLE_HEAVY) for s in range(60)),
                             *suite_cases((16,))]:
        chart = init_session(compile_grammar(grammar), lattice)
        chart.firing = Firing()
        vetted.clear()
        popped.clear()
        chart.parse_cycle()
        assert chart.stats["fired_at_once"] == len(vetted)
        # every node made in the cycle left the worklist for its coverage
        # forms, once
        assert sorted(popped) == sorted((n.symbol, n.fbp, n.lbp) for n in chart.node_list
                                        if n.origin == "derived")
        total += len(vetted)
    assert total > 2000


def test_a_deep_unit_chain_fires_in_a_loop():
    # S -> A1, A1 -> A2, ..., A1000 -> a: the run of A1000 -> a makes each
    # node of the chain at once in turn, and the nodes make their coverage
    # forms from a worklist, so the depth of the chain is not the depth of
    # the stack (a fire recursing through _new_event and _complete, two
    # frames a link, would pass Python's default limit of 1000 frames)
    depth = 1000
    rules = ["%root S", "S -> A1 ;"] + [f"A{i} -> A{i + 1} ;" for i in range(1, depth)]
    chart = run("\n".join(rules + [f"A{depth} -> a ;"]), "a", debug=True)
    assert chart.stats["events_run"] == 1 and chart.stats["fired_at_once"] == depth
    count = count_trees(build_forest(chart))
    assert (count.kind, count.value) == (FINITE, 1)


def closed_support_by_scan(chart, index, side, lhs):
    """Whether a closed extreme of an lhs event on side at CaD index has
    anything beside it, found by walking every node and every live event's
    closed and open extreme facing it there, or the input boundary."""
    other = 1 - side
    if index == chart.edge[side]:
        return bool(chart.bound[side] >> lhs & 1)
    adj, pd = chart.adj[side][lhs], chart.pd[side][lhs]
    facing = [ev for ev in chart.events.values() if ev.cad[other] == index]
    return (any(adj >> n.symbol & 1 for n in chart.node_list if (n.fbp, n.lbp)[other] == index)
            or any(adj >> p.production.lhs.id & 1 for p in facing if p.need[other] is None)
            or any(pd >> q.need[other] & 1 for q in facing if q.need[other] is not None))


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
            scan = closed_support_by_scan(chart, index, side, lhs)
            assert bool(held) == scan, f"closed {engine.SIDE_NAMES[side]} extreme at CaD {index}"
            asked.append(scan)
        return held

    monkeypatch.setattr(engine.Chart, "_support", spy)
    for grammar, lattice in closed_support_cases():
        parse(compile_grammar(grammar), lattice)
    assert len(asked) > 10000 and True in asked and False in asked
    monkeypatch.undo()

    checked = []

    def audit(chart):
        # init retires an event whose closed extreme lacks support, and the
        # cycle never builds one: every live closed extreme is supported
        for ev in chart.events.values():
            for side in (LEFT, RIGHT):
                if ev.need[side] is None:
                    scan = closed_support_by_scan(chart, ev.cad[side], side, ev.production.lhs.id)
                    assert ev.support[side] and scan, f"e{ev.id}.{engine.SIDE_NAMES[side]}"
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
    assert len(checked) > 10000


def test_retired_init_events_never_had_evidence(monkeypatch):
    # init retires an event when one of its extremes can never have
    # evidence (the bound at Chart._support): nothing wired at that CaD
    # until the parse ends supports it or meets it for a fusion, and a
    # closed one has nothing beside it
    wire = engine.Chart._wire
    wired = {}  # (CaD index, side) -> (lhs, need, production, dot) per wiring
    built = []

    class Recorded(Event):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    def spy(chart, ev, side):
        wired.setdefault((ev.cad[side], side), []).append(
            (ev.production.lhs.id, ev.need[side], ev.production, ev.dot))
        return wire(chart, ev, side)

    def had_evidence(chart, ev, side):
        other, index, need = 1 - side, ev.cad[side], ev.need[side]
        facing = wired.get((index, other), ())
        if need is None:
            lhs = ev.production.lhs.id
            adj, pd = chart.adj[side][lhs], chart.pd[side][lhs]
            return (closed_support_by_scan(chart, index, side, lhs)
                    or any(adj >> q_lhs & 1 for q_lhs, q_need, _, _ in facing if q_need is None)
                    or any(pd >> q_need & 1 for _, q_need, _, _ in facing if q_need is not None))
        pd = chart.pd[other]
        return any(pd[q_lhs] >> need & 1 if q_need is None
                   else q_prod is ev.production and q_dot[other] == ev.dot[side]
                   for q_lhs, q_need, q_prod, q_dot in facing)

    monkeypatch.setattr(engine, "Event", Recorded)
    monkeypatch.setattr(engine.Chart, "_wire", spy)
    retired = 0
    for grammar, lattice in closed_support_cases():
        wired.clear()
        built.clear()
        chart = init_session(compile_grammar(grammar), lattice)
        # a retired event's key no longer maps to it
        gone = [ev for ev in built if chart.events.get(ev.key) is not ev]
        assert len(gone) == chart.stats["events_deleted"]
        chart.parse_cycle()
        for ev in gone:
            assert not all(had_evidence(chart, ev, side) for side in (LEFT, RIGHT)), \
                f"e{ev.id} {ev.render()}"
        retired += len(gone)
    assert retired > 1000


def init_case(seed, limits=None):
    """The chart of a random case right after init: the parse cycle leaves
    no event live (see test_invariants_hold_at_fixpoint), so the states
    these tests corrupt exist only before it."""
    grammar, lattice = random_case(seed, limits)
    chart = init_session(compile_grammar(grammar), lattice)
    chart.check_invariants()
    return chart


def some_event(chart, test):
    """The first live event that passes the test; there must be one."""
    found = [ev for ev in chart.events.values() if test(ev)]
    assert found, "no live event in the state to corrupt"
    return found[0]


def test_invariant_check_catches_a_flipped_support_bit():
    chart = init_case(474)
    ev = some_event(chart, lambda e: e.cad[LEFT] > 0 and e.support[LEFT])
    ev.support[LEFT] = False
    with pytest.raises(AssertionError, match=f"e{ev.id}.L: support bit is stale"):
        chart.check_invariants()


def test_invariant_check_catches_an_unindexed_event():
    # a live event missing from the index is found through its CaD list
    chart = init_case(2)
    ev = some_event(chart, lambda e: e.need[LEFT] is None and e.need[RIGHT] is not None
                    and not e.fusion[RIGHT])
    del chart.events[ev.key]
    with pytest.raises(AssertionError, match=f"e{ev.id}.R: in a CaD list but not indexed"):
        chart.check_invariants()


def test_invariant_check_catches_a_released_key_left_indexed(monkeypatch):
    fired = []
    run_event = engine.Chart.run_event

    def spy(chart, ev):
        fired.append(ev)
        run_event(chart, ev)

    monkeypatch.setattr(engine.Chart, "run_event", spy)
    chart = parse_case(13)
    chart.check_invariants()
    assert fired
    # a fired event put back under its key
    chart.events[fired[0].key] = fired[0]
    with pytest.raises(AssertionError, match=f"e{fired[0].id}: the index holds a dead event"):
        chart.check_invariants()


def test_invariant_check_catches_a_form_left_pending():
    # after init and when the cycle stops, every node made has its
    # coverage forms: none is left waiting on `firing`
    for chart in (init_case(2), parse_case(2)):
        chart.check_invariants()
        chart.firing.append(chart.node_list[-1])
        with pytest.raises(AssertionError, match="a node's coverage forms are still to be made"):
            chart.check_invariants()


def test_invariant_check_catches_an_extreme_on_the_wrong_side():
    chart = init_case(2)
    # a closed extreme listed open
    ev = some_event(chart, lambda e: e.need[LEFT] is None)
    chart.cads[ev.cad[LEFT]].open[LEFT][ev.id] = ev
    with pytest.raises(AssertionError, match=f"e{ev.id}.L: listed open at CaD {ev.cad[LEFT]}"):
        chart.check_invariants()
    del chart.cads[ev.cad[LEFT]].open[LEFT][ev.id]
    chart.check_invariants()
    # an open extreme missing from its list
    ev = some_event(chart, lambda e: e.need[RIGHT] is not None)
    del chart.cads[ev.cad[RIGHT]].open[RIGHT][ev.id]
    with pytest.raises(AssertionError, match=f"e{ev.id}.R: not in its CaD list"):
        chart.check_invariants()


def test_invariant_check_catches_a_dead_event_in_a_cad_list():
    chart = parse_case(2)
    chart.check_invariants()
    production = chart.compiled.grammar.productions[0]
    dead = Event(-1, production, (0, 1), (0, 1), (), None, engine.needs(production, (0, 1)))
    dead.alive = False
    chart.cads[0].open[RIGHT][dead.id] = dead
    with pytest.raises(AssertionError, match="e-1.R: in a CaD list but not indexed"):
        chart.check_invariants()


def test_invariant_check_catches_a_dropped_class_count():
    chart = init_case(2)
    ev = some_event(chart, lambda e: e.need[RIGHT] is None)
    cad = chart.cads[ev.cad[RIGHT]]
    del cad.n_closed[RIGHT][ev.production.lhs.id]
    with pytest.raises(AssertionError, match=f"CaD {cad.index}.R: class counts differ"):
        chart.check_invariants()


def test_invariant_check_catches_reach_beyond_the_lexical_reach():
    chart = init_case(2)
    ev = some_event(chart, lambda e: e.need[RIGHT] is None)
    cad = chart.cads[ev.cad[RIGHT]]
    cad.lexical[RIGHT] = 0
    with pytest.raises(AssertionError, match=f"CaD {cad.index}.R: reach exceeds its lexical reach"):
        chart.check_invariants()


@pytest.mark.parametrize("index,side", [(0, LEFT), (2, LEFT), (2, RIGHT), (4, RIGHT)])
def test_invariant_check_catches_a_corrupted_closed_support_mask(g2_compiled, index, side):
    chart = parse(g2_compiled, tokenize_plain("a a a b"))
    chart.check_invariants()
    cad = chart.cads[index]
    cad.closable[side] ^= 1 << g2_compiled.grammar.symbol("A1").id
    with pytest.raises(AssertionError, match=f"CaD {index}.{engine.SIDE_NAMES[side]}: "
                                             "closed support mask differs"):
        chart.check_invariants()


def test_invariant_check_catches_a_live_event_that_can_never_have_evidence(g2_compiled):
    chart = init_session(g2_compiled, tokenize_plain("a a a b"))
    chart.check_invariants()
    ev = next(e for e in chart.events.values() if e.need[LEFT] is not None)
    # a non-nullable symbol that no lexical item ending there can end
    reach = chart.cads[ev.cad[LEFT]].lexical[RIGHT]
    need = next(s.id for s in chart.compiled.grammar.symbols
                if s.id not in chart.compiled.nullable and not reach >> s.id & 1)
    ev.need = (need, ev.need[RIGHT])
    with pytest.raises(AssertionError, match=f"e{ev.id}.L: live but can never have evidence"):
        chart.check_invariants()


def test_invariant_check_catches_a_one_sided_fusion_link():
    chart = init_case(2)
    ev = some_event(chart, lambda e: e.fusion[RIGHT])
    partner = next(iter(ev.fusion[RIGHT].values()))
    del partner.fusion[LEFT][ev.id]
    with pytest.raises(AssertionError,
                       match=f"e{ev.id}.R: fusion link with e{partner.id} is one-sided"):
        chart.check_invariants()


def test_invariant_check_catches_a_fusion_link_out_of_order():
    chart = init_case(2)
    ev = some_event(chart, lambda e: e.fusion[RIGHT])
    partner = next(iter(ev.fusion[RIGHT].values()))
    ev.dot = (ev.dot[LEFT], partner.dot[LEFT] + 1)  # ev's right dot past partner's left one
    with pytest.raises(AssertionError,
                       match=f"e{ev.id}.R: fusion link with e{partner.id} joins dots that do not meet"):
        chart.check_invariants()


def test_invariant_check_catches_a_link_not_queued():
    # a link stands for its pair on the fusion agenda: every fusion
    # consumes it
    chart = init_case(2)
    ev = some_event(chart, lambda e: e.fusion[RIGHT])
    partner = next(iter(ev.fusion[RIGHT].values()))
    bucket = chart.fusion_agenda[partner.cad[RIGHT] - ev.cad[LEFT]]
    bucket.remove((ev, partner))
    with pytest.raises(AssertionError,
                       match=f"e{ev.id}.R: fusion link with e{partner.id} is not queued"):
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
                                          (range(40, 140), CaseLimits(max_input=24)),
                                          (range(40), CaseLimits(max_input=48))],
                         ids=["500-799", "long-40-139", "long48-0-39"])
def test_tree_counts_match_earley_beyond_the_gate(seeds, limits):
    # the acceptance gate covers random_case(0..499) only; these seeds, and
    # inputs of up to 24 and 48 tokens, exercise the nullable handling further
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


def with_extra_items(seed, limits=None):
    """random_case's grammar and input, with 1 to 2n extra items of span 2
    to 4 over the input (n its last breaking point), each of a random
    terminal; none on inputs shorter than 2."""
    grammar, lattice = random_case(seed, limits)
    rng = random.Random(seed)
    n, items, terminals = lattice.n, list(lattice.items), grammar.terminals
    for _ in range(rng.randint(1, 2 * n) if n >= 2 else 0):
        span = rng.randint(2, min(4, n))
        start = rng.randint(0, n - span)
        items.append(LexicalItem(f"x{start}_{start + span}", rng.choice(terminals).name,
                                 start, start + span))
    return grammar, InputLattice(lattice.points, items)


@pytest.mark.parametrize("seeds,limits,case", [
    (range(300), None, random_case),
    (range(10), CaseLimits(max_input=48), random_case),
    (range(60), DENSE_40, random_case),
    (range(100), NULLABLE_HEAVY, random_case),
    (range(150), None, with_extra_items),
    (range(100), NULLABLE_HEAVY, with_extra_items),
], ids=["0-299", "long48-0-9", "dense-0-59", "nullable-0-99", "lattice-0-149",
        "lattice-nullable-0-99"])
def test_forest_is_earleys(seeds, limits, case):
    # the forest reachable from the roots, node by node with its set of
    # analyses, is the one the Earley side builds: exact where tree counts
    # are infinite or capped too, and free of node ids and dump order
    wrong = []
    for seed in seeds:
        grammar, lattice = case(seed, limits)
        forest = canonical(build_forest(parse(compile_grammar(grammar), lattice)))
        if forest != earley_forest(grammar, lattice):
            wrong.append(seed)
    assert not wrong


def closable_from_multi_point_items_only(chart):
    """Whether some closed extreme's support comes from a multi-point item
    alone: its lhs is in `CaD.closable` there but in no mask built from
    the one-point items and the input boundary."""
    la, ra = chart.adj
    unit = {(0, LEFT): chart.bound[LEFT], (chart.n, RIGHT): chart.bound[RIGHT]}
    for nd in chart.node_list:
        if nd.origin == "lexical" and nd.lbp - nd.fbp == 1:
            unit[nd.fbp, RIGHT] = unit.get((nd.fbp, RIGHT), 0) | la[nd.symbol]
            unit[nd.lbp, LEFT] = unit.get((nd.lbp, LEFT), 0) | ra[nd.symbol]
    # every closed extreme of a live or fired event has support; a derived
    # node carries its run's lhs and CaDs, the fired event's closed extremes
    closed = [(ev.cad[side], side, ev.production.lhs.id)
              for ev in chart.events.values() for side in (LEFT, RIGHT) if ev.need[side] is None]
    closed += [(end, side, nd.symbol) for nd in chart.node_list if nd.origin == "derived"
               for side, end in enumerate((nd.fbp, nd.lbp))]
    return any(not unit.get((index, side), 0) >> lhs & 1 for index, side, lhs in closed)


@pytest.mark.parametrize("seeds,limits", [(range(300), None),
                                          (range(30), CaseLimits(max_input=24)),
                                          (range(60), DENSE_40)],
                         ids=["0-299", "long-0-29", "dense-0-59"])
def test_tree_counts_match_earley_on_word_lattices(seeds, limits):
    # random_case adds at most one two-point item to its linear backbone;
    # here items of span 2 to 4 cross it, where a width in breaking points
    # is not a token count, and some closed extremes take their support
    # from such an item alone (the lemma at Chart._support)
    wrong, multi = [], 0
    for seed in seeds:
        grammar, lattice = with_extra_items(seed, limits)
        chart = parse(compile_grammar(grammar), lattice)
        multi += closable_from_multi_point_items_only(chart)
        mine = count_trees(build_forest(chart), cap=10000)
        theirs = earley_count_trees(grammar, lattice, cap=10000)
        if (mine.kind, mine.value) != (theirs.kind, theirs.value):
            wrong.append(seed)
    assert not wrong
    assert multi


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
            full = CompiledGrammar(grammar, reduced.nullable, reduced.lpd, reduced.rpd,
                                   reduced.la, reduced.ra)
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


@pytest.mark.parametrize("seeds,limits,case", [
    (range(500), None, random_case),
    (range(40), CaseLimits(max_input=24), random_case),
    (range(40), CaseLimits(max_input=48), random_case),
    (range(300), None, with_extra_items),
    (range(30), CaseLimits(max_input=24), with_extra_items),
    (range(60), DENSE_40, with_extra_items),
], ids=["0-499", "long-0-39", "long48-0-39", "lattice-0-299", "lattice-long-0-29",
        "lattice-dense-0-59"])
def test_mirror_image_parses_to_the_mirrored_forest(seeds, limits, case):
    # the engine treats both directions alike: parsing the mirror image
    # yields as many trees and the mirrored nodes (counters may differ, as
    # the queues see the events in another order)
    wrong = []
    for seed in seeds:
        grammar, lattice = case(seed, limits)
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


def test_stillborn_keys_stop_the_epsilon_sibling_lattice():
    # B [1,2] anchors T -> A^k . B . A^k q.  Each of its (k+1)^2 nullable
    # expansions waits at 2 for A or q, where only w follows, so each is
    # stillborn, and each is reached by as many spawn paths as there are
    # orders of its dot moves, C(a+b, a) for a moves left and b right.
    # The stillborn key makes each form one test; without it this parse
    # counted 705,431 stillborn forms.
    k = 10
    chart = run(f"%root S\nS -> w B w | w T w ;\nB -> y ;\nT -> {' A' * k} B {' A' * k} q ;\n"
                "A -> | a ;", "w y w")
    assert chart.stats["stillborn"] == (k + 1) ** 2
    assert count_trees(build_forest(chart)).value == 1


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


RIGHT_EDGE = """
    %root S
    S -> a B N | a X ;
    B -> b ;
    X -> M B N c ;
    M -> m | ;
    N -> n | ;
"""

# On "a b" the node B [1,2] made in the cycle ends at the right input edge.
# S -> a B N closes there across N and S may end the input, so its entry
# lives, but its anchor form waits for N at the edge.  X -> M B N c may
# stand after a, so its left side has support, but it cannot close on the
# right: its edge bit rejects all four forms.
RIGHT_EDGE_STILLBORN = [
    "S -> a . B . N @ [1,2]",
    "X -> M . B . N c @ [1,2]", "X -> M . B N . c @ [1,2]",
    "X -> . M B N . c @ [1,2]", "X -> . M B . N c @ [1,2]",
]


def test_entry_dead_at_the_right_edge_only_is_stillborn_without_tests(monkeypatch):
    cg = compile_grammar(load_grammar(RIGHT_EDGE))
    g = cg.grammar
    x, s, n = (g.symbol(name).id for name in "XSN")
    [x_entry] = [e for e in cg.coverage[g.symbol("B").id] if e.production.lhs.id == x]
    assert x_entry.klass == "CO" and x_entry.edge == 0  # X begins no root derivation either
    support, partners = engine.Chart._support, engine.Chart._partners
    asked = []

    def support_spy(chart, index, side, need, lhs):
        if chart.stillborn is not None:
            asked.append(("support", index, side, need, lhs))
        return support(chart, index, side, need, lhs)

    def partners_spy(chart, production, dot, index, side):
        asked.append(("partners", production.lhs.id, dot, index, side))
        return partners(chart, production, dot, index, side)

    monkeypatch.setattr(engine.Chart, "_support", support_spy)
    monkeypatch.setattr(engine.Chart, "_partners", partners_spy)
    chart = init_session(cg, tokenize_plain("a b"), trace=True, debug=True)
    chart.parse_cycle()
    assert chart.stats["stillborn"] == 5
    assert [line for line in chart.trace_lines if line.startswith("stillborn")] == \
        [f"stillborn {form}" for form in RIGHT_EDGE_STILLBORN]
    assert count_trees(build_forest(chart)).value == 1
    # nothing is asked for X's entry, nor for the form waiting for N at the edge
    assert not [a for a in asked if a[0] == "support" and a[4] == x
                or a[0] == "partners" and a[1] == x]
    assert ("support", 2, RIGHT, n, s) not in asked
    assert not [a for a in asked if a[0] == "partners" and a[2:] == ((1, 2), 2, RIGHT)]
    # its sibling, closed at the edge, is built and asked about
    assert ("support", 1, LEFT, g.symbol("a").id, s) in asked
    assert "create e3 S -> a . B N . @ [1,2]" in chart.trace_lines


def test_side_with_only_a_fusion_partner_is_not_stillborn():
    # when Y [1,2] is made, S -> X . Y . @ [1,2] waits for X at 1, where no
    # closed extreme is left (X's event has run); its only evidence is the
    # fusion partner S -> . X . Y @ [0,1]
    chart = run("%root S\nS -> X Y ;\nX -> x ;\nY -> y ;", "x y", trace=True)
    assert "create e3 S -> X . Y . @ [1,2]" in chart.trace_lines
    assert "link fusion e2.R <-> e3.L" in chart.trace_lines
    assert chart.stats["stillborn"] == 0 and chart.stats["fusions"] == 1
    assert count_trees(build_forest(chart)).value == 1


def counters(events_created, events_deleted, events_run, fired_at_once, fusions, stale_fusions,
             epsilon_expansions, links, nodes, packed, packed_at_once, packed_derivations,
             stillborn):
    return dict(locals())


# Counters and stillborn forms, in trace order, of parses where nodes made
# off both input edges have coverage entries none of whose forms has
# evidence: `_new_event` finds each form stillborn, spawning its siblings.
OFF_EDGE_STILLBORN = {
    "recursive/4": (counters(16, 15, 1, 3, 3, 0, 0, 17, 8, 0, 3, 0, 3), [
        "S -> . A1 . b @ [2,3]", "S -> . A1 . b @ [1,3]", "A1 -> a . A1 . @ [0,3]",
    ]),
    "local/4": (counters(6, 6, 0, 6, 3, 0, 0, 10, 10, 0, 6, 0, 3), [
        "S -> . P . @ [0,2]", "S -> . P . S @ [2,4]", "S -> P . S . @ [0,4]",
    ]),
    13: (counters(164, 155, 9, 4, 8, 2, 4, 64, 32, 1, 5, 0, 39), [
        "N4 -> t2 . N2 . t1 @ [0,1]", "N2 -> N4 . N2 . t2 N3 @ [0,1]",
        "N1 -> . N2 . t2 t2 @ [0,1]", "N0 -> t2 . N3 . @ [0,1]", "N1 -> . N3 . t0 @ [0,1]",
        "N2 -> N4 N2 t2 . N3 . @ [0,1]", "N0 -> . N3 . N1 t0 @ [0,1]",
        "N0 -> . N3 N1 . t0 @ [0,1]", "N4 -> t2 . N2 . t1 @ [2,3]",
        "N2 -> N4 . N2 . t2 N3 @ [2,3]", "N1 -> . N2 . t2 t2 @ [2,3]",
        "N4 -> t2 . N2 . t1 @ [4,5]", "N2 -> N4 . N2 . t2 N3 @ [4,5]",
        "N1 -> . N2 . t2 t2 @ [4,5]", "N0 -> N3 . N1 . t0 @ [5,6]",
        "N0 -> . N3 N1 . t0 @ [5,6]", "N2 -> N4 . N2 . t2 N3 @ [5,6]",
        "N1 -> . N2 . t2 t2 @ [5,6]", "N0 -> t2 . N3 . @ [5,6]", "N1 -> . N3 . t0 @ [5,6]",
        "N2 -> N4 N2 t2 . N3 . @ [5,6]", "N0 -> . N3 . N1 t0 @ [5,6]",
        "N0 -> . N3 N1 . t0 @ [5,6]", "N2 -> N4 . N2 . t2 N3 @ [6,7]",
        "N1 -> . N2 . t2 t2 @ [6,7]", "N4 -> t2 . N2 . t1 @ [8,9]",
        "N2 -> N4 . N2 . t2 N3 @ [8,9]", "N1 -> . N2 . t2 t2 @ [8,9]",
        "N0 -> N3 . N1 . t0 @ [0,2]", "N0 -> . N3 N1 . t0 @ [0,2]",
        "N0 -> N3 . N1 . t0 @ [5,8]", "N0 -> . N3 N1 . t0 @ [5,8]",
        "N1 -> t1 t2 . N4 . t2 @ [5,8]", "N2 -> . N4 . N2 t2 N3 @ [5,8]",
        "N0 -> t0 . N4 . @ [5,8]", "N1 -> t1 t2 . N4 . t2 @ [4,8]",
        "N4 -> t2 . N4 . @ [4,8]", "N2 -> . N4 . N2 t2 N3 @ [4,8]",
        "N0 -> t0 . N4 . @ [4,8]",
    ]),
    17: (counters(87, 81, 6, 12, 13, 4, 0, 68, 35, 0, 12, 0, 21), [
        "N1 -> N0 t1 . N4 . @ [3,4]", "N1 -> N0 t1 . N4 . @ [5,6]",
        "N1 -> N0 t1 . N4 . @ [6,7]", "N1 -> N0 t1 . N4 . @ [8,9]",
        "N1 -> N0 t1 . N4 . @ [9,10]", "N0 -> N5 . N1 . @ [2,4]",
        "N0 -> t0 . N0 . t0 @ [2,4]", "N1 -> . N0 . t1 N4 @ [2,4]",
        "N1 -> N0 t1 . N4 . @ [3,5]", "N0 -> N5 . N1 . @ [5,7]",
        "N0 -> t0 . N0 . t0 @ [5,7]", "N1 -> . N0 . t1 N4 @ [5,7]",
        "N1 -> N0 t1 . N4 . @ [6,8]", "N0 -> t0 . N0 . t0 @ [0,3]",
        "N1 -> . N0 . t1 N4 @ [0,3]", "N0 -> t0 . N0 . t0 @ [3,6]",
        "N0 -> N5 . N1 . @ [3,8]", "N0 -> t0 . N0 . t0 @ [3,8]",
        "N1 -> . N0 . t1 N4 @ [3,8]", "N0 -> N5 . N1 . @ [3,9]", "N0 -> . N5 N1 . @ [3,9]",
    ]),
}


@pytest.mark.parametrize("case", list(OFF_EDGE_STILLBORN))
def test_off_edge_entries_without_evidence_are_stillborn_form_by_form(case):
    if isinstance(case, int):
        grammar, lattice = random_case(case)
    else:
        suite, w = case.split("/")
        grammar, lattice = suite_grammar(suite), tokenize_plain(suite_input(suite, int(w)))
    chart = parse(compile_grammar(grammar), lattice, trace=True)
    stats, forms = OFF_EDGE_STILLBORN[case]
    assert chart.stats == stats
    assert [line for line in chart.trace_lines if line.startswith("stillborn")] == \
        [f"stillborn {form}" for form in forms]
    mine = count_trees(build_forest(chart))
    theirs = earley_count_trees(grammar, lattice)
    assert (mine.kind, mine.value) == (theirs.kind, theirs.value)


def test_epsilon_nodes_are_shared_by_the_sessions_of_a_grammar():
    # built when the grammar is compiled or loaded, before any chart
    cg = compile_grammar(load_grammar(OPTIONAL_ENDS))
    for compiled in (cg, relations.load_compiled(relations.save_compiled(cg))):
        eps = compiled.eps_nodes
        assert sorted(eps) == sorted(compiled.nullable) == [compiled.grammar.symbol(name).id
                                                           for name in ("A", "C")]
        assert [eps[sid].id for sid in sorted(eps)] == list(range(len(eps)))
        assert all(nd.fbp == nd.lbp == -1 and len(nd.analyses) == 1 for nd in eps.values())
    first, second = (parse(cg, tokenize_plain(text)) for text in ("a b c", "b"))
    assert first.eps_nodes is second.eps_nodes is cg.eps_nodes
    for chart in (first, second):
        assert chart.node_list[0].id == len(cg.eps_nodes)


def test_parsing_leaves_the_compiled_grammar_unchanged():
    # nothing is cached on the grammar by a chart: every attribute is the
    # object compile_grammar made, and the epsilon nodes, which this input's
    # trees hold, keep their analyses
    grammar, lattice = random_case(6)
    cg = compile_grammar(grammar)
    before = dict(vars(cg))
    skeleton = {sid: list(nd.analyses) for sid, nd in cg.eps_nodes.items()}
    assert skeleton and None not in before.values()
    for _ in range(3):
        count_trees(build_forest(parse(cg, lattice)))
    assert vars(cg).keys() == before.keys()
    assert all(vars(cg)[name] is value for name, value in before.items())
    assert {sid: nd.analyses for sid, nd in cg.eps_nodes.items()} == skeleton
