import random

import pytest

from helpers import (oracle_adjacency, oracle_boundaries, oracle_lpd,
                     oracle_nullable, oracle_rpd, random_small_grammar)
from scparse import build_forest, compile_grammar, count_trees, load_grammar, parse
from scparse.engine import needs
from scparse.grammar import TERMINAL, GrammarError
from scparse.oracle import CaseLimits, random_case
from scparse.relations import (CC, CLASSES, CO, OC, OO, compute_nullable,
                               dump_relations, load_compiled, primary_pairs,
                               save_compiled, useful_productions)


# -- frozen values for the right/left-recursion grammar -----------------------

def test_nullable_empty_for_g2(g2_compiled):
    assert g2_compiled.nullable_names() == frozenset()


def test_lpd_values(g2_compiled):
    assert g2_compiled.lpd_names("a") == {"a", "A1", "A2", "S"}
    assert g2_compiled.lpd_names("b") == {"b"}
    assert g2_compiled.lpd_names("A1") == {"A1", "S"}


def test_rpd_values(g2_compiled):
    assert g2_compiled.rpd_names("b") == {"b", "S"}
    assert g2_compiled.rpd_names("a") == {"a", "A1", "A2"}


def test_adjacency_values(g2_compiled):
    assert g2_compiled.la_names("b") == {"A1", "a"}
    assert g2_compiled.ra_names("A2") == {"c"}
    assert g2_compiled.ra_names("a") == {"a", "A1", "A2", "b", "c"}


def test_boundary_values(g2_compiled):
    assert g2_compiled.lm_names() == {"a", "A1", "A2", "S"}
    assert g2_compiled.rm_names() == {"b", "c", "S"}


def test_primary_pairs(g2):
    nullable = compute_nullable(g2)
    pairs = {(g2.symbols[a].name, g2.symbols[b].name)
             for a, b in primary_pairs(g2, nullable)}
    assert pairs == {("a", "A1"), ("a", "A2"), ("A1", "b"), ("A2", "c")}


def test_coverage_g2(g2_compiled):
    g = g2_compiled.grammar

    def entries(name):
        return {(e.klass, str(e.production), e.position)
                for e in g2_compiled.coverage[g.symbol(name).id]}

    assert entries("a") == {
        (CC, "A1 -> a", 0), (CC, "A2 -> a", 0),
        (CO, "A1 -> a A1", 0), (CO, "A2 -> a A2", 0),
    }
    assert entries("b") == {(OC, "S -> A1 b", 1)}
    assert entries("A1") == {(CO, "S -> A1 b", 0), (OC, "A1 -> a A1", 1)}
    assert entries("A2") == {(CO, "S -> A2 c", 0), (OC, "A2 -> a A2", 1)}
    # every G2 production is useful: the reduction drops nothing
    assert useful_productions(g) == {p.id for p in g.productions}
    assert entries("c") == {(OC, "S -> A2 c", 1)} and entries("S") == set()


# S -> U W is unproductive (U derives no terminal string), and so is
# U -> b U; V -> d is unreachable, and W -> c is reachable only through
# the unproductive S -> U W.  Only S -> a is useful.
USELESS = """
    %root S
    S -> a | U W ;
    U -> b U ;
    W -> c ;
    V -> d ;
"""


def test_useless_productions_have_no_coverage():
    cg = compile_grammar(load_grammar(USELESS))
    g = cg.grammar
    assert [str(g.productions[i]) for i in sorted(useful_productions(g))] == ["S -> a"]
    assert {s.name: [str(e.production) for e in cg.coverage[s.id]] for s in g.symbols
            if cg.coverage[s.id]} == {"a": ["S -> a"]}
    # the relation tables still come from the whole grammar
    assert cg.lpd_names("c") == {"c", "W"}
    assert cg.lm_names() == {"S", "U", "a", "b"}


def naive_useful(g):
    """Productive productions by sweeps to a fixpoint, then those whose lhs
    sweeps through them reach from a root."""
    productive, changed = set(), True
    while changed:
        changed = False
        for p in g.productions:
            if p.lhs.id not in productive and all(
                    s.kind == TERMINAL or s.id in productive for s in p.rhs):
                productive.add(p.lhs.id)
                changed = True
    kept = [p for p in g.productions
            if all(s.kind == TERMINAL or s.id in productive for s in p.rhs)]
    reached, changed = {r.id for r in g.roots}, True
    while changed:
        changed = False
        for p in kept:
            if p.lhs.id in reached and not {s.id for s in p.rhs} <= reached:
                reached |= {s.id for s in p.rhs}
                changed = True
    return {p.id for p in kept if p.lhs.id in reached}


@pytest.mark.parametrize("seed", range(100))
def test_useful_productions_match_a_naive_reduction(seed):
    for g in (random_small_grammar(seed), random_case(seed)[0]):
        assert useful_productions(g) == naive_useful(g)


def test_dump_relations_lists_useless_productions(g2_compiled):
    dump = dump_relations(compile_grammar(load_grammar(USELESS)))
    assert dump.splitlines()[-1] == "useless = {S -> U W, U -> b U, V -> d, W -> c}"
    assert "coverage(c)" not in dump
    assert dump_relations(g2_compiled).splitlines()[-1] == "useless = {}"


def test_coverage_nullable_neighbors():
    g = load_grammar("""
        %root S
        S -> A x A ;
        A -> ;
    """)
    cg = compile_grammar(g)
    [entry] = cg.coverage[g.symbol("x").id]
    assert entry.klass == CC


def edge_bits_by_rhs(cg, entry) -> int:
    """An entry's edge bits recomputed from its production's rhs: bit 0 (1)
    when every symbol left (right) of the anchor is nullable and the lhs
    is in lm (rm)."""
    rhs, pos, lhs = entry.production.rhs, entry.position, entry.production.lhs.id
    left = all(s.id in cg.nullable for s in rhs[:pos]) and cg.lm >> lhs & 1
    right = all(s.id in cg.nullable for s in rhs[pos + 1:]) and cg.rm >> lhs & 1
    return int(left) | int(right) << 1


@pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200)], ids=["0-99", "100-199"])
def test_coverage_edge_bits_follow_the_rhs(seeds):
    counts = [0] * 4
    for seed in seeds:
        cg = compile_grammar(random_case(seed)[0])
        for compiled in (cg, load_compiled(save_compiled(cg))):
            for sym, entries in enumerate(compiled.coverage):
                for e in entries:
                    assert e.production.rhs[e.position].id == sym
                    assert e.edge == edge_bits_by_rhs(compiled, e), (seed, str(e.production))
                    counts[e.edge] += 1
    # every combination of the two bits occurs
    assert all(counts)


def outer_dots_by_walk(cg, entry) -> tuple[int, int]:
    """An entry's outermost dots, found by trying every dot: the smallest
    left dot (largest right dot) with only nullable symbols between it and
    the anchor."""
    rhs, pos = entry.production.rhs, entry.position

    def nullable(i, j):
        return all(s.id in cg.nullable for s in rhs[i:j])
    return (min(d for d in range(pos + 1) if nullable(d, pos)),
            max(d for d in range(pos + 1, len(rhs) + 1) if nullable(pos + 1, d)))


def forms_by_needs(cg, entry) -> int:
    """The number of an entry's forms, as a walk over what its dots wait for
    counts them: on each side, the anchor's dot and every dot reached by
    stepping outward while the symbol it waits for is nullable."""
    counts = []
    for side, step in ((0, -1), (1, 1)):
        dot = [entry.position, entry.position + 1]
        count = 1
        while needs(entry.production, dot)[side] in cg.nullable:
            dot[side] += step
            count += 1
        counts.append(count)
    return counts[0] * counts[1]


@pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200)], ids=["0-99", "100-199"])
def test_coverage_outer_dots_follow_the_nullable_symbols(seeds):
    spread = 0
    for seed in seeds:
        cg = compile_grammar(random_case(seed)[0])
        for compiled in (cg, load_compiled(save_compiled(cg))):
            for entries in compiled.coverage:
                for e in entries:
                    where = (seed, str(e.production), e.position)
                    assert (e.lo, e.hi) == outer_dots_by_walk(compiled, e), where
                    forms = (e.position - e.lo + 1) * (e.hi - e.position)
                    assert forms == forms_by_needs(compiled, e), where
                    assert e.klass == CLASSES[e.lo == 0][e.hi == len(e.production.rhs)], where
                    spread += forms > 1
    # many entries have epsilon siblings
    assert spread > 100


def test_coverage_interior_occurrence():
    g = load_grammar("%root S\nS -> a x b ;")
    cg = compile_grammar(g)
    [entry] = cg.coverage[g.symbol("x").id]
    assert entry.klass == OO


def test_nullable_chain():
    g = load_grammar("""
        %root S
        S -> A B ;
        A -> B B ;
        B -> | x ;
    """)
    cg = compile_grammar(g)
    assert cg.nullable_names() == {"S", "A", "B"}


def test_unit_cycle_terminates():
    g = load_grammar("""
        %root A
        A -> B | x ;
        B -> A ;
    """)
    cg = compile_grammar(g)
    assert cg.lpd_names("x") == {"x", "A", "B"}


# -- the sweep fixpoint is independent of edge order ---------------------------

def name_tables(cg):
    """Every relation table, keyed by symbol names rather than ids."""
    g = cg.grammar
    rows = {s.name: (cg.lpd_names(s.name), cg.rpd_names(s.name),
                     cg.la_names(s.name), cg.ra_names(s.name)) for s in g.symbols}
    return rows, cg.nullable_names(), cg.lm_names(), cg.rm_names()


@pytest.mark.parametrize("seed", range(100))
def test_tables_do_not_depend_on_production_order(seed):
    grammar, _ = random_case(seed)
    lines = [f"{p.lhs.name} -> {' '.join(s.name for s in p.rhs)} ;" for p in grammar.productions]
    random.Random(seed).shuffle(lines)
    header = ["%root " + " ".join(r.name for r in grammar.roots),
              "%terminal " + " ".join(t.name for t in grammar.terminals)]
    shuffled = load_grammar("\n".join(header + lines))
    assert name_tables(compile_grammar(shuffled)) == name_tables(compile_grammar(grammar))


@pytest.mark.parametrize("order", ["top-down", "bottom-up"])
def test_long_chain_closes_in_either_order(order):
    # N0 -> N1 b, ..., N198 -> N199 b, N199 -> a: a is the left corner of
    # every N, and only the chain's full length carries S's pair (b, N0)
    # down to a
    lines = ["S -> b N0 ;"] + [f"N{i} -> N{i + 1} b ;" for i in range(199)] + ["N199 -> a ;"]
    if order == "bottom-up":
        lines.reverse()
    cg = compile_grammar(load_grammar("%root S\n" + "\n".join(lines)))
    chain = {f"N{i}" for i in range(200)}
    assert cg.lpd_names("a") == chain | {"a"}
    assert cg.lpd_names("N100") == {f"N{i}" for i in range(101)}
    assert cg.la_names("a") == {"b"}
    assert cg.la_names("b") == chain - {"N0"} | {"a", "b"}
    assert cg.ra_names("b") == chain | {"a", "b"}


# -- serialization -------------------------------------------------------------

def test_compiled_round_trip(g2_compiled):
    text = save_compiled(g2_compiled)
    back = load_compiled(text)
    assert save_compiled(back) == text
    assert back.la_names("b") == {"A1", "a"}
    assert back.nullable == g2_compiled.nullable


def coverage_fields(cg):
    return [[(e.production.id, e.position, e.klass, e.edge, e.lo, e.hi) for e in entries]
            for entries in cg.coverage]


def parse_outcome(cg, lattice):
    """The accepted roots (symbol and span), tree count and counters of a parse."""
    chart = parse(cg, lattice)
    count = count_trees(build_forest(chart), cap=10000)
    roots = [(n.symbol, n.fbp, n.lbp) for n in chart.accept()]
    return roots, (count.kind, count.value), chart.stats


@pytest.mark.parametrize("seeds,limits", [(range(200), None),
                                          (range(20), CaseLimits(max_input=24))],
                         ids=["0-199", "long-0-19"])
def test_loaded_table_derives_the_compiled_tables(seeds, limits):
    # a saved table holds the fixpoints only; the loader derives coverage
    # and lm / rm with the compiler's code, so it parses the same
    for seed in seeds:
        grammar, lattice = random_case(seed, limits)
        compiled = compile_grammar(grammar)
        text = save_compiled(compiled)
        assert not {"coverage", "lm", "rm"} & {line.split()[0] for line in text.splitlines()}
        loaded = load_compiled(text)
        assert coverage_fields(loaded) == coverage_fields(compiled), seed
        assert (loaded.lm, loaded.rm) == (compiled.lm, compiled.rm), seed
        assert parse_outcome(loaded, lattice) == parse_outcome(compiled, lattice), seed


def mutate_line(rng, lines):
    """One random edit of one line of a saved table."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    kind = rng.randrange(6)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2 and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif kind == 3:
        lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    elif tokens:
        j = rng.randrange(len(tokens))
        pool = ["", "-1", "x", "0", "1", "2", "99", "ff", "1_0", "CC", "terminal",
                rng.choice(rng.choice(lines).split() or ["end"])]
        if kind == 4:
            tokens[j] = rng.choice(pool)
        else:
            tokens.insert(j, rng.choice(pool))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_load_compiled_rejects_mutations_with_grammar_error():
    grammar, _ = random_case(3)
    text = save_compiled(compile_grammar(grammar))
    lines = text.splitlines()
    rng = random.Random(0)
    loaded = []
    for _ in range(2000):
        mutated = mutate_line(rng, lines)
        try:
            load_compiled(mutated)
        except GrammarError:
            continue
        loaded.append(mutated)
    # the digest catches the edits that leave a well-formed table
    assert all(mutated == text for mutated in loaded)


def test_dump_relations_contains_examples(g2_compiled):
    dump = dump_relations(g2_compiled)
    assert "LA(b) = {A1, a}" in dump
    assert "RA(A2) = {c}" in dump


# -- brute force equivalence ----------------------------------------------------

@pytest.mark.parametrize("seed", range(100))
def test_fixpoints_match_derivation_enumeration(seed):
    g = random_small_grammar(seed)
    cg = compile_grammar(g)
    assert set(cg.nullable) == oracle_nullable(g)
    lpd_o, rpd_o = oracle_lpd(g), oracle_rpd(g)
    for s in g.symbols:
        assert {t.id for t in g.symbols if cg.lpd[s.id] >> t.id & 1} == lpd_o[s.id], s
        assert {t.id for t in g.symbols if cg.rpd[s.id] >> t.id & 1} == rpd_o[s.id], s
    la_o, ra_o = oracle_adjacency(g)
    for s in g.symbols:
        assert {t.id for t in g.symbols if cg.la[s.id] >> t.id & 1} == la_o[s.id], s
        assert {t.id for t in g.symbols if cg.ra[s.id] >> t.id & 1} == ra_o[s.id], s
    lm_o, rm_o = oracle_boundaries(g)
    assert {t.id for t in g.symbols if cg.lm >> t.id & 1} == lm_o
    assert {t.id for t in g.symbols if cg.rm >> t.id & 1} == rm_o
