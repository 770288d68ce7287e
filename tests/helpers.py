"""Brute-force relation oracles for differential tests.

These recompute nullability, partial derivability, adjacency and boundary
sets by enumerating sentential forms, sharing no code with the fixpoint
implementations they check.  Only usable on very small grammars.  Each
symbol's sentential forms are enumerated once per grammar and shared by
all the oracles.
"""

import random
import weakref

from scparse.grammar import Grammar, NONTERMINAL, Production, Symbol, TERMINAL

MAX_FORM = 7


def reachable_forms(g: Grammar, start: tuple) -> set:
    """All sentential forms (tuples of symbol ids) derivable from `start`
    by single-production expansions, up to MAX_FORM symbols."""
    prods_by_lhs = {}
    for p in g.productions:
        prods_by_lhs.setdefault(p.lhs.id, []).append(p)
    nonterminal_ids = {s.id for s in g.nonterminals}
    seen = {start}
    frontier = [start]
    while frontier:
        form = frontier.pop()
        for i, sid in enumerate(form):
            if sid not in nonterminal_ids:
                continue
            for p in prods_by_lhs.get(sid, ()):
                new = form[:i] + tuple(s.id for s in p.rhs) + form[i + 1:]
                if len(new) <= MAX_FORM and new not in seen:
                    seen.add(new)
                    frontier.append(new)
    return seen


_FORMS = weakref.WeakKeyDictionary()


def symbol_forms(g: Grammar) -> dict:
    """reachable_forms of every symbol alone, by symbol id, enumerated once
    per grammar."""
    forms = _FORMS.get(g)
    if forms is None:
        forms = _FORMS[g] = {s.id: reachable_forms(g, (s.id,)) for s in g.symbols}
    return forms


def oracle_nullable(g: Grammar) -> set:
    forms = symbol_forms(g)
    return {s.id for s in g.nonterminals if () in forms[s.id]}


def oracle_lpd(g: Grammar) -> dict:
    """lpd[alpha] = symbols that can derive something starting with alpha."""
    out = {s.id: {s.id} for s in g.symbols}
    for beta, forms in symbol_forms(g).items():
        for form in forms:
            if form:
                out[form[0]].add(beta)
    return out


def oracle_rpd(g: Grammar) -> dict:
    out = {s.id: {s.id} for s in g.symbols}
    for beta, forms in symbol_forms(g).items():
        for form in forms:
            if form:
                out[form[-1]].add(beta)
    return out


def oracle_primary_pairs(g: Grammar, nullable: set) -> set:
    pairs = set()
    for p in g.productions:
        for i in range(len(p.rhs)):
            for j in range(i + 1, len(p.rhs)):
                if all(s.id in nullable for s in p.rhs[i + 1:j]):
                    pairs.add((p.rhs[i].id, p.rhs[j].id))
    return pairs


def oracle_adjacency(g: Grammar) -> tuple:
    nullable = oracle_nullable(g)
    lpd = oracle_lpd(g)
    rpd = oracle_rpd(g)
    pairs = oracle_primary_pairs(g, nullable)
    la = {s.id: set() for s in g.symbols}
    ra = {s.id: set() for s in g.symbols}
    for alpha in g.symbols:
        for beta in g.symbols:
            if any((delta, gamma) in pairs
                   for gamma in lpd[alpha.id] for delta in rpd[beta.id]):
                la[alpha.id].add(beta.id)
            if any((gamma, delta) in pairs
                   for gamma in rpd[alpha.id] for delta in lpd[beta.id]):
                ra[alpha.id].add(beta.id)
    return la, ra


def oracle_boundaries(g: Grammar) -> tuple:
    lpd = oracle_lpd(g)
    rpd = oracle_rpd(g)
    roots = {r.id for r in g.roots}
    lm = {s.id for s in g.symbols if lpd[s.id] & roots}
    rm = {s.id for s in g.symbols if rpd[s.id] & roots}
    return lm, rm


def random_small_grammar(seed: int) -> Grammar:
    """Tiny random grammar suitable for the exhaustive oracles above."""
    rng = random.Random(seed)
    nt = rng.randint(1, 3)
    t = rng.randint(1, 3)
    symbols = [Symbol(i, f"N{i}", NONTERMINAL) for i in range(nt)]
    symbols += [Symbol(nt + i, f"t{i}", TERMINAL) for i in range(t)]
    nts = symbols[:nt]
    prods = []

    def rhs():
        if rng.random() < 0.25:
            return ()
        return tuple(rng.choice(symbols) for _ in range(rng.randint(1, 2)))

    for s in nts:
        prods.append(Production(len(prods), s, rhs()))
    for _ in range(rng.randint(0, 4)):
        prods.append(Production(len(prods), rng.choice(nts), rhs()))
    return Grammar(symbols, prods, [nts[0]])

