"""Reference implementations for differential testing.

A deliberately naive Earley recognizer, packed-forest builder and
derivation-tree counter over lattices, plus a seeded generator of random
grammar/input cases.  Nothing
here shares code with the parsing engine or the relation compiler; this
module is the trusted baseline their behavior is checked against.
"""

from __future__ import annotations

import random

from .forest import EPS, FINITE, INFINITE, TreeCount
from .grammar import Grammar, NONTERMINAL, Production, Symbol, TERMINAL
from .lattice import InputLattice, LexicalItem


# -- recognition -------------------------------------------------------------


def _lexical(g: Grammar, lat: InputLattice) -> list[tuple[int, int, int]]:
    """(symbol id, fbp, lbp) of every lattice item whose preterminal is in
    the grammar, in item order; ValueError if one is a nonterminal."""
    out = []
    for it in lat.items:
        sym = g.by_name.get(it.preterminal)
        if sym is None:
            continue
        if sym.kind != TERMINAL:
            raise ValueError(f"lexical item {it.unit!r}: preterminal "
                             f"{it.preterminal!r} is a nonterminal")
        out.append((sym.id, it.fbp, it.lbp))
    return out


def earley_recognize(g: Grammar, lat: InputLattice) -> bool:
    """Classic Earley over a lattice: the scanner consumes any lexical item
    leaving the current breaking point; epsilon productions complete in
    place via the per-position worklist, and a prediction of a nullable
    nonterminal also moves the dot over it (Aycock & Horspool 2002), so no
    completion over [k, k] is missed."""
    n = lat.n
    nullable = _nullable_set(g)
    prods_by_lhs: dict[int, list[Production]] = {}
    for p in g.productions:
        prods_by_lhs.setdefault(p.lhs.id, []).append(p)
    items_from: dict[int, list[tuple[int, int]]] = {}  # fbp -> (symbol id, lbp) per item
    for sid, fbp, lbp in _lexical(g, lat):
        items_from.setdefault(fbp, []).append((sid, lbp))

    charts: list[set] = [set() for _ in range(n + 1)]  # items (prod_id, dot, origin)
    waiting: dict[tuple[int, int], list] = {}          # (pos, symbol id) -> items

    def add(pos, item, todo):
        if item not in charts[pos]:
            charts[pos].add(item)
            todo.append(item)

    for k in range(n + 1):
        todo = list(charts[k])
        if k == 0:
            for r in g.roots:
                for p in prods_by_lhs.get(r.id, ()):
                    add(0, (p.id, 0, 0), todo)
        while todo:
            pid, dot, origin = todo.pop()
            prod = g.productions[pid]
            if dot == len(prod.rhs):
                # complete
                for (wpid, wdot, worigin) in list(waiting.get((origin, prod.lhs.id), ())):
                    add(k, (wpid, wdot + 1, worigin), todo)
                continue
            nxt = prod.rhs[dot]
            waiting.setdefault((k, nxt.id), []).append((pid, dot, origin))
            if nxt.kind == NONTERMINAL:
                for p2 in prods_by_lhs.get(nxt.id, ()):
                    add(k, (p2.id, 0, k), todo)
                if nxt.id in nullable:
                    add(k, (pid, dot + 1, origin), todo)
            else:
                for sid, lbp in items_from.get(k, ()):
                    if sid == nxt.id:
                        charts[lbp].add((pid, dot + 1, origin))
    for (pid, dot, origin) in charts[n]:
        prod = g.productions[pid]
        if origin == 0 and dot == len(prod.rhs) and prod.lhs in g.roots:
            return True
    return n == 0 and any(nullable & {r.id for r in g.roots})


def _nullable_set(g: Grammar) -> set[int]:
    nullable: set[int] = set()
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            if p.lhs.id not in nullable and all(s.id in nullable for s in p.rhs):
                nullable.add(p.lhs.id)
                changed = True
    return nullable


# -- derivability table (shared by the forest, counting and enumeration) ------


def _derivable(g: Grammar, lat: InputLattice) -> set[tuple[int, int, int]]:
    """(symbol id, i, j) spans derivable over the lattice, i < j; zero-width
    derivability is exactly nullability."""
    nullable = _nullable_set(g)
    spans = set(_lexical(g, lat))
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            for i in range(lat.points):
                reach = {i}
                for s in p.rhs:
                    nxt = set()
                    for m in reach:
                        if s.id in nullable:
                            nxt.add(m)
                        for mm in range(m + 1, lat.points):
                            if (s.id, m, mm) in spans:
                                nxt.add(mm)
                    reach = nxt
                    if not reach:
                        break
                for j in reach:
                    if j > i and (p.lhs.id, i, j) not in spans:
                        spans.add((p.lhs.id, i, j))
                        changed = True
    return spans


def _splits(g: Grammar, spans, nullable, prod: Production, i: int, j: int):
    """All ways to tile [i, j] with the rhs of prod: sequences of (sym id,
    from, to) with zero-width entries for nullable symbols deriving empty."""
    results: list[list[tuple[int, int, int]]] = []

    def go(pos, at, acc):
        if pos == len(prod.rhs):
            if at == j:
                results.append(list(acc))
            return
        s = prod.rhs[pos]
        if s.id in nullable:
            acc.append((s.id, at, at))
            go(pos + 1, at, acc)
            acc.pop()
        for to in range(at + 1, j + 1):
            if (s.id, at, to) in spans:
                acc.append((s.id, at, to))
                go(pos + 1, to, acc)
                acc.pop()

    go(0, i, [])
    return results


# -- the packed forest ---------------------------------------------------------

def earley_forest(g: Grammar, lat: InputLattice) -> dict[tuple, frozenset]:
    """The packed forest of every tree under the roots, node by node from
    the roots down: each node's key, (symbol id, i, j) for a span i < j and
    (symbol id, EPS) for a zero-width one, mapped to its analyses, a set of
    (production id, child keys), one per production and split; a lexical
    item's node has none."""
    nullable = _nullable_set(g)
    spans = _derivable(g, lat)
    prods_by_lhs: dict[int, list[Production]] = {}
    for p in g.productions:
        prods_by_lhs.setdefault(p.lhs.id, []).append(p)
    if lat.n == 0:
        todo = [(r.id, EPS) for r in g.roots if r.id in nullable]
    else:
        todo = [(r.id, 0, lat.n) for r in g.roots if (r.id, 0, lat.n) in spans]
    forest: dict[tuple, frozenset] = {}
    while todo:
        key = todo.pop()
        if key in forest:
            continue
        analyses = set()
        for p in prods_by_lhs.get(key[0], ()):
            if key[1] == EPS:
                if all(s.id in nullable for s in p.rhs):
                    analyses.add((p.id, tuple((s.id, EPS) for s in p.rhs)))
                continue
            for split in _splits(g, spans, nullable, p, key[1], key[2]):
                analyses.add((p.id, tuple((sid, i, j) if i < j else (sid, EPS)
                                          for sid, i, j in split)))
        forest[key] = frozenset(analyses)
        for _, children in analyses:
            todo.extend(children)
    return forest


# -- counting -----------------------------------------------------------------


def earley_count_trees(g: Grammar, lat: InputLattice, cap: int = 10000) -> TreeCount:
    """Derivation-tree count with the same identity semantics as the
    forest: trees differ iff their (production, split) structure differs;
    zero-width subderivations are position-independent."""
    nullable = _nullable_set(g)
    spans = _derivable(g, lat)
    prods_by_lhs: dict[int, list[Production]] = {}
    for p in g.productions:
        prods_by_lhs.setdefault(p.lhs.id, []).append(p)
    lex = set(_lexical(g, lat))
    nonterminal_ids = {s.id for s in g.nonterminals}

    INF = "inf"
    memo: dict[tuple, object] = {}
    in_progress: set[tuple] = set()

    def count_eps(sid) -> object:
        key = (sid, "eps")
        if key in memo:
            return memo[key]
        if key in in_progress:
            return INF
        if sid not in nonterminal_ids:
            return 0
        in_progress.add(key)
        total: object = 0
        for p in prods_by_lhs.get(sid, ()):
            if not all(s.id in nullable for s in p.rhs):
                continue
            prod_count: object = 1
            for s in p.rhs:
                c = count_eps(s.id)
                prod_count = INF if (c == INF or prod_count == INF) else prod_count * c
            total = INF if (total == INF or prod_count == INF) else total + prod_count
        in_progress.discard(key)
        memo[key] = total
        return total

    def count(sid, i, j) -> object:
        if i == j:
            return count_eps(sid)
        key = (sid, i, j)
        if key in memo:
            return memo[key]
        if key in in_progress:
            return INF
        in_progress.add(key)
        total: object = 1 if (sid, i, j) in lex else 0
        for p in prods_by_lhs.get(sid, ()):
            for split in _splits(g, spans, nullable, p, i, j):
                prod_count: object = 1
                for (cid, ci, cj) in split:
                    c = count(cid, ci, cj)
                    prod_count = INF if (c == INF or prod_count == INF) else prod_count * c
                total = INF if (total == INF or prod_count == INF) else total + prod_count
        in_progress.discard(key)
        memo[key] = total
        return total

    total: object = 0
    for r in g.roots:
        c = count_eps(r.id) if lat.n == 0 else count(r.id, 0, lat.n)
        total = INF if (total == INF or c == INF) else total + c
    if total == INF:
        return TreeCount(INFINITE)
    return TreeCount.of(total, cap)


# -- bounded enumeration -------------------------------------------------------


def earley_enumerate(g: Grammar, lat: InputLattice, limit: int = 100) -> list[tuple]:
    """Up to `limit` derivation trees as (symbol-name, i, j, children)
    tuples; a derivation never revisits a (symbol, span) on its own
    ancestor path."""
    nullable = _nullable_set(g)
    spans = _derivable(g, lat)
    prods_by_lhs: dict[int, list[Production]] = {}
    for p in g.productions:
        prods_by_lhs.setdefault(p.lhs.id, []).append(p)
    lex = set(_lexical(g, lat))
    names = {s.id: s.name for s in g.symbols}
    nonterminal_ids = {s.id for s in g.nonterminals}
    out: list[tuple] = []

    def expand(sid, i, j, path):
        key = (sid, i, j)
        if key in path:
            return
        if (sid, i, j) in lex:
            yield (names[sid], i, j, ())
        if sid not in nonterminal_ids:
            return
        sub = path | {key}
        for p in prods_by_lhs.get(sid, ()):
            if i == j:
                if not all(s.id in nullable for s in p.rhs):
                    continue
                splits = [[(s.id, i, i) for s in p.rhs]]
            else:
                splits = _splits(g, spans, nullable, p, i, j)
            for split in splits:
                for kids in _tuple_product(split, sub, expand):
                    yield (names[sid], i, j, kids)

    def _tuple_product(split, path, rec, idx=0):
        if idx == len(split):
            yield ()
            return
        cid, ci, cj = split[idx]
        for head in rec(cid, ci, cj, path):
            for rest in _tuple_product(split, path, rec, idx + 1):
                yield (head,) + rest

    for r in g.roots:
        for tree in expand(r.id, 0, lat.n, frozenset()):
            out.append(tree)
            if len(out) >= limit:
                return out
    return out


# -- exhaustive derivation search (the oracle's own oracle) ---------------------


def derives_exhaustive(g: Grammar, tokens: list[str], depth: int = 12,
                       max_len: int | None = None) -> bool:
    """Top-down breadth-limited search for a derivation of the token
    sequence; only usable on tiny grammars and inputs."""
    if max_len is None:
        max_len = len(tokens) + 3
    target = tuple(tokens)
    prods_by_lhs: dict[int, list[Production]] = {}
    for p in g.productions:
        prods_by_lhs.setdefault(p.lhs.id, []).append(p)

    seen = set()

    def search(form: tuple[Symbol, ...], d: int) -> bool:
        names = tuple(s.name for s in form)
        if all(s.kind == TERMINAL for s in form):
            return names == target
        if d == 0 or len([s for s in form if s.kind == TERMINAL]) > len(target):
            return False
        if len(form) > max_len + 4:
            return False
        key = (names, d)
        if key in seen:
            return False
        seen.add(key)
        idx = next(i for i, s in enumerate(form) if s.kind == NONTERMINAL)
        for p in prods_by_lhs.get(form[idx].id, ()):
            if search(form[:idx] + p.rhs + form[idx + 1:], d - 1):
                return True
        return False

    return any(search((r,), depth) for r in g.roots)


# -- random case generation ------------------------------------------------------


class CaseLimits:
    def __init__(self, max_nonterminals=8, max_productions=20, max_rhs=4,
                 eps_probability=0.2, max_input=12, max_fanout=3, max_terminals=4):
        self.max_nonterminals = max_nonterminals
        self.max_productions = max_productions
        self.max_rhs = max_rhs
        self.eps_probability = eps_probability
        self.max_input = max_input
        self.max_fanout = max_fanout
        self.max_terminals = max_terminals


def random_case(seed: int, limits: CaseLimits | None = None) -> tuple[Grammar, InputLattice]:
    """Reproducible random grammar plus input lattice.  About half of the
    inputs are sampled from the grammar's own language (so the suite keeps
    a healthy grammatical/non-grammatical mix); the rest are random token
    strings over the grammar's terminals."""
    limits = limits or CaseLimits()
    rng = random.Random(seed)
    nt_count = rng.randint(1, limits.max_nonterminals)
    t_count = rng.randint(1, limits.max_terminals)
    names = [f"N{i}" for i in range(nt_count)] + [f"t{i}" for i in range(t_count)]
    symbols = [Symbol(i, nm, NONTERMINAL if nm.startswith("N") else TERMINAL)
               for i, nm in enumerate(names)]
    nts = symbols[:nt_count]
    all_syms = symbols

    productions: list[Production] = []

    def random_rhs():
        if rng.random() < limits.eps_probability:
            return ()
        length = rng.randint(1, limits.max_rhs)
        # lean toward terminals so languages stay mostly finite-ish
        return tuple(rng.choice(all_syms if rng.random() < 0.55 else symbols[nt_count:])
                     for _ in range(length))

    for nt in nts:  # every nonterminal gets at least one production
        productions.append(Production(len(productions), nt, random_rhs()))
    extra = rng.randint(0, max(0, limits.max_productions - nt_count))
    for _ in range(extra):
        productions.append(Production(len(productions), rng.choice(nts), random_rhs()))

    grammar = Grammar(symbols, productions, [nts[0]])

    tokens = _sample_tokens(grammar, rng, limits)
    items = []
    terminals = grammar.terminals
    for i, cat in enumerate(tokens):
        cats = {cat}
        while len(cats) < rng.randint(1, limits.max_fanout) and len(cats) < len(terminals):
            cats.add(rng.choice(terminals).name)
        for c in sorted(cats):
            items.append(LexicalItem(f"w{i}", c, i, i + 1))
    # occasionally drop in a multi-point item on top of the backbone
    if len(tokens) >= 2 and rng.random() < 0.3:
        start = rng.randrange(0, len(tokens) - 1)
        items.append(LexicalItem(f"w{start}_{start + 1}",
                                 rng.choice(terminals).name, start, start + 2))
    return grammar, InputLattice(len(tokens) + 1, items)


def _sample_tokens(grammar: Grammar, rng: random.Random, limits: CaseLimits) -> list[str]:
    terminals = grammar.terminals
    if rng.random() < 0.5:
        # try to sample a sentence from the language
        prods_by_lhs: dict[int, list[Production]] = {}
        for p in grammar.productions:
            prods_by_lhs.setdefault(p.lhs.id, []).append(p)
        for _ in range(8):
            form = [grammar.roots[0]]
            ok = True
            for _ in range(60):
                idx = next((i for i, s in enumerate(form) if s.kind == NONTERMINAL), None)
                if idx is None:
                    break
                choice = rng.choice(prods_by_lhs[form[idx].id])
                form[idx:idx + 1] = list(choice.rhs)
                if len(form) > limits.max_input + 6:
                    ok = False
                    break
            else:
                ok = False
            if ok and all(s.kind == TERMINAL for s in form) and len(form) <= limits.max_input:
                return [s.name for s in form]
    length = rng.randint(0, limits.max_input)
    if not terminals:
        return []
    return [rng.choice(terminals).name for _ in range(length)]
