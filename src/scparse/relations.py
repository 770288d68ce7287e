"""Grammar relation fixpoints and coverage tables.

Everything the parser needs to prune work is built here, when a grammar
is compiled or loaded (CompiledGrammar); parsing only reads it.  A saved
table stores the fixpoints, nullable to la / ra; the tables after them
take one pass over the grammar and are derived again on load:

  nullable     symbols deriving the empty string
  lpd / rpd    left / right partial derivability: a symbol together with
               every ancestor reachable through a left / right corner
               chain, skipping nullable siblings (reflexive, transitive)
  la / ra      symbols that may appear immediately left / right of a
               symbol in some derivation
  lm / rm      symbols that can begin / end a root derivation
  coverage     per-symbol production-occurrence entries that drive event
               creation, classified by the nullability of the prefix and
               suffix around the occurrence (CC / CO / OC / OO), with
               input-edge bits and the outermost dots of the entry's forms
               (lo / hi); only useful productions, those in some complete
               derivation of a root, have entries
  eps_nodes    the zero-width node of each nullable symbol, with its
               empty derivations

Relation tables are dense bitsets (Python ints) indexed by symbol id, so
the runtime membership tests are single mask operations.  Every relation
table is a least fixpoint over the corner edges, computed by the one
round-robin sweep of _closure (Kam & Ullman 1976).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .grammar import (NONTERMINAL, TERMINAL, Analysis, Grammar, GrammarError, Node, Production,
                      Symbol)

# Coverage occurrence classes: first letter = left context, second = right;
# C(losed) means the context is empty-or-nullable, O(pen) means it contains
# a non-nullable symbol.
CC = "CC"
CO = "CO"
OC = "OC"
OO = "OO"
CLASSES = ((OO, OC), (CO, CC))  # [left context closed][right context closed]


@dataclass(slots=True)  # never changed; not frozen, which makes building one 3x slower
class CoverageEntry:
    production: Production
    position: int  # rhs index of the anchor occurrence
    klass: str     # CC / CO / OC / OO
    edge: int      # bit 0 (1): it can live at the left (right) input edge, as it
                   # closes there (C) and its lhs is in lm (rm)
    lo: int        # the outermost left (right) dot of its forms: the anchor's
    hi: int        # dot moved outward over every nullable symbol beside it


def compute_nullable(g: Grammar) -> frozenset[int]:
    """Least fixpoint of: a symbol is nullable iff some production for it
    has an all-nullable (possibly empty) body."""
    nullable: set[int] = set()
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            if p.lhs.id in nullable:
                continue
            if all(s.id in nullable for s in p.rhs):
                nullable.add(p.lhs.id)
                changed = True
    return frozenset(nullable)


def _corner_edges(g: Grammar, nullable: frozenset[int], reverse: bool) -> list[tuple[int, int]]:
    """(corner, lhs) pairs for every occurrence reachable from the rhs
    boundary across nullable symbols only.  reverse=True walks from the
    right end."""
    edges = []
    for p in g.productions:
        rhs = p.rhs
        positions = range(len(rhs) - 1, -1, -1) if reverse else range(len(rhs))
        for pos in positions:
            sym = rhs[pos]
            edges.append((sym.id, p.lhs.id))
            if sym.id not in nullable:
                break
    return edges


def _closure(seeds: list[int], edges: list[tuple[int, int]]) -> list[int]:
    """Least fixpoint of reach[x] >= seeds[x] | reach[y] over the (x, y)
    edges: sweep them in order until a sweep changes nothing."""
    reach = list(seeds)
    changed = True
    while changed:
        changed = False
        for x, y in edges:
            joined = reach[x] | reach[y]
            if joined != reach[x]:
                reach[x] = joined
                changed = True
    return reach


def compute_lpd(g: Grammar, nullable: frozenset[int]) -> list[int]:
    """Per-symbol bitset of left partial derivations (includes the symbol)."""
    return _closure([1 << s.id for s in g.symbols], _corner_edges(g, nullable, reverse=False))


def compute_rpd(g: Grammar, nullable: frozenset[int]) -> list[int]:
    """Per-symbol bitset of right partial derivations (includes the symbol)."""
    return _closure([1 << s.id for s in g.symbols], _corner_edges(g, nullable, reverse=True))


def primary_pairs(g: Grammar, nullable: frozenset[int]) -> set[tuple[int, int]]:
    """(a, b) pairs where some production has ...a <nullables> b..."""
    pairs: set[tuple[int, int]] = set()
    for p in g.productions:
        rhs = p.rhs
        for i in range(len(rhs)):
            for j in range(i + 1, len(rhs)):
                pairs.add((rhs[i].id, rhs[j].id))
                if rhs[j].id not in nullable:
                    break
    return pairs


def compute_adjacency(g: Grammar, nullable: frozenset[int]) -> tuple[list[int], list[int]]:
    """la[a] = symbols that may stand immediately left of a;
    ra[a] = symbols that may stand immediately right of a.
    b is in la[a] iff some primary pair (d, c) has d ending b and c
    beginning a: seed la0[c] with what d ends, then close over left
    corners; ra is the mirror image."""
    left = _corner_edges(g, nullable, reverse=False)
    right = _corner_edges(g, nullable, reverse=True)
    units = [1 << s.id for s in g.symbols]
    begun_by = _closure(units, [(y, x) for x, y in left])  # [c]: {a | c in lpd[a]}
    ended_by = _closure(units, [(y, x) for x, y in right])  # [d]: {b | d in rpd[b]}
    la0 = [0] * len(g.symbols)
    ra0 = [0] * len(g.symbols)
    for d, c in primary_pairs(g, nullable):
        la0[c] |= ended_by[d]
        ra0[d] |= begun_by[c]
    return _closure(la0, left), _closure(ra0, right)


def compute_boundaries(g: Grammar, lpd: list[int], rpd: list[int]) -> tuple[int, int]:
    """lm / rm bitsets: symbols able to begin / end a root derivation."""
    roots = 0
    for r in g.roots:
        roots |= 1 << r.id
    lm = rm = 0
    for s in g.symbols:
        if lpd[s.id] & roots:
            lm |= 1 << s.id
        if rpd[s.id] & roots:
            rm |= 1 << s.id
    return lm, rm


def useful_productions(g: Grammar) -> set[int]:
    """Ids of the productions that occur in some complete derivation of a
    root (the classical grammar reduction, Hopcroft & Ullman 1979 §4.4):
    every rhs symbol is productive (derives a terminal string) and the lhs
    is reachable from a root through such productions.  One pass over the
    productions counts each one's nonterminal occurrences; a worklist then
    collects the productive productions, and a search from the roots
    through them the reachable symbols."""
    prods = g.productions
    users: list[list[int]] = [[] for _ in g.symbols]  # per symbol: productions using it
    pending = []  # per production: its occurrences of symbols not known productive
    ready = []    # the productions with none, each once
    for i, p in enumerate(prods):
        count = 0
        for s in p.rhs:
            if s.kind == NONTERMINAL:
                users[s.id].append(i)
                count += 1
        pending.append(count)
        if not count:
            ready.append(i)
    productive = set()
    for i in ready:  # grows while walked
        lhs = prods[i].lhs.id
        if lhs not in productive:
            productive.add(lhs)
            for j in users[lhs]:
                pending[j] -= 1
                if not pending[j]:
                    ready.append(j)
    by_lhs: list[list[Production]] = [[] for _ in g.symbols]
    for i in ready:
        by_lhs[prods[i].lhs.id].append(prods[i])
    todo = [r.id for r in g.roots]
    reached = set(todo)
    useful = set()
    for x in todo:  # grows while walked
        for p in by_lhs[x]:
            useful.add(p.id)
            for s in p.rhs:
                if s.id not in reached:
                    reached.add(s.id)
                    todo.append(s.id)
    return useful


def production_entries(p: Production, nullable: frozenset[int], lm: int, rm: int
                       ) -> list[CoverageEntry]:
    """Each rhs occurrence's coverage entry, in rhs order, with its edge
    bits and outermost dots.  An entry's forms are the anchor's event and
    its epsilon siblings, every left dot from the anchor's out to lo with
    every right dot out to hi: lo (hi) stops at the nearest non-nullable
    symbol on the left (right), or the rhs boundary.  Its prefix (suffix)
    is nullable, the class closed on that side, iff lo (hi) is that
    boundary."""
    rhs, lhs, size = p.rhs, p.lhs.id, len(p.rhs)
    left, right = lm >> lhs & 1, (rm >> lhs & 1) << 1
    later = iter([pos for pos, s in enumerate(rhs) if s.id not in nullable] + [size])
    lo, hi = 0, next(later)
    entries = []
    for pos in range(size):
        if hi == pos:  # a non-nullable anchor: the right dots stop at the next one
            hi = next(later)
        lc, rc = lo == 0, hi == size  # the left / right context is closed
        entries.append(CoverageEntry(p, pos, CLASSES[lc][rc],
                                     (left if lc else 0) | (right if rc else 0), lo, hi))
        if rhs[pos].id not in nullable:
            lo = pos + 1
    return entries


def build_coverage(g: Grammar, nullable: frozenset[int], lm: int, rm: int
                   ) -> list[list[CoverageEntry]]:
    """One entry per rhs occurrence of each symbol in a useful production
    (`useful_productions`, `production_entries`).  A useless production is
    in no tree, so events built from it are wasted."""
    useful = useful_productions(g)
    coverage: list[list[CoverageEntry]] = [[] for _ in g.symbols]
    for p in g.productions:
        if p.id in useful:
            for sym, entry in zip(p.rhs, production_entries(p, nullable, lm, rm)):
                coverage[sym.id].append(entry)
    return coverage


class CompiledGrammar:
    """Compilation result, shared by parse sessions and never changed by
    them.  Given a grammar's fixpoints, computed or loaded, it derives lm /
    rm, coverage and eps_nodes, so a loaded grammar is the compiled one.
    eps_nodes holds the zero-width node of each nullable symbol, ids
    0..k-1 in symbol order, with one analysis per production whose rhs is
    all nullable, its children those symbols' zero-width nodes (Aycock &
    Horspool 2002; recursion stays cycle-shared).  Every chart shares them;
    they are in no chart's node store, so nothing packs onto them."""

    def __init__(self, grammar: Grammar, nullable: frozenset[int],
                 lpd: list[int], rpd: list[int], la: list[int], ra: list[int]):
        self.grammar = grammar
        self.nullable = nullable
        self.lpd = lpd
        self.rpd = rpd
        self.la = la
        self.ra = ra
        self.lm, self.rm = compute_boundaries(grammar, lpd, rpd)
        self.coverage = build_coverage(grammar, nullable, self.lm, self.rm)
        eps = self.eps_nodes = {sid: Node(i, sid, -1, -1, "epsilon")
                                for i, sid in enumerate(sorted(nullable))}
        get = eps.get
        for p in grammar.productions:
            node, kids = get(p.lhs.id), tuple([get(s.id) for s in p.rhs])
            if node is not None and None not in kids:
                # appended directly: one analysis per production, so none repeats
                node.analyses.append(Analysis(p, kids))

    # -- name-based views, mainly for tests and the relation dump ---------

    def _names(self, mask: int) -> frozenset[str]:
        return frozenset(s.name for s in self.grammar.symbols if mask >> s.id & 1)

    def nullable_names(self) -> frozenset[str]:
        return frozenset(s.name for s in self.grammar.symbols if s.id in self.nullable)

    def lpd_names(self, name: str) -> frozenset[str]:
        return self._names(self.lpd[self.grammar.symbol(name).id])

    def rpd_names(self, name: str) -> frozenset[str]:
        return self._names(self.rpd[self.grammar.symbol(name).id])

    def la_names(self, name: str) -> frozenset[str]:
        return self._names(self.la[self.grammar.symbol(name).id])

    def ra_names(self, name: str) -> frozenset[str]:
        return self._names(self.ra[self.grammar.symbol(name).id])

    def lm_names(self) -> frozenset[str]:
        return self._names(self.lm)

    def rm_names(self) -> frozenset[str]:
        return self._names(self.rm)


def compile_grammar(g: Grammar) -> CompiledGrammar:
    """Run all relation fixpoints for a grammar (CompiledGrammar derives the rest)."""
    nullable = compute_nullable(g)
    lpd = compute_lpd(g, nullable)
    rpd = compute_rpd(g, nullable)
    la, ra = compute_adjacency(g, nullable)
    return CompiledGrammar(g, nullable, lpd, rpd, la, ra)


# -- serialization ---------------------------------------------------------

FAMILY = "SCPC"  # every table format's header: FAMILY and its version
MAGIC = FAMILY + "2"


def _digest(text: str, end: int) -> str:
    """SHA-256 of text[:end], encoded a megabyte at a time (tables are
    megabytes)."""
    h = hashlib.sha256()
    for i in range(0, end, 1 << 20):
        h.update(text[i:min(i + (1 << 20), end)].encode())
    return h.hexdigest()


def save_compiled(cg: CompiledGrammar) -> str:
    """Deterministic textual dump of the grammar and its fixpoints; the
    last line is `end` and the digest of the text before it."""
    g = cg.grammar
    out = [MAGIC]
    out.append(f"symbols {len(g.symbols)}")
    for s in g.symbols:
        out.append(f"{s.id} {s.name} {s.kind}")
    out.append("roots " + " ".join(str(r.id) for r in g.roots))
    out.append(f"productions {len(g.productions)}")
    for p in g.productions:
        out.append(f"{p.id} {p.lhs.id} " + " ".join(str(s.id) for s in p.rhs))
    nmask = 0
    for i in cg.nullable:
        nmask |= 1 << i
    out.append(f"nullable {nmask:x}")
    for label, masks in (("lpd", cg.lpd), ("rpd", cg.rpd), ("la", cg.la), ("ra", cg.ra)):
        out.append(label + " " + " ".join(f"{m:x}" for m in masks))
    text = "\n".join(out) + "\n"
    return f"{text}end {_digest(text, len(text))}\n"


def load_compiled(text: str) -> CompiledGrammar:
    """Inverse of save_compiled, the other tables derived as for
    compile_grammar; GrammarError on malformed input, a table of another
    format (an older one must be recompiled) and a table whose text does
    not match its digest (a well-formed table can still be wrong)."""
    # Rows are split one at a time: a large table's masks are megabytes.
    rows = ((n, ln.split()) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip())
    header = next(rows, (0, None))[1]
    if header != [MAGIC]:
        if header and header[0].startswith(FAMILY):
            raise GrammarError(f"bad compiled-grammar file: format {header[0]}, not {MAGIC} "
                               "(a table saved in an older format must be recompiled)")
        raise GrammarError(f"bad compiled-grammar file: missing {MAGIC} header")

    def bad(message: str, line: int | None = None) -> GrammarError:
        return GrammarError(f"bad compiled-grammar file: {message}", line)

    def row(keyword: str | None = None, width: int | None = None):
        """The next row's line number and fields; keyword and width, when
        given, are its first field and its number of fields."""
        line, fields = next(rows, (None, None))
        if fields is None:
            raise bad(f"unexpected end of file, expected {keyword or 'a table row'!r}")
        if keyword is not None and fields[0] != keyword:
            raise bad(f"expected {keyword!r}, got {fields[0]!r}", line)
        if width is not None and len(fields) != width:
            raise bad(f"wrong number of fields ({len(fields)})", line)
        return line, fields

    def num(field: str, line: int, limit: int | None = None, hexa: bool = False) -> int:
        """A non-negative decimal (hex) field, below limit when given."""
        try:
            value = int(field, 16 if hexa else 10)
        except ValueError:
            raise bad(f"{field!r} is not a {'hex ' if hexa else ''}number", line) from None
        if value < 0 or limit is not None and value >= limit:
            raise bad(f"{field} is out of range", line)
        return value

    def nums(fields: list[str], line: int, limit: int | None = None, hexa: bool = False
             ) -> list[int]:
        """num of each field, parsed in one map; num only words the error."""
        try:
            values = list(map(int, fields, [16 if hexa else 10] * len(fields)))
            if min(values, default=0) >= 0 and (limit is None or max(values, default=0) < limit):
                return values
        except ValueError:
            pass
        return [num(f, line, limit, hexa) for f in fields]

    line, fields = row("symbols", 2)
    nsyms = num(fields[1], line)
    symbols = []
    for i in range(nsyms):
        line, (sid, name, kind) = row(width=3)
        if num(sid, line) != i or kind not in (TERMINAL, NONTERMINAL):
            raise bad(f"symbol {i} expected, got {sid} {name} {kind}", line)
        symbols.append(Symbol(i, name, kind))
    line, fields = row("roots")
    roots = [symbols[i] for i in nums(fields[1:], line, nsyms)]
    line, fields = row("productions", 2)
    nprods = num(fields[1], line)
    productions = []
    for i in range(nprods):
        line, fields = row()
        ids = nums(fields[1:], line, nsyms)
        if num(fields[0], line) != i or not ids:
            raise bad(f"production {i} expected, got {fields[0]}", line)
        productions.append(Production(i, symbols[ids[0]], tuple(symbols[j] for j in ids[1:])))
    grammar = Grammar(symbols, productions, roots)
    line, fields = row("nullable", 2)
    nmask = num(fields[1], line, 1 << nsyms, hexa=True)
    nullable = frozenset(s.id for s in symbols if nmask >> s.id & 1)
    masks = {}
    for label in ("lpd", "rpd", "la", "ra"):
        line, fields = row(label, nsyms + 1)
        masks[label] = nums(fields[1:], line, 1 << nsyms, hexa=True)
    end_line, _ = row("end", 2)
    line, fields = next(rows, (None, None))
    if fields is not None:
        raise bad("text after 'end'", line)
    cut = text.rfind("\nend ") + 1
    if text[cut:] != f"end {_digest(text, cut)}\n":
        raise bad("the table does not match its digest", end_line)
    return CompiledGrammar(grammar, nullable, masks["lpd"], masks["rpd"],
                           masks["la"], masks["ra"])


def dump_relations(cg: CompiledGrammar) -> str:
    """Human-readable relation dump for the CLI."""
    g = cg.grammar

    def fmt(names):
        return "{" + ", ".join(sorted(names)) + "}"

    out = [f"nullable = {fmt(cg.nullable_names())}"]
    for s in g.symbols:
        out.append(f"LPD({s.name}) = {fmt(cg.lpd_names(s.name))}")
    for s in g.symbols:
        out.append(f"RPD({s.name}) = {fmt(cg.rpd_names(s.name))}")
    for s in g.symbols:
        out.append(f"LA({s.name}) = {fmt(cg.la_names(s.name))}")
    for s in g.symbols:
        out.append(f"RA({s.name}) = {fmt(cg.ra_names(s.name))}")
    out.append(f"LM = {fmt(cg.lm_names())}")
    out.append(f"RM = {fmt(cg.rm_names())}")
    for s in g.symbols:
        for e in cg.coverage[s.id]:
            out.append(f"coverage({s.name}): {e.klass} [{e.production}] pos {e.position}")
    useful = useful_productions(g)
    out.append(f"useless = {fmt(str(p) for p in g.productions if p.id not in useful)}")
    return "\n".join(out) + "\n"
