"""Grammar data model and the line-oriented grammar file format.

A grammar is a plain context-free grammar: symbols (terminals and
nonterminals), productions (empty right-hand sides encode epsilon rules)
and a non-empty set of root symbols.  Symbol and production ids are dense
integers assigned in declaration order, so reloading the same text always
yields the same numbering.  The packed-forest nodes and analyses live here
too: the compiled grammar builds some (its zero-width nodes), the parser
the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

TERMINAL = "terminal"
NONTERMINAL = "nonterminal"


class GrammarError(ValueError):
    """Raised for malformed or inconsistent grammar input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Symbol:
    id: int
    name: str
    kind: str  # TERMINAL or NONTERMINAL

    def __repr__(self):
        return f"Symbol({self.id}, {self.name!r}, {self.kind})"


@dataclass(frozen=True)
class Production:
    id: int
    lhs: Symbol
    rhs: tuple[Symbol, ...]

    def __str__(self):
        body = " ".join(s.name for s in self.rhs) if self.rhs else ""
        return f"{self.lhs.name} -> {body}".rstrip()


class Node:
    """A packed-forest node: a symbol over a span, with its analyses."""

    __slots__ = ("id", "symbol", "fbp", "lbp", "analyses", "origin", "_akeys")

    def __init__(self, nid: int, symbol: int, fbp: int, lbp: int, origin: str):
        self.id = nid
        self.symbol = symbol        # symbol id
        self.fbp = fbp              # -1 for the canonical epsilon nodes
        self.lbp = lbp
        self.analyses: list[Analysis] = []
        self.origin = origin        # lexical / derived / epsilon
        self._akeys: set | None = None  # the analyses' keys, once there are two

    def add_analysis(self, analysis: "Analysis") -> bool:
        analyses = self.analyses
        if analyses:
            keys = self._akeys
            if keys is None:
                first = analyses[0]
                keys = self._akeys = {(first.production.id, first.children)}
            key = (analysis.production.id, analysis.children)
            if key in keys:
                return False
            keys.add(key)
        analyses.append(analysis)
        return True


@dataclass(slots=True)  # never changed; not frozen, which makes building one 3x slower
class Analysis:
    production: Production
    children: tuple[Node, ...]


class Grammar:
    """Validated grammar: symbols, productions and roots."""

    def __init__(self, symbols: list[Symbol], productions: list[Production],
                 roots: list[Symbol], warnings: list[str] | None = None):
        self.symbols = list(symbols)
        self.productions = list(productions)
        self.roots = list(roots)
        self.warnings = list(warnings or [])
        self.by_name = {s.name: s for s in self.symbols}
        self._validate()

    def _validate(self):
        for i, s in enumerate(self.symbols):
            if s.id != i:
                raise GrammarError(f"symbol ids not dense: {s.name} has id {s.id} at index {i}")
        if len(self.by_name) != len(self.symbols):
            raise GrammarError("duplicate symbol names")
        lhs_ids = {p.lhs.id for p in self.productions}
        for s in self.symbols:
            if s.kind == TERMINAL and s.id in lhs_ids:
                raise GrammarError(f"terminal symbol '{s.name}' used as a production left-hand side")
            if s.kind == NONTERMINAL and s.id not in lhs_ids:
                raise GrammarError(f"undeclared symbol: nonterminal '{s.name}' has no productions")
        if not self.roots:
            raise GrammarError("no root declared")
        for r in self.roots:
            if r.kind != NONTERMINAL:
                raise GrammarError(f"undeclared symbol: root '{r.name}' has no productions")
        for p in self.productions:
            for s in p.rhs:
                if self.by_name.get(s.name) is not s:
                    raise GrammarError(f"undeclared symbol '{s.name}' in production {p.id}")

    # -- convenience accessors -------------------------------------------

    def symbol(self, name: str) -> Symbol:
        try:
            return self.by_name[name]
        except KeyError:
            raise GrammarError(f"undeclared symbol '{name}'") from None

    @property
    def nonterminals(self):
        return [s for s in self.symbols if s.kind == NONTERMINAL]

    @property
    def terminals(self):
        return [s for s in self.symbols if s.kind == TERMINAL]

    def productions_for(self, sym: Symbol) -> list[Production]:
        return [p for p in self.productions if p.lhs is sym]

    def __repr__(self):
        return (f"Grammar({len(self.nonterminals)} nonterminals, "
                f"{len(self.terminals)} terminals, {len(self.productions)} productions)")


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def load_grammar(text: str) -> Grammar:
    """Parse the grammar file format.

    Directives:
      %root S [T ...]       root symbols (at least one required overall)
      %terminal a b c       explicit terminal declarations (optional)
    Production lines:
      LHS -> SYM SYM ... ;  alternatives separated by '|', empty body = epsilon
    '#' starts a comment.  Symbols appearing only in right-hand sides
    default to terminals.
    """
    root_names: list[str] = []
    terminal_names: list[str] = []
    # (lhs, [rhs names], line) in order
    raw_prods: list[tuple[str, list[str], int]] = []
    order: list[str] = []
    seen: set[str] = set()

    def note(name: str):
        if name not in seen:
            seen.add(name)
            order.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("%"):
            directive, *names = line.split()
            if directive not in ("%root", "%terminal"):
                raise GrammarError(f"unknown directive {directive!r}", lineno)
            if not names:
                raise GrammarError(f"{directive} requires at least one symbol", lineno)
            declared = root_names if directive == "%root" else terminal_names
            for n in names:
                note(n)
                if n not in declared:
                    declared.append(n)
            continue
        if "->" not in line:
            raise GrammarError("expected 'LHS -> ... ;'", lineno, raw.find(line) + 1)
        if not line.endswith(";"):
            raise GrammarError("production line must end with ';'", lineno, len(raw))
        lhs_part, _, body = line[:-1].partition("->")
        lhs = lhs_part.strip()
        if not lhs or len(lhs.split()) != 1:
            raise GrammarError("production needs exactly one left-hand symbol", lineno, 1)
        note(lhs)
        for alt in body.split("|"):
            rhs = alt.split()
            for n in rhs:
                note(n)
            raw_prods.append((lhs, rhs, lineno))

    if not raw_prods and not root_names:
        raise GrammarError("empty grammar")

    lhs_names = {lhs for lhs, _, _ in raw_prods}
    for t in terminal_names:
        if t in lhs_names:
            raise GrammarError(f"terminal symbol '{t}' used as a production left-hand side")
    if not root_names:
        raise GrammarError("no root declared (use %root)")

    symbols: list[Symbol] = []
    for name in order:
        kind = NONTERMINAL if name in lhs_names else TERMINAL
        symbols.append(Symbol(len(symbols), name, kind))
    by_name = {s.name: s for s in symbols}

    productions = []
    for lhs, rhs, _ in raw_prods:
        productions.append(Production(len(productions), by_name[lhs],
                                      tuple(by_name[n] for n in rhs)))

    warnings = []
    reachable = _reachable_names(by_name, productions, root_names)
    for s in symbols:
        if s.kind == NONTERMINAL and s.name not in reachable:
            warnings.append(f"nonterminal '{s.name}' is unreachable from the roots")

    return Grammar(symbols, productions, [by_name[r] for r in root_names], warnings)


def _reachable_names(by_name, productions, root_names):
    todo = list(root_names)
    reached = set(root_names)
    prods_by_lhs: dict[str, list[Production]] = {}
    for p in productions:
        prods_by_lhs.setdefault(p.lhs.name, []).append(p)
    while todo:
        name = todo.pop()
        for p in prods_by_lhs.get(name, ()):
            for s in p.rhs:
                if s.name not in reached:
                    reached.add(s.name)
                    todo.append(s.name)
    return reached
