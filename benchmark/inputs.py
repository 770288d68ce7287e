"""Workload inputs, generated from a draw number.

Draw 0 is the pinned input set: the acceptance seeds for `corpus`, the
shipped suites for `suites` and grammars from fixed seeds for `grammar`.
Its digests are recorded in digests.json and every run checks them, so a
change to `random_case` or to the suite builders cannot silently change a
workload.  Any other draw shifts every generator seed by DRAW_STRIDE and
gives fresh inputs of the same make-up (the suites have no random part
and stay as they are).

scparse only ever sees the generated grammar texts and lattices.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

from scparse.bench import SUITE_GRAMMARS, suite_input
from scparse.grammar import TERMINAL, Grammar
from scparse.oracle import CaseLimits, random_case

DRAW_STRIDE = 1_000_000

# corpus: the 500 seeds of the acceptance gate, plus a slice of longer
# inputs; seeds 474 and 18 of these hold most of the link-analysis cost.
CORPUS_SEEDS = range(500)
LONG_SEEDS = range(40)
LONG_LIMITS = CaseLimits(max_input=24)

# suites: enough lengths for 45 parses, up to W = 1024.
SUITE_LENGTHS = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024)
# recursive and local are unambiguous; nonlocal's inner "c c" derives as
# S -> c c or as S -> X -> c c.
SUITE_TREES = {"recursive": 1, "local": 1, "nonlocal": 2}

# grammar: oracle.random_case grammars scaled up to several hundred and
# 1,600 symbols.  Terminals are a small share of the symbols and
# nonterminals get up to GRAMMAR_PRODUCTIONS productions each, so that
# corner chains join most nonterminals and the partial-derivability
# closures, then adjacency, lead compiling (see README.md).  random_case
# draws both counts below their limits; a draw is kept when it has at
# least MIN_SYMBOL_SHARE of its symbols and MIN_PRODUCTIONS productions
# per nonterminal, otherwise the next generator seed is tried.
# (symbols, sentences) per grammar: a sentence parses in about 0.05,
# 0.15 and 0.3 s on the three sizes, so most are on the smallest.
GRAMMAR_SIZES = ((400, 28), (800, 6), (1600, 6))
GRAMMAR_SEED = 7
TERMINAL_SHARE = 0.05
GRAMMAR_PRODUCTIONS = 6
MIN_PRODUCTIONS = 4.5
MIN_SYMBOL_SHARE = 0.9
# One word: on these grammars two words make hundreds of thousands of links.
MAX_SENTENCE = 1
SAMPLE_TRIES = 200


@dataclass(frozen=True)
class Case:
    id: str
    grammar: str                # key into Inputs.grammars
    words: int
    text: str | None = None     # whitespace tokens, for tokenize_plain
    lattice: tuple | None = None  # (points, ((unit, preterminal, fbp, lbp), ...))
    trees: int | None = None    # tree count known from the grammar
    sampled: bool = False       # drawn from the grammar's own language


@dataclass
class Inputs:
    grammars: dict[str, str]    # key -> grammar text, in set-up order
    cases: list[Case]

    def digest(self) -> str:
        blob = json.dumps({"grammars": self.grammars,
                           "cases": [asdict(c) for c in self.cases]},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def grammar_text(g: Grammar) -> str:
    """The text of g; loading it back gives the same productions in the
    same order.  The %terminal line keeps terminals no production uses."""
    lines = ["%root " + " ".join(r.name for r in g.roots)]
    for p in g.productions:
        lines.append(f"{p.lhs.name} -> {' '.join(s.name for s in p.rhs)} ;")
    if g.terminals:
        lines.append("%terminal " + " ".join(t.name for t in g.terminals))
    return "\n".join(lines) + "\n"


def corpus_inputs(draw: int, seeds=CORPUS_SEEDS, long_seeds=LONG_SEEDS) -> Inputs:
    base = draw * DRAW_STRIDE
    grammars: dict[str, str] = {}
    cases = []
    for prefix, limits, slice_ in (("s", None, seeds), ("long", LONG_LIMITS, long_seeds)):
        for s in slice_:
            g, lat = random_case(base + s, limits)
            key = f"{prefix}{s}"
            grammars[key] = grammar_text(g)
            items = tuple((it.unit, it.preterminal, it.fbp, it.lbp) for it in lat.items)
            cases.append(Case(key, key, lat.n, lattice=(lat.points, items)))
    return Inputs(grammars, cases)


def suites_inputs(draw: int) -> Inputs:
    grammars = {suite: SUITE_GRAMMARS[suite] for suite in SUITE_TREES}
    cases = [Case(f"{suite}/{w}", suite, w, text=suite_input(suite, w),
                  trees=SUITE_TREES[suite])
             for suite in SUITE_TREES for w in SUITE_LENGTHS]
    return Inputs(grammars, cases)


def grammar_limits(symbols: int) -> CaseLimits:
    terminals = max(1, round(symbols * TERMINAL_SHARE))
    nonterminals = symbols - terminals
    return CaseLimits(max_nonterminals=nonterminals, max_terminals=terminals,
                      max_productions=nonterminals * GRAMMAR_PRODUCTIONS,
                      max_input=MAX_SENTENCE)


def large_grammar(seed: int, symbols: int) -> tuple[int, Grammar]:
    """The first random_case grammar from seed on that is near its limits:
    (its seed, the grammar)."""
    limits = grammar_limits(symbols)
    while True:
        g, _ = random_case(seed, limits)
        if (len(g.symbols) >= MIN_SYMBOL_SHARE * symbols
                and len(g.productions) >= MIN_PRODUCTIONS * len(g.nonterminals)):
            return seed, g
        seed += 1


def _sample_sentences(rng: random.Random, g: Grammar, count: int) -> list[list[str]] | None:
    """count distinct sentences of the language, of 1 to MAX_SENTENCE
    words, by random top-down expansion from the root, or None when they
    did not turn up.  An expansion only takes bodies whose shortest yield
    still fits in MAX_SENTENCE.  Unlike random_case's own sampler, which
    falls back to random tokens without saying so, this one tells the
    sentences of the language apart: every one of them must be accepted."""
    shortest = {s.id: 1 if s.kind == TERMINAL else MAX_SENTENCE + 1 for s in g.symbols}
    changed = True
    while changed:  # least fixpoint of the shortest yield, capped
        changed = False
        for p in g.productions:
            n = min(sum(shortest[s.id] for s in p.rhs), MAX_SENTENCE + 1)
            if n < shortest[p.lhs.id]:
                shortest[p.lhs.id] = n
                changed = True
    bodies: dict[int, list[tuple]] = {}
    for p in g.productions:
        bodies.setdefault(p.lhs.id, []).append(p.rhs)
    sentences: list[list[str]] = []
    for _ in range(SAMPLE_TRIES):
        stack, tokens = [g.roots[0]], []
        for _ in range(50 * MAX_SENTENCE):
            if not stack:
                break
            sym = stack.pop()
            if sym.kind == TERMINAL:
                tokens.append(sym.name)
                continue
            room = MAX_SENTENCE - len(tokens) - sum(shortest[s.id] for s in stack)
            fits = [rhs for rhs in bodies[sym.id]
                    if sum(shortest[s.id] for s in rhs) <= room]
            if not fits:
                break
            stack.extend(reversed(rng.choice(fits)))
        if not stack and tokens and tokens not in sentences:
            sentences.append(tokens)
            if len(sentences) == count:
                return sentences
    return None


def grammar_inputs(draw: int) -> Inputs:
    seed = GRAMMAR_SEED + draw * DRAW_STRIDE
    rng = random.Random(seed)
    grammars: dict[str, str] = {}
    cases = []
    for symbols, sentences in GRAMMAR_SIZES:
        half = sentences // 2  # sampled from the language; the rest random
        while True:  # redraw a grammar without enough short sentences
            seed, g = large_grammar(seed, symbols)
            seed += 1
            sampled = _sample_sentences(rng, g, half)
            if sampled is not None:
                break
        key = f"g{symbols}"
        grammars[key] = grammar_text(g)
        terminals = [t.name for t in g.terminals]
        randoms = [[rng.choice(terminals) for _ in range(rng.randint(1, MAX_SENTENCE))]
                   for _ in range(sentences - half)]
        for i, tokens in enumerate(sampled + randoms):
            cases.append(Case(f"{key}/{i}", key, len(tokens), text=" ".join(tokens),
                              sampled=i < half))
    return Inputs(grammars, cases)


WORKLOADS = {"corpus": corpus_inputs, "suites": suites_inputs, "grammar": grammar_inputs}


def make_inputs(workload: str, draw: int = 0) -> Inputs:
    return WORKLOADS[workload](draw)
