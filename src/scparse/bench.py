"""Benchmark harness: counter-based scaling measurements.

Parses inputs of growing length W from three shipped grammar suites and
fits events_created (and events_created/W) against W*log(W) by ordinary
least squares, reporting the Pearson correlation.  Event counts are the
response variable because wall-clock times only characterize the machine
they were taken on; seconds are still recorded, informatively, in the
T column.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .engine import init_session
from .grammar import Grammar, load_grammar
from .lattice import tokenize_plain
from .relations import CompiledGrammar, compile_grammar

CSV_HEADER = "suite,W,events_created,events_deleted,events_run,fusions,nodes,links,T"

SUITE_GRAMMARS = {
    # right- vs left-recursive chains that disambiguate only at the last word
    "recursive": """
        %root S
        S -> A1 b | A2 c ;
        A1 -> a | a A1 ;
        A2 -> a | a A2 ;
    """,
    # neighbor agreement: each pair of words must carry the same class, k = 3
    "local": """
        %root S
        S -> P S | P ;
        P -> P1 | P2 | P3 ;
        P1 -> a1 b1 ;
        P2 -> a2 b2 ;
        P3 -> a3 b3 ;
    """,
    # nested a^k .. b^k matching with a distractor that needs an absent d
    "nonlocal": """
        %root S
        S -> a S b | c c | X ;
        X -> a X d | c c ;
    """,
}


def suite_grammar(suite: str) -> Grammar:
    try:
        return load_grammar(SUITE_GRAMMARS[suite])
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}") from None


def suite_input(suite: str, w: int) -> str:
    """A W-word input for the suite (grammatical by construction)."""
    if suite == "recursive":
        if w < 2:
            raise ValueError("recursive suite needs W >= 2")
        return " ".join(["a"] * (w - 1) + ["b"])
    if suite == "local":
        if w < 2 or w % 2:
            raise ValueError("local suite needs even W >= 2")
        pairs = [f"a{i % 3 + 1} b{i % 3 + 1}" for i in range(w // 2)]
        return " ".join(pairs)
    if suite == "nonlocal":
        if w < 2 or w % 2:
            raise ValueError("nonlocal suite needs even W >= 2")
        k = (w - 2) // 2
        return " ".join(["a"] * k + ["c", "c"] + ["b"] * k)
    raise ValueError(f"unknown suite {suite!r}")


@dataclass
class BenchRecord:
    suite: str
    W: int
    events_created: int
    events_deleted: int
    events_run: int
    fusions: int
    nodes: int
    links: int
    T: float

    def csv_row(self) -> str:
        return (f"{self.suite},{self.W},{self.events_created},{self.events_deleted},"
                f"{self.events_run},{self.fusions},{self.nodes},{self.links},{self.T:.6f}")


def run_point(compiled: CompiledGrammar, suite: str, w: int, reps: int = 1) -> BenchRecord:
    if reps < 1:
        raise ValueError(f"reps must be at least 1, not {reps}")
    best = None
    for _ in range(reps):
        lat = tokenize_plain(suite_input(suite, w))
        t0 = time.perf_counter()
        chart = init_session(compiled, lat)
        chart.parse_cycle()
        t = time.perf_counter() - t0
        if not chart.accept():
            raise RuntimeError(f"suite {suite} input of length {w} failed to parse")
        rec = BenchRecord(suite, w, chart.stats["events_created"],
                          chart.stats["events_deleted"], chart.stats["events_run"],
                          chart.stats["fusions"], chart.stats["nodes"],
                          chart.stats["links"], t)
        if best is None or rec.T < best.T:
            best = rec
    return best


def run_suite(suite: str, lengths: list[int] | None = None, reps: int = 1) -> list[BenchRecord]:
    if lengths is None:
        lengths = [2 ** k for k in range(3, 11)]  # 8 .. 1024
    compiled = compile_grammar(suite_grammar(suite))
    records = [run_point(compiled, suite, w, reps) for w in sorted(lengths)]
    return records


# -- statistics ----------------------------------------------------------------


def linfit(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares y = a + b*x; returns (a, b)."""
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points to fit a line")
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit: all x values equal")
    b = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return my - b * mx, b


def pearson(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        raise ValueError("degenerate correlation: a variable is constant")
    return sxy / math.sqrt(sxx * syy)


def fit_report(records: list[BenchRecord]) -> str:
    """One line per fitted series; a series that admits no fit (fewer
    than two lengths, or a constant series) is reported as a degenerate
    fit."""
    xs = [r.W * math.log(r.W) for r in records]
    series = (("E      ", [float(r.events_created) for r in records]),
              ("E / W  ", [r.events_created / r.W for r in records]))
    lines = []
    for label, ys in series:
        try:
            a, b = linfit(xs, ys)
            r = pearson(xs, ys)
        except ValueError as exc:
            lines.append(f"{label} = degenerate fit ({exc})")
        else:
            lines.append(f"{label} = {a:.3f} + {b:.6f} * (W log W)   PCC = {r:.4f}")
    return "\n".join(lines)


def to_csv(records: list[BenchRecord]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in sorted(records, key=lambda r: r.W)]) + "\n"
