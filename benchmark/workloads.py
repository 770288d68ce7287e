"""One measured run of a workload.

A run sets the workload's grammars up repeatedly, then parses every case
once and repeats the cases for the run's measuring time, in passes, each
in a fresh order drawn from the run's seed (see measure_passes for which
cases a pass takes).  So the repeats of a case are spread across the run
rather than taken back to back.  Every time is scaled to a reference host
speed by measure.HostClock, and a case's time is the median of its
scaled repeats.  Afterwards every case is checked against
computations made apart from the engine; a case whose check fails counts
as a failed operation and the run goes on.

The operation timed per case is init_session + parse_cycle + build_forest
+ count_trees on an already compiled grammar: the work of
`scparse parse --count-trees` once it has the grammar.
"""

from __future__ import annotations

import gc
import random
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass

from scparse import (InputLattice, LexicalItem, build_forest, compile_grammar, count_trees,
                     init_session, load_compiled, load_grammar, relations, save_compiled,
                     tokenize_plain)
from scparse.forest import FINITE, TreeCount, useless_count
from scparse.oracle import earley_count_trees, earley_recognize

from inputs import Case, Inputs
from measure import HostClock, Tally, case_time, median, tail
from tracing import NO_TRACE, Tracer, patched

SETUP_REPEATS = 3        # at least; more while set-up has taken under
SETUP_SECONDS = 1.0      # this long, so sub-millisecond set-ups are steady
REPEAT_BUDGET_S = 0.75   # a case is repeated while its repeats fit in this
# Earley counting is polynomial of high degree in the input length; on
# the suites it is run only up to this length.
ORACLE_COUNT_MAX_WORDS = 32

# span case prefix of set-up work, and the rep of work done once
SETUP = "setup:"
CHECK_REP = -1

# compile_grammar's steps, traced by wrapping the module functions.
RELATION_SPANS = {
    "compute_nullable": "relations.nullable",
    "compute_lpd": "relations.pd",
    "compute_rpd": "relations.pd",
    "compute_adjacency": "relations.adjacency",
    "build_coverage": "relations.coverage",
}

LAYER_TIMES = {  # per-layer metric -> span name
    "grammar.load_ms": "grammar.load",
    "lattice.build_ms": "lattice.build",
    "relations.compile_ms": "relations.compile",
    "relations.nullable_ms": "relations.nullable",
    "relations.pd_ms": "relations.pd",
    "relations.adjacency_ms": "relations.adjacency",
    "relations.coverage_ms": "relations.coverage",
    "relations.save_ms": "relations.save",
    "relations.load_ms": "relations.load",
    "engine.init_ms": "engine.init",
    "engine.cycle_ms": "engine.cycle",
    "forest.build_ms": "forest.build",
    "forest.count_ms": "forest.count",
    "oracle.recognize_ms": "oracle.recognize",
    "oracle.count_ms": "oracle.count",
}


@dataclass
class Outcome:
    """What the first pass over a case produced."""
    stats: dict
    init_events: int
    accepted: bool
    count: TreeCount
    stale_events: int
    analyses: int
    useless_nodes: int


def build_lattice(case: Case) -> InputLattice:
    if case.text is not None:
        return tokenize_plain(case.text)
    points, items = case.lattice
    return InputLattice(points, [LexicalItem(*it) for it in items])


def set_up(inputs: Inputs, roundtrip: bool, clock: HostClock, tracer):
    """Load and compile every grammar repeatedly; with roundtrip the table
    is also saved and loaded back, and parsing uses the loaded one.
    Returns the compiled grammars, the saved tables, and per grammar its
    repeats as (seconds, host clock mark)."""
    reps = {key: [] for key in inputs.grammars}
    compiled, tables = {}, {}
    start = time.perf_counter()
    rep = 0
    while rep < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        tracer.rep = rep
        for key, text in inputs.grammars.items():
            tracer.case = SETUP + key
            t0 = clock.start()
            with tracer.span("grammar.load"):
                grammar = load_grammar(text)
            with tracer.span("relations.compile"):
                cg = compile_grammar(grammar)
            if roundtrip:
                with tracer.span("relations.save"):
                    tables[key] = save_compiled(cg)
                with tracer.span("relations.load"):
                    cg = load_compiled(tables[key])
            seconds, mark = clock.stop(t0)
            tracer.scale(mark)
            reps[key].append((seconds, mark))
            compiled[key] = cg
        rep += 1
    return compiled, tables, reps


def parse_case(cg, case: Case, clock: HostClock, tracer):
    """Build the case's lattice, then time the operation on it: its
    seconds and host clock mark, and what it made."""
    with tracer.span("lattice.build"):
        lattice = build_lattice(case)
    with tracer.span("case"):
        t0 = clock.start()
        with tracer.span("engine.init"):
            chart = init_session(cg, lattice)
        init_events = len(chart.events)
        with tracer.span("engine.cycle"):
            chart.parse_cycle()
        with tracer.span("forest.build"):
            forest = build_forest(chart)
        with tracer.span("forest.count"):
            count = count_trees(forest)
        seconds, mark = clock.stop(t0)
    return seconds, mark, chart, forest, count, init_events


def observe(chart, forest, count, init_events) -> Outcome:
    stale = sum(1 for ev in chart.events.values()
                if ev.alive and ev.status != chart.compute_status(ev))
    return Outcome(dict(chart.stats), init_events, bool(forest.roots), count, stale,
                   sum(len(n.analyses) for n in forest.store), useless_count(forest))


def measure_passes(inputs: Inputs, compiled: dict, seed: int, seconds: float,
                   clock: HostClock, tracer):
    """Per case: its repeats as (seconds, host clock mark) and its first
    outcome; the cases whose counters moved between passes; the number
    of passes.

    The first pass takes every case, however long it lasts: every case
    is checked and counted.  Then, for `seconds`, a pass takes the cases
    whose repeats so far and one more, at its time so far, fit in
    REPEAT_BUDGET_S, so a cheap case is repeated often and the heaviest
    not at all; the run ends early when no case is due.

    Each case starts on a collected heap, so that no case pays for
    collecting another's garbage; what exists before the first pass is
    frozen out of the collector's reach, as a process parsing with one
    grammar would not have it."""
    cases = inputs.cases
    rng = random.Random(seed)
    every = list(range(len(cases)))
    times: dict[int, list[tuple[float, tuple]]] = {i: [] for i in every}
    outcomes: list[Outcome | None] = [None] * len(cases)
    unsteady: set[int] = set()
    passes = 0
    deadline = 0.0
    gc.collect()
    gc.freeze()
    while True:
        if passes == 0:
            due = list(every)
        else:
            if time.perf_counter() >= deadline:
                break
            due = [i for i in every if (len(times[i]) + 1) * case_time(
                [(raw, clock.factor(mark)) for raw, mark in times[i]]) <= REPEAT_BUDGET_S]
        if not due:
            break
        rng.shuffle(due)
        tracer.rep = passes
        for i in due:
            if passes and time.perf_counter() >= deadline:
                break
            case = cases[i]
            tracer.case = case.id
            took, mark, chart, forest, count, init_events = parse_case(
                compiled[case.grammar], case, clock, tracer)
            tracer.scale(mark)
            times[i].append((took, mark))
            if outcomes[i] is None:
                outcomes[i] = observe(chart, forest, count, init_events)
            elif chart.stats != outcomes[i].stats or count != outcomes[i].count:
                unsteady.add(i)
            del chart, forest
            gc.collect()
        passes += 1
        if passes == 1:
            deadline = time.perf_counter() + seconds
    gc.unfreeze()
    return [times[i] for i in every], outcomes, unsteady, passes


# -- checks made apart from the engine ------------------------------------------


def check_case(workload: str, case: Case, cg, out: Outcome, tracer) -> list[str]:
    problems = []
    if out.stale_events:
        problems.append(f"{out.stale_events} live events hold a stale status")
    lattice = build_lattice(case)
    # earley_recognize rescans its whole chart at every prediction, which
    # takes seconds per word on the large grammars; there acceptance is
    # checked against Earley's tree count instead.
    if workload != "grammar":
        with tracer.span("oracle.recognize"):
            recognized = earley_recognize(cg.grammar, lattice)
        if out.accepted != recognized:
            problems.append("engine accepts, Earley rejects" if out.accepted
                            else "engine rejects, Earley accepts")
    if workload == "suites":
        if not out.accepted:
            problems.append("suite input rejected")
        if out.count != TreeCount(FINITE, case.trees):
            problems.append(f"tree count {out.count}, expected {case.trees}")
        if case.words > ORACLE_COUNT_MAX_WORDS:
            return problems
    if case.sampled and not out.accepted:
        problems.append("sentence sampled from the language rejected")
    with tracer.span("oracle.count"):
        expected = earley_count_trees(cg.grammar, lattice)
    if out.count != expected:
        problems.append(f"tree count {out.count}, Earley {expected}")
    if workload == "grammar" and out.accepted != (expected != TreeCount(FINITE, 0)):
        problems.append("acceptance differs from Earley's tree count")
    return problems


def check_tables(key: str, cg, table: str) -> list[str]:
    """Round trip and relation laws of one compiled table."""
    problems = []
    if save_compiled(load_compiled(table)) != table:
        problems.append(f"{key}: save_compiled(load_compiled(t)) != t")
    n = len(cg.grammar.symbols)
    transposed = [0] * n
    for a, row in enumerate(cg.la):
        b = 0
        while row:
            if row & 1:
                transposed[b] |= 1 << a
            row >>= 1
            b += 1
    if transposed != cg.ra:
        problems.append(f"{key}: la and ra are not transposes")
    if any(not (cg.lpd[s] >> s & 1 and cg.rpd[s] >> s & 1) for s in range(n)):
        problems.append(f"{key}: lpd or rpd not reflexive")
    root_ids = {r.id for r in cg.grammar.roots}
    lm = {s for s in range(n) if any(cg.lpd[s] >> r & 1 for r in root_ids)}
    rm = {s for s in range(n) if any(cg.rpd[s] >> r & 1 for r in root_ids)}
    if lm != {s for s in range(n) if cg.lm >> s & 1}:
        problems.append(f"{key}: lm differs from the symbols whose lpd meets the roots")
    if rm != {s for s in range(n) if cg.rm >> s & 1}:
        problems.append(f"{key}: rm differs from the symbols whose rpd meets the roots")
    return problems


# -- the run ----------------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    tally: Tally
    metrics: dict          # name -> (value, unit)
    passes: int
    tail_percentile: int | None
    global_problems: list[str]
    raw: dict              # end-to-end times before host-speed scaling
    references_ms: list    # the host clock's reference times
    phases: dict           # wall seconds of set-up, passes and checks
    case_ms: dict          # case id -> its time (measure.case_time)
    repeats_ms: dict       # case id -> [raw ms, host factor] of every repeat
    layers: dict | None    # span name -> busy/self ms, traced runs only
    tracer: Tracer | None  # the spans, traced runs only


def run(workload: str, inputs: Inputs, seed: int, seconds: float, trace: bool) -> RunResult:
    clock = HostClock()
    tracer = Tracer(clock.now) if trace else NO_TRACE
    started = time.perf_counter()
    roundtrip = workload == "grammar"
    with clock.running():
        with patched(tracer, relations, RELATION_SPANS) if trace else nullcontext():
            compiled, tables, setup_reps = set_up(inputs, roundtrip, clock, tracer)
        if trace and not roundtrip:
            # reference only: these workloads parse with the compiled table
            tracer.rep = CHECK_REP
            for key, cg in compiled.items():
                tracer.case = SETUP + key
                t0 = clock.start()
                with tracer.span("relations.save"):
                    tables[key] = save_compiled(cg)
                with tracer.span("relations.load"):
                    load_compiled(tables[key])
                tracer.scale(clock.stop(t0)[1])

        set_up_end = time.perf_counter()
        timings, outcomes, unsteady, passes = measure_passes(
            inputs, compiled, seed, seconds, clock, tracer)
        passes_end = time.perf_counter()
        # before the checks, whose Earley charts are not the engine's memory
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        tally = Tally()
        tracer.rep = CHECK_REP
        for i, case in enumerate(inputs.cases):
            tracer.case = case.id
            t0 = clock.start()
            problems = check_case(workload, case, compiled[case.grammar], outcomes[i], tracer)
            tracer.scale(clock.stop(t0)[1])
            if i in unsteady:
                problems.append("counters or tree count differ between passes")
            tally.record(case.id, problems)
    global_problems = []
    if roundtrip:
        for key, cg in compiled.items():
            global_problems += check_tables(key, cg, tables[key])

    # every reference is in: scale each measurement by its factor
    setup_s = sum(case_time([(raw, clock.factor(mark)) for raw, mark in r])
                  for r in setup_reps.values())
    raw_setup_s = sum(median([raw for raw, _ in r]) for r in setup_reps.values())
    repeats = [[(raw, clock.factor(mark)) for raw, mark in t] for t in timings]
    phases = {"set_up": set_up_end - started, "passes": passes_end - set_up_end,
              "checks": time.perf_counter() - passes_end}
    times = [case_time(r) for r in repeats]
    times_raw = [median([raw for raw, _ in r]) for r in repeats]
    tail_p, tail_s = tail(times) or (None, None)
    words = sum(case.words for case in inputs.cases)
    raw = {"setup_s": raw_setup_s, "words_per_s": words / sum(times_raw),
           "parse_p50_ms": median(times_raw) * 1e3}
    if tail_p is not None:
        raw["parse_tail_ms"] = tail(times_raw)[1] * 1e3
    totals = {k: sum(o.stats[k] for o in outcomes) for k in outcomes[0].stats}
    if trace:
        layers = tracer.layer_times(clock.factor)
        metrics = layer_metrics(layers, outcomes, totals, compiled, tables)
    else:
        layers = None
        metrics = {
            "setup_s": (setup_s, "s"),
            "words_per_s": (words / sum(times), "1/s"),
            "parse_p50_ms": (median(times) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "events": (totals["events_created"], "count"),
            "links": (totals["links"], "count"),
        }
        if tail_s is not None:  # below MIN_TAIL_SAMPLES cases, the median alone
            metrics["parse_tail_ms"] = (tail_s * 1e3, "ms")
    return RunResult(not global_problems, tally, metrics, passes, tail_p, global_problems,
                     raw, [t * 1e3 for t in clock.runs], phases, {c.id: t * 1e3 for c, t in zip(inputs.cases, times)},
                     {c.id: [[raw * 1e3, f] for raw, f in r] for c, r in zip(inputs.cases, repeats)},
                     layers, tracer if trace else None)


def layer_metrics(layers, outcomes, totals, compiled, tables) -> dict:
    metrics = {name: (layers.get(span, {}).get("busy_ms", 0.0), "ms")
               for name, span in LAYER_TIMES.items()}
    created = totals["events_created"]
    fusions, stale = totals["fusions"], totals["stale_fusions"]
    metrics.update({
        "relations.symbols": (sum(len(cg.grammar.symbols) for cg in compiled.values()), "count"),
        "relations.table_kb": (sum(len(t) for t in tables.values()) / 1024, "kB"),
        "engine.init_events": (sum(o.init_events for o in outcomes), "count"),
        "engine.links_per_event": (totals["links"] / created, "links/event"),
        "engine.links_max_case": (max(o.stats["links"] for o in outcomes), "count"),
        "engine.events_deleted": (totals["events_deleted"], "count"),
        "engine.events_run": (totals["events_run"], "count"),
        "engine.run_per_event": (totals["events_run"] / created, "ratio"),
        "engine.fusions": (fusions, "count"),
        "engine.stale_fusions": (stale, "count"),
        "engine.stale_fusion_ratio": (stale / (fusions + stale) if fusions + stale else 0.0,
                                      "ratio"),
        "engine.nodes": (totals["nodes"], "count"),
        "engine.packed": (totals["packed"], "count"),
        "engine.epsilon_expansions": (totals["epsilon_expansions"], "count"),
        "engine.stale_status_events": (sum(o.stale_events for o in outcomes), "count"),
        "forest.analyses": (sum(o.analyses for o in outcomes), "count"),
        "forest.useless_nodes": (sum(o.useless_nodes for o in outcomes), "count"),
    })
    return metrics
