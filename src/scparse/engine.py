"""The bidirectional event-driven parsing runtime.

A parse session owns a chart: one collection-and-diffusion hub (CaD) per
breaking point, a packed node store keyed by (symbol, span), and an event
store.  Events are doubly-dotted production instances covering at least
one rhs symbol; their extremes are closed (dot at the rhs boundary) or
open (prediction pending) and live in the corresponding CaD lists.  Link
analyses find, per extreme, evidence that its requirement can be met:
another event's extreme at the same CaD, a node, or an input boundary.
A status machine classifies every event as RUN / DERIVATION / EPSILON /
DELETE from the closure state of its extremes and whether each has any
evidence.  The parsing cycle drains one deletion queue (DELETE and EPSILON
events), the run queue and the fusion agenda, in that strict priority
order.

Nullable symbols are handled in one place.  An open extreme next to a
nullable symbol has two outcomes: the symbol is realized empty, or real
material arrives later.  Whenever an event is created, mutated or packed,
`_spawn_epsilon_variants` makes the first outcome a sibling event, its
dot moved over the symbol and the symbol's zero-width node its child (as
in Aycock & Horspool 2002), and the event itself waits for the second.  A
fusion joins only extremes whose dots meet: where two events face each
other across nullable symbols, the siblings that cross them meet.  An
EPSILON event is one whose open extreme lacks evidence next to a nullable
symbol: the material it waits for has no support, and its empty
realization was spawned when it took its current form.  So it is deleted
like a DELETE event; its sibling is live or has fired, or was deleted as
unsupported itself, which is sound as below.

Status asks only whether an extreme has evidence, and what an extreme is
compatible with at its CaD depends only on its side, whether it is open or
closed, and one symbol: its lhs if closed, the symbol it waits for if
open.  Extremes alike in these are a class, and support is kept per class
(AC-4 support counting, Mohr & Henderson 1986, lifted from values to
classes).  Each CaD counts its extremes per side and class and keeps the
mask of the node symbols ending there; the masks of the classes present
and `reach`, the union of the closed classes' partial-derivability rows,
are derived from the counts when read.  Each extreme keeps one support
bit, set by mask tests of its relation rows against the facing side and
the input boundary.
When a class appears at a CaD, the facing classes it is compatible with
that had no support gain it; when a class vanishes, the facing classes it
was compatible with are tested again, and the extremes of those left
without support may starve in turn: that is the delete cascade.  Fusion
links, which `fuse` looks up and counts, are the exception: they are kept
explicitly, per side and keyed by partner id, on both events.

Nodes are never deleted, so early deletions stay sound: lexical nodes,
through the transitively closed relation tables, support everything the
input can ever provide.

An event is its form: production, dots and CaDs (`event_key`).  Status,
link analysis and fusion read only the form, never the children between
the dots, so one event stands for every child tuple of its form (local
ambiguity packing, Tomita 1986; Billot & Lang 1989): its first in
`children`, the others in `alts`, None on unambiguous input.  A fusion
merges every derivation of one event with every derivation of the other;
a run gives the node one analysis per derivation.  A derivation arriving
for a form that is live or has fired is packed into its event and
replayed for itself alone, doing what an event of its own would have done
(`_pack`): a fired event's node takes the analysis at once; a live one
spawns its epsilon siblings with these children and merges it with every
derivation of every fusion partner facing it now, linked or not, since
the pairs fused before it arrived never met it.  When a fusion's merged
form exists with other derivations, the new ones are packed into it, and
an event that would have moved to that form is deleted instead (moving
would have taken its old form away).  So ambiguity costs one tuple per
derivation, not one event life.

Once the cycle has started, an event is not built when it would be born
DELETE or EPSILON: its status is decided from the class masks and a scan
for fusion partners before anything is allocated (left-corner filtering
before an item is built, as in Moore 2000).  Such a stillborn form gets
no event, index entry, CaD wiring or queue entry, and no deletion later;
its epsilon siblings are still spawned, and the derivation (key and
children) blocks a duplicate until the next run or fusion action, as the
built event would have until the deletion drain.  It is sound because
nothing but deletions runs between an action and that drain, and within
the action nothing can give the form evidence (see `_new_event`).  A new node's coverage entry is
tested whole first: its forms are its nullable expansion, every left dot
with every right dot, and a form's evidence on a side depends only on its
dot there, so an entry with a side where no dot has class support and
none can meet a fusion partner is stillborn in every form, and none of
them is keyed or spawned (`add_node`).  During `Chart.__init__` later
lexical nodes still support earlier events, so every event is built
there.  `events_created`, `events_deleted` and `epsilon_expansions` count
built events only; `stillborn` counts the forms not built.

The two directions mirror each other, so every per-side fact is a pair
indexed by LEFT (0) or RIGHT (1) and each step is written once for a
`side`, with `other = 1 - side` the side facing it across a CaD: an
event's dots, CaD indices and the symbols its open extremes wait for
(`need`, None on a closed side), its support bits and fusion links; a
CaD's open and closed extremes, class counts and masks and node symbols;
the chart's partial-derivability, adjacency and boundary tables.  Where
the order of the two sides matters to the queues (and so to the event
counts), it is fixed in place: nodes give support and spawned siblings are
made RIGHT first, extremes are analyzed LEFT first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .lattice import InputLattice
from .relations import CompiledGrammar
from .grammar import Grammar, Production

# Event statuses.  DERIVATION is a resting state: such events move only
# through fusion or when deletion propagation starves them.
RUN = "RUN"
DELETE = "DELETE"
EPSILON = "EPSILON"
DERIVATION = "DERIVATION"

# Extreme sides index the per-side fields of an event.
LEFT = 0
RIGHT = 1
SIDE_NAMES = "LR"


class EngineError(ValueError):
    pass


class Node:
    __slots__ = ("id", "symbol", "fbp", "lbp", "analyses", "origin", "_akeys")

    def __init__(self, nid: int, symbol: int, fbp: int, lbp: int, origin: str):
        self.id = nid
        self.symbol = symbol        # symbol id
        self.fbp = fbp              # -1 for the canonical epsilon nodes
        self.lbp = lbp
        self.analyses: list[Analysis] = []
        self.origin = origin        # lexical / derived / epsilon
        self._akeys: set = set()

    def add_analysis(self, analysis: "Analysis") -> bool:
        key = (analysis.production.id, analysis.children)
        if key in self._akeys:
            return False
        self._akeys.add(key)
        self.analyses.append(analysis)
        return True


@dataclass(frozen=True)
class Analysis:
    production: Production
    children: tuple[Node, ...]


def epsilon_nodes(compiled: CompiledGrammar) -> dict[int, Node]:
    """The canonical zero-width nodes of the nullable symbols, ids 0..k-1
    in symbol order, with their empty-derivation skeletons prebuilt
    (recursion stays cycle-shared).  Built by the first chart on a compiled
    grammar, kept on it and shared by its later charts, which never change
    them: they are in no chart's node store, so nothing packs onto them."""
    nodes = compiled.eps_nodes
    if nodes is None:
        nodes = {sid: Node(i, sid, -1, -1, "epsilon")
                 for i, sid in enumerate(sorted(compiled.nullable))}
        for sid, prods in sorted(compiled.epsilon_analyses.items()):
            for p in prods:
                nodes[sid].add_analysis(Analysis(p, tuple(nodes[s.id] for s in p.rhs)))
        compiled.eps_nodes = nodes
    return nodes


def event_key(production: Production, dot: tuple, cad: tuple) -> tuple:
    """What makes two events the same, their form: production, dots and
    CaDs.  One event stands for every child tuple of its form."""
    return (production.id, dot, cad)


def needs(production: Production, dot: tuple) -> tuple:
    """Per side, the symbol id an extreme with these dots waits for, None
    when it is closed (its dot at the rhs boundary)."""
    rhs = production.rhs
    return (rhs[dot[LEFT] - 1].id if dot[LEFT] > 0 else None,
            rhs[dot[RIGHT]].id if dot[RIGHT] < len(rhs) else None)


def coverage_needs(compiled: CompiledGrammar) -> list[list[tuple]]:
    """Per symbol, per coverage entry, a (LEFT, RIGHT) pair of tuples: what
    the extremes of the entry's forms wait for on that side (None when
    closed), one per dot, nearest first.  The forms are the node's event
    and its epsilon siblings: every pair of a left dot (the anchor's, then
    moved left over nullable symbols) and a right dot (likewise, moving
    right), so an entry has len(LEFT tuple) * len(RIGHT tuple) forms; None
    can only come last.  Built by the first chart on a compiled grammar and
    kept on it; equal tuples are shared."""
    table = compiled.entry_needs
    if table is None:
        shared: dict[tuple, tuple] = {}
        table = []
        for entries in compiled.coverage:
            row = []
            for entry in entries:
                pair = []
                for side, step in ((LEFT, -1), (RIGHT, 1)):
                    dot = [entry.position, entry.position + 1]
                    found = [needs(entry.production, dot)[side]]
                    while found[-1] in compiled.nullable:
                        dot[side] += step
                        found.append(needs(entry.production, dot)[side])
                    pair.append(shared.setdefault(tuple(found), tuple(found)))
                pair = tuple(pair)
                row.append(shared.setdefault(pair, pair))
            table.append(row)
        compiled.entry_needs = table
    return table


def render(production: Production, dot: tuple, cad: tuple) -> str:
    """A dotted production over its CaDs, such as `S -> A . b . c @ [0,1]`."""
    rhs = production.rhs
    ldot, rdot = dot
    pre = " ".join(s.name for s in rhs[:ldot])
    mid = " ".join(s.name for s in rhs[ldot:rdot])
    post = " ".join(s.name for s in rhs[rdot:])
    body = " ".join(x for x in (pre, ".", mid, ".", post) if x)
    return f"{production.lhs.name} -> {body} @ [{cad[LEFT]},{cad[RIGHT]}]"


class Event:
    __slots__ = ("id", "production", "dot", "cad", "need", "children", "alts", "key",
                 "support", "fusion", "status", "alive")

    def __init__(self, eid, production, dot, cad, children, key, need=None, alts=None):
        self.id = eid
        self.production = production
        # Its form, which a fusion may give it anew: the (LEFT, RIGHT) dots
        # and CaD indices, the `needs` of the dots and the key they make.
        self.dot = dot
        self.cad = cad
        self.need = needs(production, dot) if need is None else need
        self.key = key
        # The children between the dots: its first child tuple, and the
        # other derivations of its form packed into it (a dict used as an
        # ordered set), None while it has only the one.
        self.children = children
        self.alts = alts
        # Per side: whether some class at the extreme's CaD supports it (the
        # Chart keeps this bit), and its fusion links (partner id -> Event).
        self.support = [False, False]
        self.fusion: tuple[dict, dict] = ({}, {})
        self.status = None
        self.alive = True

    def render(self):
        return render(self.production, self.dot, self.cad)

    def derivations(self) -> tuple:
        """Every child tuple it holds, the first one first."""
        return (self.children, *self.alts) if self.alts else (self.children,)

    def holds(self, children: tuple) -> bool:
        return children == self.children or self.alts is not None and children in self.alts


class CaD:
    """Per-breaking-point lists of event extremes and their classes, each a
    (LEFT, RIGHT) pair.  open[side] and closed[side] hold the events whose
    extreme on side is here, open or closed; n_open[side] counts the open
    ones by the symbol they wait for and n_closed[side] the closed ones by
    lhs (a class is present while its count is).  nodes[side] is the mask
    of the symbols of the nodes whose end on side is here (LEFT: nodes
    starting here).  open_mask[side] and closed_mask[side], the masks of
    the classes present, and reach[side], the union of the closed
    classes' partial-derivability rows, are derived from the counts when
    read (`class_mask`, `Chart._reach`); None marks them stale."""

    __slots__ = ("index", "open", "closed", "n_open", "n_closed", "nodes",
                 "open_mask", "closed_mask", "reach")

    def __init__(self, index: int):
        self.index = index
        self.open: tuple[dict[int, Event], dict[int, Event]] = ({}, {})
        self.closed: tuple[dict[int, Event], dict[int, Event]] = ({}, {})
        self.n_open: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self.n_closed: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self.nodes = [0, 0]
        self.open_mask = [0, 0]
        self.closed_mask = [0, 0]
        self.reach = [0, 0]


def class_mask(masks: list, counts: tuple[dict[int, int], dict[int, int]], side: int) -> int:
    """masks[side], the mask of the classes in counts[side], rebuilt if
    stale."""
    mask = masks[side]
    if mask is None:
        mask = 0
        for sym in counts[side]:
            mask |= 1 << sym
        masks[side] = mask
    return mask


def lexical_symbols(grammar: Grammar, lattice: InputLattice) -> list[int]:
    """The symbol id of every lattice item's preterminal, in item order;
    EngineError if one is not in the grammar."""
    ids = []
    for it in lattice.items:
        sym = grammar.by_name.get(it.preterminal)
        if sym is None:
            raise EngineError(f"lexical item {it.unit!r}: preterminal "
                              f"{it.preterminal!r} is not in the grammar")
        ids.append(sym.id)
    return ids


class Chart:
    """One parse session: mutable while parsing, immutable once parsed."""

    def __init__(self, compiled: CompiledGrammar, lattice: InputLattice,
                 trace: bool = False, debug: bool = False):
        self.compiled = compiled
        self.n = lattice.n
        # The relation tables as (LEFT, RIGHT) pairs, and the CaD of the
        # input boundary on each side.
        self.pd = (compiled.lpd, compiled.rpd)
        self.adj = (compiled.la, compiled.ra)
        self.bound = (compiled.lm, compiled.rm)
        self.edge = (0, self.n)
        self.cads = [CaD(i) for i in range(lattice.points)]
        self.nodes: dict[tuple[int, int, int], Node] = {}
        self.node_list: list[Node] = []
        self.events: dict[int, Event] = {}
        # Keys of live events and of fired ones: a fired event's key stays,
        # so a closed form is never created and fired again (a later
        # derivation of it goes straight to its node, see `_pack`).
        self.event_index: dict[tuple, Event] = {}
        # One deletion queue: EPSILON events are deleted like DELETE ones.
        self.delete_queue: deque[int] = deque()
        self.run_queue: deque[int] = deque()
        self.fusion_agenda: deque[tuple[int, int]] = deque()
        # (key, children) of the derivations found stillborn (see
        # `_new_event`) in the current action; None until the cycle starts.
        self.stillborn: set[tuple] | None = None
        self.stats = {
            "events_created": 0, "events_deleted": 0, "events_run": 0,
            "fusions": 0, "stale_fusions": 0, "epsilon_expansions": 0,
            "links": 0, "nodes": 0, "packed": 0, "packed_derivations": 0,
            "stillborn": 0,
        }
        # Every trace line is built behind `if self.tracing`, so an
        # untraced parse formats nothing.
        self.tracing = trace
        self.trace_lines: list[str] = []
        self.debug = debug
        self.status_audit: list[tuple] = []
        self.eps_nodes = epsilon_nodes(compiled)
        self.entry_needs = coverage_needs(compiled)
        self._next_node_id = len(self.eps_nodes)
        self._next_event_id = 0

        for it, sid in zip(lattice.items, lexical_symbols(compiled.grammar, lattice)):
            self.add_node(sid, it.fbp, it.lbp, origin="lexical")

    # -- small helpers ----------------------------------------------------

    def _sym_name(self, sid: int) -> str:
        return self.compiled.grammar.symbols[sid].name

    # -- steps 2 and 3: node creation with packing, events from coverage ---

    def add_node(self, symbol: int, fbp: int, lbp: int,
                 analysis: Analysis | None = None, origin: str = "derived"):
        """Admit a (symbol, span) node; pack the analysis onto an existing
        node, or create the node and its events from the coverage tables,
        and give support to the unsupported closed extremes its symbol is
        new to at its ends."""
        key = (symbol, fbp, lbp)
        existing = self.nodes.get(key)
        if existing is not None:
            if analysis is not None and existing.add_analysis(analysis):
                self.stats["packed"] += 1
                if self.tracing:
                    self.trace_lines.append(f"pack {self._sym_name(symbol)} [{fbp},{lbp}] "
                                            f"analysis {analysis.production.id}")
            return

        node = Node(self._next_node_id, symbol, fbp, lbp, origin)
        self._next_node_id += 1
        if analysis is not None:
            node.add_analysis(analysis)
        if self.debug and analysis is not None:
            self._assert_tiling(fbp, lbp, analysis.children)
        self.nodes[key] = node
        self.node_list.append(node)
        ends = (fbp, lbp)
        self.stats["nodes"] += 1
        if self.tracing:
            self.trace_lines.append(f"node {node.id} {self._sym_name(symbol)} "
                                    f"[{fbp},{lbp}] {origin}")
        # An entry's forms (`coverage_needs`) share the node's CaDs, so a
        # form's evidence on a side depends only on its dot there.  Once the
        # cycle has started, an entry with a side where no dot has class
        # support and none can have a fusion partner (it has no open dot, or
        # no open extreme faces it) has no form that would be born: all are
        # counted stillborn, none is keyed or spawned.  Each derivation holds
        # the new node, so none was met before in this action; a form that
        # is live already lacks evidence on that side too (a support bit or
        # fusion link there passes the test), so the drain deletes it with
        # whatever is packed into it.  A one-form entry passes its support
        # bits on.  During `Chart.__init__` every form is built, so no entry
        # is tested.
        stillborn = self.stillborn
        facing = (self.cads[fbp].open[RIGHT], self.cads[lbp].open[LEFT])
        for entry, waits in zip(self.compiled.coverage[symbol], self.entry_needs[symbol]):
            production, position = entry.production, entry.position
            if stillborn is None:
                self._new_event(production, (position, position + 1), ends, (node,))
                continue
            lhs = production.lhs.id
            supported = []
            for side in (LEFT, RIGHT):
                for need in waits[side]:
                    held = self._support(ends[side], side, need, lhs)
                    if held:
                        break
                if not (held or waits[side][0] is not None and facing[side]):
                    break
                supported.append(held)
            else:
                one_form = len(waits[LEFT]) == len(waits[RIGHT]) == 1
                self._new_event(production, (position, position + 1), ends, (node,),
                                supported if one_form else None)
                continue
            nleft, nright = len(waits[LEFT]), len(waits[RIGHT])
            self.stats["stillborn"] += nleft * nright
            if self.tracing:
                # in spawn order (`_spawn_epsilon_variants`): the right dot
                # outward, then for each right dot from the outermost in,
                # the left dot outward
                rdots = range(position + 1, position + 1 + nright)
                dots = [(position, r) for r in rdots] + [
                    (ldot, r) for r in reversed(rdots)
                    for ldot in range(position - 1, position - nleft, -1)]
                for dot in dots:
                    self.trace_lines.append(f"stillborn {render(production, dot, ends)}")
        # the node's ends join their CaDs' node masks only now, after its
        # events have been analyzed, so that every support test agrees with
        # the support bits.  A symbol new at an end supports the closed
        # extremes on side facing it there.
        bit = 1 << symbol
        for side in (RIGHT, LEFT):
            cad = self.cads[ends[1 - side]]
            if cad.nodes[1 - side] & bit:
                continue
            cad.nodes[1 - side] |= bit
            adj = self.adj[side]
            for ev in cad.closed[side].values():
                if not ev.support[side] and adj[ev.production.lhs.id] >> symbol & 1:
                    self._support_on(ev, side)
                    self._refresh_status(ev)

    def _assert_tiling(self, fbp, lbp, children):
        pos = fbp
        for c in children:
            if c.fbp >= 0:  # not a zero-width epsilon node
                assert c.fbp == pos, "children spans must tile the parent span"
                pos = c.lbp
        assert pos == lbp, "children spans must tile the parent span"

    def _new_event(self, production, dot, cad, children, supported=None, alts=None):
        """Create the event of this form holding these derivations (children,
        then alts, if any), unless the derivation was found stillborn in
        this action; if the form is live or has fired, pack the derivation
        into its event instead (`_pack`).  Once the cycle has started, a
        form with an extreme lacking evidence (no class support, and no
        fusion partner if open) is stillborn: its status would be DELETE or
        EPSILON, and until the deletion drain after this action nothing can
        give it evidence.  The other events of the action share its CaD
        pair, so they face the way it does; the node of a run publishes its
        mask only at its outer ends; deletions only take support away.  A
        stillborn form is not built, and its epsilon siblings are spawned
        all the same.  supported, when given, holds the form's class support
        per side (`_support`)."""
        key = event_key(production, dot, cad)
        if key in self.event_index:
            self._pack(self.event_index[key], children)
            return
        stillborn = self.stillborn
        if stillborn and (key, children) in stillborn:
            return
        rhs = production.rhs  # `needs`, inline: this runs for every form
        need = (rhs[dot[LEFT] - 1].id if dot[LEFT] > 0 else None,
                rhs[dot[RIGHT]].id if dot[RIGHT] < len(rhs) else None)
        if supported is None:
            lhs = production.lhs.id
            supported = (self._support(cad[LEFT], LEFT, need[LEFT], lhs),
                         self._support(cad[RIGHT], RIGHT, need[RIGHT], lhs))
        partners = (None, None)
        born = True
        if stillborn is not None and not (supported[LEFT] and supported[RIGHT]):
            partners = [None, None]
            for side in (LEFT, RIGHT):
                if supported[side]:
                    continue
                if need[side] is not None:
                    partners[side] = self._partners(production, dot, cad[side], side)
                if not partners[side]:
                    born = False
                    break
        if born:
            ev = Event(self._next_event_id, production, dot, cad, children, key, need, alts)
            self._next_event_id += 1
            self.events[ev.id] = ev
            self.event_index[key] = ev
            self.stats["events_created"] += 1
            if self.debug:
                self._assert_event_tiling(ev)
            if self.tracing:
                self.trace_lines.append(f"create e{ev.id} {ev.render()}")
            for side in (LEFT, RIGHT):
                self._analyze_extreme(ev, side, supported[side], partners[side])
            self._refresh_status(ev)
        else:
            stillborn.add((key, children))
            if alts:
                stillborn.update((key, kids) for kids in alts)
            self.stats["stillborn"] += 1
            if self.tracing:
                self.trace_lines.append(f"stillborn {render(production, dot, cad)}")
        if need[LEFT] in self.eps_nodes or need[RIGHT] in self.eps_nodes:
            for kids in (children, *alts) if alts else (children,):
                self._spawn_epsilon_variants(production, dot, cad, kids, need)

    def _pack(self, ev: Event, children: tuple):
        """A derivation of ev's form that ev does not hold yet joins it, and
        is replayed for itself alone, doing what an event of its own would
        have done.  (No derivation of a form found stillborn in this action
        comes here: nothing in the action can give the form evidence.)  If
        ev has fired, its node takes the analysis at once.  Otherwise the
        epsilon siblings are spawned with these children, and on each open
        side the derivation is merged (`_new_event`, alongside) with every
        derivation of every fusion partner facing it now, linked or not:
        the links with ev may have been fused before it arrived, when it did
        not yet hold it."""
        if ev.holds(children):
            return
        if ev.alts is None:
            ev.alts = {}
        ev.alts[children] = None
        self.stats["packed_derivations"] += 1
        if self.debug:
            self._assert_event_tiling(ev)
        if self.tracing:
            self.trace_lines.append(f"pack e{ev.id} {ev.render()}")
        production, dot, need = ev.production, ev.dot, ev.need
        if not ev.alive:
            self.add_node(production.lhs.id, *ev.cad, Analysis(production, children))
            return
        if need[LEFT] in self.eps_nodes or need[RIGHT] in self.eps_nodes:
            self._spawn_epsilon_variants(production, dot, ev.cad, children, need)
        for side in (LEFT, RIGHT):
            if need[side] is None:
                continue
            for p in self._partners(production, dot, ev.cad[side], side):
                e1, e2 = (p, ev) if side == LEFT else (ev, p)
                merged_dot, merged_cad = self._join(e1, e2)
                for kids in p.derivations():
                    merged = kids + children if side == LEFT else children + kids
                    self._new_event(production, merged_dot, merged_cad, merged)

    def _spawn_epsilon_variants(self, production, dot, cad, children, need):
        """The engine's one nullable step.  For each open extreme of the
        event of this form next to a nullable symbol, create the sibling
        that realizes the symbol empty: the dot moved over it, with the
        canonical zero-width node as the child.  The event keeps waiting
        for material; if it never gets evidence it turns EPSILON and is
        deleted (or is stillborn), and the sibling (spawned in turn, so a
        run of nullables is crossed one symbol per sibling) carries the
        empty realization on."""
        ldot, rdot = dot
        for side in (RIGHT, LEFT):
            eps = self.eps_nodes.get(need[side])
            if eps is None:
                continue
            if side == RIGHT:
                sibling, kids = (ldot, rdot + 1), children + (eps,)
            else:
                sibling, kids = (ldot - 1, rdot), (eps,) + children
            self._new_event(production, sibling, cad, kids)

    def _assert_event_tiling(self, ev: Event):
        ldot, rdot = ev.dot
        assert 0 <= ldot < rdot <= len(ev.production.rhs)
        for children in ev.derivations():
            assert len(children) == rdot - ldot
            self._assert_tiling(*ev.cad, children)

    def _extremes(self, ev: Event, side: int) -> dict[int, Event]:
        """The CaD list that holds ev's extreme on side, as ev stands."""
        cad = self.cads[ev.cad[side]]
        return (cad.open if ev.need[side] is not None else cad.closed)[side]

    # -- step 4: link analyses --------------------------------------------

    def _reach(self, cad: CaD, side: int) -> int:
        """The union of the pd rows of the closed classes on side at cad."""
        reach = cad.reach[side]
        if reach is None:
            reach = 0
            pd = self.pd[side]
            for lhs in cad.n_closed[side]:
                reach |= pd[lhs]
            cad.reach[side] = reach
        return reach

    def _starved(self, cad: CaD, side: int, need, sym: int) -> tuple[int, int] | None:
        """The masks of the closed and of the open classes at cad facing
        side that class sym (its lhs if need is None, else need) is
        compatible with and that lack support as the CaD stands (the tests
        of `_analyze_extreme`); None if there are none.  Facing a class
        here, they are not at the input boundary."""
        other = 1 - side
        pd_o = self.pd[other]
        if need is None:
            adj = self.adj[side][sym]
            compatible = ([lhs for lhs in cad.n_closed[other] if adj >> lhs & 1]
                          if adj & class_mask(cad.closed_mask, cad.n_closed, other) else ())
            opened = self.pd[side][sym] & class_mask(cad.open_mask, cad.n_open, other)
            if opened:
                opened &= ~self._reach(cad, side)
        else:
            compatible = ([lhs for lhs in cad.n_closed[other] if pd_o[lhs] >> sym & 1]
                          if self._reach(cad, other) >> sym & 1 else ())
            opened = 0
        closed = 0
        if compatible:
            adj_o = self.adj[other]
            near = class_mask(cad.closed_mask, cad.n_closed, side) | cad.nodes[side]
            opened_here = class_mask(cad.open_mask, cad.n_open, side)
            for lhs in compatible:
                if not (adj_o[lhs] & near or pd_o[lhs] & opened_here):
                    closed |= 1 << lhs
        return (closed, opened) if closed or opened else None

    def _support_on(self, ev: Event, side: int):
        ev.support[side] = True
        self.stats["links"] += 1
        if self.tracing:
            self.trace_lines.append(f"support e{ev.id}.{SIDE_NAMES[side]} on")

    def _support_off(self, ev: Event, side: int):
        ev.support[side] = False
        if self.tracing:
            self.trace_lines.append(f"support e{ev.id}.{SIDE_NAMES[side]} off")

    def _support(self, index: int, side: int, need, lhs: int):
        """Whether the extreme on side at CaD index of an lhs event, waiting
        for need (None if closed), has class support there: mask tests of
        its relation rows against the facing side and the input boundary.

        A closed extreme needs a neighbor: the input boundary, an adjacent
        node or closed extreme, or an open extreme whose required symbol
        its constituent can begin (end) on its side.  An open extreme needs
        a closed extreme whose constituent can end (begin) with its
        required symbol; a bare node is no promise that such a constituent
        will ever close here, and terminal expectations are met by fusion
        with the terminal's own anchored events."""
        # fresh masks are read in place: this runs for every form and entry
        other = 1 - side
        at = self.cads[index]
        if need is not None:
            reach = at.reach[other]
            if reach is None:
                reach = self._reach(at, other)
            return reach >> need & 1
        if index == self.edge[side]:
            return self.bound[side] >> lhs & 1
        closed = at.closed_mask[other]
        if closed is None:
            closed = class_mask(at.closed_mask, at.n_closed, other)
        if self.adj[side][lhs] & (closed | at.nodes[other]):
            return True
        opened = at.open_mask[other]
        if opened is None:
            opened = class_mask(at.open_mask, at.n_open, other)
        return self.pd[side][lhs] & opened

    def _partners(self, production, dot, index: int, side: int) -> list[Event]:
        """The fusion partners of an open extreme on side at CaD index of a
        production's event with these dots: the open extremes of the same
        production facing it there whose dot meets its own.  Where the dots
        are apart across nullable symbols, the epsilon siblings that cross
        them meet instead."""
        other = 1 - side
        return [p for p in self.cads[index].open[other].values()
                if p.production is production and p.dot[other] == dot[side]]

    def _analyze_extreme(self, ev: Event, side: int, supported, partners=None):
        """Link analysis of an extreme as it arrives at its CaD, given its
        class support (`_support`) and, if it is open, its fusion partners
        (`_partners`, found here when None): wire it into the CaD list and
        class count and set its support bit.  A class new at the CaD gives
        support to the unsupported facing extremes it is compatible with;
        the relation is symmetric, so there are some only if it has support
        itself.  Then link up with the fusion partners."""
        other = 1 - side
        cad = self.cads[ev.cad[side]]
        need = ev.need[side]
        if need is None:
            sym = ev.production.lhs.id
            cad.closed[side][ev.id] = ev
            counts = cad.n_closed[side]
            n = counts.get(sym, 0)
            if not n:
                cad.closed_mask[side] = cad.reach[side] = None
        else:
            sym = need
            cad.open[side][ev.id] = ev
            counts = cad.n_open[side]
            n = counts.get(sym, 0)
            if not n:
                cad.open_mask[side] = None
        counts[sym] = n + 1
        if supported:
            self._support_on(ev, side)
            if n == 0 and (cad.closed[other] or need is None and cad.open[other]):
                for p in self._facing(cad, side, need, sym):
                    self._support_on(p, other)
                    self._refresh_status(p)
        if need is None:
            return
        if partners is None:
            if not cad.open[other]:
                return
            partners = self._partners(ev.production, ev.dot, cad.index, side)
        # each partner gains support and is refreshed (without that when
        # ev's right extreme is analyzed, random_case(396) counts 10 trees
        # instead of 12); ev's refresh in mid-analysis on the left side only
        # sets where it enters the queues, which the event counts depend on.
        for p in partners:
            e1, e2 = (p, ev) if side == LEFT else (ev, p)
            self._add_fusion(e1, e2)
            if side == LEFT:
                self._refresh_status(ev)
            self._refresh_status(p)

    def _facing(self, cad: CaD, side: int, need, sym: int):
        """The unsupported extremes at cad facing side that class sym (as in
        `_starved`) is compatible with: those whose relation row holds it."""
        other = 1 - side
        if need is None:
            adj = self.adj[side][sym]
            for p in cad.closed[other].values():
                if not p.support[other] and adj >> p.production.lhs.id & 1:
                    yield p
            pd = self.pd[side][sym]
            for q in cad.open[other].values():
                if not q.support[other] and pd >> q.need[other] & 1:
                    yield q
        else:
            pd = self.pd[other]
            for p in cad.closed[other].values():
                if not p.support[other] and pd[p.production.lhs.id] >> sym & 1:
                    yield p

    def _detach(self, ev: Event, side: int, lost: list[Event]):
        """Unwire ev's extreme on side from its CaD list and class count.
        When its class vanishes there, the facing classes it was compatible
        with (there are some only if it had support) are tested again; the
        extremes of those left without support lose their bit and go on
        `lost`."""
        other = 1 - side
        cad = self.cads[ev.cad[side]]
        need = ev.need[side]
        if need is None:
            sym = ev.production.lhs.id
            del cad.closed[side][ev.id]
            counts = cad.n_closed[side]
        else:
            sym = need
            del cad.open[side][ev.id]
            counts = cad.n_open[side]
        n = counts.pop(sym) - 1
        if n:
            counts[sym] = n
            return
        if need is None:
            cad.closed_mask[side] = cad.reach[side] = None
        else:
            cad.open_mask[side] = None
        starved = (ev.support[side] and (cad.closed[other] or need is None and cad.open[other])
                   and self._starved(cad, side, need, sym))
        if not starved:
            return
        closed, opened = starved
        if closed:
            for p in cad.closed[other].values():
                if closed >> p.production.lhs.id & 1:
                    self._support_off(p, other)
                    lost.append(p)
        if opened:
            for q in cad.open[other].values():
                if opened >> q.need[other] & 1:
                    self._support_off(q, other)
                    lost.append(q)

    def _add_fusion(self, e1: Event, e2: Event):
        """Link e1's open right extreme with e2's open left one and put the
        pair on the fusion agenda."""
        e1.fusion[RIGHT][e2.id] = e2
        e2.fusion[LEFT][e1.id] = e1
        self.stats["links"] += 1
        self.fusion_agenda.append((e1.id, e2.id))
        if self.tracing:
            self.trace_lines.append(f"link fusion e{e1.id}.R <-> e{e2.id}.L")

    def _release(self, ev: Event) -> list[Event]:
        """Take ev out of the live events and its CaDs: the facing extremes
        left without class support lose their bit, and its fusion partners
        drop their links with it.  Returns those extremes' events and the
        partners, whose status may have changed."""
        ev.alive = False
        del self.events[ev.id]
        partners = []
        for side in (LEFT, RIGHT):
            self._detach(ev, side, partners)
            for p in ev.fusion[side].values():
                del p.fusion[1 - side][ev.id]
                partners.append(p)
        return partners

    # -- step 5: the logical status machine --------------------------------

    def compute_status(self, ev: Event) -> str:
        """RUN when both extremes are closed and supported, DERIVATION when
        both are supported and one is open.  With one extreme supported,
        EPSILON when the other waits next to a nullable symbol.  Anything
        else is DELETE."""
        need, support, fusion = ev.need, ev.support, ev.fusion
        # an extreme has evidence when a class supports it or it holds a
        # fusion link
        supported = (support[LEFT] or bool(fusion[LEFT]), support[RIGHT] or bool(fusion[RIGHT]))
        nullable = self.compiled.nullable
        if supported[LEFT] and supported[RIGHT]:
            status = RUN if need == (None, None) else DERIVATION
        elif supported[LEFT] or supported[RIGHT]:
            unsupported = RIGHT if supported[LEFT] else LEFT
            status = EPSILON if need[unsupported] in nullable else DELETE
        else:
            status = DELETE
        if self.debug:
            self.status_audit.append((need[LEFT] is None, need[RIGHT] is None, *supported,
                                      need[RIGHT] in nullable, need[LEFT] in nullable, status))
        return status

    def _refresh_status(self, ev: Event):
        if not ev.alive:
            return
        status = self.compute_status(ev)
        if status != ev.status:
            ev.status = status
            if self.tracing:
                self.trace_lines.append(f"status e{ev.id} {status} {ev.render()}")
            if status == RUN:
                self.run_queue.append(ev.id)
            elif status != DERIVATION:
                self.delete_queue.append(ev.id)

    # -- step 6 actions -----------------------------------------------------

    def delete_event(self, ev: Event):
        """Remove an event; the extremes left without support get their
        status recomputed (the constraint-propagation cascade)."""
        if self.event_index.get(ev.key) is ev:
            del self.event_index[ev.key]
        self.stats["events_deleted"] += 1
        if self.tracing:
            self.trace_lines.append(f"delete e{ev.id} {ev.render()}")
        for partner in self._release(ev):
            self._refresh_status(partner)

    def run_event(self, ev: Event):
        """Fire a closed-closed event: apply the production and admit the
        resulting node, with one analysis per derivation.  The event leaves
        its CaDs but its key stays indexed.  The extremes it leaves without
        support lose their bit before the node is admitted, and their status
        is refreshed after, once the node and its events have given what
        support they can."""
        self.stats["events_run"] += 1
        if self.tracing:
            self.trace_lines.append(f"run e{ev.id} {ev.render()}")
        partners = self._release(ev)
        production, lhs = ev.production, ev.production.lhs.id
        self.add_node(lhs, *ev.cad, Analysis(production, ev.children))
        if ev.alts:
            for children in ev.alts:
                self.add_node(lhs, *ev.cad, Analysis(production, children))
        for partner in partners:
            self._refresh_status(partner)

    def _join(self, e1: Event, e2: Event) -> tuple:
        """The dots and CaDs of the merge of e1 with e2, its right partner."""
        return (e1.dot[LEFT], e2.dot[RIGHT]), (e1.cad[LEFT], e2.cad[RIGHT])

    def fuse(self, left_id: int, right_id: int):
        """Merge two same-production events whose dots meet at a CaD: every
        derivation of e1 with every derivation of e2.  The pair is stale
        unless e1 is live and still holds the link (a link only joins open
        extremes whose dots meet, and only extremes without links move), or
        if the merged form already holds every merged derivation."""
        e1 = self.events.get(left_id)
        if e1 is None or right_id not in e1.fusion[RIGHT]:
            self.stats["stale_fusions"] += 1
            return
        e2 = e1.fusion[RIGHT][right_id]
        prod = e1.production
        dot, cad = self._join(e1, e2)
        if e1.alts is None and e2.alts is None:
            merged = [e1.children + e2.children]
        else:
            merged = [a + b for a in e1.derivations() for b in e2.derivations()]
        if self.tracing:
            self.trace_lines.append(f"fuse e{e1.id} + e{e2.id} @ {e1.cad[RIGHT]}")
        key = event_key(prod, dot, cad)
        ev = self.event_index.get(key)
        if ev is not None:
            merged = [children for children in merged if not ev.holds(children)]
            if not merged:
                # the merged form already holds them all; just consume the link
                del e1.fusion[RIGHT][e2.id]
                del e2.fusion[LEFT][e1.id]
                self._refresh_status(e1)
                self._refresh_status(e2)
                self.stats["stale_fusions"] += 1
                return
        # does either extreme meeting here hold evidence besides this link?
        pair = (e1, e2)
        held = [e.support[1 - s] or len(e.fusion[1 - s]) > 1
                for s, e in enumerate(pair)]
        self.stats["fusions"] += 1
        if ev is not None:
            # the merged form exists with other derivations: these join it
            for children in merged:
                self._pack(ev, children)
        elif held[LEFT] and held[RIGHT]:
            self._new_event(prod, dot, cad, merged[0],
                            alts=dict.fromkeys(merged[1:]) if len(merged) > 1 else None)
        if held[LEFT] and held[RIGHT]:
            # both extremes carry further evidence: e1 and e2 stay, the
            # merged event is alongside them
            return
        del e1.fusion[RIGHT][e2.id]
        del e2.fusion[LEFT][e1.id]
        # the event whose extreme has other evidence stays as it is; the
        # other absorbs the merge, moving its extreme on the stayer's side.
        # If neither has, e1 absorbs and e2 goes away.  Where the merged form
        # exists, the absorber is deleted instead: a move would have taken
        # its old form away.
        if held[LEFT] or held[RIGHT]:
            side = LEFT if held[LEFT] else RIGHT
            self._refresh_status(pair[side])
            mover, gone = pair[1 - side], None
        else:
            side, mover, gone = RIGHT, e1, e2
        if ev is None:
            self._mutate(mover, side, dot, cad, merged, key)
        else:
            self.delete_event(mover)
        if gone is not None:
            self.delete_event(gone)

    def _mutate(self, ev: Event, side: int, dot, cad, merged: list, key):
        """Give a surviving event the merged form and derivations, which
        moves its extreme on side.  The moved extreme had no evidence
        besides the consumed fusion link, so no class support, and by
        symmetry it supports nothing: leaving its CaD takes no support
        away.  fuse found the merged key unindexed."""
        del self.event_index[ev.key]
        self._detach(ev, side, [])
        need = needs(ev.production, dot)
        ev.dot, ev.cad, ev.need, ev.key = dot, cad, need, key
        ev.children, ev.alts = merged[0], dict.fromkeys(merged[1:]) if len(merged) > 1 else None
        self.event_index[key] = ev
        if self.debug:
            self._assert_event_tiling(ev)
        if self.tracing:
            self.trace_lines.append(f"mutate e{ev.id} {ev.render()}")
        self._analyze_extreme(ev, side, self._support(cad[side], side, need[side],
                                                      ev.production.lhs.id))
        self._refresh_status(ev)
        if need[LEFT] in self.eps_nodes or need[RIGHT] in self.eps_nodes:
            for children in merged:
                self._spawn_epsilon_variants(ev.production, dot, cad, children, need)

    # -- the parsing cycle ---------------------------------------------------

    def parse_cycle(self):
        """Drain the deletion queue, the run queue and the fusion agenda,
        in that strict priority order, until nothing is pending.  Each run
        or fusion action starts with no stillborn keys: the drain after an
        action would have deleted its stillborn events, keys and all."""
        stillborn = self.stillborn = set()
        while True:
            if self.delete_queue:
                ev = self.events.get(self.delete_queue.popleft())
                if ev is not None and ev.status in (DELETE, EPSILON):
                    if ev.status == EPSILON:
                        self.stats["epsilon_expansions"] += 1
                    self.delete_event(ev)
                continue
            if self.run_queue:
                ev = self.events.get(self.run_queue.popleft())
                if ev is not None and ev.status == RUN:
                    stillborn.clear()
                    self.run_event(ev)
                continue
            if self.fusion_agenda:
                stillborn.clear()
                self.fuse(*self.fusion_agenda.popleft())
                continue
            break
        if self.debug:
            self.check_invariants()
        return self

    def check_invariants(self):
        """Debug check of the chart's bookkeeping, then of the fixpoint.
        Bookkeeping: every live event's key indexes it, the CaD lists hold
        exactly the live events' extremes, each on its open or closed side,
        fusion links are symmetric between live events and join open
        extremes of one production whose dots meet at one CaD, and every
        CaD's class counts, node mask and (where not stale) class masks and
        reach agree with a recount from its lists and the nodes.
        Fixpoint: every extreme's support bit equals a scan of its CaD for
        anything compatible, and every live event's stored status is
        current."""
        for ev in self.events.values():
            assert self.event_index.get(ev.key) is ev, f"e{ev.id}: key not indexed"
            for side in (LEFT, RIGHT):
                name = f"e{ev.id}.{SIDE_NAMES[side]}"
                assert self._extremes(ev, side).get(ev.id) is ev, f"{name}: not in its CaD list"
                for p in ev.fusion[side].values():
                    assert self.events.get(p.id) is p and p.fusion[1 - side].get(ev.id) is ev, \
                        f"{name}: fusion link with e{p.id} is one-sided"
            for p in ev.fusion[RIGHT].values():
                assert (p.production is ev.production and p.cad[LEFT] == ev.cad[RIGHT]
                        and None not in (ev.need[RIGHT], p.need[LEFT])
                        and ev.dot[RIGHT] == p.dot[LEFT]), \
                    f"e{ev.id}.R: fusion link with e{p.id} joins dots that do not meet"
        held = sum(len(extremes) for cad in self.cads for extremes in cad.open + cad.closed)
        assert held == 2 * len(self.events), "CaD lists hold extremes of dead events"

        node_syms = {}  # (CaD index, side) -> symbols of the nodes ending there
        for nd in self.node_list:
            for side, end in enumerate((nd.fbp, nd.lbp)):
                node_syms.setdefault((end, side), []).append(nd.symbol)
        for cad in self.cads:
            for side in (LEFT, RIGHT):
                name = f"CaD {cad.index}.{SIDE_NAMES[side]}"
                closed, opened = {}, {}
                for ev in cad.closed[side].values():
                    closed[ev.production.lhs.id] = closed.get(ev.production.lhs.id, 0) + 1
                for ev in cad.open[side].values():
                    opened[ev.need[side]] = opened.get(ev.need[side], 0) + 1
                assert cad.n_closed[side] == closed and cad.n_open[side] == opened, \
                    f"{name}: class counts differ from its lists"
                nodes = sum(1 << sym for sym in set(node_syms.get((cad.index, side), ())))
                assert cad.nodes[side] == nodes, f"{name}: node mask differs from the nodes"
                reach = 0
                for lhs in closed:
                    reach |= self.pd[side][lhs]
                assert (cad.closed_mask[side] in (None, sum(1 << lhs for lhs in closed))
                        and cad.open_mask[side] in (None, sum(1 << x for x in opened))
                        and cad.reach[side] in (None, reach)), \
                    f"{name}: class masks differ from its counts"

        def compatible(ev: Event, side: int) -> bool:
            """Whether anything at ev's CaD on side supports that extreme,
            found by walking the CaD's lists and nodes."""
            other = 1 - side
            cad = self.cads[ev.cad[side]]
            need = ev.need[side]
            if need is not None:
                pd = self.pd[other]
                return any(pd[p.production.lhs.id] >> need & 1
                           for p in cad.closed[other].values())
            delta = ev.production.lhs.id
            if cad.index == self.edge[side]:
                return self.bound[side] >> delta & 1 == 1
            adj, pd = self.adj[side][delta], self.pd[side][delta]
            return (any(adj >> sym & 1 for sym in node_syms.get((cad.index, other), ()))
                    or any(adj >> p.production.lhs.id & 1 for p in cad.closed[other].values())
                    or any(pd >> q.need[other] & 1 for q in cad.open[other].values()))

        for ev in self.events.values():
            for side in (LEFT, RIGHT):
                assert ev.support[side] == compatible(ev, side), \
                    f"e{ev.id}.{SIDE_NAMES[side]}: support bit is stale"
            assert ev.status == self.compute_status(ev), f"e{ev.id}: stale status"

    # -- results ---------------------------------------------------------------

    def accept(self) -> list[Node]:
        """Root nodes spanning the whole input (empty means rejected); the
        empty input is grammatical iff some root is nullable."""
        roots = []
        if self.n == 0:
            for r in self.compiled.grammar.roots:
                if r.id in self.compiled.nullable:
                    roots.append(self.eps_nodes[r.id])
            return roots
        for r in self.compiled.grammar.roots:
            node = self.nodes.get((r.id, 0, self.n))
            if node is not None:
                roots.append(node)
        return roots

    def surviving_events(self):
        return list(self.events.values())


def init_session(compiled: CompiledGrammar, lattice: InputLattice, **kwargs) -> Chart:
    """Create the CaDs, admit the lexical items and prime the queues."""
    return Chart(compiled, lattice, **kwargs)


def parse(compiled: CompiledGrammar, lattice: InputLattice, **kwargs) -> Chart:
    """Full parse: init_session + parse_cycle."""
    return init_session(compiled, lattice, **kwargs).parse_cycle()
