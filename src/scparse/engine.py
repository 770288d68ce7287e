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
order.  The agenda keeps one bucket of linked pairs per merged width in
breaking points and pops the narrowest first (CKY's order by span length):
an action makes events at least as wide as itself, and any pair they join
is wider, so the popped width never falls.  A pair that widened while it
waited (an event of it moved an extreme in another fusion) is requeued.

Nullable symbols are handled in one place.  An open extreme next to a
nullable symbol has two outcomes: the symbol is realized empty, or real
material arrives later.  Whenever an event is created, mutated or packed,
`_spawn_epsilon_variants` makes the first outcome a sibling event, its
dot moved over the symbol and the symbol's zero-width node its child (as
in Aycock & Horspool 2002; built with the grammar, `CompiledGrammar`), and
the event itself waits for the second.  A fusion joins only extremes
whose dots meet: where two events face each other across nullable
symbols, the siblings that cross them meet.  An EPSILON event is one
whose open extreme lacks evidence next to a nullable symbol: the material
it waits for has no support, and its empty realization was spawned when
it took its current form.  So it is deleted like a DELETE event; its
sibling is live or has fired, or was deleted as unsupported itself, which
is sound as below.

Status asks only whether an extreme has evidence.  A closed extreme's
support is fixed when it arrives: it is the input boundary or a lexical
item beside it, since whatever may stand beside it has a lexical item as
its outermost descendant there (the lemma at `_support`; so early
deletions stay sound, and a node made in the cycle adds no support).
Every lexical item is known before the first event is built, so each CaD
side holds that support as one mask of classes, `closable`.  What an open
extreme is compatible with at its CaD depends only on its side and one
symbol, the one it waits for, so classes serve open extremes only: each
CaD counts its closed extremes per side by lhs (AC-4 support counting,
Mohr & Henderson 1986, lifted from values to classes), and `reach`, the
union of the closed classes' partial-derivability rows, is derived from
the counts when read.  Each extreme keeps one support bit, set by one bit
test: its symbol in the facing `reach` (open), or its lhs in `closable`
(closed).  Once the cycle runs, support is only lost: a closed class that
appears at a CaD finds the facing open extremes it is compatible with
supported already (the lemma at `_support`); when one vanishes, the
facing open extremes whose symbol the remaining `reach` no longer covers
lose it, and their events may starve in turn: that is the delete
cascade, and it runs through open extremes only.  A run's vanished
classes are judged once its node's events are in, so a bit the node
covers again never goes off (`_starve`).  Fusion links, which `fuse`
looks up and counts, are the exception: they are kept explicitly, per
side and keyed by partner id, on both events.  Every fusion consumes its
link, so a link means exactly that its pair is on the agenda, and the
cycle stops with no event live (`parse_cycle`).  A status is recomputed
only where an extreme may have gained or lost its last evidence, and once
the cycle runs it only falls (`_drain`): the queues and the agenda hold
the events themselves, and only a deletion entry can find its event dead.

An event is its form: production, dots and CaDs (`event_key`).  Status,
link analysis and fusion read only the form, never the children between
the dots, so one event stands for every child tuple of its form (local
ambiguity packing, Tomita 1986; Billot & Lang 1989): its first in
`children`, the others in `alts`, None on unambiguous input.  A fusion
merges every derivation of one event with every derivation of the other;
a run gives the node one analysis per derivation.  A derivation arriving
for a live form is packed into its event and replayed for itself alone,
doing what an event of its own would have done (`_pack`): it spawns its
epsilon siblings with these children and is merged with every derivation
of every fusion partner facing it now whose pair is not pending, as a
pending fusion merges it itself; any other partner met the event in a
fusion, before the event held it.  `Chart.events` holds the live events
by form: a run releases its event's key, and the node stands for the form
from then on.  A complete constituent is its node (Billot & Lang 1989),
so a cycle form closed on both sides is never an event, built or moved
into: its event would be RUN from birth and only fire.  Its derivations
go to its node at once (`_complete`), packed onto it if it is in, or,
given closed support on both sides, making it; the node then waits on a
worklist, first in, first out, for its coverage forms, which are made
before the action judges any vanished class (`_fire`; the lemma at
`_new_event`).  So every RUN event is an init event.  When a fusion's
merged form exists with other derivations, as an event or a node, the
new ones are packed into it, and an event that would have moved to a
form that exists or is closed is deleted instead (moving would have
taken its old form away, or only fired).  So ambiguity costs one tuple
per derivation, not one event life, and a complete constituent costs no
event at all.

Once the cycle has started, an event is not built when it would be born
DELETE or EPSILON: its status is decided from its support bits and a scan
for fusion partners before anything is allocated (left-corner filtering
before an item is built, as in Moore 2000).  Such a stillborn form gets
no event, index entry, CaD wiring or queue entry, and no deletion later;
its epsilon siblings are still spawned, and the derivation (key and
children) blocks a duplicate until the next run or fusion action, as the
built event would have until the deletion drain.  It is sound because
nothing but deletions runs between an action and that drain, and within
the action nothing can give the form evidence (see `_new_event`).  A
form open at its own input edge, where it faces nothing, is stillborn
before any other test.  For a node made at an input edge, that test is
one bit of each coverage entry, set when the grammar was compiled
(`CoverageEntry.edge`): an entry without it is stillborn in every form of
its nullable expansion, and none of them is keyed or spawned (`_fire`).
`Chart.__init__` builds every form, never stillborn, in batch phases, as
AC-4 initializes (Mohr & Henderson 1986): it admits every lexical node
and sets the CaDs' lexical masks and lexical reach; builds every form
and wires it into its CaDs (`_wire`), unless an extreme of it can never
have evidence (the bound at `_support`), as AC-4 drops an unsupported
value before propagating; gives each wired extreme its support bit once
against the final counts, links each meeting fusion pair once and gives
each event its status once; then deletes the unwired forms.
`events_created` and `events_deleted` count built events only, those
deleted in init included; `epsilon_expansions` counts the EPSILON events
the cycle deletes; `stillborn` counts the forms not built;
`fired_at_once` counts the nodes that a closed form with no event made,
and `packed_at_once` every derivation such a form gave its node.

The two directions mirror each other, so every per-side fact is a pair
indexed by LEFT (0) or RIGHT (1) and each step is written once for a
`side`, with `other = 1 - side` the side facing it across a CaD: an
event's dots, CaD indices and the symbols its open extremes wait for
(`need`, None on a closed side), its support bits and fusion links; a
CaD's open extremes, closed class counts, reach and lexical symbols; the
chart's partial-derivability, adjacency and boundary tables.
Where the order of the two sides matters to the queues (and so to the
event counts), it is fixed in place: spawned siblings are made RIGHT
first, extremes are analyzed LEFT first.
"""

from __future__ import annotations

from collections import deque

from .lattice import InputLattice
from .relations import CompiledGrammar
from .grammar import TERMINAL, Analysis, Grammar, Node, Production

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

    def __init__(self, eid, production, dot, cad, children, key, need, alts=None):
        self.id = eid
        self.production = production
        # Its form, which a fusion may give it anew: the (LEFT, RIGHT) dots
        # and CaD indices, the `needs` of the dots and the key they make.
        self.dot = dot
        self.cad = cad
        self.need = need
        self.key = key
        # The children between the dots: its first child tuple, and the
        # other derivations of its form packed into it (a dict used as an
        # ordered set), None while it has only the one.
        self.children = children
        self.alts = alts
        # Per side: whether the extreme has support at its CaD (the Chart
        # keeps this bit, see `Chart._support`), and its fusion links
        # (partner id -> Event).
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
    """Per-breaking-point tables of event extremes, each a (LEFT, RIGHT)
    pair.  open[side] holds the events whose extreme on side is here and
    open.  The closed ones are kept as classes, which serve open extremes
    only: n_closed[side] counts them by lhs (a class is present while its
    count is), and reach[side], the union of the closed classes'
    partial-derivability rows, is derived from the counts when read
    (`Chart._reach`); None marks it stale.  Set in `Chart.__init__` and
    never again: closable[side], the classes whose closed extreme on side
    has support here (the union of the ra rows of the lexical items ending
    here (LEFT) or the la rows of those starting here (RIGHT); lm (rm) at
    the input edge), and lexical[side], the lexical reach of the items
    whose end on side is here (LEFT: items starting here), the union of
    their pd rows, which bounds reach[side] (`Chart._support`)."""

    __slots__ = ("index", "open", "n_closed", "closable", "lexical", "reach")

    def __init__(self, index: int):
        self.index = index
        self.open: tuple[dict[int, Event], dict[int, Event]] = ({}, {})
        self.n_closed: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self.closable = [0, 0]
        self.lexical = [0, 0]
        self.reach = [0, 0]


def lexical_symbols(grammar: Grammar, lattice: InputLattice) -> list[int]:
    """The symbol id of every lattice item's preterminal, in item order;
    EngineError if one is not a terminal of the grammar.  A nonterminal
    item's node may also be made in the cycle (`_complete`), and the forest
    would count its analyses but not its lexical reading; the item would
    also give an init form a second derivation (the lemma at `_pack`)."""
    ids = []
    for it in lattice.items:
        sym = grammar.by_name.get(it.preterminal)
        if sym is None:
            raise EngineError(f"lexical item {it.unit!r}: preterminal "
                              f"{it.preterminal!r} is not in the grammar")
        if sym.kind != TERMINAL:
            raise EngineError(f"lexical item {it.unit!r}: preterminal "
                              f"{it.preterminal!r} is a nonterminal")
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
        # The live events by form (`event_key`; during init, the retired
        # ones too, until every form is built): a fired event's key goes, as
        # its node stands for its form (`_complete`).
        self.events: dict[tuple, Event] = {}
        # One deletion queue: EPSILON events are deleted like DELETE ones.
        self.delete_queue: deque[Event] = deque()
        self.run_queue: deque[Event] = deque()
        # The fusion agenda, one bucket of (e1, e2) pairs per merged width
        # (`width` is being popped).  A link stands for its pair on it.
        self.fusion_agenda: list[list[tuple[Event, Event]]] = [[] for _ in range(lattice.points)]
        self.width = 0
        # (key, children) of the derivations found stillborn (see
        # `_new_event`) in the current action; None until the cycle starts.
        self.stillborn: set[tuple] | None = None
        # The nodes made in the cycle whose coverage forms are still to be
        # made, first in, first out (`_complete`, `_fire`).
        self.firing: deque[Node] = deque()
        self.stats = {
            "events_created": 0, "events_deleted": 0, "events_run": 0,
            "fired_at_once": 0, "fusions": 0, "stale_fusions": 0, "epsilon_expansions": 0,
            "links": 0, "nodes": 0, "packed": 0, "packed_at_once": 0,
            "packed_derivations": 0, "stillborn": 0,
        }
        # Every trace line is built behind `if self.tracing`, so an
        # untraced parse formats nothing.
        self.tracing = trace
        self.trace_lines: list[str] = []
        self.debug = debug
        self.status_audit: list[tuple] = []
        self.eps_nodes = compiled.eps_nodes
        self.retired: list[Event] | None = []  # init events never wired, None after init

        # the batch phases of init (see the module docstring)
        cads, lpd, rpd, la, ra = self.cads, compiled.lpd, compiled.rpd, compiled.la, compiled.ra
        for it, sid in zip(lattice.items, lexical_symbols(compiled.grammar, lattice)):
            if (sid, it.fbp, it.lbp) not in self.nodes:  # an item may be read twice
                self._admit(sid, it.fbp, it.lbp, None, "lexical")
            first, last = cads[it.fbp], cads[it.lbp]
            first.closable[RIGHT] |= la[sid]
            last.closable[LEFT] |= ra[sid]
            first.lexical[LEFT] |= lpd[sid]
            last.lexical[RIGHT] |= rpd[sid]
        cads[0].closable[LEFT], cads[self.n].closable[RIGHT] = self.bound
        for node in self.node_list:
            ends = (node.fbp, node.lbp)
            for entry in compiled.coverage[node.symbol]:
                self._new_event(entry.production, (entry.position, entry.position + 1), ends,
                                (node,))
        for ev in self.retired:
            del self.events[ev.key]
        links = 0
        for ev in self.events.values():
            # a closed side passed the bound in `_new_event`: it has support
            for side in (LEFT, RIGHT):
                need = ev.need[side]
                if need is None or self._reach(self.cads[ev.cad[side]], 1 - side) >> need & 1:
                    ev.support[side] = True  # `_support_on`, inline: this runs for every side
                    links += 1
                    if self.tracing:
                        self.trace_lines.append(f"support e{ev.id}.{SIDE_NAMES[side]} on")
            if ev.need[RIGHT] is not None:
                for p in self._partners(ev.production, ev.dot, ev.cad[RIGHT], RIGHT):
                    self._add_fusion(ev, p)
        self.stats["links"] += links
        for ev in self.events.values():
            self._refresh_status(ev)
        for ev in self.retired:
            self.stats["events_deleted"] += 1
            if self.tracing:
                self.trace_lines.append(f"delete e{ev.id} {ev.render()}")
        self.retired = None
        if debug:
            self.check_invariants()

    # -- small helpers ----------------------------------------------------

    def _sym_name(self, sid: int) -> str:
        return self.compiled.grammar.symbols[sid].name

    # -- steps 2 and 3: node creation with packing, events from coverage ---

    def _admit(self, symbol, fbp, lbp, analysis, origin) -> Node:
        """The new node of (symbol, span), which is not in, holding the
        analysis if any."""
        node = Node(len(self.eps_nodes) + self.stats["nodes"], symbol, fbp, lbp, origin)
        if analysis is not None:
            node.add_analysis(analysis)
        self.nodes[symbol, fbp, lbp] = node
        self.node_list.append(node)
        self.stats["nodes"] += 1
        if self.tracing:
            self.trace_lines.append(f"node {node.id} {self._sym_name(symbol)} "
                                    f"[{fbp},{lbp}] {origin}")
        return node

    def _pack_node(self, node: Node, analysis: Analysis) -> bool:
        """Pack an analysis onto an existing node; whether it was new there."""
        if not node.add_analysis(analysis):
            return False
        self.stats["packed"] += 1
        if self.tracing:
            self.trace_lines.append(f"pack {self._sym_name(node.symbol)} [{node.fbp},{node.lbp}] "
                                    f"analysis {analysis.production.id}")
        return True

    def _complete(self, production, cad, derivations, ev=None) -> int:
        """Give the node of a cycle form closed on both sides, with closed
        support on both, one analysis per derivation, and return how many
        were new to it.  The derivations are those of ev, an event run, or,
        with no ev, of a form with no event (`fired_at_once`,
        `packed_at_once`; the lemma at `_new_event`).  The node is in if a
        run or an earlier form made it: every lexical node is a terminal's
        (`lexical_symbols`) and no terminal is an lhs.  Otherwise it is made
        now and waits on `firing` for its coverage forms (`_fire`), and from
        then on it stands for the form: a complete constituent is its node
        (Billot & Lang 1989)."""
        if self.debug:
            self._assert_form_tiling(production, (0, len(production.rhs)), cad, derivations)
        lhs, new = production.lhs.id, 0
        node = self.nodes.get((lhs, cad[LEFT], cad[RIGHT]))
        if node is None:
            if ev is None:
                self.stats["fired_at_once"] += 1
                if self.tracing:
                    self.trace_lines.append(
                        f"fire {render(production, (0, len(production.rhs)), cad)}")
            node = self._admit(lhs, *cad, Analysis(production, derivations[0]), "derived")
            self.firing.append(node)
            new, derivations = 1, derivations[1:]
        for children in derivations:
            new += self._pack_node(node, Analysis(production, children))
        if ev is None:
            self.stats["packed_at_once"] += new
        return new

    def _new_event(self, production, dot, cad, children, alts=None):
        """Create the event of this form holding these derivations (children,
        then alts, if any), unless the derivation was found stillborn in
        this action; if the form is live, pack the derivation into its
        event instead (`_pack`).  Once the cycle has started, a form with
        an extreme lacking evidence (no support, and no fusion partner if
        open) is stillborn: its status would be DELETE or EPSILON, and until
        the deletion drain after this action nothing can give it evidence.
        The other events of the action share its CaD pair, so they face the
        way it does; a closed extreme's support is fixed when it arrives;
        deletions only take support away.  A stillborn form is not built,
        and its epsilon siblings are spawned all the same.  Its key and
        children are kept until the action ends, as a built event's key
        would have been, and that is what keeps the cycle polynomial: the
        siblings of a form cross its nullable symbols one per spawn, so a
        form a dot moves left and b right away is reached by C(a+b, a) spawn
        paths, one per order of the moves, and without the key each path
        would test it and spawn its siblings again.  A form given alts is
        never stillborn, so no alt needs a stillborn key: alts come only
        from `fuse`'s both-held path, where the form's outer extremes are
        e1's left and e2's right, each with evidence when the action started
        and none lost since (the consumed link was at the CaD where they
        meet), a support bit `_support` finds again or a partner `_partners`
        finds again.  Nor is such a form closed on both sides: `fuse` gives
        those derivations to their node itself (`_complete`).
        During `Chart.__init__` every form is built; one with an extreme
        that can never have evidence (the bound at `_support`) is retired:
        keyed, so a later derivation packs into it, never wired, and
        deleted at the end of init; the others are only wired (`_wire`),
        and analyzed once all are built.

        In the cycle, a form closed on both sides is not built either.  With
        closed support on both sides its derivations go to its node at once
        (`_complete`), with no event, key, wiring, support bit, status,
        queue entry, run or release; without, it is stillborn.  A node that
        is in proves the support: a form of the same lhs and CaDs made it,
        and closed support is fixed.  Built, the form would be RUN from
        birth and only fire, and skipping it changes no node and no
        analysis.  Where its node is in (`packed_at_once`):
        (a) Its only fate is to fire.  It has no open extreme, so no link,
        fusion or move: it is RUN from birth and fires before the drain of
        its action ends.
        (b) Its run makes no node: every derivation packs onto the node.  So
        it brings no class, spawns no form and links nothing; besides
        packing, it only takes its classes away (`_starve`).
        (c) While it waits, its class at its two CaDs gives no support: it
        arrives as a closed extreme, and by the lemma at `_support` finds no
        unsupported facing extreme that it covers.
        (d) So its class can only hold off, until it fires, the starving of
        an open extreme Q whose need X at one of its CaDs c it alone covers
        once the action that took Q's other cover away has starved (a run's
        class is judged after its node is in, `_starve`): a Q found
        supported, or one arriving in the wait that takes its bit from it.
        Such an arrival is stillborn here, or built without the bit on the
        fusion partners it arrives with, which `_partners` finds here too.
        Fusions wait until the drain is over, when Q's bit is off either
        way, and Q gains no new partner in the window; so the run takes its
        bit and, unless Q arrived with partners, its life, as happens here
        at once.  A new partner of Q at c would begin there with real
        material, a node M of X ending (on Q's left) or starting (on its
        right) at c, made in the window: no fusion runs in the drain, and
        the forms of a run are coverage forms of its node or merges of live
        events (`_pack`), whose extremes at c copy live ones that were no
        partner of Q.  M was made by a form of lhs X closed at c, whose
        class X covers X there, and by case (1) at `_support` such a class
        arrives only with the node of a form whose class covers X at c
        already: a chain of nodes that starts at a class covering X at c
        when the window opened.  Only the waiting form's did, and its run,
        which makes no node, starts no chain.  Where the partner crosses X
        empty (the nullable crossing), its first real child is a node of a
        later symbol X2 and it meets Q over X's zero-width node.  It is
        then the epsilon sibling of a form that meets Q's sibling across X,
        spawned with Q whether Q was built or stillborn, and their merge is
        the very derivation of the partner's merge with Q: the fusion is
        made from the siblings (by induction over the symbols crossed, as
        the sibling's need X2 is in the same case as X).

        Where its node is not in, the form makes it now (`fired_at_once`),
        and the node waits on `firing` for its coverage forms, which `_fire`
        makes at the next `_starve` of the action or at its end.
        (e) Lemma (a) holds as it stands, and the event's run would have
        given the node the same analyses: each derivation arriving before
        the run through the event, each later one at once, as now every one
        does.  Until its coverage forms are made, only `_complete` reads the
        node, for which it stands for the form.  Lemma (c) holds, and more:
        no open extreme facing its closed extremes arrives before they are
        made.  Every form an action makes spans the action's width or more
        (a run's node, a fusion's merged form): coverage forms span their
        node, merges and moves the pair, siblings share their form's CaDs,
        and a node made at once spans its form.  So does this form, and an
        open extreme facing it would lie on a form ending where it begins
        or beginning where it ends.  So, as in (d), its class could only
        have put off a starving: of an open extreme Q whose other cover the
        action took away (a run's event, or an event `fuse` deletes), until
        the run, which would have judged Q again once its node's forms were
        in.  Those forms are made before the action judges any vanished
        class (`_starve` empties the worklist first), so Q is judged once,
        against the classes the run would have left.
        (f) Where a fusion's merged form is closed on both sides, an event
        that would have moved to it is deleted instead (`fuse`).  Moved, it
        would have been RUN, with no link, and run after the action's
        deletions: giving the node the merged derivations, as `_complete`
        does now, and taking its classes away.  Its deletion takes away its
        unmoved extreme, and the moved one would have copied a live closed
        extreme whose class is there (case (2) at `_support`), so, as in
        (e), it could only have put off a starving until the run, and the
        deletion judges it once the node's forms are in.
        The node's forms are made before the action's deletions, where the
        run came after them, so a form they make may also meet a fusion
        partner that the deletions take: it is built with evidence where the
        run's form was stillborn.  That only adds a form with evidence, whose
        merges are real derivations, and it takes no evidence away."""
        key = event_key(production, dot, cad)
        ev = self.events.get(key)
        if ev is not None:
            self._pack(ev, children)
            return
        stillborn = self.stillborn
        if stillborn and (key, children) in stillborn:
            return
        rhs = production.rhs  # `needs`, inline: this runs for every form
        need = (rhs[dot[LEFT] - 1].id if dot[LEFT] > 0 else None,
                rhs[dot[RIGHT]].id if dot[RIGHT] < len(rhs) else None)
        partners = (None, None)
        born = True
        if stillborn is not None:  # the cycle has started
            lhs = production.lhs.id
            if need[LEFT] is None and need[RIGHT] is None:
                # `_support` of both closed extremes, inline: one bit each
                if (self.cads[cad[LEFT]].closable[LEFT] >> lhs & 1
                        and self.cads[cad[RIGHT]].closable[RIGHT] >> lhs & 1):
                    self._complete(production, cad, (children,))
                    return
                born = False
            elif (cad[LEFT] == 0 and need[LEFT] is not None
                    or cad[RIGHT] == self.n and need[RIGHT] is not None):
                born = False  # an extreme open at its own input edge faces nothing
            else:
                supported = (self._support(cad[LEFT], LEFT, need[LEFT], lhs),
                             self._support(cad[RIGHT], RIGHT, need[RIGHT], lhs))
                if not (supported[LEFT] and supported[RIGHT]):
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
            ev = self.events[key] = Event(self.stats["events_created"], production, dot, cad,
                                          children, key, need, alts)
            self.stats["events_created"] += 1
            if self.debug:
                self._assert_form_tiling(ev.production, ev.dot, ev.cad, ev.derivations())
            if self.tracing:
                self.trace_lines.append(f"create e{ev.id} {ev.render()}")
            if stillborn is None:
                # per side, the bound at `_support`: closed with support, or open off
                # the input edge for a symbol in the facing lexical reach or a nullable one
                (lo, hi), (xl, xr), lhs = cad, need, production.lhs.id
                left, right, eps = self.cads[lo], self.cads[hi], self.eps_nodes
                if (left.closable[LEFT] >> lhs & 1 if xl is None
                        else left.lexical[RIGHT] >> xl & 1 or lo != 0 and xl in eps) and (
                        right.closable[RIGHT] >> lhs & 1 if xr is None
                        else right.lexical[LEFT] >> xr & 1 or hi != self.n and xr in eps):
                    self._wire(ev, LEFT)
                    self._wire(ev, RIGHT)
                else:
                    self.retired.append(ev)
            else:
                for side in (LEFT, RIGHT):
                    self._analyze_extreme(ev, side, supported[side], partners[side])
                self._refresh_status(ev)
        else:
            stillborn.add((key, children))
            self.stats["stillborn"] += 1
            if self.tracing:
                self.trace_lines.append(f"stillborn {render(production, dot, cad)}")
        if need[LEFT] in self.eps_nodes or need[RIGHT] in self.eps_nodes:
            for kids in (children, *alts) if alts else (children,):
                self._spawn_epsilon_variants(production, dot, cad, kids, need)

    def _fire(self):
        """Make the coverage forms of the nodes on `firing`, first in, first
        out, each node in a fresh stillborn scope.  A node that one of these
        forms makes joins the worklist, so a chain of unit forms fires in a
        loop, never by recursion.  Called before every `_starve` and at the
        end of every fusion action.  The node gives no support: a closed
        extreme takes its own from the lexical items (`_support`).

        An entry's forms (its dots out to `CoverageEntry.lo`/`hi`) share the
        node's CaDs.  At an input edge, each form of an entry without the
        edge bit of that side is open there or closed there with an lhs that
        may not stand there: no such form is ever live, and each derivation
        holds the new node, so none was met before in this action.  All
        count as stillborn, none is keyed or spawned.  `_new_event` decides
        the birth of every other entry's forms."""
        firing, stillborn, coverage = self.firing, self.stillborn, self.compiled.coverage
        while firing:
            node = firing.popleft()
            stillborn.clear()
            ends = (node.fbp, node.lbp)
            at_edge = (node.fbp == 0) | (node.lbp == self.n) << 1
            for entry in coverage[node.symbol]:
                production, position = entry.production, entry.position
                if not at_edge & ~entry.edge:
                    self._new_event(production, (position, position + 1), ends, (node,))
                    continue
                lo, hi = entry.lo, entry.hi
                self.stats["stillborn"] += (position - lo + 1) * (hi - position)
                if self.tracing:
                    # in spawn order (`_spawn_epsilon_variants`): the right dot
                    # outward, then for each right dot from the outermost in,
                    # the left dot outward
                    rdots = range(position + 1, hi + 1)
                    dots = [(position, r) for r in rdots] + [
                        (ldot, r) for r in reversed(rdots)
                        for ldot in range(position - 1, lo - 1, -1)]
                    for dot in dots:
                        self.trace_lines.append(f"stillborn {render(production, dot, ends)}")

    def _pack(self, ev: Event, children: tuple):
        """A derivation of ev's form that ev does not hold yet joins it, and
        is replayed for itself alone, doing what an event of its own would
        have done; whether it was new to ev.  ev is live: `Chart.events`
        holds only live events, as a run releases its event's key
        (`run_event`).  (No derivation of a form found stillborn in this
        action comes here: nothing in the action can give the form
        evidence.  Nor does one of a cycle form closed on both sides, a
        fired form's among them: it has no event, and `_new_event` or
        `fuse` gives its node every such derivation at once, `_complete`.)
        The epsilon siblings are spawned with these children, and on each open
        side the derivation is merged (`_new_event`, alongside) with every
        derivation of every fusion partner facing it now, unless their pair
        is pending on the fusion agenda, whose fusion merges every
        derivation of both events: every fusion consumes its link, so a
        partner without one met ev in a fusion before ev held this one.

        Only the cycle gets this far: no init form takes a second
        derivation, so in `Chart.__init__`, where every pair is pending and
        none may be merged, every derivation that comes here is held
        already.  An init form holds one real node, its anchor, and epsilon
        nodes: it is a coverage form of a lexical node, or a sibling of one.
        The anchor is a terminal's (`lexical_symbols`), and a terminal is
        never nullable, so it is the one symbol between the form's dots not
        realized empty: the dots fix its position, the CaDs its span and so
        its node, and the epsilon nodes are the grammar's own.  The form has
        one child tuple."""
        if ev.holds(children):
            return False
        if ev.alts is None:
            ev.alts = {}
        ev.alts[children] = None
        self.stats["packed_derivations"] += 1
        if self.debug:
            self._assert_form_tiling(ev.production, ev.dot, ev.cad, ev.derivations())
        if self.tracing:
            self.trace_lines.append(f"pack e{ev.id} {ev.render()}")
        production, dot, need = ev.production, ev.dot, ev.need
        if need[LEFT] in self.eps_nodes or need[RIGHT] in self.eps_nodes:
            self._spawn_epsilon_variants(production, dot, ev.cad, children, need)
        for side in (LEFT, RIGHT):
            if need[side] is None:
                continue
            for p in self._partners(production, dot, ev.cad[side], side):
                e1, e2 = (p, ev) if side == LEFT else (ev, p)
                if e2.id in e1.fusion[RIGHT]:
                    continue  # pending: that fusion merges this derivation too
                merged_dot, merged_cad = self._join(e1, e2)
                for kids in p.derivations():
                    merged = kids + children if side == LEFT else children + kids
                    self._new_event(production, merged_dot, merged_cad, merged)
        return True

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

    def _assert_form_tiling(self, production, dot, cad, derivations):
        ldot, rdot = dot
        assert 0 <= ldot < rdot <= len(production.rhs)
        for children in derivations:
            assert len(children) == rdot - ldot
            pos = cad[LEFT]
            for c in children:
                if c.fbp >= 0:  # not a zero-width epsilon node
                    assert c.fbp == pos, "children spans must tile the parent span"
                    pos = c.lbp
            assert pos == cad[RIGHT], "children spans must tile the parent span"

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
        for need (None if closed), has support there.

        An open extreme needs a closed extreme whose constituent can end
        (begin) with its required symbol: that symbol in the facing side's
        `reach`.  A bare node is no promise that such a constituent will
        ever close here, and terminal expectations are met by fusion with
        the terminal's own anchored events.

        A closed extreme needs a neighbor: the input boundary, an adjacent
        node or closed extreme, or an open extreme whose required symbol
        its constituent can begin (end) on its side.  Off the boundary that
        is exactly an adjacent lexical item, so the answer never changes:
        one bit of `CaD.closable` (`la` and `ra` are exact inverses).  Each
        such neighbor has an outermost real node at the CaD (a node is its
        own, an event has its outermost real child), and following first
        analyses down from it ends in a lexical item at the same CaD, along
        corners that `lpd`/`rpd` chain.  `la`/`ra` are closed under those
        corners (the `begun_by`/`ended_by` seeds in
        `relations.compute_adjacency`); an open neighbor's required symbol
        and that child are a primary pair, and the lhs is one of the
        symbol's corners.  So the extreme may stand beside the lexical item
        too.

        The same corners bound an open extreme's evidence.  A facing closed
        class whose pd row holds its symbol X, and a fusion partner whose
        child for X is a real node, have an outermost lexical item at the
        CaD whose pd row holds X: X is in the facing `CaD.lexical`, or the
        extreme never has evidence.  A nullable X has no such bound, since a
        partner may hold it empty; at the input edge on its own side an open
        extreme faces nothing at all.

        In the cycle an open extreme's support is only lost (`_starve`): a
        closed class new at a CaD finds no unsupported live open extreme
        facing it that waits for a symbol in its pd row.  A closed extreme
        arrives in the cycle in one of three ways, and by induction over the
        arrivals only the first brings a new class.
        (1) As a form of the coverage of a node N made in this action, at
        N's end.  N's symbol Y is a corner of its lhs on that side, so the
        lhs's pd row is within Y's.  If a run made N, the run's event,
        closed there with class Y, was wired when the action started: every
        live open extreme facing it that waits for a symbol in the row had
        its bit.  Bits go off only in `_starve`, after `_fire` has made N's
        forms, and no open extreme facing N's ends arrives in a run: every
        form taken there spans N or more.  If a form with no event made N,
        that form, closed there with class Y, had arrived in the same
        action, in one of these three ways: had its class been wired then,
        it would have found every such extreme with its bit (by induction
        over the arrivals), and none arrived since nor lost its bit
        (`_starve` has the waiting nodes' forms made first; the lemma at
        `_new_event`).
        (2) As a copy of a live event's closed extreme: a merged form's
        outer extremes are e1's left and e2's right, and a moved extreme
        takes its stayer's place.  Its class is there.
        (3) As the closure, over the nullable symbols left on that side, of
        a live event G's open extreme, in G itself or in a form that copies
        it.  G's closure G' (that dot at the rhs end, G's other extreme) was
        built when G took its form, with G's evidence at the other extreme
        (no action gives a stillborn form evidence, `_new_event`), and while
        G' stays, so does its class.  If G is closed at the other extreme,
        G' is closed on both sides and went to its node (`_complete`), and
        the closure taken has the form of G', whose node stands for it: it
        packs there, with no class.
        Otherwise G' leaves only through a fusion with a partner y there, or
        once its evidence there is gone, which, as G keeps its own, means
        that such a fusion consumed a link that G had too; either way it
        leaves without support there.  Such a fusion leaves join(y, G')
        keyed (its form held every derivation, or G' or y moved into it, or
        was deleted as it existed), and it is wider than G, so G takes no
        derivation after it: the agenda never pops a narrower width.  So the
        closure comes from join(x, G), x a partner of G.  Follow x's extreme
        there back through the live events it copies to a coverage form.  If
        one of them met G' (one did if the first came before G' left), the
        merges of G' with the same partners, pair by pair at the widths of
        x's, were keyed as their pairs were consumed, each keeping its
        partner's evidence until a wider width pops, or a pair is still
        pending and its merge live: the closure is packed, or its class is
        there.  Otherwise that coverage form came after G' left, so its node
        was made by a form whose class covers the symbol G' waits for
        (or, where the form crosses nullable symbols, the one the sibling of
        G' it meets waits for, built with G' or stillborn for want of such a
        class).  That class would be new there after none was, which by (1)
        needs one there already: it never comes."""
        # a fresh reach is read in place: this runs for every form and entry
        at = self.cads[index]
        if need is None:
            return at.closable[side] >> lhs & 1
        reach = at.reach[1 - side]
        if reach is None:
            reach = self._reach(at, 1 - side)
        return reach >> need & 1

    def _partners(self, production, dot, index: int, side: int) -> list[Event]:
        """The fusion partners of an open extreme on side at CaD index of a
        production's event with these dots: the open extremes of the same
        production facing it there whose dot meets its own.  Where the dots
        are apart across nullable symbols, the epsilon siblings that cross
        them meet instead."""
        other = 1 - side
        return [p for p in self.cads[index].open[other].values()
                if p.production is production and p.dot[other] == dot[side]]

    def _wire(self, ev: Event, side: int):
        """Wire ev's extreme on side into its CaD: an open one into its
        list, a closed one into its class count, marking the reach stale if
        its class is new there.  A new class gives no facing extreme
        support that it lacks (the lemma at `_support`)."""
        cad = self.cads[ev.cad[side]]
        if ev.need[side] is not None:
            cad.open[side][ev.id] = ev
            return
        sym = ev.production.lhs.id
        counts = cad.n_closed[side]
        n = counts.get(sym, 0)
        counts[sym] = n + 1
        if not n:
            cad.reach[side] = None

    def _analyze_extreme(self, ev: Event, side: int, supported, partners=None):
        """Link analysis of an extreme as it arrives at its CaD, given its
        support (`_support`) and, if it is open, its fusion partners
        (`_partners`, found here when None): wire it (`_wire`), set its
        support bit and link up with the fusion partners.  A new closed
        class gives no facing extreme support it lacked (the lemma at
        `_support`), and a link gives a partner no evidence it lacked:
        during any link analysis, every live extreme facing the one
        analyzed has evidence.  The drain before an action leaves no live
        event without evidence; an event built in the action has evidence
        on both sides once analyzed, and a moved extreme takes the place of
        its stayer's, which has evidence; and within an action evidence is
        lost only in `_starve`, after every extreme of the action has been
        analyzed, and in the link `fuse` consumes, which belongs to an
        extreme that moves away or is deleted, or joins two extremes that
        both keep other evidence, or ends the action where the merged form
        held every derivation."""
        other = 1 - side
        cad = self.cads[ev.cad[side]]
        self._wire(ev, side)
        if supported:
            self._support_on(ev, side)
        if ev.need[side] is None:
            return
        if partners is None:
            if not cad.open[other]:
                return
            partners = self._partners(ev.production, ev.dot, cad.index, side)
        for p in partners:
            e1, e2 = (p, ev) if side == LEFT else (ev, p)
            self._add_fusion(e1, e2)

    def _detach(self, ev: Event, side: int):
        """Unwire ev's extreme on side from its CaD: an open one from its
        list, a closed one from its class count.  It takes no support away
        here: an open extreme gives none (the closed extremes facing it take
        theirs from the lexical items, `_support`), and the open extremes a
        vanished closed class leaves without it are found by `_starve`."""
        cad = self.cads[ev.cad[side]]
        if ev.need[side] is not None:
            del cad.open[side][ev.id]
            return
        sym = ev.production.lhs.id
        counts = cad.n_closed[side]
        n = counts.pop(sym) - 1
        if n:
            counts[sym] = n
        else:
            cad.reach[side] = None

    def _starve(self, ev: Event):
        """Take away the evidence ev gave once it has left its CaDs, and
        refresh each event left without any on a side.  Per side, its fusion
        partners drop their links with it; if its closed class is gone from
        its CaD now, the facing open extremes the class was compatible with
        whose symbol the `reach` there does not cover lose their bit, if it
        is still on: an extreme that arrived since took its bit from this
        reach.  Support is lost here only: a class new at a CaD in the
        cycle gives none (the lemma at `_support`).  ev's closed extreme
        had its bit, as every closed extreme of a live or fired event has:
        init phase 3 sets it, and in the cycle `_new_event` builds no form
        with a closed extreme without support, and a moved closed extreme
        takes the place of its stayer's.  The waiting nodes' coverage forms
        are made first (`_fire`), so their classes are in before any
        vanished class is judged (the lemma at `_new_event`)."""
        if self.firing:
            self._fire()
        lost = []
        for side in (LEFT, RIGHT):
            other = 1 - side
            for p in ev.fusion[side].values():
                links = p.fusion[other]
                del links[ev.id]
                if not (links or p.support[other]):
                    lost.append(p)
            cad, sym = self.cads[ev.cad[side]], ev.production.lhs.id
            if ev.need[side] is None and cad.open[other] and sym not in cad.n_closed[side]:
                starved = self.pd[side][sym] & ~self._reach(cad, side)
                for q in cad.open[other].values() if starved else ():
                    if q.support[other] and starved >> q.need[other] & 1:
                        self._support_off(q, other)
                        if not q.fusion[other]:
                            lost.append(q)
        for q in lost:
            self._refresh_status(q)

    def _add_fusion(self, e1: Event, e2: Event):
        """Link e1's open right extreme with e2's open left one and put the
        pair on the fusion agenda, in the bucket of its merged width."""
        e1.fusion[RIGHT][e2.id] = e2
        e2.fusion[LEFT][e1.id] = e1
        self.stats["links"] += 1
        self.fusion_agenda[e2.cad[RIGHT] - e1.cad[LEFT]].append((e1, e2))
        if self.tracing:
            self.trace_lines.append(f"link fusion e{e1.id}.R <-> e{e2.id}.L")

    def _release(self, ev: Event):
        """Take ev out of the live events, its key with it, and out of its
        CaDs (`_detach`)."""
        ev.alive = False
        del self.events[ev.key]
        self._detach(ev, LEFT)
        self._detach(ev, RIGHT)

    # -- step 5: the logical status machine --------------------------------

    def compute_status(self, ev: Event) -> str:
        """RUN when both extremes are closed and supported, DERIVATION when
        both are supported and one is open.  With one extreme supported,
        EPSILON when the other waits next to a nullable symbol.  Anything
        else is DELETE."""
        need, support, fusion = ev.need, ev.support, ev.fusion
        # an extreme has evidence when its support bit is set or it holds a
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
        """Recompute the status of ev, which is live, and queue ev where it
        changed.  Every caller passes a live event: one it has just built or
        moved, one of a live fusion pair, or one that a fusion link or a CaD
        list holds, and links join live events and CaD lists hold only live
        events (`check_invariants` asserts both).  In the cycle it is called
        once an event is fully analyzed, and a status only falls (`_drain`):
        a built or moved event is RUN or DERIVATION, and any later change
        is to DELETE or EPSILON, or from EPSILON to DELETE."""
        status = self.compute_status(ev)
        if status != ev.status:
            ev.status = status
            if self.tracing:
                self.trace_lines.append(f"status e{ev.id} {status} {ev.render()}")
            if status == RUN:
                self.run_queue.append(ev)
            elif status != DERIVATION:
                self.delete_queue.append(ev)

    # -- step 6 actions -----------------------------------------------------

    def delete_event(self, ev: Event):
        """Remove an event; the events it leaves without evidence get their
        status recomputed at once (the constraint-propagation cascade).  Its
        key goes with it (`_release`)."""
        self.stats["events_deleted"] += 1
        if self.tracing:
            self.trace_lines.append(f"delete e{ev.id} {ev.render()}")
        self._release(ev)
        self._starve(ev)

    def run_event(self, ev: Event):
        """Fire a closed-closed event, an init one (the lemma at
        `_new_event`): apply the production, giving its node one analysis
        per derivation (`_complete`).  The event leaves its CaDs and the
        live events, its key with it (`_release`): from now on the node
        stands for its form, and a later derivation of the form goes to the
        node at once, so no closed form fires twice.  Its vanished classes
        are judged only once the forms of the node, and of the nodes those
        make, are in (`_starve`): an extreme that they cover again keeps its
        bit and its status."""
        self.stats["events_run"] += 1
        if self.tracing:
            self.trace_lines.append(f"run e{ev.id} {ev.render()}")
        self._release(ev)
        self._complete(ev.production, ev.cad, ev.derivations(), ev)
        self._starve(ev)

    def _join(self, e1: Event, e2: Event) -> tuple:
        """The dots and CaDs of the merge of e1 with e2, its right partner."""
        return (e1.dot[LEFT], e2.dot[RIGHT]), (e1.cad[LEFT], e2.cad[RIGHT])

    def fuse(self, e1: Event, e2: Event):
        """Merge two same-production events whose dots meet at a CaD c:
        every derivation of e1 with every derivation of e2.  The pair is
        stale unless e1 is live and still holds the link (a link only joins
        open extremes whose dots meet, and only extremes without links
        move).  A pair that widened while it waited is queued again at its
        new width.  Otherwise the fusion consumes the link, whatever
        follows, so a link means exactly that its pair is on the agenda; it
        is stale if the merged form already holds every merged derivation.
        Where the merged form is closed on both sides, it has no event, and
        its node, in or made now, stands for it (`_complete`): the fusion is
        stale if the node holds every merged derivation; otherwise the new
        ones become its analyses at once, and an event that would have
        moved to the form is deleted instead, since the moved event would
        only have fired into the node (lemma (f) at `_new_event`).  So no
        move closes both sides.

        Where both extremes meeting at c hold other evidence, e1 and e2
        stay, the merged form M = e1+e2 is built or packed beside them, and
        the link goes too.  Either may then lose its other evidence at c and
        be deleted, where a kept link would have held the two alive, and
        kept alive, such an extreme may still gain partners.  Whatever a
        kept link would have let through reaches the forest anyway.  Take
        e2's left extreme L at c (e1's right mirrors it) once it has no
        other evidence there, so that its event is deleted where the kept
        link would have held it.  What L would still have met is a
        derivation arriving later with an extreme at c facing L whose dot
        meets L's: a new partner's, or a late one of e1's form, which
        `_pack` would have replayed to e2.  By induction over the arrivals,
        that extreme came in one of three ways.
        (1) As a copy of a live extreme at c: its form is a merge q+E whose
        right extreme is E's, or E itself after a move of its left one.  E's
        extreme at c is the arriving one, so E arrived earlier and met L's
        event as this derivation would have, and the merge E+e2 (M, where E
        is e1) carries E's left extreme and e2's right one.  q, a partner of
        E at E's left CaD, meets that merge there, and q+(E+e2) holds every
        derivation of (q+E)+e2.
        (2) As a coverage form of a node N newly made at c: N is the child
        left of its dot at c, so N's symbol Y is what L waits for.  N was
        made by a form of lhs Y closed at c, whose class covers Y there, and
        by case (1) at `_support` such a class arrives only where a class
        covering Y is already.  That class set L's support bit, which goes
        off only as the last such class leaves, and none comes back after
        it.  So L still had its bit: this way never reaches such an L.
        (3) Across nullable symbols: its dot crossed empty symbols to meet
        L's.  It is then the epsilon sibling of a form that meets L's
        sibling across them, spawned with L's event whether that was built
        or stillborn, and the merge of the two siblings is the very
        derivation it would have made with L (the nullable crossing in the
        lemma at `_new_event`)."""
        if not e1.alive or e2.id not in e1.fusion[RIGHT]:
            self.stats["stale_fusions"] += 1
            return
        prod = e1.production
        dot, cad = self._join(e1, e2)
        width = cad[RIGHT] - cad[LEFT]
        if width > self.width:
            self.fusion_agenda[width].append((e1, e2))
            return
        if e1.alts is None and e2.alts is None:
            merged = [e1.children + e2.children]
        else:
            merged = [a + b for a in e1.derivations() for b in e2.derivations()]
        if self.tracing:
            self.trace_lines.append(f"fuse e{e1.id} + e{e2.id} @ {e1.cad[RIGHT]}")
        del e1.fusion[RIGHT][e2.id]
        del e2.fusion[LEFT][e1.id]
        # does either extreme meeting here hold evidence still?
        pair = (e1, e2)
        held = [e.support[1 - s] or bool(e.fusion[1 - s]) for s, e in enumerate(pair)]
        key = event_key(prod, dot, cad)
        ev = self.events.get(key)
        made = ev is not None  # whether the merged form exists
        if made:
            # the derivations it lacks join its event
            merged = [children for children in merged if self._pack(ev, children)]
        elif dot[LEFT] == 0 and dot[RIGHT] == len(prod.rhs):
            # its node, in or made now, takes the analyses it lacks
            made = True
            if not self._complete(prod, cad, merged):
                merged = ()
        if not merged:
            # the merged form already holds them all
            for s, e in enumerate(pair):
                if not held[s]:
                    self._refresh_status(e)
            self.stats["stale_fusions"] += 1
            return
        self.stats["fusions"] += 1
        if held[LEFT] and held[RIGHT]:
            if not made:
                self._new_event(prod, dot, cad, merged[0],
                                alts=dict.fromkeys(merged[1:]) if len(merged) > 1 else None)
            return  # e1 and e2 stay, the merged form alongside them
        # the event whose extreme has other evidence stays as it is; the
        # other absorbs the merge, moving its extreme on the stayer's side.
        # If neither has, e1 absorbs and e2 goes away.  Where the merged form
        # exists or is closed (its node stands for it), the absorber is
        # deleted instead: a move would have taken its old form away, or
        # only fired.
        if held[LEFT] or held[RIGHT]:
            side = LEFT if held[LEFT] else RIGHT
            mover, gone = pair[1 - side], None
        else:
            side, mover, gone = RIGHT, e1, e2
        if not made:
            self._mutate(mover, side, dot, cad, merged, key)
        else:
            self.delete_event(mover)
        if gone is not None:
            self.delete_event(gone)

    def _mutate(self, ev: Event, side: int, dot, cad, merged: list, key):
        """Give a surviving event the merged form and derivations, which
        moves its extreme on side.  The moved extreme held the consumed
        fusion link, so it is open and leaving its CaD takes no support
        away (`_detach`).  `fuse` found no event of the merged form, and it
        is open on a side: a closed one goes to its node (`_complete`)."""
        del self.events[ev.key]
        self._detach(ev, side)
        need = needs(ev.production, dot)
        ev.dot, ev.cad, ev.need, ev.key = dot, cad, need, key
        ev.children, ev.alts = merged[0], dict.fromkeys(merged[1:]) if len(merged) > 1 else None
        self.events[key] = ev
        if self.debug:
            self._assert_form_tiling(ev.production, ev.dot, ev.cad, ev.derivations())
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
        in that strict priority order, the agenda's buckets narrowest first,
        until all three are empty.  Each fusion action, and the coverage
        forms of each node made (`_fire`), start with no stillborn keys: the
        drain after an action would have deleted its stillborn events, keys
        and all.  A fusion action ends by making the coverage forms of the
        nodes it made, as a run makes its node's before it judges its
        vanished classes (`_starve`).

        It stops with no event live.  The agenda is empty, and every link
        is queued, so no extreme holds a link, and the queues are empty, so
        every live event would be DERIVATION: supported on both sides and
        open on one, say its right at c.  Its bit there needs a live event
        closed on its left at c, which is DERIVATION too and so open on its
        right, further right than c.  Such a chain of events would go on
        forever across finitely many CaDs."""
        stillborn = self.stillborn = set()
        self._drain()
        for width, bucket in enumerate(self.fusion_agenda):
            self.width = width  # no pair joins this bucket or a narrower one now
            for e1, e2 in bucket:
                stillborn.clear()
                self.fuse(e1, e2)
                self._fire()
                self._drain()
            bucket.clear()
        if self.debug:
            self.check_invariants()
        return self

    def _drain(self):
        """Empty the deletion queue, then the run queue, deletions first,
        checking no status: once the cycle runs, a status only falls.
        (a) An event queued DELETE or EPSILON stays doomed until it is
        deleted.  EPSILON may still fall to DELETE, which queues the event a
        second time; that pop finds it dead.
        (b) An event queued RUN fires without changing status.  It is closed
        on both sides, so it has no link and never moves, and its closed
        support is fixed (the lemma at `_support`).  Only this drain deletes
        it: the events `fuse` deletes are open where the consumed link was.
        Such an event was built in init: a form closed in the cycle, built
        or moved into, goes to its node instead (`_complete`).
        Why it holds: an extreme gains evidence only as it arrives, built or
        moved, and the event then has evidence on both sides.  A support bit
        is set only then and is afterwards only lost (`_support`); a link
        gives the partner it reaches no evidence it lacked
        (`_analyze_extreme`); every form built in the cycle has evidence on
        both sides (`_new_event`) and gets its status only once both are
        analyzed; and a moved extreme takes its stayer's evidence (`fuse`).
        So an event whose status says that a side lacks evidence never
        regains it there.  Init gives each event one status, against the
        final counts."""
        while True:
            if self.delete_queue:
                ev = self.delete_queue.popleft()
                if ev.alive:
                    if ev.status == EPSILON:
                        self.stats["epsilon_expansions"] += 1
                    self.delete_event(ev)
                continue
            if self.run_queue:
                self.run_event(self.run_queue.popleft())
                continue
            return

    def check_invariants(self):
        """Debug check of the chart's bookkeeping, then of the fixpoint.
        Bookkeeping: `events` holds live events only, each under its own
        form (once init has dropped the retired events' keys); the CaD
        lists hold exactly the open extremes of the events it holds; fusion
        links are symmetric between events it holds, join open extremes of
        one production whose dots meet at one CaD and are queued on the
        fusion agenda (every fusion consumes its link); and every CaD's
        closed class counts, closed support mask, lexical reach and (where
        not stale) reach agree with a recount from the live events' closed
        extremes, the lexical items and the adjacency and boundary tables,
        the reach within the lexical reach.  Fixpoint: no live extreme is
        ruled out by the bound at `_support`, every extreme's support bit
        equals a scan of its CaD for anything compatible (every node, closed
        and open extreme, or the input boundary), and every live event's
        stored status is current.  The cycle stops with no event live
        (`parse_cycle`), so the fixpoint part bites on the chart after
        init."""
        assert not self.firing, "a node's coverage forms are still to be made"
        closed = {}  # (CaD index, side) -> the lhs of each live closed extreme there
        queued = {(e1.id, e2.id) for bucket in self.fusion_agenda for e1, e2 in bucket}
        for key, ev in self.events.items():
            assert ev.alive, f"e{ev.id}: the index holds a dead event"
            assert ev.key == key, f"e{ev.id}: indexed under another form"
            for side in (LEFT, RIGHT):
                name = f"e{ev.id}.{SIDE_NAMES[side]}"
                if ev.need[side] is None:
                    closed.setdefault((ev.cad[side], side), []).append(ev.production.lhs.id)
                else:
                    assert self.cads[ev.cad[side]].open[side].get(ev.id) is ev, \
                        f"{name}: not in its CaD list"
                for p in ev.fusion[side].values():
                    assert self.events.get(p.key) is p and p.fusion[1 - side].get(ev.id) is ev, \
                        f"{name}: fusion link with e{p.id} is one-sided"
            for p in ev.fusion[RIGHT].values():
                assert (p.production is ev.production and p.cad[LEFT] == ev.cad[RIGHT]
                        and None not in (ev.need[RIGHT], p.need[LEFT])
                        and ev.dot[RIGHT] == p.dot[LEFT]), \
                    f"e{ev.id}.R: fusion link with e{p.id} joins dots that do not meet"
                assert (ev.id, p.id) in queued, \
                    f"e{ev.id}.R: fusion link with e{p.id} is not queued"
        for cad in self.cads:
            for side in (LEFT, RIGHT):
                for i, ev in cad.open[side].items():
                    assert ev.id == i and self.events.get(ev.key) is ev, \
                        f"e{ev.id}.{SIDE_NAMES[side]}: in a CaD list but not indexed"
                    assert ev.need[side] is not None and ev.cad[side] == cad.index, \
                        f"e{ev.id}.{SIDE_NAMES[side]}: listed open at CaD {cad.index}"

        node_syms = {}  # (CaD index, side) -> symbols of the nodes ending there
        lex_reach = {}  # the union of the pd rows of the lexical items among them
        closable = {(0, LEFT): self.bound[LEFT], (self.n, RIGHT): self.bound[RIGHT]}
        for nd in self.node_list:
            for side, end in enumerate((nd.fbp, nd.lbp)):
                node_syms.setdefault((end, side), []).append(nd.symbol)
                if nd.origin == "lexical":
                    lex_reach[end, side] = lex_reach.get((end, side), 0) | self.pd[side][nd.symbol]
                    closable[end, 1 - side] = (closable.get((end, 1 - side), 0)
                                               | self.adj[side][nd.symbol])
        for cad in self.cads:
            for side in (LEFT, RIGHT):
                name = f"CaD {cad.index}.{SIDE_NAMES[side]}"
                counts = {}
                for lhs in closed.get((cad.index, side), ()):
                    counts[lhs] = counts.get(lhs, 0) + 1
                assert cad.n_closed[side] == counts, \
                    f"{name}: class counts differ from the live closed extremes"
                assert cad.closable[side] == closable.get((cad.index, side), 0), \
                    f"{name}: closed support mask differs from the lexical items"
                reach = 0
                for lhs in counts:
                    reach |= self.pd[side][lhs]
                assert cad.reach[side] in (None, reach), f"{name}: reach differs from its counts"
                assert not reach & ~cad.lexical[side], f"{name}: reach exceeds its lexical reach"
                assert cad.lexical[side] == lex_reach.get((cad.index, side), 0), \
                    f"{name}: lexical reach differs from the lexical items"

        def compatible(ev: Event, side: int) -> bool:
            """Whether anything at ev's CaD on side supports that extreme,
            found by walking the CaD's live extremes and nodes."""
            other = 1 - side
            cad = self.cads[ev.cad[side]]
            need, facing = ev.need[side], closed.get((cad.index, other), ())
            if need is not None:
                pd = self.pd[other]
                return any(pd[lhs] >> need & 1 for lhs in facing)
            delta = ev.production.lhs.id
            if cad.index == self.edge[side]:
                return self.bound[side] >> delta & 1 == 1
            adj, pd = self.adj[side][delta], self.pd[side][delta]
            return (any(adj >> sym & 1 for sym in node_syms.get((cad.index, other), ()))
                    or any(adj >> lhs & 1 for lhs in facing)
                    or any(pd >> q.need[other] & 1 for q in cad.open[other].values()))

        for ev in self.events.values():
            for side in (LEFT, RIGHT):
                index, need = ev.cad[side], ev.need[side]  # the bound at `_support`
                assert (self._support(index, side, None, ev.production.lhs.id) if need is None
                        else index != self.edge[side] and (need in self.compiled.nullable
                        or lex_reach.get((index, 1 - side), 0) >> need & 1)), \
                    f"e{ev.id}.{SIDE_NAMES[side]}: live but can never have evidence"
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
