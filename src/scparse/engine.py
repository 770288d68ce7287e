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
evidence, and the parsing cycle drains the epsilon, delete and run queues
plus the fusion agenda in that strict priority order.

Status asks only whether an extreme has evidence, so each extreme keeps a
single support (AC-6 arc consistency; the watched literals of SAT
solvers): one witness, preferably a node or the boundary since those never
die.  An event keeps a watch list of the extremes its own extremes
witness.  A new extreme takes the first witness at its CaD and becomes the
witness of every compatible partner there that has none.  Constraint
propagation is the delete cascade: when an event leaves its CaDs, every
extreme it witnessed rescans that CaD for another witness, and one that
finds none may starve in turn.  Fusion links, which `fuse` looks up and
counts, are the exception: they are kept explicitly, per side and keyed by
partner id, on both events.

Nodes are never deleted, so early deletions stay sound: lexical nodes,
through the transitively closed relation tables, witness everything the
input can ever provide.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .lattice import InputLattice
from .relations import CC, CO, OC, OO, CompiledGrammar
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

# The witness of a closed extreme at the input boundary it may touch.
BOUNDARY = "boundary"


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

    @property
    def width(self) -> int:
        return 0 if self.fbp < 0 else self.lbp - self.fbp

    def add_analysis(self, analysis: "Analysis") -> bool:
        key = analysis.key()
        if key in self._akeys:
            return False
        self._akeys.add(key)
        self.analyses.append(analysis)
        return True


@dataclass(frozen=True)
class Analysis:
    production: Production
    children: tuple[Node, ...]

    def key(self):
        return (self.production.id, tuple(c.id for c in self.children))


class Event:
    __slots__ = ("id", "production", "leftdot", "rightdot", "left", "right",
                 "children", "witness", "fusion", "watchers", "status", "alive")

    def __init__(self, eid, production, leftdot, rightdot, left, right, children):
        self.id = eid
        self.production = production
        self.leftdot = leftdot
        self.rightdot = rightdot
        self.left = left            # left CaD index
        self.right = right          # right CaD index
        self.children = tuple(children)
        # Per side: the extreme's one witness (an Event, a Node, BOUNDARY or
        # None), its fusion links (partner id -> Event), and the (event,
        # side) extremes this extreme witnesses.  Watch list entries go
        # stale when the watcher dies; readers check them.
        self.witness: list = [None, None]
        self.fusion: tuple[dict, dict] = ({}, {})
        self.watchers: tuple[list, list] = ([], [])
        self.status = None
        self.alive = True

    def supported(self, side: int) -> bool:
        """Whether the extreme on `side` has any evidence."""
        return self.witness[side] is not None or bool(self.fusion[side])

    @property
    def left_closed(self):
        return self.leftdot == 0

    @property
    def right_closed(self):
        return self.rightdot == len(self.production.rhs)

    def key(self):
        return (self.production.id, self.leftdot, self.rightdot,
                self.left, self.right, tuple(c.id for c in self.children))

    def render(self):
        rhs = self.production.rhs
        pre = " ".join(s.name for s in rhs[:self.leftdot])
        mid = " ".join(s.name for s in rhs[self.leftdot:self.rightdot])
        post = " ".join(s.name for s in rhs[self.rightdot:])
        body = " ".join(x for x in (pre, ".", mid, ".", post) if x)
        return f"{self.production.lhs.name} -> {body} @ [{self.left},{self.right}]"


class CaD:
    """Per-breaking-point lists of event extremes and node endpoints."""

    __slots__ = ("index", "open_right", "closed_right", "open_left", "closed_left",
                 "ndle", "ndri")

    def __init__(self, index: int):
        self.index = index
        self.open_right: dict[int, Event] = {}    # right extreme open here (body leftward)
        self.closed_right: dict[int, Event] = {}  # right extreme closed here
        self.open_left: dict[int, Event] = {}     # left extreme open here (body rightward)
        self.closed_left: dict[int, Event] = {}   # left extreme closed here
        self.ndle: list[Node] = []                # nodes ending here
        self.ndri: list[Node] = []                # nodes starting here


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
    """One parse session: mutable while parsing, immutable once completed."""

    def __init__(self, compiled: CompiledGrammar, lattice: InputLattice,
                 trace: bool = False, debug: bool = False, step_limit: int | None = None):
        self.compiled = compiled
        self.lattice = lattice
        self.n = lattice.n
        self.cads = [CaD(i) for i in range(lattice.points)]
        self.nodes: dict[tuple[int, int, int], Node] = {}
        self.node_list: list[Node] = []
        self.events: dict[int, Event] = {}
        # Keys of live events and of fired ones: a fired event's key stays,
        # so an identical closed event is never created and fired again.
        self.event_index: dict[tuple, Event] = {}
        self.queues = {EPSILON: deque(), DELETE: deque(), RUN: deque()}
        self.fusion_agenda: deque[tuple[int, int, int]] = deque()
        self.stats = {
            "events_created": 0, "events_deleted": 0, "events_run": 0,
            "fusions": 0, "stale_fusions": 0, "epsilon_expansions": 0,
            "links": 0, "nodes": 0, "packed": 0,
        }
        # Every trace line is built behind `if self.tracing`, so an
        # untraced parse formats nothing.
        self.tracing = trace
        self.trace_lines: list[str] = []
        self.debug = debug
        self.status_audit: list[tuple] = []
        self.step_limit = step_limit
        self._next_node_id = 0
        self._next_event_id = 0
        self.completed = False

        # Canonical zero-width nodes for the nullable symbols, with their
        # empty-derivation skeletons prebuilt (recursion stays cycle-shared).
        self.eps_nodes: dict[int, Node] = {}
        for sid in sorted(compiled.nullable):
            self.eps_nodes[sid] = self._make_node(sid, -1, -1, "epsilon")
        for sid, prods in sorted(compiled.epsilon_analyses.items()):
            node = self.eps_nodes[sid]
            for p in prods:
                node.add_analysis(Analysis(p, tuple(self.eps_nodes[s.id] for s in p.rhs)))

        for it, sid in zip(lattice.items, lexical_symbols(compiled.grammar, lattice)):
            self.add_node(sid, it.fbp, it.lbp, origin="lexical")

    # -- small helpers ----------------------------------------------------

    def _sym_name(self, sid: int) -> str:
        return self.compiled.grammar.symbols[sid].name

    def _make_node(self, symbol, fbp, lbp, origin) -> Node:
        node = Node(self._next_node_id, symbol, fbp, lbp, origin)
        self._next_node_id += 1
        return node

    def _nullable_gap(self, prod: Production, a: int, b: int) -> bool:
        return all(s.id in self.compiled.nullable for s in prod.rhs[a:b])

    # -- step 2: node creation with packing -------------------------------

    def add_node(self, symbol: int, fbp: int, lbp: int,
                 analysis: Analysis | None = None, origin: str = "derived"):
        """Admit a (symbol, span) node; pack the analysis onto an existing
        node, or create the node, its events, and make it the witness of
        the extremes waiting for it."""
        key = (symbol, fbp, lbp)
        existing = self.nodes.get(key)
        if existing is not None:
            if analysis is not None and existing.add_analysis(analysis):
                self.stats["packed"] += 1
                if self.tracing:
                    self.trace_lines.append(f"pack {self._sym_name(symbol)} [{fbp},{lbp}] "
                                            f"analysis {analysis.production.id}")
            return existing, False

        node = self._make_node(symbol, fbp, lbp, origin)
        if analysis is not None:
            node.add_analysis(analysis)
        if self.debug and analysis is not None:
            self._assert_tiling(fbp, lbp, analysis.children)
        self.nodes[key] = node
        self.node_list.append(node)
        self.cads[fbp].ndri.append(node)
        self.cads[lbp].ndle.append(node)
        self.stats["nodes"] += 1
        if self.tracing:
            self.trace_lines.append(f"node {node.id} {self._sym_name(symbol)} "
                                    f"[{fbp},{lbp}] {origin}")
        self._create_events(node)
        self._node_producer_links(node)
        return node, True

    def _assert_tiling(self, fbp, lbp, children):
        pos = fbp
        for c in children:
            if c.width:
                assert c.fbp == pos, "children spans must tile the parent span"
                pos = c.lbp
        assert pos == lbp, "children spans must tile the parent span"

    # -- step 3: event creation from the coverage tables ------------------

    def _create_events(self, node: Node):
        cov = self.compiled.coverage[node.symbol]
        for entry in cov:
            rhs = entry.production.rhs
            pos = entry.position
            # A nullable prefix/suffix can be realized empty (dot pushed to
            # the extreme over epsilon children) or by real material arriving
            # later (dot stays at the anchor); emit one event per choice so
            # neither realization is lost.
            left_opts = [(pos, [])]
            if entry.klass in (CC, CO) and pos > 0:
                left_opts.append((0, [self.eps_nodes[s.id] for s in rhs[:pos]]))
            right_opts = [(pos + 1, [])]
            if entry.klass in (CC, OC) and pos + 1 < len(rhs):
                right_opts.append((len(rhs), [self.eps_nodes[s.id] for s in rhs[pos + 1:]]))
            for leftdot, lkids in left_opts:
                for rightdot, rkids in right_opts:
                    self._new_event(entry.production, leftdot, rightdot,
                                    node.fbp, node.lbp, lkids + [node] + rkids)

    def _new_event(self, production, leftdot, rightdot, left, right, children):
        ev = Event(self._next_event_id, production, leftdot, rightdot, left, right, children)
        if ev.key() in self.event_index:
            return None  # an identical event is live or has fired
        self._next_event_id += 1
        self.events[ev.id] = ev
        self.event_index[ev.key()] = ev
        self._wire_extreme(ev, LEFT)
        self._wire_extreme(ev, RIGHT)
        self.stats["events_created"] += 1
        if self.debug:
            self._assert_event_tiling(ev)
        if self.tracing:
            self.trace_lines.append(f"create e{ev.id} {ev.render()}")
        self._analyze_extreme(ev, LEFT)
        self._analyze_extreme(ev, RIGHT)
        self._refresh_status(ev)
        self._spawn_epsilon_variants(ev)
        return ev

    def _spawn_epsilon_variants(self, ev: Event):
        """An open extreme abutting a nullable symbol admits two
        realizations: real material arriving later, or the empty string.
        The event keeps waiting for material; a sibling event takes the
        zero-width child so neither hypothesis blocks the other."""
        if not ev.alive:
            return
        rhs = ev.production.rhs
        if not ev.right_closed and rhs[ev.rightdot].id in self.compiled.nullable:
            eps = self.eps_nodes[rhs[ev.rightdot].id]
            self._new_event(ev.production, ev.leftdot, ev.rightdot + 1,
                            ev.left, ev.right, list(ev.children) + [eps])
        if not ev.left_closed and rhs[ev.leftdot - 1].id in self.compiled.nullable:
            eps = self.eps_nodes[rhs[ev.leftdot - 1].id]
            self._new_event(ev.production, ev.leftdot - 1, ev.rightdot,
                            ev.left, ev.right, [eps] + list(ev.children))

    def _assert_event_tiling(self, ev: Event):
        assert 0 <= ev.leftdot < ev.rightdot <= len(ev.production.rhs)
        assert len(ev.children) == ev.rightdot - ev.leftdot
        self._assert_tiling(ev.left, ev.right, ev.children)

    def _wire_extreme(self, ev: Event, side: int):
        if side == LEFT:
            cad = self.cads[ev.left]
            (cad.closed_left if ev.left_closed else cad.open_left)[ev.id] = ev
        else:
            cad = self.cads[ev.right]
            (cad.closed_right if ev.right_closed else cad.open_right)[ev.id] = ev

    def _unwire_extreme(self, ev: Event, side: int):
        if side == LEFT:
            cad = self.cads[ev.left]
            cad.closed_left.pop(ev.id, None)
            cad.open_left.pop(ev.id, None)
        else:
            cad = self.cads[ev.right]
            cad.closed_right.pop(ev.id, None)
            cad.open_right.pop(ev.id, None)

    # -- step 4: link analyses --------------------------------------------

    def _witnesses(self, ev: Event, side: int):
        """Yield everything at this extreme's CaD that can witness it: the
        input boundary and nodes first (they never die), then the
        compatible extremes of live events.  The relation is symmetric: a
        yielded event's extreme here can be witnessed by this one.

        A closed extreme needs a neighbor: the boundary, an adjacent node
        or closed extreme, or an open extreme whose required symbol this
        extreme's constituent can begin (end).  An open extreme needs a
        closed extreme whose constituent can end (begin) with its required
        symbol; a bare node is no promise that such a constituent will ever
        close here, and terminal expectations are met by fusion with the
        terminal's own anchored events."""
        comp = self.compiled
        if side == LEFT:
            cad = self.cads[ev.left]
            if ev.left_closed:
                delta = ev.production.lhs.id
                if cad.index == 0:
                    if comp.lm >> delta & 1:
                        yield BOUNDARY
                    return
                la = comp.la[delta]
                for nd in cad.ndle:
                    if la >> nd.symbol & 1:
                        yield nd
                for p in cad.closed_right.values():
                    if la >> p.production.lhs.id & 1:
                        yield p
                lpd = comp.lpd[delta]
                for q in cad.open_right.values():
                    if lpd >> q.production.rhs[q.rightdot].id & 1:
                        yield q
            else:
                rho = ev.production.rhs[ev.leftdot - 1].id
                rpd = comp.rpd
                for p in cad.closed_right.values():
                    if rpd[p.production.lhs.id] >> rho & 1:
                        yield p
        else:
            cad = self.cads[ev.right]
            if ev.right_closed:
                delta = ev.production.lhs.id
                if cad.index == self.n:
                    if comp.rm >> delta & 1:
                        yield BOUNDARY
                    return
                ra = comp.ra[delta]
                for nd in cad.ndri:
                    if ra >> nd.symbol & 1:
                        yield nd
                for p in cad.closed_left.values():
                    if ra >> p.production.lhs.id & 1:
                        yield p
                rpd = comp.rpd[delta]
                for q in cad.open_left.values():
                    if rpd >> q.production.rhs[q.leftdot - 1].id & 1:
                        yield q
            else:
                rho = ev.production.rhs[ev.rightdot].id
                lpd = comp.lpd
                for p in cad.closed_left.values():
                    if lpd[p.production.lhs.id] >> rho & 1:
                        yield p

    def _set_witness(self, ev: Event, side: int, witness):
        ev.witness[side] = witness
        if witness.__class__ is Event:
            witness.watchers[1 - side].append((ev, side))
        self.stats["links"] += 1
        if self.tracing:
            if witness.__class__ is Event:
                by = f"e{witness.id}.{SIDE_NAMES[1 - side]}"
            elif witness is BOUNDARY:
                by = BOUNDARY
            else:
                by = f"n{witness.id}"
            self.trace_lines.append(f"link e{ev.id}.{SIDE_NAMES[side]} <- {by}")

    def _analyze_extreme(self, ev: Event, side: int):
        """Link analysis of a freshly wired extreme: take the first witness
        at its CaD, become the witness of every partner there that has
        none, and link up with fusion partners."""
        other = 1 - side
        for w in self._witnesses(ev, side):
            if ev.witness[side] is None:
                self._set_witness(ev, side, w)
            if w.__class__ is Event and w.witness[other] is None:
                self._set_witness(w, other, ev)
                self._refresh_status(w)
        # fusion partners: same production, open extremes meeting here with
        # a dot gap covered by nullable symbols only.  p gains support and
        # is refreshed (without that on the right side, random_case(396)
        # counts 10 trees instead of 12); ev's refresh in mid-analysis on
        # the left side sets where it enters the queues, which the event
        # counts depend on.
        if side == LEFT and not ev.left_closed:
            cad = self.cads[ev.left]
            for p in cad.open_right.values():
                if (p.production is ev.production and p.rightdot <= ev.leftdot
                        and self._nullable_gap(ev.production, p.rightdot, ev.leftdot)):
                    self._add_fusion(p, ev, cad.index)
                    self._refresh_status(ev)
                    self._refresh_status(p)
        elif side == RIGHT and not ev.right_closed:
            cad = self.cads[ev.right]
            for p in cad.open_left.values():
                if (p.production is ev.production and ev.rightdot <= p.leftdot
                        and self._nullable_gap(ev.production, ev.rightdot, p.leftdot)):
                    self._add_fusion(ev, p, cad.index)
                    self._refresh_status(p)

    def _add_fusion(self, e1: Event, e2: Event, cad_index: int):
        """Link e1's open right extreme with e2's open left one and put the
        pair on the fusion agenda."""
        e1.fusion[RIGHT][e2.id] = e2
        e2.fusion[LEFT][e1.id] = e1
        self.stats["links"] += 1
        self.fusion_agenda.append((e1.id, e2.id, cad_index))
        if self.tracing:
            self.trace_lines.append(f"link fusion e{e1.id}.R <-> e{e2.id}.L")

    def _node_producer_links(self, node: Node):
        """A freshly created node witnesses the closed extremes without a
        witness that wait for it at its boundary CaDs."""
        comp = self.compiled
        for ev in self.cads[node.fbp].closed_right.values():
            if ev.witness[RIGHT] is None and comp.ra[ev.production.lhs.id] >> node.symbol & 1:
                self._set_witness(ev, RIGHT, node)
                self._refresh_status(ev)
        for ev in self.cads[node.lbp].closed_left.values():
            if ev.witness[LEFT] is None and comp.la[ev.production.lhs.id] >> node.symbol & 1:
                self._set_witness(ev, LEFT, node)
                self._refresh_status(ev)

    def _release(self, ev: Event) -> list[Event]:
        """ev has left its CaDs: every extreme it witnessed rescans its CaD,
        and its fusion partners drop their links with it.  Returns those
        partners, whose status may have changed."""
        partners = []
        for side in (LEFT, RIGHT):
            for p, s in ev.watchers[side]:
                if p.alive and p.witness[s] is ev:
                    p.witness[s] = None
                    witness = next(self._witnesses(p, s), None)
                    if witness is not None:
                        self._set_witness(p, s, witness)
                    partners.append(p)
            for p in ev.fusion[side].values():
                del p.fusion[1 - side][ev.id]
                partners.append(p)
        return partners

    # -- step 5: the logical status machine --------------------------------

    def compute_status(self, ev: Event) -> str:
        rhs = ev.production.rhs
        lc, rc = ev.left_closed, ev.right_closed
        ll, rl = ev.supported(LEFT), ev.supported(RIGHT)
        nullable = self.compiled.nullable
        if lc and rc:
            status = RUN if (ll and rl) else DELETE
        elif lc:
            if not ll:
                status = DELETE
            elif rl:
                status = DERIVATION
            elif rhs[ev.rightdot].id in nullable:
                status = EPSILON
            else:
                status = DELETE
        elif rc:
            if not rl:
                status = DELETE
            elif ll:
                status = DERIVATION
            elif rhs[ev.leftdot - 1].id in nullable:
                status = EPSILON
            else:
                status = DELETE
        else:
            if ll and rl:
                status = DERIVATION
            elif ll and rhs[ev.rightdot].id in nullable:
                status = EPSILON
            elif rl and rhs[ev.leftdot - 1].id in nullable:
                status = EPSILON
            else:
                status = DELETE
        if self.debug:
            next_null = (not rc) and rhs[ev.rightdot].id in nullable
            prev_null = (not lc) and rhs[ev.leftdot - 1].id in nullable
            self.status_audit.append((lc, rc, ll, rl, next_null, prev_null, status))
        return status

    def _refresh_status(self, ev: Event):
        if not ev.alive:
            return
        status = self.compute_status(ev)
        if status != ev.status:
            ev.status = status
            if self.tracing:
                self.trace_lines.append(f"status e{ev.id} {status} {ev.render()}")
            if status in self.queues:
                self.queues[status].append(ev.id)

    # -- step 6 actions -----------------------------------------------------

    def epsilon_expand(self, ev: Event):
        """Move a qualifying dot over one nullable symbol, appending the
        canonical zero-width node, and re-analyze the moved extreme."""
        rhs = ev.production.rhs
        nullable = self.compiled.nullable
        right_ok = (not ev.right_closed and not ev.supported(RIGHT)
                    and rhs[ev.rightdot].id in nullable and ev.supported(LEFT))
        left_ok = (not ev.left_closed and not ev.supported(LEFT)
                   and rhs[ev.leftdot - 1].id in nullable and ev.supported(RIGHT))
        if not (right_ok or left_ok):
            self._refresh_status(ev)
            return
        self.stats["epsilon_expansions"] += 1
        del self.event_index[ev.key()]
        if right_ok:  # expand the right dot first when both could qualify
            self._unwire_extreme(ev, RIGHT)
            sym = rhs[ev.rightdot].id
            ev.children = ev.children + (self.eps_nodes[sym],)
            ev.rightdot += 1
            side = RIGHT
        else:
            self._unwire_extreme(ev, LEFT)
            sym = rhs[ev.leftdot - 1].id
            ev.children = (self.eps_nodes[sym],) + ev.children
            ev.leftdot -= 1
            side = LEFT
        if self.tracing:
            self.trace_lines.append(f"expand e{ev.id} {ev.render()}")
        if ev.key() in self.event_index:
            # an identical event already covers the expanded form
            self._wire_extreme(ev, side)
            self._force_delete(ev, register_stats=True)
            return
        self.event_index[ev.key()] = ev
        self._wire_extreme(ev, side)
        self._analyze_extreme(ev, side)
        self._refresh_status(ev)

    def delete_event(self, ev: Event):
        self._force_delete(ev, register_stats=True)

    def _force_delete(self, ev: Event, register_stats: bool):
        """Remove an event; the extremes it supported rescan for another
        witness and get their status recomputed (the constraint-propagation
        cascade)."""
        if not ev.alive:
            return
        ev.alive = False
        self._unwire_extreme(ev, LEFT)
        self._unwire_extreme(ev, RIGHT)
        if self.event_index.get(ev.key()) is ev:
            del self.event_index[ev.key()]
        del self.events[ev.id]
        if register_stats:
            self.stats["events_deleted"] += 1
        if self.tracing:
            self.trace_lines.append(f"delete e{ev.id} {ev.render()}")
        for partner in self._release(ev):
            self._refresh_status(partner)

    def run_event(self, ev: Event):
        """Fire a closed-closed event: apply the production and admit the
        resulting node.  The event leaves its CaDs but its key stays
        indexed.  The extremes it supported rescan before the node is
        admitted, and their status is refreshed after, once the node and
        its events have witnessed what they can."""
        analysis = Analysis(ev.production, ev.children)
        ev.alive = False
        self._unwire_extreme(ev, LEFT)
        self._unwire_extreme(ev, RIGHT)
        del self.events[ev.id]
        self.stats["events_run"] += 1
        if self.tracing:
            self.trace_lines.append(f"run e{ev.id} {ev.render()}")
        partners = self._release(ev)
        self.add_node(ev.production.lhs.id, ev.left, ev.right, analysis)
        for partner in partners:
            self._refresh_status(partner)

    def fuse(self, left_id: int, right_id: int, cad_index: int):
        """Merge two same-production events whose dot ranges meet at a CaD
        (possibly across a run of nullable rhs symbols, which are filled
        with zero-width children)."""
        e1 = self.events.get(left_id)
        e2 = self.events.get(right_id)
        if (e1 is None or e2 is None or not e1.alive or not e2.alive
                or e1.right != cad_index or e2.left != cad_index
                or e1.right_closed or e2.left_closed
                or e2.id not in e1.fusion[RIGHT]
                or e1.rightdot > e2.leftdot
                or not self._nullable_gap(e1.production, e1.rightdot, e2.leftdot)):
            self.stats["stale_fusions"] += 1
            return
        prod = e1.production
        gap = tuple(self.eps_nodes[s.id] for s in prod.rhs[e1.rightdot:e2.leftdot])
        children = e1.children + gap + e2.children
        merged_key = (prod.id, e1.leftdot, e2.rightdot, e1.left, e2.right,
                      tuple(c.id for c in children))
        if self.tracing:
            self.trace_lines.append(f"fuse e{e1.id} + e{e2.id} @ {cad_index}")
        if merged_key in self.event_index:
            # the merged form already exists; just consume the link
            del e1.fusion[RIGHT][e2.id]
            del e2.fusion[LEFT][e1.id]
            self._refresh_status(e1)
            self._refresh_status(e2)
            self.stats["stale_fusions"] += 1
            return
        # does either extreme hold evidence besides this fusion link?
        other_r1 = e1.witness[RIGHT] is not None or len(e1.fusion[RIGHT]) > 1
        other_l2 = e2.witness[LEFT] is not None or len(e2.fusion[LEFT]) > 1
        self.stats["fusions"] += 1
        if other_r1 and other_l2:
            # both extremes carry further evidence: keep e1 and e2, create
            # the merged event alongside them
            self._new_event(prod, e1.leftdot, e2.rightdot, e1.left, e2.right, children)
            return
        del e1.fusion[RIGHT][e2.id]
        del e2.fusion[LEFT][e1.id]
        if other_r1:
            # only e1's right extreme has other evidence: absorb into e2
            self._refresh_status(e1)
            self._mutate(e2, LEFT, e1.leftdot, e1.left, children)
        elif other_l2:
            self._refresh_status(e2)
            self._mutate(e1, RIGHT, e2.rightdot, e2.right, children)
        else:
            # neither side has other evidence: e1 absorbs, e2 goes away
            self._mutate(e1, RIGHT, e2.rightdot, e2.right, children)
            self._force_delete(e2, register_stats=True)

    def _mutate(self, ev: Event, side: int, new_dot: int, new_cad: int, children):
        """Rewire one extreme of a surviving event to its merged position.
        The moved extreme had no evidence besides the consumed fusion link,
        so it witnesses nothing and nothing needs tearing down."""
        del self.event_index[ev.key()]
        self._unwire_extreme(ev, side)
        if side == LEFT:
            ev.leftdot = new_dot
            ev.left = new_cad
        else:
            ev.rightdot = new_dot
            ev.right = new_cad
        ev.children = tuple(children)
        if ev.key() in self.event_index:
            # merged form exists after all (raced through another route)
            self._force_delete(ev, register_stats=True)
            return
        self.event_index[ev.key()] = ev
        self._wire_extreme(ev, side)
        if self.debug:
            self._assert_event_tiling(ev)
        if self.tracing:
            self.trace_lines.append(f"mutate e{ev.id} {ev.render()}")
        self._analyze_extreme(ev, side)
        self._refresh_status(ev)
        self._spawn_epsilon_variants(ev)

    # -- the parsing cycle ---------------------------------------------------

    def parse_cycle(self):
        """Drain the queues with strict priority epsilon > delete > run >
        fusion until nothing is pending."""
        steps = 0
        while True:
            steps += 1
            if self.step_limit is not None and steps > self.step_limit:
                raise EngineError(f"step limit {self.step_limit} exceeded; "
                                  f"stats: {self.stats}")
            if self.queues[EPSILON]:
                eid = self.queues[EPSILON].popleft()
                ev = self.events.get(eid)
                if ev is not None and ev.alive and ev.status == EPSILON:
                    self.epsilon_expand(ev)
                continue
            if self.queues[DELETE]:
                eid = self.queues[DELETE].popleft()
                ev = self.events.get(eid)
                if ev is not None and ev.alive and ev.status == DELETE:
                    self.delete_event(ev)
                continue
            if self.queues[RUN]:
                eid = self.queues[RUN].popleft()
                ev = self.events.get(eid)
                if ev is not None and ev.alive and ev.status == RUN:
                    self.run_event(ev)
                continue
            if self.fusion_agenda:
                left_id, right_id, cad = self.fusion_agenda.popleft()
                self.fuse(left_id, right_id, cad)
                continue
            break
        self.completed = True
        if self.debug:
            self.check_invariants()
        return self

    def check_invariants(self):
        """Debug check of the fixpoint: every live event's stored status is
        current, every witness is the boundary, a node or a live event's
        extreme compatible with the extreme it witnesses, and no extreme
        without a witness has one available at its CaD."""
        for ev in self.events.values():
            assert ev.status == self.compute_status(ev), f"e{ev.id}: stale status"
            for side in (LEFT, RIGHT):
                witness = ev.witness[side]
                found = list(self._witnesses(ev, side))
                if witness is None:
                    assert not found, f"e{ev.id}.{SIDE_NAMES[side]}: witness missed"
                else:
                    assert any(w is witness for w in found), \
                        f"e{ev.id}.{SIDE_NAMES[side]}: witness is not compatible or gone"

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
