"""Parsing input as a lattice of lexical items over breaking points.

Positions between lexical units are breaking points 0..n.  Each item
carries a surface string, a preterminal category name and its first/last
breaking points, so lexical ambiguity (several items over the same span)
and multi-word or sub-word units (items spanning several points, or extra
points inside a surface word) are all just items.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class LexicalItem:
    unit: str          # surface text
    preterminal: str   # terminal category name, resolved against a grammar later
    fbp: int           # first breaking point
    lbp: int           # last breaking point

    def __post_init__(self):
        if not (0 <= self.fbp < self.lbp):
            raise LatticeError(f"item {self.unit!r}: fbp must be < lbp, got [{self.fbp},{self.lbp}]")


class InputLattice:
    """Validated item lattice over breaking points 0..n."""

    def __init__(self, points: int, items: list[LexicalItem]):
        if points < 1:
            raise LatticeError("a lattice needs at least one breaking point")
        self.points = points           # breaking point count, n + 1
        self.n = points - 1            # last breaking point index
        self.items = list(items)
        self._validate()

    def _validate(self):
        # Each of the points 1..n ends some item of a connected lattice;
        # checked first, so an oversized header allocates nothing per point.
        if self.n > len(self.items):
            raise LatticeError(f"a lattice with last point {self.n} needs at least {self.n} "
                               f"items to connect, got {len(self.items)}")
        starts: list[list[int]] = [[] for _ in range(self.points)]  # lbps by fbp
        for it in self.items:
            if it.lbp > self.n:
                raise LatticeError(f"item {it.unit!r} ends at {it.lbp}, beyond last point {self.n}")
            starts[it.fbp].append(it.lbp)
        # Every interior breaking point must sit on some 0 -> n path.  Items
        # go forward (fbp < lbp), so one pass in point order finds the
        # points reachable from 0, and one in reverse order those reaching n.
        fwd = [False] * self.points
        fwd[0] = True
        for k in range(self.points):
            if fwd[k]:
                for lbp in starts[k]:
                    fwd[lbp] = True
        bwd = [False] * self.points
        bwd[self.n] = True
        for k in range(self.n - 1, -1, -1):
            bwd[k] = any(bwd[lbp] for lbp in starts[k])
        if self.n > 0 and not fwd[self.n]:
            raise LatticeError("disconnected lattice: no item path from 0 to the last point")
        for k in range(1, self.n):
            if not (fwd[k] and bwd[k]):
                raise LatticeError(f"disconnected lattice: breaking point {k} is on no 0->{self.n} path")

    def items_from(self, point: int) -> list[LexicalItem]:
        return [it for it in self.items if it.fbp == point]

    def __repr__(self):
        return f"InputLattice({self.points} points, {len(self.items)} items)"


def tokenize_plain(text: str, lexicon: dict[str, set[str]] | None = None) -> InputLattice:
    """Whitespace tokenization into a linear lattice.

    Without a lexicon every token maps to the terminal of the same name;
    with one, token i fans out to one item per category.
    """
    tokens = text.split()
    items = []
    for i, tok in enumerate(tokens):
        if lexicon is None:
            cats = [tok]
        else:
            cats = sorted(lexicon.get(tok, ()))
            if not cats:
                raise LatticeError(f"unknown token {tok!r} at position {i}")
        for cat in cats:
            items.append(LexicalItem(tok, cat, i, i + 1))
    return InputLattice(len(tokens) + 1, items)


# A surface is quoted; a backslash escapes the next character (save_lattice
# escapes only backslashes and double quotes).
_QUOTED = r'"((?:[^"\\]|\\.)*)"'
_ITEM_RE = re.compile(r'^(\d+)\s+(\d+)\s+' + _QUOTED + r'\s+(\S+)$')
# A line up to its '#' comment, which cannot start inside a surface.
_CODE_RE = re.compile(r'(?:[^"#]|' + _QUOTED + ')*')
_ESCAPE_RE = re.compile(r'\\(.)')


def load_lattice(text: str) -> InputLattice:
    """Parse the lattice file format: a '%points N' header, then one item
    per line as: FBP LBP "surface" PRETERMINAL.  '#' outside a surface
    starts a comment."""
    points = None
    items = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _CODE_RE.match(raw).group().strip()
        if not line:
            continue
        directive, *values = line.split()
        if directive == "%points":
            if points is not None:
                raise LatticeError(f"line {lineno}: second %points header")
            try:
                points, = map(int, values)
            except ValueError:
                raise LatticeError(f"line {lineno}: %points takes one count") from None
            continue
        m = _ITEM_RE.match(line)
        if not m:
            raise LatticeError(f"line {lineno}: malformed item line {line!r}")
        fbp, lbp, cat = int(m.group(1)), int(m.group(2)), m.group(4)
        unit = _ESCAPE_RE.sub(r"\1", m.group(3))
        if fbp >= lbp:
            raise LatticeError(f"line {lineno}: item {unit!r} has fbp >= lbp")
        items.append(LexicalItem(unit, cat, fbp, lbp))
    if points is None:
        raise LatticeError("missing %points header")
    return InputLattice(points, items)


def save_lattice(lat: InputLattice) -> str:
    out = [f"%points {lat.points}"]
    for it in lat.items:
        unit = it.unit.replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'{it.fbp} {it.lbp} "{unit}" {it.preterminal}')
    return "\n".join(out) + "\n"
