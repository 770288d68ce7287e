import pytest

from scparse.lattice import (InputLattice, LatticeError, LexicalItem,
                             load_lattice, save_lattice, tokenize_plain)


def test_tokenize_identity():
    lat = tokenize_plain("a a b")
    assert lat.points == 4
    assert [(i.unit, i.preterminal, i.fbp, i.lbp) for i in lat.items] == [
        ("a", "a", 0, 1), ("a", "a", 1, 2), ("b", "b", 2, 3)]


def test_tokenize_empty_input():
    lat = tokenize_plain("")
    assert lat.points == 1
    assert lat.items == []


def test_tokenize_with_lexicon_fans_out():
    lat = tokenize_plain("saw", {"saw": {"N", "V"}})
    assert len(lat.items) == 2
    assert {i.preterminal for i in lat.items} == {"N", "V"}


def test_tokenize_unknown_token():
    with pytest.raises(LatticeError, match="unknown token"):
        tokenize_plain("x y", {"x": {"N"}})


def test_item_span_validation():
    with pytest.raises(LatticeError):
        LexicalItem("w", "t", 2, 2)
    with pytest.raises(LatticeError):
        LexicalItem("w", "t", 3, 1)


def test_item_beyond_last_point():
    with pytest.raises(LatticeError):
        InputLattice(2, [LexicalItem("w", "t", 0, 2)])


def test_disconnected_lattice_rejected():
    # breaking point 1 is unreachable: the only item jumps over it
    with pytest.raises(LatticeError, match="disconnected"):
        InputLattice(3, [LexicalItem("w", "t", 0, 2),
                         LexicalItem("v", "t", 1, 2)])


def test_connectivity_does_not_depend_on_item_order():
    backbone = [LexicalItem(f"w{i}", "t", i, i + 1) for i in range(3)]
    assert InputLattice(4, backbone[::-1]).n == 3
    # breaking point 1 is unreachable from 0, whatever the order
    with pytest.raises(LatticeError, match="breaking point 1"):
        InputLattice(4, [LexicalItem("c", "t", 2, 3), LexicalItem("b", "t", 1, 2),
                         LexicalItem("a", "t", 0, 2)])


def test_dead_end_interior_point_rejected():
    # point 2 is reachable from 0 through the branch at 1 but leads nowhere
    with pytest.raises(LatticeError, match="breaking point 2"):
        InputLattice(4, [LexicalItem("a", "t", 0, 1), LexicalItem("b", "t", 1, 3),
                         LexicalItem("c", "t", 1, 2)])


def test_multiword_item_alongside_backbone():
    lat = InputLattice(3, [LexicalItem("w0", "t", 0, 1),
                           LexicalItem("w1", "t", 1, 2),
                           LexicalItem("w01", "u", 0, 2)])
    assert len(lat.items_from(0)) == 2


def test_round_trip():
    lat = InputLattice(3, [LexicalItem("el", "DET", 0, 1),
                           LexicalItem("vio", "V", 1, 2),
                           LexicalItem("viola", "N", 1, 2)])
    text = save_lattice(lat)
    back = load_lattice(text)
    assert back.points == 3
    assert [(i.unit, i.preterminal, i.fbp, i.lbp) for i in back.items] == \
           [(i.unit, i.preterminal, i.fbp, i.lbp) for i in lat.items]


def test_round_trip_quotes_backslashes_and_hashes():
    surfaces = ["C#", 'say "hi"', "back\\slash\\", '#"\\#', '"', "\\"]
    lat = InputLattice(len(surfaces) + 1, [LexicalItem(u, "t", i, i + 1)
                                           for i, u in enumerate(surfaces)])
    back = load_lattice(save_lattice(lat))
    assert [i.unit for i in back.items] == surfaces


def test_load_comment_outside_surfaces_only():
    lat = load_lattice('%points 2  # two points\n0 1 "a # b" t  # "c"\n')
    assert [(i.unit, i.preterminal) for i in lat.items] == [("a # b", "t")]


def test_load_requires_points_header():
    with pytest.raises(LatticeError, match="%points"):
        load_lattice('0 1 "w" t\n')


def test_load_rejects_malformed_line():
    with pytest.raises(LatticeError, match="malformed"):
        load_lattice('%points 2\nnot an item\n')


def test_load_rejects_a_malformed_points_directive():
    # the directive is its whole first word, given once, with exactly one count
    with pytest.raises(LatticeError, match="line 1: malformed item line '%pointsX 2'"):
        load_lattice('%pointsX 2\n0 1 "a" a\n')
    with pytest.raises(LatticeError, match="line 1: %points takes one count"):
        load_lattice('%points 2 junk\n0 1 "a" a\n')
    with pytest.raises(LatticeError, match="line 2: second %points header"):
        load_lattice('%points 9\n%points 2\n0 1 "a" a\n')


def test_oversized_lattice_rejected_before_building_per_point_lists():
    # points 1..n each end some item, so a million points cannot be
    # connected by one item; no per-point list is built to find that out
    with pytest.raises(LatticeError, match="last point 999999 needs at least 999999 items"
                                           " to connect, got 1"):
        load_lattice('%points 1000000\n0 1 "a" a\n')
    with pytest.raises(LatticeError, match="needs at least 2 items to connect, got 0"):
        InputLattice(3, [])
