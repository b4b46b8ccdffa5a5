import pytest

from dupcat.errors import CyclicQuiverError, QuiverSyntaxError
from dupcat.fixtures import a_n, d4_subspace, kronecker
from dupcat.quiver import (
    Quiver,
    classify_dynkin,
    duplicated_quiver,
    maximal_paths,
    opposite,
    parse_quiver,
    paths_from,
    sinks_and_sources,
)


def test_parse_basic():
    q = parse_quiver("vertices 1 2\narrow a 2 1\n")
    assert q.vertices == ("1", "2")
    assert q.arrows[0] == ("a", "2", "1")


def test_parse_d4_fixture_file():
    text = """
    # three arrows into the sink
    vertices 1 2 3 4
    arrow al 2 1
    arrow be 3 1
    arrow ga 4 1
    """
    q = parse_quiver(text)
    assert q == d4_subspace()


def test_parse_errors():
    with pytest.raises(CyclicQuiverError):
        parse_quiver("vertices 1\narrow a 1 1\n")
    with pytest.raises(CyclicQuiverError):
        parse_quiver("vertices 1 2\narrow a 1 2\narrow b 2 1\n")
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("vertices 1 1\n")
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("vertices 1\narrow a 1\n")
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("arrow a 1 2\n")


def test_classify_dynkin():
    assert str(classify_dynkin(a_n(2))) == "A2"
    assert str(classify_dynkin(a_n(1))) == "A1"
    assert str(classify_dynkin(d4_subspace())) == "D4"
    assert classify_dynkin(kronecker()) is None
    # orientation independence
    for q in (a_n(4), a_n(4, "zigzag"), d4_subspace()):
        assert classify_dynkin(q) == classify_dynkin(opposite(q))
    # E6: branch vertex with legs 1, 2, 2
    e6 = Quiver(
        ["1", "2", "3", "4", "5", "6"],
        [
            ("a", "2", "1"),
            ("b", "3", "2"),
            ("c", "4", "3"),
            ("d", "5", "4"),
            ("e", "6", "3"),
        ],
    )
    assert str(classify_dynkin(e6)) == "E6"
    # disconnected
    assert classify_dynkin(Quiver(["1", "2"], [])) is None
    # D5 as a star with a longer tail
    d5 = Quiver(
        ["0", "1", "2", "3", "4"],
        [("a", "1", "0"), ("b", "2", "0"), ("c", "0", "3"), ("d", "3", "4")],
    )
    assert str(classify_dynkin(d5)) == "D5"


def test_sinks_and_sources():
    assert sinks_and_sources(a_n(2)) == (("1",), ("2",))
    assert sinks_and_sources(d4_subspace()) == (("1",), ("2", "3", "4"))
    assert sinks_and_sources(a_n(1)) == (("1",), ("1",))


def test_opposite_involution():
    for q in (a_n(3), d4_subspace(), kronecker()):
        assert opposite(opposite(q)) == q
    assert sinks_and_sources(opposite(d4_subspace())) == (("2", "3", "4"), ("1",))


def _count_paths(q, s, t):
    return len(paths_from(q, s)[t])


def test_paths():
    q = a_n(3)
    table = paths_from(q, "3")
    assert table["3"] == [()]
    assert table["2"] == [("a3",)]
    assert table["1"] == [("a3", "a2")]
    assert _count_paths(q, "1", "3") == 0
    assert _count_paths(d4_subspace(), "2", "1") == 1


def test_maximal_paths():
    assert [(m.start, m.end) for m in maximal_paths(a_n(2))] == [("2", "1")]
    assert len(maximal_paths(a_n(3))) == 1  # only the full path 3 ~> 1
    d4 = sorted((m.start, m.end) for m in maximal_paths(d4_subspace()))
    assert d4 == [("2", "1"), ("3", "1"), ("4", "1")]
    # single vertex: the trivial path is maximal
    a1 = maximal_paths(a_n(1))
    assert len(a1) == 1 and a1[0].arrows == ()
    assert len(maximal_paths(kronecker())) == 2


def test_duplicated_quiver_d4():
    rep = duplicated_quiver(d4_subspace())
    assert sorted(rep.connecting_pairs()) == [
        ("1'", "2"),
        ("1'", "3"),
        ("1'", "4"),
    ]
    # hom dimension table equals path counts y ~> x
    assert rep.hom_dims[("1", "2")] == 1
    assert rep.hom_dims[("2", "1")] == 0
    assert rep.hom_dims[("1", "1")] == 1
    assert len(rep.dup.vertices) == 8
    assert len(rep.dup.arrows) == 3 + 3 + 3


def test_duplicated_quiver_a2_a1():
    rep = duplicated_quiver(a_n(2))
    assert rep.connecting_pairs() == (("1'", "2"),)
    # dim table entry (2', 1) = #paths 1 ~> 2 = 0: the length-3 path vanishes
    assert rep.hom_dims[("2", "1")] == 0
    rep1 = duplicated_quiver(a_n(1))
    assert rep1.connecting_pairs() == (("1'", "1"),)
    assert len(rep1.dup.arrows) == 1  # the duplicated algebra of A1 is kA2


def test_duplicated_quiver_connecting_count_is_maximal_path_count():
    for q in (a_n(1), a_n(2), a_n(3), a_n(4, "zigzag"), d4_subspace(), kronecker()):
        assert len(duplicated_quiver(q).connecting) == len(maximal_paths(q))


def _dfs_count(q, s, t):
    if s == t:
        base = 1
    else:
        base = 0
    total = base
    for a in q.arrows_from[s]:
        total += _dfs_count(q, a.target, t)
    return total


def test_hom_dim_table_against_dfs():
    for q in (a_n(3), a_n(4, "zigzag"), d4_subspace()):
        rep = duplicated_quiver(q)
        for x in q.vertices:
            for y in q.vertices:
                assert rep.hom_dims[(x, y)] == _dfs_count(q, y, x)
