"""Bitmask graph core: graph6 codec, constructions, surgery, recognition."""

import random
import re
import time
import tracemalloc

import numpy as np
import pytest

from spectralminors import (
    MAX_VERTICES,
    Graph,
    canonical_key,
    complete,
    complete_bipartite,
    construct_cdv_extremal,
    construct_kr_extremal,
    construct_kst_extremal,
    cycle,
    delete_vertex,
    disjoint_union,
    encode_graph6,
    has_minor,
    independent,
    is_bipartite,
    is_path_union,
    join,
    kst_parts,
    parse_graph6,
    path,
    petersen,
    recognize_residual,
)
from spectralminors.graph import (
    _BLOCK,
    DENSE_MAX,
    WALK_MAX,
    _asymmetry_dense,
    _asymmetry_walk,
    _components,
    _edge_arrays,
    _pack,
    _packed,
    _packed_rows,
    _transpose_packed,
    _unpack,
)
from spectralminors.search import enumerate_graphs

from helpers import (contract_edge, decompose_apex_clique, delete_edge, random_graph,
                     random_sparse_graph, reference_edge_arrays, relabel_by_edges)


def edge_set(g):
    return set(g.edges())


# ---------------------------------------------------------------------------
# Graph basics


def test_from_edges_and_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count == 3
    assert g.degrees() == (1, 2, 2, 1)
    assert g.max_degree() == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.neighbors(1) == (0, 2)
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError, match="loop at vertex 0"):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(3, [(5, 5)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError, match=re.escape("asymmetric adjacency at (0, 1)")):
        Graph(2, (2, 0))
    with pytest.raises(ValueError):
        Graph(2, (1, 2))  # loop bit on vertex 0
    with pytest.raises(ValueError, match=">= n"):
        Graph(2, (4, 0))  # bit 2 on a 2-vertex graph
    with pytest.raises(ValueError, match=">= n"):
        Graph(2, (-1, 0))  # negative row
    with pytest.raises(ValueError):
        Graph.empty(-1)
    with pytest.raises(ValueError):
        Graph.empty(MAX_VERTICES + 1)
    with pytest.raises(ValueError, match="row count"):
        Graph(2, (1,))
    with pytest.raises(ValueError, match="loops not allowed"):
        Graph.empty(2).with_edge(1, 1)
    # the boundary itself is fine
    assert Graph.empty(MAX_VERTICES).n == MAX_VERTICES


def test_rows_given_as_a_list_are_stored_as_a_tuple():
    # a graph built from a list of rows equals and hashes like its tuple
    # twin, so the caches keyed on graphs take it
    assert Graph(3, [6, 5, 3]) == Graph(3, (6, 5, 3))
    k5 = Graph(5, list(complete(5).rows))
    assert isinstance(k5.rows, tuple)
    assert k5 == complete(5) and hash(k5) == hash(complete(5))
    assert canonical_key(k5) == canonical_key(complete(5))
    assert has_minor(k5, petersen()) is not None


def test_components_and_connectivity():
    g = disjoint_union(complete(3), path(2), independent(1))
    assert g.components() == [(0, 1, 2), (3, 4), (5,)]
    assert not g.is_connected()
    assert cycle(5).is_connected()
    assert Graph.empty(0).is_connected()
    assert not Graph.empty(2).is_connected()


def test_components_match_networkx_on_masks():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2017)
    checked = 0
    for n in range(7):
        for g in enumerate_graphs(n):
            mask = rng.getrandbits(n) if n else 0
            ng = nx.Graph()
            ng.add_nodes_from(range(n))
            ng.add_edges_from(g.edges())
            sub = ng.subgraph(v for v in range(n) if mask >> v & 1)
            want = sorted(sum(1 << v for v in c) for c in nx.connected_components(sub))
            got = _components(g.rows, mask)
            assert sorted(got) == want, (encode_graph6(g), mask)
            # ordered by least vertex
            assert got == sorted(got, key=lambda m: m & -m)
            checked += 1
    assert checked == 1 + 1 + 2 + 4 + 11 + 34 + 156


def test_induced_subgraph_and_relabel():
    g = cycle(5)
    h = g.induced_subgraph([0, 1, 2])
    assert edge_set(h) == {(0, 1), (1, 2)}
    perm = [4, 3, 2, 1, 0]
    r = g.relabel(perm)
    assert r.edge_count == g.edge_count
    assert r.has_edge(4, 3)  # image of edge (0, 1)
    back = r.relabel(perm)
    assert back == g
    # a repeated label, a short or out-of-range one and an extra one
    for bad in ([0, 1, 0], [0, 0, 1], [0, 1], [0, 1, 5], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match=re.escape("permutation of range(3)")):
            path(3).relabel(bad)


# orders around the byte and word boundaries of the packed rows, both sides of
# the walk bound, the slab edges, the sizes of the large constructions, and
# both sides of the dense bound
RELABEL_ORDERS = (0, 1, 7, 8, 9, WALK_MAX, WALK_MAX + 1, 63, 64, 65, _BLOCK - 1, _BLOCK,
                  _BLOCK + 1, 300, 2 * _BLOCK + 1, 3 * _BLOCK, 2005, DENSE_MAX, DENSE_MAX + 1)


def _seeded_graph(rng, n):
    if n <= 300:
        return random_graph(rng, n, rng.random())
    return random_sparse_graph(rng, n, 3 * n)


def test_relabel_matches_per_edge_reference():
    rng = random.Random(4096)
    for n in RELABEL_ORDERS:
        for _ in range(3 if n <= 300 else 1):
            g = _seeded_graph(rng, n)
            perm = rng.sample(range(n), n)
            r = g.relabel(perm)
            assert r == relabel_by_edges(g, perm), n
            inv = [0] * n
            for v, p in enumerate(perm):
                inv[p] = v
            assert r.relabel(inv) == g
            assert _packed_rows(_pack(_unpack(_packed(g.rows, n), n))) == g.rows


def test_relabel_reads_its_permutation_once():
    # a generator perm is read once, on the walk, on the packed path and past
    # the dense bound
    for g in (complete(4), path(WALK_MAX + 1), path(DENSE_MAX + 1)):
        perm = [(v + 1) % g.n for v in range(g.n)]
        assert g.relabel(v for v in perm) == g.relabel(perm) == relabel_by_edges(g, perm)


def _flip_arcs(rng, rows, k):
    """rows with k random arcs u -> v toggled in rows[u] alone."""
    rows = list(rows)
    for _ in range(k):
        u, v = rng.sample(range(len(rows)), 2)
        rows[u] ^= 1 << v
    return tuple(rows)


def test_symmetry_paths_agree():
    # the walk and the dense check accept the same rows and name the same
    # first pair; Graph reports that pair on either side of WALK_MAX and of
    # DENSE_MAX
    rng = random.Random(13)
    cases = [g.rows for n in range(8) for g in enumerate_graphs(n)]
    cases += [_flip_arcs(rng, rows, rng.randint(1, 3)) for rows in cases if len(rows) >= 2]
    for n in (8, 9, 63, 64, 65, _BLOCK - 1, _BLOCK, _BLOCK + 1, 300, 2 * _BLOCK + 1):
        g = random_graph(rng, n, rng.random())
        cases += [g.rows] + [_flip_arcs(rng, g.rows, rng.randint(1, 3)) for _ in range(20)]
    rejected = 0
    for rows in cases:
        want = _asymmetry_walk(rows)
        assert _asymmetry_dense(rows, len(rows)) == want, rows
        if want is not None:
            with pytest.raises(ValueError, match=re.escape(f"asymmetric adjacency at {want}")):
                Graph(len(rows), rows)
        rejected += want is not None
    assert min(rejected, len(cases) - rejected) > 1000
    for n in (DENSE_MAX, DENSE_MAX + 1):
        rows = path(n).rows
        assert _asymmetry_dense(rows, n) is None
        for u, v in ((0, n - 1), (n - 1, 0), (n - 2, n - 1), (1000, 3000)):
            bad = list(rows)
            bad[u] ^= 1 << v
            pair = (u, v) if bad[u] >> v & 1 else (v, u)
            assert _asymmetry_walk(bad) == _asymmetry_dense(bad, n) == pair
            with pytest.raises(ValueError, match=re.escape(f"asymmetric adjacency at {pair}")):
                Graph(n, tuple(bad))


def test_large_sparse_graphs_walk_their_bits():
    # above DENSE_MAX the check and relabel walk the set bits: about 0.5-0.8 s
    # for both graphs on a 2-core machine; the packed check would hold 48 MiB
    # per graph, as would relabel
    start = time.perf_counter()
    for g in (path(20000), complete_bipartite(1, 20000)):
        assert Graph(g.n, g.rows) == g
        assert g.relabel(range(g.n - 1, -1, -1)).edge_count == g.edge_count
    assert time.perf_counter() - start < 2.5


def test_dense_graphs_past_4096_take_the_packed_path():
    # complete(5000) is checked and relabelled on its packed matrix: about
    # 0.1 s on a 2-core machine, where walking its 25 million set bits took
    # about 19 s
    assert 5000 <= DENSE_MAX
    start = time.perf_counter()
    g = complete(5000)
    r = g.relabel(range(g.n - 1, -1, -1))
    assert r == g and r.edge_count == 5000 * 4999 // 2
    assert time.perf_counter() - start < 2.5


def test_transpose_packed_matches_unpacked_transpose():
    # shapes cut through a byte, a word block of 8 rows, and a _BLOCK-row slab
    rng = np.random.default_rng(8)
    for k, m in [(1, 1), (3, 5), (7, 8), (8, 8), (9, 17), (63, 65), (_BLOCK, _BLOCK),
                 (_BLOCK + 1, 300)]:
        bits = (rng.random((k, m)) < 0.5).astype(np.uint8)
        packed = np.packbits(bits, axis=1, bitorder="little")
        got = _transpose_packed(packed)
        assert got.shape == (8 * packed.shape[1], (k + 7) // 8)
        assert np.array_equal(got[:m], np.packbits(bits.T, axis=1, bitorder="little"))
        assert not got[m:].any()


def test_edge_arrays_match_whole_bit_reference():
    # the nonzero bytes expand to the same arrays, dtype, order and values,
    # as unpacking every bit: on the atlas, on the large extremal graphs
    # relabelled, on complete(600), where every byte is nonzero, on a star
    # with one full row and 3,000 single bits, and on slabs with no edge
    rng = random.Random(600)
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    graphs += [g.relabel(rng.sample(range(g.n), g.n)) for g in (
        construct_kr_extremal(1800, 32), construct_kr_extremal(900, 20),
        construct_kr_extremal(300, 8), construct_kst_extremal(2005, 6, 10),
        construct_kst_extremal(1010, 11, 20), construct_kst_extremal(500, 3, 7),
        construct_cdv_extremal(1200, 4), construct_cdv_extremal(400, 3),
        path(100), path(200), path(300))]
    graphs += [complete(600), complete_bipartite(1, 3000), Graph.empty(600).with_edge(1, 598)]
    for g in graphs:
        got, want = _edge_arrays(g.rows, g.n), reference_edge_arrays(g.rows, g.n)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), encode_graph6(g)[:20]


# ---------------------------------------------------------------------------
# graph6 codec


def test_graph6_anchors():
    assert parse_graph6("?") == Graph.empty(0)
    assert parse_graph6("@") == Graph.empty(1)
    assert parse_graph6("A_") == complete(2)
    assert parse_graph6("A?") == independent(2)
    assert parse_graph6("Dhc") == cycle(5)
    # star with center 4
    assert parse_graph6("D?{") == Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])


def test_graph6_encode_anchors():
    assert encode_graph6(Graph.empty(0)) == "?"
    assert encode_graph6(complete(2)) == "A_"
    assert encode_graph6(cycle(5)) == "Dhc"


def test_graph6_header_and_bytes():
    assert parse_graph6(">>graph6<<A_") == complete(2)
    assert parse_graph6(b"A_") == complete(2)
    assert parse_graph6("A_\n") == complete(2)


def test_graph6_malformed():
    with pytest.raises(ValueError, match="truncated"):
        parse_graph6("D")
    with pytest.raises(ValueError, match="trailing"):
        parse_graph6("A_?")
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("A" + chr(20))
    with pytest.raises(ValueError):
        parse_graph6("~~" + "?" * 10)  # 8-byte order form is out of scope


def test_graph6_long_form_boundary():
    # orders up to 62 use the single-byte header, 63 and up the 4-byte one
    g62 = encode_graph6(independent(62))
    g63 = encode_graph6(independent(63))
    assert g62[0] != "~" and g63[0] == "~"
    assert parse_graph6(g62).n == 62
    assert parse_graph6(g63).n == 63


def test_graph6_roundtrip_random():
    rng = random.Random(1405)
    for trial in range(300):
        n = rng.randint(0, 14)
        g = random_graph(rng, n, rng.random())
        assert parse_graph6(encode_graph6(g)) == g
    for trial in range(5):
        g = random_graph(rng, 70, 0.08)
        assert parse_graph6(encode_graph6(g)) == g


def test_block_starts_on_a_graph6_character():
    # the slabs start on a byte of the packed rows, and the a(a-1)/2 triangle
    # bits before slab start a fill whole 6-bit characters, so the encoder
    # carries no bits from one slab to the next and parse reads each slab
    # from a character's first bit
    assert _BLOCK % 24 == 0
    assert all(a * (a - 1) // 2 % 6 == 0 for a in range(0, 10 * _BLOCK, _BLOCK))


def test_graph6_roundtrip_near_dense_max():
    # the codec works _BLOCK rows at a time and parse mirrors each slab into
    # the packed rows: _BLOCK - 1, _BLOCK, _BLOCK + 1 and 2 * _BLOCK + 1 end
    # the last slab partial, whole and one row past, 3 * _BLOCK whole after
    # three slabs; 4000 and 4097 end it partial on and off a byte boundary;
    # DENSE_MAX + 1 is the first order whose Graph walks its bits
    rng = random.Random(4097)
    for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK, 4000, 4097,
              DENSE_MAX + 1):
        edges = [(0, n - 1), (n - 2, n - 1), *(rng.sample(range(n), 2) for _ in range(3 * n))]
        g = Graph.from_edges(n, edges)
        assert parse_graph6(encode_graph6(g)) == g
    # every edge runs from slab 0 to a later slab, none to slab 1: a matching
    # u <-> u + 2 * _BLOCK and a star from vertex 0 to the last, partial slab,
    # so every row of slab 0 gets its bits only from the transposed left part
    # of a far slab
    n = 3 * _BLOCK + 5
    edges = [(u, u + 2 * _BLOCK) for u in range(_BLOCK)] + [(0, v) for v in range(3 * _BLOCK, n)]
    g = Graph.from_edges(n, edges)
    assert parse_graph6(encode_graph6(g)) == g


def test_graph6_roundtrip_holds_no_square_array():
    # tracemalloc counts numpy buffers: the 6000 x 6000 uint8 matrix alone
    # would take 34 MiB, and the round trip peaked near 100 MiB with it
    g = path(6000)
    tracemalloc.start()
    try:
        text = encode_graph6(g)
        back = parse_graph6(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == g
    assert peak < 24 * 2 ** 20, peak


def test_edge_arrays_hold_no_more_than_the_whole_bit_build():
    # the bounds are the peaks of the build that unpacked every bit, a slab
    # at a time: 1,970,040 bytes on path(6000), where a 264 x 6000 slab of
    # bits takes 1.5 MiB, and 3,428,968 on kr(1800, 32), four copies of its
    # 107,070 directed edges; the nonzero bytes took 1,026,197 and 2,695,672
    for g, bound in ((path(6000), 1970040), (construct_kr_extremal(1800, 32), 3428968)):
        tracemalloc.start()
        try:
            src, dst = _edge_arrays(g.rows, g.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(src) == len(dst) == 2 * g.edge_count
        assert peak < bound, (g.n, peak)


def test_relabel_holds_no_square_array():
    # relabel packs the moved rows and reads their transpose a slab at a
    # time: about 8 MiB at its peak, where the 6000 x 6000 uint8 matrix alone
    # would take 34 MiB
    g = path(6000)
    tracemalloc.start()
    try:
        r = g.relabel(range(g.n - 1, -1, -1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r == g
    assert peak < 16 * 2 ** 20, peak


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(77)
    for trial in range(120):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(g.edges())
        expected = nx.to_graph6_bytes(ng, header=False).decode().strip()
        assert encode_graph6(g) == expected
        assert parse_graph6(expected) == g


def test_graph6_matches_networkx_all_orders():
    # n = 0..70 crosses the 62/63 switch to the long-form length; 300 and
    # 2005 are the sizes of the large extremal constructions; _BLOCK,
    # 2 * _BLOCK and 3 * _BLOCK end the first three slabs, and _BLOCK + 1
    # and 2 * _BLOCK + 1 end the last one row in, so that slab's bits, like
    # the first slab's, are no multiple of 24, the base64 group; 600 at
    # p = 0.95 writes almost every bit
    nx = pytest.importorskip("networkx")
    rng = random.Random(2005)
    cases = [(n, p) for n in [*range(71), 300] for p in (rng.random(), rng.random() * 0.05)]
    cases += [(n, 0.05) for n in (_BLOCK, 2 * _BLOCK, 3 * _BLOCK)]
    cases += [(n, rng.random()) for n in (_BLOCK + 1, 2 * _BLOCK + 1)] + [(600, 0.95)]
    for n, p in cases + [(2005, 0.01)]:
        ng = nx.fast_gnp_random_graph(n, p, seed=rng.randrange(1 << 30))
        g = Graph.from_edges(n, ng.edges())
        expected = nx.to_graph6_bytes(ng, header=False).decode().strip()
        text = encode_graph6(g)
        assert text == expected
        assert parse_graph6(expected) == g
        back = nx.from_graph6_bytes(text.encode())
        assert back.number_of_nodes() == n
        assert {tuple(sorted(e)) for e in back.edges()} == edge_set(g)


def test_graph6_malformed_messages():
    with pytest.raises(ValueError, match="truncated graph6 length escape"):
        parse_graph6("~??")
    with pytest.raises(ValueError, match="exceeds the 258047-vertex limit"):
        parse_graph6("~~" + "?" * 10)
    with pytest.raises(ValueError, match="empty"):
        parse_graph6(">>graph6<<\n")
    with pytest.raises(ValueError, match="truncated graph6 edge section: 0 of 369 bytes"):
        parse_graph6("~?@B")
    with pytest.raises(ValueError, match="nonzero padding bits"):
        parse_graph6("A`")  # graph6 pads the last character with zero bits: "A_" is K2
    # every check runs on the ASCII bytes before either path builds rows, so
    # each malformed line gets one message on both sides of WALK_MAX and in
    # the long form: 10 walks its bits, 20 and 66 take the packed path
    for g in (complete(2), path(10), path(20), path(66)):  # 5, 3, 2 and 3 padding bits
        text = encode_graph6(g)
        assert parse_graph6(text) == g
        head = 1 if g.n <= 62 else 4
        need = len(text) - head
        mid = head + need // 2
        for line, message in (
                (text[:mid] + chr(20) + text[mid:], "character '\\x14' outside graph6 range"),
                (text[:mid] + "\u00e9" + text[mid + 1:], "character '\u00e9' outside graph6 range"),
                (text[:-1], f"truncated graph6 edge section: {need - 1} of {need} bytes"),
                (text + "?", "trailing data after graph6 edge section"),
                (text[:-1] + chr(ord(text[-1]) + 1),
                 "nonzero padding bits in the last graph6 character")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse_graph6(line)
        message = ("graph6 input is not ASCII: 'ascii' codec can't decode byte 0xff in "
                   f"position {mid}: ordinal not in range(128)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_graph6(text[:mid].encode() + b"\xff" + text[mid:].encode())


def test_graph6_character_range():
    # exactly the codes 63..126 are graph6 characters, on both sides of
    # WALK_MAX and in the long form: n(n-1)/2 is a multiple of 6 at 9, 21
    # and 64, so the line has no padding bits, and its "?" ends keep
    # whitespace from being stripped
    for n in (9, 21, 64):
        head = encode_graph6(Graph.empty(n))[:1 if n <= 62 else 4]
        need = n * (n - 1) // 12
        for c in [*range(128), 0xe9, 0x2028]:
            line = head + "?" + chr(c) * (need - 2) + "?"
            if 63 <= c <= 126:
                assert encode_graph6(parse_graph6(line)) == line
            else:
                with pytest.raises(ValueError, match=f"^character {re.escape(repr(chr(c)))} "
                                                      "outside graph6 range$"):
                    parse_graph6(line)


# ---------------------------------------------------------------------------
# Generators and surgery


def test_generators():
    assert complete(4).edge_count == 6
    assert independent(5).edge_count == 0
    assert path(5).edge_count == 4
    assert cycle(5).edge_count == 5
    with pytest.raises(ValueError, match="at least 3"):
        cycle(2)
    assert complete_bipartite(2, 3).edge_count == 6
    p = petersen()
    assert p.n == 10 and p.edge_count == 15
    assert p.degrees() == (3,) * 10


def test_builders_check_the_order_before_allocating():
    # each of these would build gigabytes of rows or edge tuples first
    for build, args in ((complete, (300000,)), (path, (300000,)), (cycle, (300000,)),
                        (complete_bipartite, (3, MAX_VERTICES - 2)),
                        (complete_bipartite, (200000, 100000)),
                        (disjoint_union, (Graph.empty(200000), Graph.empty(100000)))):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="vertex count"):
            build(*args)
        assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError):
        complete_bipartite(-1, 3)
    with pytest.raises(ValueError):
        complete(-2)


def test_join():
    g = join(complete(2), independent(3))
    assert g.n == 5
    assert g.edge_count == 1 + 6
    assert g.degree(0) == 4 and g.degree(2) == 2
    assert join(Graph.empty(0), cycle(4)) == cycle(4)


def test_disjoint_union():
    g = disjoint_union(complete(3), cycle(4))
    assert g.n == 7 and g.edge_count == 7
    assert not g.has_edge(2, 3)
    assert disjoint_union() == Graph.empty(0)


def test_delete_and_contract():
    g = cycle(4)
    assert delete_vertex(g, 0) == path(3)
    assert delete_edge(g, 0, 1).edge_count == 3
    tri = contract_edge(g, 0, 1)
    assert tri.n == 3 and tri.edge_count == 3
    with pytest.raises(ValueError):
        contract_edge(g, 0, 2)  # not an edge
    with pytest.raises(ValueError, match="out of range"):
        delete_vertex(g, g.n)
    with pytest.raises(ValueError, match="not an edge"):
        delete_edge(g, 0, 2)
    # contracting a pendant edge of a path shortens it
    assert contract_edge(path(4), 0, 1) == path(3)
    # parallel edges collapse: contracting a triangle edge gives K2, not a multigraph
    assert contract_edge(complete(3), 0, 1) == complete(2)


# ---------------------------------------------------------------------------
# Extremal constructions


def test_kr_construction():
    g = construct_kr_extremal(10, 5)
    assert g.n == 10
    assert g.edge_count == 3 + 3 * 7  # K3 join E7
    assert decompose_apex_clique(g)[0] == (0, 1, 2)
    assert construct_kr_extremal(4, 5) == complete(4)  # degenerate order n = r-1
    with pytest.raises(ValueError):
        construct_kr_extremal(10, 2)
    with pytest.raises(ValueError):
        construct_kr_extremal(3, 5)


def test_kst_construction():
    assert kst_parts(10, 2, 3) == (3, 0)
    assert kst_parts(11, 2, 3) == (3, 1)
    g = construct_kst_extremal(10, 2, 3)
    assert g.edge_count == 9 + 3 * 3  # apex degree 9, three triangles
    g = construct_kst_extremal(11, 2, 3)
    assert g.edge_count == 10 + 9
    univ, rest = decompose_apex_clique(construct_kst_extremal(14, 3, 4))
    assert len(univ) == 2
    shape = recognize_residual(rest)
    assert shape.kind == "disjoint_cliques" and shape.clique_size == 4
    # a nonzero remainder leaves a smaller trailing clique
    _, rest = decompose_apex_clique(construct_kst_extremal(13, 3, 4))
    assert recognize_residual(rest).kind == "other"
    with pytest.raises(ValueError):
        construct_kst_extremal(10, 3, 2)
    with pytest.raises(ValueError):
        construct_kst_extremal(1, 2, 2)


def test_cdv_construction():
    g = construct_cdv_extremal(6, 3)
    assert g.edge_count == 1 + 2 * 4 + 3  # K2 join P4
    assert construct_cdv_extremal(5, 2).edge_count == 1 * 4 + 3
    assert construct_cdv_extremal(4, 4) == complete(4)
    # m = 1: K_0 joined with P_n is P_n
    for n in range(1, 7):
        assert construct_cdv_extremal(n, 1) == path(n)
    with pytest.raises(ValueError):
        construct_cdv_extremal(3, 0)
    with pytest.raises(ValueError):
        construct_cdv_extremal(2, 3)


# ---------------------------------------------------------------------------
# Recognition


def test_decompose_apex_clique():
    univ, rest = decompose_apex_clique(join(complete(2), independent(3)))
    assert univ == (0, 1) and rest == independent(3)
    univ, rest = decompose_apex_clique(complete(4))
    assert univ == (0, 1, 2, 3) and rest.n == 0
    univ, rest = decompose_apex_clique(cycle(5))
    assert univ == () and rest == cycle(5)


def test_recognize_residual():
    assert recognize_residual(independent(4)).kind == "independent"
    assert recognize_residual(Graph.empty(0)).kind == "independent"
    shape = recognize_residual(disjoint_union(complete(3), complete(3)))
    assert shape.kind == "disjoint_cliques" and shape.clique_size == 3
    # a perfect matching reads as copies of K2, not as paths
    shape = recognize_residual(disjoint_union(complete(2), complete(2), complete(2)))
    assert shape.kind == "disjoint_cliques" and shape.clique_size == 2
    assert recognize_residual(path(4)).kind == "disjoint_paths"
    assert recognize_residual(disjoint_union(path(3), path(2))).kind == "disjoint_paths"
    assert recognize_residual(disjoint_union(path(3), path(3))).kind == "disjoint_paths"
    assert recognize_residual(disjoint_union(complete(3), complete(2))).kind == "other"
    assert recognize_residual(cycle(4)).kind == "other"


def test_is_path_union():
    assert is_path_union(path(5))
    assert is_path_union(independent(3))
    assert is_path_union(disjoint_union(path(2), path(3), independent(1)))
    assert not is_path_union(cycle(3))
    assert not is_path_union(complete_bipartite(1, 3))


def test_is_bipartite():
    assert is_bipartite(complete_bipartite(3, 4))
    assert is_bipartite(cycle(6))
    assert not is_bipartite(cycle(5))
    assert not is_bipartite(complete(3))
    assert is_bipartite(Graph.empty(0))
