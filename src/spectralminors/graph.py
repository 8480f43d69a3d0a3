"""Immutable simple graphs with bitmask adjacency, graph6 I/O, and the
extremal constructions (clique joined with an independent set, with disjoint
cliques, or with a path).

Vertices are 0..n-1. Adjacency is stored as one Python int per vertex, bit v
of rows[u] set iff uv is an edge. Python ints are arbitrary precision, so the
same representation covers every size up to the graph6 long-form limit.

Every Graph validates its rows when it is built: the row count, then each row
for bits at or above n (a negative row fails here, before it is ever
converted to bytes) and for a loop, then symmetry, naming the first pair
(u, v) in row-major order with bit v of rows[u] set and bit u of rows[v]
clear. Symmetry and relabel take one of two paths, selected by n alone,
because the first costs O(n^2) bit operations whatever the edge count:

- n <= DENSE_MAX: numpy on the packed adjacency, the rows' bytes as an
  n x ceil(n/8) matrix of at most 16 MiB, whose transpose is read one
  _BLOCK-row slab at a time, computed on the packed bytes 8 x 8 bits at a
  time. Symmetry compares each slab with the same rows of the matrix;
  relabel packs the rows in their new order, PA, whose transpose A P^T
  holds each row with its columns moved. A sparse graph near the bound is
  checked slower than by the walk (path(11584): 65 ms against 17 ms), a
  dense one far faster (complete(5000) is built and relabelled in about
  0.1 s, where the walk took about 19 s).
  Orders up to WALK_MAX are walked all the same: so few bits cost less than
  the numpy calls.
- n > DENSE_MAX: a Python walk over the set bits of the rows, O(E) steps of
  O(n / 64) word operations each and no n^2 memory. On large sparse graphs it
  is the only cheap path: path(50000) is checked in about 0.35 s, where the
  packed matrix alone would take 300 MiB, and Graph.empty(MAX_VERTICES)
  7.8 GiB.

The graph6 codec splits at WALK_MAX too. Every check of a graph6 string
runs on its ASCII bytes, with no numpy call. Up to WALK_MAX vertices the edge
section is read and written as one Python int whose set bits are walked:
parsing a 9-vertex line takes about 14 us, where the packed path took about
31 us of mostly fixed numpy overhead, encoding one 5.5 us against 14 us, and
parsing the 1,253 lines of the n <= 7 atlas 0.013 s against 0.035-0.040 s.
Above WALK_MAX the codec works _BLOCK rows at a time on the packed rows, so
no function here builds an n x n array. _BLOCK is a multiple of 24, so every
slab starts on a byte of the packed rows and on a graph6 character. graph6
and base64 both write big-endian six-bit groups, one character each, so a
slab's triangle bits are packed into bytes and binascii writes or reads
their characters in C, through a translation between the two alphabets. On
the 11 relabelled extremal graphs of 100 to 2005 vertices that the
large-spectral benchmark solves, encoding all of them took 11-16 ms, where
numpy packing six bits at a time took 37-50 ms, and parsing 31-39 ms against
41-51 ms; parsing kst(2005, 6, 10) still spends about 3 ms validating its
Graph and 1.6 ms turning packed rows into ints.

Timings are from a shared 2-core x86-64 machine.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

# Largest vertex count representable by the 3-byte graph6 length escape.
MAX_VERTICES = 258047
# Largest order validated and relabelled on its packed adjacency matrix: the
# n x ceil(n/8) bytes take 16 MiB at n = 11584. Larger orders walk the bits.
DENSE_MAX = 11584
# Largest order whose symmetry, relabelling and graph6 codec are walked
# whatever its edges: its at most n(n-1) = 240 set bits cost less as Python
# steps than the packed path's fixed numpy overhead.
WALK_MAX = 16
# Rows per slab on the packed path, a multiple of 24: of 8, so a slab starts
# on a byte of the packed rows, and of 12, so the a(a-1)/2 triangle bits
# before its first row a fill whole graph6 characters. 264 unpacked rows take
# 2.9 MiB at n = 11584.
_BLOCK = 264

_G6_HEADER = ">>graph6<<"
# graph6 and base64 both write big-endian six-bit groups, one character each:
# graph6 as the codes 63..126, base64 as this alphabet
_G6_CHARS = bytes(range(63, 127))
_B64_CHARS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_B64_CHARS, _G6_CHARS)
_TO_B64 = bytes.maketrans(_G6_CHARS, _B64_CHARS)
# set bits of each byte value
_POPCOUNT = np.array([v.bit_count() for v in range(256)], np.uint8)


def check_order(n: int) -> None:
    """Reject a vertex count outside [0, MAX_VERTICES]."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")


def _bits(mask: int):
    """Yield set bit indices of mask, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _components(rows, mask: int) -> list[int]:
    """Connected components of the subgraph induced on the vertex set mask,
    as bitmasks ordered by least vertex."""
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= rows[v]
            frontier = nxt & mask & ~comp
            comp |= frontier
        comps.append(comp)
        mask &= ~comp
    return comps


def _mask_edges(rows, act: int) -> int:
    """Number of edges of the subgraph induced on the vertex set act."""
    return sum((rows[v] & act).bit_count() for v in _bits(act)) // 2


def _asymmetry_walk(rows) -> tuple[int, int] | None:
    """First (u, v) in row-major order with v in rows[u] but u not in rows[v],
    found by walking every set bit."""
    for u, row in enumerate(rows):
        for v in _bits(row):
            if not rows[v] >> u & 1:
                return (u, v)
    return None


def _asymmetry_dense(rows, n: int) -> tuple[int, int] | None:
    """The pair _asymmetry_walk finds, read off the packed matrix one row slab
    at a time against the same slab of its transpose: the first byte, in
    row-major order, with a bit whose mirror bit is clear names the pair."""
    packed = _packed(rows, n)
    for i, mirror in zip(range(0, n, _BLOCK), _transposed(packed, n)):
        lone = packed[i:i + _BLOCK] & ~mirror
        bad = np.flatnonzero(lone)
        if bad.size:
            u, byte = divmod(int(bad[0]), packed.shape[1])
            return (i + u, 8 * byte + next(_bits(int(lone[u, byte]))))
    return None


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertices 0..n-1."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))  # hashable, list or not
        check_order(self.n)
        if len(self.rows) != self.n:
            raise ValueError("adjacency row count does not match n")
        for u, row in enumerate(self.rows):
            if row >> self.n:
                raise ValueError(f"row {u} references vertices >= n")
            if row >> u & 1:
                raise ValueError(f"loop at vertex {u}")
        if WALK_MAX < self.n <= DENSE_MAX:
            bad = _asymmetry_dense(self.rows, self.n)
        else:
            bad = _asymmetry_walk(self.rows)
        if bad is not None:
            raise ValueError(f"asymmetric adjacency at {bad}")

    @staticmethod
    def empty(n: int) -> "Graph":
        check_order(n)
        return Graph(n, (0,) * n)

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Graph on n vertices with the given edges. n is checked before
        edges is read, so the builders pass their edges as generators."""
        check_order(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @cached_property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def max_degree(self) -> int:
        return max((r.bit_count() for r in self.rows), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.rows[v]))

    def edges(self):
        for u, row in enumerate(self.rows):
            for v in _bits(row >> (u + 1) << (u + 1)):
                yield (u, v)

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("loops not allowed")
        if self.has_edge(u, v):
            return self
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def component_masks(self) -> list[int]:
        """Connected components as vertex bitmasks, ordered by least vertex."""
        return _components(self.rows, (1 << self.n) - 1)

    def components(self) -> list[tuple[int, ...]]:
        return [tuple(_bits(m)) for m in self.component_masks()]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component_masks()) == 1

    def induced_subgraph(self, vertices) -> "Graph":
        """Subgraph induced on the given vertices, relabeled to 0..k-1 in
        ascending order of the original labels."""
        keep = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(keep)}
        rows = [0] * len(keep)
        for v in keep:
            for u in _bits(self.rows[v]):
                if u in pos:
                    rows[pos[v]] |= 1 << pos[u]
        return Graph(len(keep), tuple(rows))

    def relabel(self, perm) -> "Graph":
        """Image under the permutation perm, perm[v] = new label of v, read
        once from any iterable. A perm that is not a permutation of range(n)
        raises ValueError."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"relabel needs a permutation of range({self.n})")
        if WALK_MAX < self.n <= DENSE_MAX:
            inv = sorted(range(self.n), key=perm.__getitem__)  # new vertex a is old inv[a]
            # the transpose of the moved rows holds each row with its columns moved
            moved = _transposed(_packed([self.rows[v] for v in inv], self.n), self.n)
            cols = [r for slab in moved for r in _packed_rows(slab)]
            return Graph(self.n, tuple([cols[v] for v in inv]))
        rows = [0] * self.n
        for v in range(self.n):
            for u in _bits(self.rows[v]):
                rows[perm[v]] |= 1 << perm[u]
        return Graph(self.n, tuple(rows))


# ---------------------------------------------------------------------------
# graph6 codec


def _packed(rows, n: int) -> np.ndarray:
    """The bitmask rows as a len(rows) x ceil(n/8) uint8 array: row u is
    rows[u].to_bytes, so bit v of rows[u] is bit v % 8 (little-endian) of
    byte v // 8. Built _BLOCK rows at a time, so the row bytes are held
    twice for one block only."""
    nb = (n + 7) // 8
    packed = np.empty((len(rows), nb), np.uint8)
    for i in range(0, len(rows), _BLOCK):
        chunk = b"".join(r.to_bytes(nb, "little") for r in rows[i:i + _BLOCK])
        packed[i:i + _BLOCK] = np.frombuffer(chunk, np.uint8).reshape(-1, nb)
    return packed


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of each packed row as a 0/1 uint8 row."""
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def _pack(adj: np.ndarray) -> np.ndarray:
    """Inverse of _unpack: each 0/1 row packed into bytes, zero-padded."""
    return np.packbits(adj, axis=1, bitorder="little")


def _edge_arrays(rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The bit rows' directed edges as (src, dst) index arrays, row-major.
    The rows are packed _BLOCK at a time and only their nonzero bytes are
    expanded: each repeats its row and column byte once per set bit, and its
    bit offsets come from unpacking those bytes alone, so a row costs its
    packed bytes and its edges, not n unpacked bits. On kst(2005, 6, 10),
    unpacking every bit took 10-13 ms, this 3.5-4.4 ms; on K1,20000 0.88 s
    against 0.14 s."""
    nb = (n + 7) // 8
    src, dst = [], []
    for i in range(0, len(rows), _BLOCK):
        flat = _packed(rows[i:i + _BLOCK], n).ravel()
        at = np.flatnonzero(flat)
        byte = flat[at]
        count = _POPCOUNT[byte]
        row, col = np.divmod(at, nb)
        # bit b of the k-th nonzero byte is bit 8k + b of their unpacking
        bit = np.flatnonzero(np.unpackbits(byte, bitorder="little"))
        src.append(np.repeat(row + i, count))
        dst.append(bit + np.repeat(8 * (col - np.arange(len(at))), count))
    src = np.concatenate(src)  # frees the slabs' sources before dst is joined
    return src, np.concatenate(dst)


def _packed_rows(packed: np.ndarray) -> tuple[int, ...]:
    """Inverse of _packed: each row of bytes as a bitmask int."""
    return tuple(int.from_bytes(row, "little") for row in packed)


# (shift, mask) steps that transpose the 8 x 8 bit matrix held in a word with
# bit 8 * row + column (Hacker's Delight, 7-3): each swaps the bits at
# distance shift selected by mask with their partners across the diagonal.
_BIT_TRANSPOSE = tuple((np.uint64(shift), np.uint64(mask)) for shift, mask in (
    (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)))


def _transpose_packed(packed: np.ndarray) -> np.ndarray:
    """The transpose of a k x w packed bit matrix (k rows of 8w bits, packed
    as by _pack) as an 8w x ceil(k/8) packed matrix, computed on the packed
    bytes: each 8 x 8 block of bits becomes one word, the words are
    transposed bit-wise, and the grid of blocks is transposed. Unpacking to
    0/1 bytes and transposing those took 8 times as long on a 2005 x 256
    slab (1.1 ms against 0.13 ms)."""
    k, w = packed.shape
    r = -(-k // 8)
    blocks = np.zeros((8 * r, w), np.uint8)
    blocks[:k] = packed
    # byte j of word [q, c] is byte c of row 8q + j: bit 8j + i is entry (8q + j, 8c + i)
    x = blocks.reshape(r, 8, w).transpose(0, 2, 1).copy().view("<u8")[..., 0]
    for shift, mask in _BIT_TRANSPOSE:
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    return x.T.copy().view(np.uint8).reshape(w, r, 8).transpose(0, 2, 1).reshape(8 * w, r)


def _transposed(packed: np.ndarray, n: int):
    """The transpose of an n-column packed bit matrix, _BLOCK rows at a time."""
    for i in range(0, n, _BLOCK):
        b = min(i + _BLOCK, n)
        yield _transpose_packed(packed[:, i // 8:(b + 7) // 8])[:b - i]


def _slab_triangle(a: int, b: int) -> np.ndarray:
    """Mask of the strict lower triangle on rows a..b-1 and columns 0..b-1.
    graph6 lists the upper triangle column by column; column j is the low j
    bits of row j, so the strict lower triangle read row-major is the same bit
    sequence, and rows a..b-1 hold its bits a(a-1)/2 up to b(b-1)/2.
    np.tri compares on the narrowest integer type that holds b: at n = 2005
    the mask takes about 0.06 ms a slab, where comparing intp aranges took
    about 0.4 ms."""
    return np.tri(b - a, b, a - 1, dtype=bool)


def parse_graph6(text) -> Graph:
    """Decode one graph6 string (str or ASCII bytes) into a Graph.

    Accepts the optional '>>graph6<<' header and both length encodings: a
    single byte for n <= 62 and the three-byte escape 126,b1,b2,b3 for
    63 <= n <= 258047. The edge bits are the upper triangle in column-major
    order, packed big-endian into 6-bit groups offset by 63.

    Every check runs on the ASCII bytes, whatever n: the range check is one
    bytes.translate deleting the 64 graph6 characters, then the length
    forms, truncation, trailing data and the padding bits. The rows are then
    built by one of two paths, selected by n alone:

    - n <= WALK_MAX: the edge section is read as one Python int and its set
      bits are walked, bit k of the triangle naming the edge (i, j) with
      k = j(j-1)/2 + i. At most 20 characters cost less as Python steps than
      numpy's fixed call overhead.
    - n > WALK_MAX: the rows are built _BLOCK at a time into the packed
      n x ceil(n/8) byte matrix: only the characters that cover the block's
      triangle rows, which start on a character, are translated to the
      base64 alphabet, padded with "A" to whole four-character groups and
      decoded by binascii into big-endian bytes, whose bits fill a slab of
      those rows over the columns left of the block's end; its diagonal tile
      is mirrored, the slab is packed into its own rows, and its left part,
      transposed, into the column bytes of the earlier rows. No n x n array
      is built.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ValueError(f"graph6 input is not ASCII: {exc}") from None
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ValueError("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        # the first non-ASCII character is out of range, so the first out of
        # range character lies in the ASCII prefix or is that one
        data = s[:exc.start].encode("ascii") + b"\x7f"
    # deleting the 64 graph6 characters, codes 63..126, leaves the out of
    # range ones in order
    bad = data.translate(None, _G6_CHARS)
    if bad:
        raise ValueError(f"character {s[data.index(bad[0])]!r} outside graph6 range")
    if data[0] < 126:
        n, start = data[0] - 63, 1
    else:
        if len(data) < 4:
            raise ValueError("truncated graph6 length escape")
        if data[1] == 126:
            raise ValueError(
                f"graph6 long-form length exceeds the {MAX_VERTICES}-vertex limit")
        n, start = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63), 4
    need = (n * (n - 1) // 2 + 5) // 6
    have = len(data) - start
    if have < need:
        raise ValueError(f"truncated graph6 edge section: {have} of {need} bytes")
    if have > need:
        raise ValueError(f"trailing data after graph6 edge section")
    pad = -(n * (n - 1) // 2) % 6
    if need and (data[-1] - 63) & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits in the last graph6 character")
    if n <= WALK_MAX:
        x = 0
        for c in data[start:]:
            x = x << 6 | c - 63
        top = 6 * need - 1  # bit k of the triangle is bit top - k of x
        rows = [0] * n
        for p in _bits(x):
            k = top - p
            j = (isqrt(8 * k + 1) + 1) // 2
            i = k - j * (j - 1) // 2
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return Graph(n, tuple(rows))
    body = data[start:]
    packed = np.zeros((n, (n + 7) // 8), np.uint8)
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        lo, hi = a * (a - 1) // 2, b * (b - 1) // 2
        chars = body[lo // 6:(hi + 5) // 6].translate(_TO_B64)
        # "A" is six zero bits: it pads the characters to whole base64 groups
        raw = binascii.a2b_base64(chars + b"A" * (-len(chars) % 4))
        slab = np.zeros((b - a, b), np.uint8)
        slab[_slab_triangle(a, b)] = np.unpackbits(np.frombuffer(raw, np.uint8), count=hi - lo)
        slab[:, a:] |= slab[:, a:].T
        low = _pack(slab)
        packed[a:b, :low.shape[1]] = low
        if a:  # the left part, transposed, is columns a..b-1 of the earlier rows
            packed[:a, a // 8:low.shape[1]] = _transpose_packed(low[:, :a // 8])
    rows = _packed_rows(packed)
    del packed  # freed before Graph packs its own copy
    return Graph(n, rows)


def encode_graph6(g: Graph) -> str:
    """Encode a Graph as a graph6 string (no header, no newline), by the
    split parse_graph6 uses. At n <= WALK_MAX the set bits of the rows are
    walked into one Python int, edge (i, j), i < j, at triangle bit
    k = j(j-1)/2 + i, which goes out six bits to a character. Above it the
    rows are unpacked _BLOCK at a time and cut to the columns left of the
    block's end; their triangle bits are packed big-endian into bytes, which
    binascii writes as base64, and the first ceil(bits / 6) characters are
    translated to graph6's. Every block but the last ends on a character,
    since _BLOCK is a multiple of 24; the last, like the int, is padded with
    zero bits, as packbits pads its last byte."""
    n = g.n
    if n <= WALK_MAX:
        top = 6 * ((n * (n - 1) // 2 + 5) // 6) - 1  # bit k of the triangle is bit top - k
        x = 0
        for j in range(1, n):
            for i in _bits(g.rows[j] & ((1 << j) - 1)):
                x |= 1 << (top - j * (j - 1) // 2 - i)
        return chr(n + 63) + "".join([chr((x >> s & 63) + 63) for s in range(top - 5, -1, -6)])
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    body = [bytes(head)]
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        slab = _unpack(_packed(g.rows[a:b], n)[:, :(b + 7) // 8], b)
        bits = slab[_slab_triangle(a, b)]
        chars = binascii.b2a_base64(np.packbits(bits).tobytes(), newline=False)
        body.append(chars[:(len(bits) + 5) // 6].translate(_TO_G6))
    return b"".join(body).decode("ascii")


# ---------------------------------------------------------------------------
# Standard generators


def complete(n: int) -> Graph:
    check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def independent(n: int) -> Graph:
    return Graph.empty(n)


def path(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise ValueError(f"part sizes must be nonnegative, got {a} and {b}")
    return Graph.from_edges(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i to i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def disjoint_union(*graphs: Graph) -> Graph:
    n = sum(g.n for g in graphs)
    check_order(n)
    rows = []
    off = 0
    for g in graphs:
        rows.extend(r << off for r in g.rows)
        off += g.n
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# Edit operations


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union of g1 and g2 plus all edges between them."""
    n = g1.n + g2.n
    check_order(n)
    m1 = (1 << g1.n) - 1
    m2 = ((1 << g2.n) - 1) << g1.n
    rows = [r | m2 for r in g1.rows]
    rows += [(r << g1.n) | m1 for r in g2.rows]
    return Graph(n, tuple(rows))


def delete_vertex(g: Graph, v: int) -> Graph:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return g.induced_subgraph([u for u in range(g.n) if u != v])


# ---------------------------------------------------------------------------
# Extremal constructions


def construct_kr_extremal(n: int, r: int) -> Graph:
    """K_{r-2} joined with an independent set on n-r+2 vertices."""
    if r < 3:
        raise ValueError("r must be at least 3")
    if n < r - 1:
        raise ValueError(f"need n >= r-1, got n={n}, r={r}")
    return join(complete(r - 2), independent(n - r + 2))


def kst_parts(n: int, s: int, t: int) -> tuple[int, int]:
    """Residual decomposition sizes for the K_{s,t} construction: k full
    cliques K_t plus one clique K_p, with n-s+1 = k*t + p and 0 <= p < t."""
    rem = n - s + 1
    return rem // t, rem % t


def construct_kst_extremal(n: int, s: int, t: int) -> Graph:
    """K_{s-1} joined with k disjoint copies of K_t plus a smaller clique K_p
    absorbing the remainder of n-s+1 modulo t."""
    if not 2 <= s <= t:
        raise ValueError(f"need 2 <= s <= t, got s={s}, t={t}")
    if n < s:
        raise ValueError(f"need n >= s, got n={n}, s={s}")
    k, p = kst_parts(n, s, t)
    parts = [complete(t)] * k
    if p:
        parts.append(complete(p))
    residual = disjoint_union(*parts) if parts else Graph.empty(0)
    return join(complete(s - 1), residual)


def construct_cdv_extremal(n: int, m: int) -> Graph:
    """K_{m-1} joined with a path on n-m+1 vertices (P_n itself at m = 1)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if n < m:
        raise ValueError(f"need n >= m, got n={n}, m={m}")
    return join(complete(m - 1), path(n - m + 1))


# ---------------------------------------------------------------------------
# Structure recognition


@dataclass(frozen=True)
class ResidualShape:
    """Classification of a residual graph: one of 'independent',
    'disjoint_paths', 'disjoint_cliques' (with the common clique size), or
    'other'."""

    kind: str
    clique_size: int | None = None


def is_path_union(g: Graph) -> bool:
    """True iff every component is a path (isolated vertices included)."""
    return g.max_degree() <= 2 and g.edge_count == g.n - len(g.component_masks())


def recognize_residual(h: Graph) -> ResidualShape:
    """Classify h as an independent set, a disjoint union of equal cliques,
    a disjoint union of paths, or other. Equal cliques take precedence over
    paths so that a perfect matching reads as copies of K_2."""
    if h.edge_count == 0:
        return ResidualShape("independent")
    comps = h.component_masks()
    k = comps[0].bit_count()
    # k-vertex components hold at most C(k, 2) edges each, so the total
    # reaches len(comps) * C(k, 2) only when every one is a clique
    if all(c.bit_count() == k for c in comps) and h.edge_count == len(comps) * k * (k - 1) // 2:
        return ResidualShape("disjoint_cliques", clique_size=k)
    if is_path_union(h):
        return ResidualShape("disjoint_paths")
    return ResidualShape("other")


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in _bits(g.rows[v]):
                if color[u] < 0:
                    color[u] = color[v] ^ 1
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True
