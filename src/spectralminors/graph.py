"""Immutable simple graphs with bitmask adjacency, graph6 I/O, and the
extremal constructions (clique joined with an independent set, with disjoint
cliques, or with a path).

Vertices are 0..n-1. Adjacency is stored as one Python int per vertex, bit v
of rows[u] set iff uv is an edge. Python ints are arbitrary precision, so the
same representation covers every size up to the graph6 long-form limit.

Every Graph validates its rows when it is built: the row count, then each row
for bits at or above n (a negative row fails here) and for a loop, then
symmetry, naming the first pair (u, v) in row-major order with bit v of
rows[u] set and bit u of rows[v] clear. Symmetry and relabel take one of two
paths, selected by n alone, because the first costs O(n^2) bit operations
whatever the edge count:

- n <= DENSE_MAX: numpy on the packed adjacency, the rows' bytes as an
  n x ceil(n/8) matrix of at most 16 MiB, whose transpose is read one
  _BLOCK-row slab at a time, computed on the packed bytes 8 x 8 bits at a
  time. Each Graph is checked once, on one matrix: the rows packed, or the
  matrix parse_graph6 and relabel build, through Graph._from_packed, whose
  rows are read off the bytes it checks. The row checks read the padding
  bits of the last byte column and the diagonal bits, and walk the rows only
  to name a failing one; symmetry compares each slab with its mirror over
  the columns left of the slab's end, half of the transpose. Relabel packs
  the rows in their new order, PA, whose transpose A P^T holds each row with
  its columns moved, and scatters each slab of it to the rows' new labels.
  A sparse graph near the bound is checked slower than by the walk, a dense
  one far faster. The extremal constructions build their final rows in one
  pass, so each checks one Graph, not one per join of its parts.
  Orders up to WALK_MAX are walked all the same: so few bits cost less than
  the numpy calls.
- n > DENSE_MAX: a Python walk over the set bits of the rows, O(E) steps of
  O(n / 64) word operations each and no n^2 memory. On large sparse graphs it
  is the only cheap path: the packed matrix of path(50000) alone would take
  300 MiB, and that of Graph.empty(MAX_VERTICES) 7.8 GiB.

The graph6 codec splits at WALK_MAX too. Every check of a graph6 string
runs on its ASCII bytes, with no numpy call. Up to WALK_MAX vertices the edge
section is read and written as one Python int whose set bits are walked:
on so few bits numpy's fixed call overhead costs more than the walk.
Above WALK_MAX the codec works _BLOCK rows at a time on the packed rows, so
no function here builds an n x n array. _BLOCK is a multiple of 24, so every
slab starts on a byte of the packed rows and on a graph6 character. graph6
and base64 both write big-endian six-bit groups, one character each, so a
slab's triangle bits are packed into bytes and binascii writes or reads
their characters in C, through a translation between the two alphabets,
not through numpy packing six bits at a time.

numpy loads on first use, not on import (_lazy_import): the first solve, or
the first graph above WALK_MAX checked, relabelled or coded on the packed
path, runs its import. Minor tests, the mu ladder, Delta-Y closures and the
graph6 codec at n <= WALK_MAX work on the bit rows alone, so a process that
does only these never imports numpy.
"""

from __future__ import annotations

import binascii
import importlib.util
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import isqrt
from types import ModuleType


def _lazy_import(name: str) -> ModuleType:
    """The module name as sys.modules holds it, or else found now and run on
    its first attribute access (importlib.util.LazyLoader), from which on it
    is the plain module. A module that cannot be found raises
    ModuleNotFoundError here, not at that first access."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")

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
_POPCOUNT = bytes(v.bit_count() for v in range(256))


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
    """Number of edges of the subgraph induced on the vertex set act. A
    plain loop: every minor test starts with it, and a generator over _bits
    costs twice as much on atlas-sized graphs."""
    ends = 0
    rest = act
    while rest:
        b = rest & -rest
        rest ^= b
        ends += (rows[b.bit_length() - 1] & act).bit_count()
    return ends // 2


def _asymmetry_walk(rows) -> tuple[int, int] | None:
    """First (u, v) in row-major order with v in rows[u] but u not in rows[v],
    found by walking every set bit."""
    for u, row in enumerate(rows):
        for v in _bits(row):
            if not rows[v] >> u & 1:
                return (u, v)
    return None


def _check_rows(rows, n: int) -> None:
    """Reject the first row, in order, with a bit at or above n (a negative
    row fails here) or a loop."""
    for u, row in enumerate(rows):
        if row >> n:
            raise ValueError(f"row {u} references vertices >= n")
        if row >> u & 1:
            raise ValueError(f"loop at vertex {u}")


def _asymmetry_dense(packed: np.ndarray, n: int) -> tuple[int, int] | None:
    """The pair _asymmetry_walk finds, read off the packed n x ceil(n/8)
    matrix, whose padding bits are clear. Each row slab a..b-1 is compared by
    XOR with its mirror over the columns left of b only, the transpose of
    rows 0..b-1 on the slab's columns: every pair (u, v) is read in the slab
    of max(u, v), so the matrix is symmetric iff no slab differs, and half of
    it is transposed. Only after a difference is found is each slab compared
    with the same rows of the whole transpose: the first byte, in row-major
    order, with a bit whose mirror bit is clear names the pair."""
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        w = (b + 7) // 8  # b is a multiple of 8 or n: no column of a later slab is read
        if (packed[a:b, :w] ^ _transpose_packed(packed[:b, a // 8:w])[:b - a]).any():
            break
    else:
        return None
    for i, mirror in zip(range(0, n, _BLOCK), _transposed(packed, n)):
        lone = packed[i:i + _BLOCK] & ~mirror
        bad = np.flatnonzero(lone)
        if bad.size:
            u, byte = divmod(int(bad[0]), packed.shape[1])
            return (i + u, 8 * byte + next(_bits(int(lone[u, byte]))))
    raise RuntimeError("internal: the slabs differ but no pair is lone")


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
        self._check(None)

    @classmethod
    def _from_packed(cls, n: int, packed: np.ndarray) -> "Graph":
        """The Graph whose rows are those of the packed n x ceil(n/8) matrix,
        checked on that matrix: rows derive from the bytes checked, never
        from a second copy."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", _packed_rows(packed))
        g._check(packed)
        return g

    def _check(self, packed: np.ndarray | None) -> None:
        """The row checks, then symmetry, on the packed rows (packed here if
        None) when WALK_MAX < n <= DENSE_MAX: a row that does not pack, a set
        padding bit of the last byte column or a set diagonal bit sends the
        rows through _check_rows, which names the first failing row."""
        n, rows = self.n, self.rows
        if not WALK_MAX < n <= DENSE_MAX:
            _check_rows(rows, n)
            bad = _asymmetry_walk(rows)
        else:
            if packed is None:
                try:
                    packed = _packed(rows, n)
                except (OverflowError, AttributeError):
                    # a negative row, one wider than the bytes, or not an int:
                    # the walk names the row, or the error stands
                    _check_rows(rows, n)
                    raise
            v = np.arange(n)
            pad = (-1 << (n - 1) % 8 + 1) & 0xFF  # the bits of the last byte at or above n
            if (packed[v, v >> 3] >> (v & 7) & 1).any() or (packed[:, -1] & pad).any():
                _check_rows(rows, n)
            bad = _asymmetry_dense(packed, n)
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

    def _check_vertices(self, *vs: int) -> None:
        for v in vs:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range")

    def degree(self, v: int) -> int:
        self._check_vertices(v)
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def max_degree(self) -> int:
        return max((r.bit_count() for r in self.rows), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertices(u, v)
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertices(v)
        return tuple(_bits(self.rows[v]))

    def edges(self):
        for u, row in enumerate(self.rows):
            for v in _bits(row >> (u + 1) << (u + 1)):
                yield (u, v)

    def with_edge(self, u: int, v: int) -> "Graph":
        if self.has_edge(u, v):  # checks the range first; never true for u == v
            return self
        if u == v:
            raise ValueError("loops not allowed")
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
        self._check_vertices(*keep)
        pos = {v: i for i, v in enumerate(keep)}
        mask = sum(1 << v for v in keep)
        return Graph.from_edges(len(keep), ((pos[u], pos[v]) for u in keep
                                            for v in _bits(self.rows[u] & mask) if u < v))

    def relabel(self, perm) -> "Graph":
        """Image under the permutation perm, perm[v] = new label of v, read
        once from any iterable. A perm that is not a permutation of range(n)
        raises ValueError."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"relabel needs a permutation of range({self.n})")
        if WALK_MAX < self.n <= DENSE_MAX:
            inv = sorted(range(self.n), key=perm.__getitem__)  # new vertex a is old inv[a]
            # the transpose of the moved rows holds row v with its columns
            # moved, which is row perm[v] of the image
            moved = _transposed(_packed([self.rows[v] for v in inv], self.n), self.n)
            to = np.array(perm)
            new = np.empty((self.n, (self.n + 7) // 8), np.uint8)
            for i, slab in zip(range(0, self.n, _BLOCK), moved):
                new[to[i:i + _BLOCK]] = slab
            return Graph._from_packed(self.n, new)
        return Graph.from_edges(self.n, ((perm[u], perm[v]) for u, v in self.edges()))


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


def _edge_arrays(rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The bit rows' directed edges as (src, dst) index arrays, row-major.
    The rows are packed _BLOCK at a time and only their nonzero bytes are
    expanded: each repeats its row and column byte once per set bit, and its
    bit offsets come from unpacking those bytes alone, so a row costs its
    packed bytes and its edges, not n unpacked bits."""
    nb = (n + 7) // 8
    src, dst = [], []
    for i in range(0, len(rows), _BLOCK):
        flat = _packed(rows[i:i + _BLOCK], n).ravel()
        at = np.flatnonzero(flat)
        byte = flat[at]
        count = np.frombuffer(_POPCOUNT, np.uint8)[byte]
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
_BIT_TRANSPOSE = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def _transpose_packed(packed: np.ndarray) -> np.ndarray:
    """The transpose of a k x w packed bit matrix (k rows of 8w bits, packed
    as _packed packs rows) as an 8w x ceil(k/8) packed matrix, computed on
    the packed bytes, not on 0/1 bytes unpacked from them: each 8 x 8 block
    of bits becomes one word, the words are transposed bit-wise, and the grid
    of blocks is transposed."""
    k, w = packed.shape
    r = -(-k // 8)
    blocks = np.zeros((8 * r, w), np.uint8)
    blocks[:k] = packed
    # byte j of word [q, c] is byte c of row 8q + j: bit 8j + i is entry (8q + j, 8c + i)
    x = blocks.reshape(r, 8, w).transpose(0, 2, 1).copy().view("<u8")[..., 0]
    for shift, mask in _BIT_TRANSPOSE:
        shift, mask = np.uint64(shift), np.uint64(mask)
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
    np.tri compares on the narrowest integer type that holds b, so it builds
    the mask faster than comparing intp aranges."""
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
      is built, and Graph._from_packed checks the matrix itself.
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
        low = np.packbits(slab, axis=1, bitorder="little")
        packed[a:b, :low.shape[1]] = low
        if a:  # the left part, transposed, is columns a..b-1 of the earlier rows
            packed[:a, a // 8:low.shape[1]] = _transpose_packed(low[:, :a // 8])
    return Graph._from_packed(n, packed)


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
        packed = _packed(g.rows[a:b], n)[:, :(b + 7) // 8]
        slab = np.unpackbits(packed, axis=1, count=b, bitorder="little")
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
    g._check_vertices(v)
    return g.induced_subgraph([u for u in range(g.n) if u != v])


# ---------------------------------------------------------------------------
# Extremal constructions


def _clique_join(a: int, n: int, rest) -> Graph:
    """K_a on vertices 0..a-1 joined with the graph on a..n-1 whose rows,
    over all n columns and without the clique's, rest yields in order: the
    final rows built in one pass, so one Graph is checked. The orders are
    checked first, a and n - a before n, as join(complete(a), H) checks them."""
    for k in (a, n - a, n):
        check_order(k)
    full = (1 << n) - 1
    clique = (1 << a) - 1
    return Graph(n, tuple([full ^ 1 << v for v in range(a)] + [clique | r for r in rest]))


def construct_kr_extremal(n: int, r: int) -> Graph:
    """K_{r-2} joined with an independent set on n-r+2 vertices."""
    if r < 3:
        raise ValueError("r must be at least 3")
    if n < r - 1:
        raise ValueError(f"need n >= r-1, got n={n}, r={r}")
    return _clique_join(r - 2, n, repeat(0, n - r + 2))


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
    check_order(t)  # K_t's order first, as building K_t would check it
    blocks = ((1 << min(lo + t, n)) - (1 << lo) for lo in range(s - 1, n, t))
    return _clique_join(s - 1, n, (block ^ 1 << v for block in blocks for v in _bits(block)))


def construct_cdv_extremal(n: int, m: int) -> Graph:
    """K_{m-1} joined with a path on n-m+1 vertices (P_n itself at m = 1)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if n < m:
        raise ValueError(f"need n >= m, got n={n}, m={m}")
    # 5 << v >> 1 holds bits v - 1 and v + 1: v's path neighbours, cut to m-1..n-1
    path_bits = (1 << n) - (1 << m - 1)
    return _clique_join(m - 1, n, (5 << v >> 1 & path_bits for v in range(m - 1, n)))


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
    left = (1 << g.n) - 1
    while left:
        layer = left & -left
        while layer:
            left &= ~layer
            nbrs = 0
            for v in _bits(layer):
                nbrs |= g.rows[v]
            if nbrs & layer:  # an edge inside one breadth-first layer closes an odd cycle
                return False
            layer = nbrs & left
    return True
