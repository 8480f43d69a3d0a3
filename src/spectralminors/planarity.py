"""Planarity by the left-right criterion, and an independent check of the
embedding it returns.

_lr_rotation runs the left-right planarity test of de Fraysseix, Ossona de
Mendez and Rosenstiehl ("Tremaux trees and planarity", 2006) in the form
given by Brandes ("The left-right planarity test", 2009). A first depth-first
pass orients the graph and records lowpoints and nesting depths; a second
keeps the return edges in a stack of conflict pairs and fails when two must
lie on the same side of a tree path and cannot; a third turns the sides into
a rotation system, the cyclic order of the neighbours around each vertex.
All three passes use explicit stacks, so deep graphs need no recursion.

_is_plane_rotation trusts none of that. It accepts a rotation system only if
every vertex's rotation lists its neighbours exactly once and tracing faces
gives V - E + F = 2 on every component. A rotation system embeds each
component cellularly in the orientable surface of Euler characteristic
V - E + F, and only the sphere has characteristic 2, so a rotation that
passes is a planar embedding whatever produced it.

Both work on bitmask rows restricted to an active vertex set, as minors does.
"""

from __future__ import annotations

from .graph import _bits, _components, _mask_edges


def _lr_rotation(rows, act: int) -> dict[int, list[int]] | None:
    """A rotation system of the graph on act, each vertex mapped to its
    neighbours in cyclic order, or None if the left-right test finds the
    graph nonplanar."""
    nv = act.bit_count()
    if nv >= 3 and _mask_edges(rows, act) > 3 * nv - 6:
        return None
    size = len(rows)
    height = [-1] * size
    parent = [-1] * size  # the tree edge entering each vertex
    out: list[list[int]] = [[] for _ in range(size)]  # oriented edges leaving each vertex
    src: list[int] = []
    dst: list[int] = []
    low: list[int] = []  # lowpoint and second lowpoint heights of each edge
    low2: list[int] = []
    nest: list[int] = []
    roots = []

    # Orientation by depth-first search: a tree edge points down to a new
    # vertex, a back edge up to an ancestor. finish(e) runs once e's
    # lowpoints are final and passes them on to the tree edge above it.
    def finish(e: int) -> None:
        v = src[e]
        nest[e] = 2 * low[e] + (low2[e] < height[v])
        pe = parent[v]
        if pe >= 0:
            if low[e] < low[pe]:
                low2[pe] = min(low[pe], low2[e])
                low[pe] = low[e]
            elif low[e] > low[pe]:
                low2[pe] = min(low2[pe], low[e])
            else:
                low2[pe] = min(low2[pe], low2[e])

    todo = [0] * size  # neighbours whose edge is not oriented yet
    for r in _bits(act):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        todo[r] = rows[r] & act
        stack = [r]
        while stack:
            v = stack[-1]
            if not todo[v]:
                stack.pop()
                if parent[v] >= 0:
                    finish(parent[v])
                continue
            b = todo[v] & -todo[v]
            todo[v] ^= b
            w = b.bit_length() - 1
            e = len(src)
            src.append(v)
            dst.append(w)
            out[v].append(e)
            low2.append(height[v])
            nest.append(0)
            if height[w] < 0:
                low.append(height[v])
                parent[w] = e
                height[w] = height[v] + 1
                todo[w] = rows[w] & act & ~(1 << v)
                stack.append(w)
            else:
                low.append(height[w])
                todo[w] &= ~(1 << v)
                finish(e)

    # Testing. A conflict pair is [left low, left high, right low, right
    # high]: two intervals of return edges, -1 for an empty end, that must
    # lie on opposite sides.
    m = len(src)
    ref = [-1] * m
    side = [1] * m
    lowedge = [-1] * m
    bottom: list = [None] * m
    entered = [False] * m
    pairs: list[list[int]] = []

    def lowest(p) -> int:
        if p[0] < 0:
            return low[p[2]]
        if p[2] < 0:
            return low[p[0]]
        return min(low[p[0]], low[p[2]])

    def conflicting(hi: int, b: int) -> bool:
        return hi >= 0 and low[hi] > low[b]

    def add_constraints(ei: int, e: int) -> bool:
        p = [-1, -1, -1, -1]
        while True:  # merge the return edges of ei into p's right interval
            q = pairs.pop()
            if q[0] >= 0 or q[1] >= 0:
                q[:] = q[2], q[3], q[0], q[1]
            if q[0] >= 0 or q[1] >= 0:
                return False
            if low[q[2]] > low[e]:
                if p[2] < 0 and p[3] < 0:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            else:
                ref[q[2]] = lowedge[e]
            if (pairs[-1] if pairs else None) is bottom[ei]:
                break
        # merge the earlier siblings' return edges that conflict with ei
        # into p's left interval
        while pairs and (conflicting(pairs[-1][1], ei) or conflicting(pairs[-1][3], ei)):
            q = pairs.pop()
            if conflicting(q[3], ei):
                q[:] = q[2], q[3], q[0], q[1]
            if conflicting(q[3], ei):
                return False
            if p[2] >= 0:
                ref[p[2]] = q[3]
            if q[2] >= 0:
                p[2] = q[2]
            if p[0] < 0 and p[1] < 0:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if max(p) >= 0:
            pairs.append(p)
        return True

    def trim(e: int) -> None:
        # drop the return edges ending at u, the tail of the tree edge e,
        # and give e the side of its highest remaining return edge
        u = src[e]
        while pairs and lowest(pairs[-1]) == height[u]:
            q = pairs.pop()
            if q[0] >= 0:
                side[q[0]] = -1
        if pairs:
            q = pairs[-1]
            while q[1] >= 0 and dst[q[1]] == u:
                q[1] = ref[q[1]]
            if q[1] < 0 and q[0] >= 0:
                ref[q[0]] = q[2]
                side[q[0]] = -1
                q[0] = -1
            while q[3] >= 0 and dst[q[3]] == u:
                q[3] = ref[q[3]]
            if q[3] < 0 and q[2] >= 0:
                ref[q[2]] = q[0]
                side[q[2]] = -1
                q[2] = -1
        if low[e] < height[u]:
            hl, hr = pairs[-1][1], pairs[-1][3]
            ref[e] = hl if hl >= 0 and (hr < 0 or low[hl] > low[hr]) else hr

    for v in _bits(act):
        out[v].sort(key=nest.__getitem__)
    pos = [0] * size
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            e = parent[v]
            ov = out[v]
            while pos[v] < len(ov):
                ei = ov[pos[v]]
                w = dst[ei]
                if not entered[ei]:
                    entered[ei] = True
                    bottom[ei] = pairs[-1] if pairs else None
                    if ei == parent[w]:
                        stack.append(w)
                        break
                    lowedge[ei] = ei
                    pairs.append([-1, -1, ei, ei])
                if low[ei] < height[v]:
                    if pos[v] == 0:
                        lowedge[e] = lowedge[ei]
                    elif not add_constraints(ei, e):
                        return None
                pos[v] += 1
            else:
                stack.pop()
                if e >= 0:
                    trim(e)

    # Embedding: resolve each side through its chain of references, order
    # the edges leaving each vertex by signed nesting depth, then insert each
    # vertex's parent first and each back edge beside the tree edge it
    # returns around.
    for e in range(m):
        chain = []
        while ref[e] >= 0:
            chain.append(e)
            e = ref[e]
        s = side[e]
        for x in reversed(chain):
            s *= side[x]
            side[x] = s
            ref[x] = -1
    for e in range(m):
        nest[e] *= side[e]
    rot = {}
    for v in _bits(act):
        out[v].sort(key=nest.__getitem__)
        rot[v] = [dst[e] for e in out[v]]
    left = [-1] * size
    right = [-1] * size
    pos = [0] * size
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            ov = out[v]
            while pos[v] < len(ov):
                ei = ov[pos[v]]
                pos[v] += 1
                w = dst[ei]
                rw = rot[w]
                if ei == parent[w]:
                    rw.insert(0, v)
                    left[v] = right[v] = w
                    stack.append(w)
                    break
                if side[ei] == 1:
                    rw.insert(rw.index(right[w]) + 1, v)
                else:
                    rw.insert(rw.index(left[w]), v)
                    left[w] = v
            else:
                stack.pop()
    return rot


def _is_plane_rotation(rows, act: int, rot) -> bool:
    """True iff rot maps every vertex of act to a cyclic order of exactly its
    neighbours in act and the faces it traces satisfy V - E + F = 2 on every
    component, i.e. rot is a planar embedding of the graph on act."""
    succ = {}  # (v, u) -> the neighbour after u around v
    for v in _bits(act):
        r = rot.get(v, ())
        mask = 0
        for w in r:
            mask |= 1 << w
        if mask != rows[v] & act or len(r) != mask.bit_count():
            return False
        for i, u in enumerate(r):
            succ[v, u] = r[i - len(r) + 1]
    for comp in _components(rows, act):
        darts = faces = 0
        seen = set()
        for v in _bits(comp):
            darts += len(rot[v])
            for w in rot[v]:
                if (v, w) in seen:
                    continue
                faces += 1
                a, b = v, w
                while (a, b) not in seen:
                    seen.add((a, b))
                    c = succ.get((b, a))
                    if c is None:
                        return False
                    a, b = b, c
        # a lone vertex has no darts and one face
        if comp.bit_count() - darts // 2 + max(faces, 1) != 2:
            return False
    return True
