"""Slow, independent reference implementations the library is checked against."""

import struct
from itertools import chain, combinations, permutations
from math import comb

import numpy as np

from blockdesigns.kcombs import SubsetOrbits, _colex_ranks, _colex_table
from blockdesigns.permcore import Permutation, compose


def representatives(G, k: int):
    """Yield the lexicographically least block of every G-orbit of k-subsets,
    as sorted point tuples in lexicographic order.

    Scans all C(n,k) subsets in lex order with a visited bitmap indexed by
    colex rank; each unvisited subset starts a new orbit, which is walked
    breadth-first and marked. Memory is C(n,k)/8 bytes.
    """
    n = G.degree
    if not 0 < k < n:
        raise ValueError("k must be in 1..degree-1")
    total = comb(n, k)
    if total > 1 << 32:
        raise ValueError("C(degree,k) exceeds the 2^32 rank bitmap capacity")
    table = [[comb(x, i + 1) for i in range(k)] for x in range(n)]

    def crank(sub) -> int:
        r = 0
        for i, x in enumerate(sub):
            r += table[x][i]
        return r

    visited = bytearray((total + 7) // 8)
    gens = G.generators
    for sub in combinations(range(n), k):
        r = crank(sub)
        if visited[r >> 3] >> (r & 7) & 1:
            continue
        yield sub
        frontier = [sub]
        visited[r >> 3] |= 1 << (r & 7)
        while frontier:
            nxt = []
            for s in frontier:
                for g in gens:
                    im = tuple(sorted(g.images[x] for x in s))
                    ri = crank(im)
                    if not visited[ri >> 3] >> (ri & 7) & 1:
                        visited[ri >> 3] |= 1 << (ri & 7)
                        nxt.append(im)
            frontier = nxt


def brute_force_isomorphic(d1, d2) -> bool:
    """Try all v! point maps between two Designs. v <= 9 enforced."""
    if d1.v != d2.v:
        return False
    v = d1.v
    if v > 9:
        raise ValueError("brute force limited to v <= 9")
    if d1.b != d2.b:
        return False
    rows2set = set(d2.blocks)
    for images in permutations(range(v)):
        if all(tuple(sorted(images[p] for p in row)) in rows2set for row in d1.blocks):
            return True
    return False


def brute_force_elements(generators, cap: int = 200_000) -> set[Permutation]:
    """Closure of a generator list by repeated multiplication; independent of
    the stabilizer chain, for checking chain-based orders on small groups."""
    gens = [g for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    ident = Permutation.identity(gens[0].degree)
    elems = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                x = compose(e, g)
                if x not in elems:
                    elems.add(x)
                    new.append(x)
                    if len(elems) > cap:
                        raise ValueError(f"closure exceeded cap {cap}")
        frontier = new
    return elems


def leaf_bytes(v: int, b: int, k: int, rows, pcol) -> bytes:
    """Incidence bitmap of a design under a discrete labeling pcol (a list),
    built bit by bit in Python integers: one row per canonical point, one
    column per canonical block, left-aligned bits, after a >HIH header."""
    blocks = sorted(tuple(sorted(pcol[p] for p in row)) for row in rows)
    nbytes = (b + 7) // 8
    pad = 8 * nbytes - b
    rowints = [0] * v
    for j, blk in enumerate(blocks):
        bit = 1 << (b - 1 - j + pad)
        for p in blk:
            rowints[p] |= bit
    header = struct.pack(">HIH", v, b, k)
    return header + b"".join(r.to_bytes(nbytes, "big") for r in rowints)


def subset_orbits(G, k: int) -> SubsetOrbits:
    """The sort-based k-subset orbit scan: rows from itertools, each
    generator image sorted row-wise, ranked in colex and converted to lex
    through a precomputed permutation, labels grouped with np.unique."""
    n = G.degree
    count = comb(n, k)
    flat = np.fromiter(
        chain.from_iterable(combinations(range(n), k)), dtype=np.uint8, count=count * k
    )
    rows = flat.reshape(count, k)
    table = _colex_table(n, k)
    colex_all = _colex_ranks(rows, table)
    lex_of_colex = np.empty(count, dtype=np.int64)
    lex_of_colex[colex_all] = np.arange(count, dtype=np.int64)

    maps = []
    gens = list(G.generators) + [g.inverse() for g in G.generators]
    for g in gens:
        img = np.asarray(g.images, dtype=np.uint8)
        moved = np.sort(img[rows], axis=1)
        maps.append(lex_of_colex[_colex_ranks(moved, table)])

    labels = np.arange(count, dtype=np.int64)
    while True:
        before = labels
        for m in maps:
            labels = np.minimum(labels, labels[m])
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, before):
            break

    rep_ranks, inverse_idx, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    order = np.argsort(inverse_idx, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)))
    return SubsetOrbits(
        n=n, k=k, rows=rows, labels=labels, rep_ranks=rep_ranks, sizes=sizes,
        _order=order, _starts=starts,
    )
