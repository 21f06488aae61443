"""Slow, independent reference implementations the library is checked against."""

import struct
from collections import Counter
from itertools import chain, combinations, permutations
from math import comb, gcd, isqrt

import numpy as np

from blockdesigns.design import Design
from blockdesigns.kcombs import SubsetOrbits
from blockdesigns.numth import factorize, prime_power
from blockdesigns.permcore import Permutation, compose
from blockdesigns.sieve import CaseSpec, SieveVerdict


def rank_colex(subset) -> int:
    r = 0
    for i, x in enumerate(sorted(subset)):
        r += comb(x, i + 1)
    return r


def rank_lex(n: int, k: int, subset) -> int:
    s = sorted(subset)
    if len(s) != k or any(not 0 <= x < n for x in s) or len(set(s)) != k:
        raise ValueError("not a k-subset of 0..n-1")
    r = 0
    prev = -1
    for i, x in enumerate(s):
        for j in range(prev + 1, x):
            r += comb(n - 1 - j, k - 1 - i)
        prev = x
    return r


def unrank_lex(n: int, k: int, rank: int) -> tuple[int, ...]:
    if not 0 <= rank < comb(n, k):
        raise ValueError("rank out of range")
    out = []
    x = 0
    for i in range(k):
        while True:
            block = comb(n - 1 - x, k - 1 - i)
            if rank < block:
                break
            rank -= block
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def field_index(F, a: tuple[int, ...]) -> int:
    """The index of a GF(q) element: its coefficients as base-p digits, the
    lowest degree least significant; FiniteField.from_index inverts it."""
    i = 0
    for c in reversed(a):
        i = i * F.p + c
    return i


def block_orbit(G, block) -> set[tuple[int, ...]]:
    """The G-orbit of a block as a set of sorted point tuples, by a
    breadth-first walk over the generators."""
    start = tuple(sorted(block))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for blk in frontier:
            for g in G.generators:
                img = tuple(sorted(g.images[p] for p in blk))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def orbit_design(G, base) -> Design:
    return Design(G.degree, block_orbit(G, base))


def is_flag_transitive(G, design) -> bool:
    """A breadth-first walk over the flags (point, block index), with block
    images looked up in a dict; raises ValueError if G moves a block out of
    the design."""
    if G.degree != design.v:
        raise ValueError("degree mismatch")
    rows = design.block_rows()
    index = {blk: j for j, blk in enumerate(rows)}
    moves = []  # (point images, block-index images) per generator
    for g in G.generators:
        im = g.images
        try:
            block_im = [index[tuple(sorted([im[p] for p in blk]))] for blk in rows]
        except KeyError:
            raise ValueError("group does not preserve the block set") from None
        moves.append((im, block_im))
    start = (rows[0][0], 0)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p, j in frontier:
            for im, block_im in moves:
                flag = (im[p], block_im[j])
                if flag not in seen:
                    seen.add(flag)
                    nxt.append(flag)
        frontier = nxt
    return len(seen) == design.b * design.k


def pair_images(G) -> list[tuple[int, ...]]:
    """Each generator's action on the unordered pairs {i, j} of points,
    numbered in lex order of (min, max), by dict lookup."""
    n = G.degree
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pair: m for m, pair in enumerate(pairs)}
    out = []
    for g in G.generators:
        imgs = []
        for i, j in pairs:
            a, b = g.images[i], g.images[j]
            imgs.append(index[(a, b) if a < b else (b, a)])
        out.append(tuple(imgs))
    return out


def representatives(G, k: int):
    """Yield the lexicographically least block of every G-orbit of k-subsets,
    as sorted point tuples in lexicographic order.

    Scans all C(n,k) subsets in lex order with a visited bitmap indexed by
    colex rank; each unvisited subset starts a new orbit, which is walked
    breadth-first (block_orbit) and marked. Memory is C(n,k)/8 bytes plus
    one orbit.
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
    for sub in combinations(range(n), k):
        r = crank(sub)
        if visited[r >> 3] >> (r & 7) & 1:
            continue
        yield sub
        for im in block_orbit(G, sub):
            ri = crank(im)
            visited[ri >> 3] |= 1 << (ri & 7)


def brute_force_isomorphic(d1, d2) -> bool:
    """Try all v! point maps between two Designs. v <= 9 enforced."""
    if d1.v != d2.v:
        return False
    v = d1.v
    if v > 9:
        raise ValueError("brute force limited to v <= 9")
    if d1.b != d2.b:
        return False
    rows2set = set(d2.block_rows())
    for images in permutations(range(v)):
        if all(tuple(sorted(images[p] for p in row)) in rows2set for row in d1.block_rows()):
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


def is_primitive(generators) -> bool:
    """Primitivity by brute force over point subsets: the group is
    transitive (the generators carry point 0 everywhere) and no set B with
    0 in B and 1 < |B| < n is a block, i.e. meets each of its images, found
    by closing {B} under the generators, in nothing or in all of B."""
    gens = [g.images for g in generators]
    n = len(gens[0])
    reached, frontier = {0}, {0}
    while frontier:
        frontier = {g[a] for a in frontier for g in gens} - reached
        reached |= frontier
    if len(reached) != n:
        return False
    for size in range(2, n):
        for rest in combinations(range(1, n), size - 1):
            block = frozenset((0, *rest))
            images, frontier = {block}, {block}
            while frontier:
                frontier = {frozenset(g[p] for p in x) for x in frontier for g in gens} - images
                images |= frontier
            if all(im == block or not im & block for im in images):
                return False
    return True


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


def unpruned_leaves(design, max_leaves: int = 20_000):
    """Individualization-refinement with no pruning, from the one-color
    root: every child of every node is searched, and every leaf is yielded
    as (data, labeling) in depth-first order. It uses the library's
    refinement and target-cell rule, so what it checks in isomorph's search
    is the pruning, the backjumps and the root coloring of points in no
    block. ValueError past max_leaves leaves."""
    from blockdesigns.isomorph import _individualize, _Refiner

    refiner = _Refiner(design)
    count = 0

    def search(pcol):
        nonlocal count
        pcol = refiner.refine(pcol)
        labels = pcol.tolist()
        sizes = Counter(labels)
        cells = [c for c in sorted(sizes) if sizes[c] > 1]
        if not cells:
            if count == max_leaves:
                raise ValueError(f"more than {max_leaves} leaves")
            count += 1
            yield leaf_bytes(design.v, design.b, design.k, design.block_rows(), labels), labels
            return
        target = min(cells, key=lambda c: (sizes[c], c))
        for x in range(design.v):
            if labels[x] == target:
                yield from search(_individualize(pcol, x))

    return search(np.zeros(design.v, dtype=np.int64))


def unpruned_certificate(design, max_leaves: int = 20_000):
    """The first least leaf of unpruned_leaves() in depth-first order.

    Returns (data, labeling, automorphisms). Each leaf that encodes as the
    least gives the automorphism carrying it onto the first such leaf, and
    every automorphism arises from exactly one leaf, so the list is the
    whole automorphism group, the identity first."""
    leaves = list(unpruned_leaves(design, max_leaves))
    data = min(d for d, _ in leaves)
    first = next(lab for d, lab in leaves if d == data)
    inv_first = {c: p for p, c in enumerate(first)}
    automorphisms = [
        Permutation([inv_first[c] for c in lab]) for d, lab in leaves if d == data
    ]
    return data, tuple(first), automorphisms


def first_leaf_witness(d1, d2):
    """The isomorphism d1 -> d2 from unpruned_leaves(): d1's first leaf in
    depth-first order, and d2's first leaf that encodes like it, d2's
    labeling inverted after d1's; None when no leaf of d2 does."""
    if (d1.v, d1.b, d1.k) != (d2.v, d2.b, d2.k):
        return None
    data, labeling = next(unpruned_leaves(d1))
    target = next((lab for d, lab in unpruned_leaves(d2) if d == data), None)
    if target is None:
        return None
    inv2 = {c: p for p, c in enumerate(target)}
    return Permutation([inv2[c] for c in labeling])


def _lex_rank_rows(arr: np.ndarray) -> np.ndarray:
    """Lex rank of each row of a 2-d array among its distinct rows, by
    np.unique: the sort-based ranking the library's digit-sum keys replace."""
    return np.unique(arr, axis=0, return_inverse=True)[1].reshape(-1)


def fixpoint_refine(refiner, pcol) -> np.ndarray:
    """Color refinement with no early stop: rounds of block then point
    signatures until the point color count stops growing, as
    isomorph._Refiner.refine ran before it stopped at discrete and
    block-stable partitions. Both signatures are sorted rows ranked by
    np.unique, independently of the library's digit-sum keys."""
    ncol = int(pcol.max()) + 1
    while True:
        bcol = _lex_rank_rows(np.sort(pcol[refiner.rows_arr], axis=1))
        bcol_ext = np.concatenate([bcol, [refiner.b]])
        psig = np.concatenate(
            [pcol.reshape(-1, 1), np.sort(bcol_ext[refiner.pb_arr], axis=1)], axis=1
        )
        new = _lex_rank_rows(psig)
        if int(new.max()) + 1 == ncol:
            return pcol
        pcol, ncol = new, int(new.max()) + 1


def two_certificate_witness(d1, d2):
    """The isomorphism d1 -> d2 from both designs' full certificates: d2's
    canonical labeling inverted after d1's, or None when the certificates
    differ."""
    from blockdesigns.isomorph import certificate

    if (d1.v, d1.b, d1.k) != (d2.v, d2.b, d2.k):
        return None
    c1, c2 = certificate(d1), certificate(d2)
    if c1.data != c2.data:
        return None
    inv2 = {c: p for p, c in enumerate(c2.labeling)}
    return Permutation([inv2[c] for c in c1.labeling])


def _colex_table(n: int, k: int) -> np.ndarray:
    table = np.zeros((n, k), dtype=np.int64)
    for x in range(n):
        for i in range(k):
            table[x, i] = comb(x, i + 1)
    return table


def _colex_ranks(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    # rows must be sorted ascending along axis 1
    r = np.zeros(rows.shape[0], dtype=np.int64)
    for i in range(rows.shape[1]):
        r += table[rows[:, i], i]
    return r


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


def ungated_classify(G, k: int, t: int) -> list[tuple[int, ...]]:
    """The lex-least member of every G-orbit of k-subsets, from the sorting
    scan above, whose blocks cover every t-subset of points equally often,
    the complete design excepted. No divisibility test: the coverage of
    every orbit is counted in Python."""
    n = G.degree
    so = subset_orbits(G, k)
    out = []
    for i in range(so.orbit_count):
        rows = [tuple(row) for row in so.orbit_rows(i).tolist()]
        if len(rows) == comb(n, k):
            continue
        cover = Counter(sub for row in rows for sub in combinations(row, t))
        if len(cover) == comb(n, t) and len(set(cover.values())) == 1:
            out.append(rows[0])
    return out


# The sieve's case catalog and constraint check as first written, one keyword
# CaseSpec constructor call per case and one attribute read per field: the
# plain-tuple catalog and the early-exit evaluate in blockdesigns.sieve must
# give the same records.

_TABLE1_ROWS = {
    7: [(1, 336, 12, 28), (2, 336, 16, 21)],
    9: [(3, 720, 20, 36), (4, 720, 16, 45), (5, 720, 20, 36), (6, 720, 16, 45),
        (7, 1440, 40, 36), (8, 1440, 32, 45)],
    11: [(9, 1320, 20, 66)],
}


def _odd_cases(case, q: int, p: int, f: int) -> list[CaseSpec]:
    cases = [case("odd-1", v=q + 1, stabilizer_order=q * (q - 1) // 2)]
    if q >= 13:
        cases.append(case("odd-2", v=q * (q + 1) // 2, stabilizer_order=q - 1,
                          subdegrees=((q - 1) // 2, 2 * (q - 1), q - 1)))
    if q not in (7, 9):
        notes = ()
        if f > 1:
            notes = ("subdegree pattern stated for prime q; applied here with q = p^f, f > 1",)
        cases.append(case("odd-3", v=q * (q - 1) // 2, stabilizer_order=q + 1,
                          subdegrees=((q + 1) // 2, q + 1), notes=notes))
    if f % 2 == 0:
        q0 = p ** (f // 2)
        cases.append(case("odd-4", v=q0 * (q0 * q0 + 1) // 2, stabilizer_order=q0 * (q0 * q0 - 1)))
    for r in sorted(r for r in factorize(f) if r % 2 == 1):
        q0 = p ** (f // r)
        v = q0 ** (r - 1) * (q0 ** (2 * r) - 1) // (q0 * q0 - 1)
        cases.append(case("odd-5", v=v, stabilizer_order=q0 * (q0 * q0 - 1) // 2))
    if q % 10 in (1, 9) and (f == 1 or (f == 2 and p % 10 in (3, 7))):
        cases.append(case("odd-6", v=q * (q * q - 1) // 120, stabilizer_order=60))
    if f == 1 and q % 8 in (3, 5) and q % 10 not in (1, 9):
        cases.append(case("odd-7", v=q * (q * q - 1) // 24, stabilizer_order=12))
    if f == 1 and q % 8 in (1, 7):
        cases.append(case("odd-8", v=q * (q * q - 1) // 48, stabilizer_order=24))
    return cases


def _even_cases(case, q: int, f: int) -> list[CaseSpec]:
    cases = [
        case("even-1", v=q + 1, stabilizer_order=q * (q - 1), trivial_if_survivor=(q == 8)),
        case("even-2", v=q * (q - 1) // 2, stabilizer_order=2 * (q + 1), subdegrees=(q + 1,)),
        case("even-3", v=q * (q + 1) // 2, stabilizer_order=2 * (q - 1),
             subdegrees=(2 * (q - 1), q - 1)),
    ]
    for r in sorted(factorize(f)):
        if f // r < 2:
            continue
        q0 = 2 ** (f // r)
        v = q0 ** (r - 1) * (q0 ** (2 * r) - 1) // (q0 * q0 - 1)
        cases.append(case("even-4", v=v, stabilizer_order=q0 * (q0 * q0 - 1)))
    return cases


def case_catalog(q: int) -> list[CaseSpec]:
    """All applicable maximal-subgroup cases at a prime power q >= 4."""
    p, f = prime_power(q)
    out = f if p == 2 else 2 * f
    ambient = q * (q * q - 1) // gcd(2, q - 1) * out

    def case(case_id, v, stabilizer_order, subdegrees=(), trivial_if_survivor=False, notes=(),
             ambient_order=ambient, out_order=out):
        return CaseSpec(case_id, q, v, ambient_order, stabilizer_order, out_order,
                        subdegrees, trivial_if_survivor, notes)

    cases = _even_cases(case, q, f) if p == 2 else _odd_cases(case, q, p, f)
    rows = list(_TABLE1_ROWS.get(q, ()))
    if f == 1 and q % 40 in (11, 19, 21, 29):
        g = q * (q * q - 1)
        rows.append((10, g, 24, g // 24))
    return cases + [
        case(f"table1-line-{line}", v=v, ambient_order=g, stabilizer_order=m, out_order=1)
        for line, g, m, v in rows
    ]


def evaluate(case: CaseSpec) -> SieveVerdict:
    """Apply the constraints in order; record the first violation."""
    k = isqrt(case.v)
    square = k * k == case.v
    if not square:
        failed, k = "square", None
    elif k < 3:
        failed = "k_guard"
    elif any(s % (k + 1) for s in case.subdegrees):
        failed = "subdegree"
    elif case.ambient_order % (k * (k + 1)):
        failed = "block_count"
    elif case.stabilizer_order % ((k + 1) // gcd(k + 1, case.out_order)):
        failed = "stabilizer"
    else:
        failed = None
    survivor = failed is None
    return SieveVerdict(case.case_id, case.q, case.v, square, k, failed, survivor,
                        survivor and case.trivial_if_survivor, case.notes)
