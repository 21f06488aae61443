"""Block designs as orbits of a base block, and their classification.

A design is v points 0..v-1 and b distinct blocks of one size k, held as one
read-only (b, k) int64 array of sorted rows in lexicographic order, and
their ascending row keys, which every block-set check compares image keys
with (kcombs.same_block_set()). Rows that arrive canonical, as orbit
designs and classify() give them, are checked without a sort. Every
computation here and in isomorph.py reads the array; tuples of points
appear only in Design.block_rows(), for hashable rows. orbit_design()
realizes the block-transitive construction: the block set is one group
orbit. _orbit_rows() enumerates it down the group's stabilizer chain, one
gather, row sort and unique per level, when |G| * k <= kcombs.MAX_SUBSETS:
no level gathers more than |G| blocks. A larger group is closed under its
generators, whose rounds hold only the orbit found so far.
is_flag_transitive() counts one block's orbit under a point stabilizer
the same way, at the group's first base point when a block holds it, so
the stabilizer is read off the chain the group already holds. classify()
enumerates every orbit of k-subsets, keeps the orbits whose base block
passes the Kramer-Mesner test for a t-design, and merges them into
isomorphism classes by canonical certificate. It
enumerates nothing when divisibility or t >= v - k rules out every orbit,
and refuses before any scan when the least block count a t-design could
have already passes the certificate search's vertex bound. A process pool,
and its import, start only for more than one worker.
"""

from __future__ import annotations

import logging
import operator
import os
import time
from dataclasses import dataclass
from math import comb, gcd, lcm

import numpy as np

from . import isomorph, kcombs
from .kcombs import row_keys, same_block_set, subset_orbits, subset_rank_chunks, unique_rows
from .permcore import BoundError, PermGroup, Permutation

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Design:
    """v points and b distinct blocks of one size k. Blocks may be a 2-d
    integer array, one block per row, or any iterable of point collections.
    They are checked once, here, and stored in blocks as a read-only
    (b, k) int64 array of sorted rows in lexicographic order, a copy that
    no caller's array aliases. keys holds their kcombs.row_keys() over v
    points, read-only and ascending, for the block-set checks
    (kcombs.same_block_set); it is no field, so equality, hashing, repr
    and pickling ignore it. Canonical rows, each strictly increasing with
    strictly increasing keys, are accepted after those two comparisons;
    other rows are sorted and made unique, and raise on a repeated point
    or a duplicate block. block_rows() is the tuple view, for hashable
    rows. v is kept as a Python int. Two designs are equal when v and the
    arrays are; a pickled design is rebuilt, and so checked again, on
    load."""

    v: int
    blocks: np.ndarray

    def __post_init__(self):
        try:
            v = operator.index(self.v)
        except TypeError:
            raise ValueError("v must be an integer") from None
        if v > 2**63:  # points are stored as int64
            raise ValueError("v must be at most 2**63")
        rows = self.blocks
        if not isinstance(rows, np.ndarray):
            rows = [tuple(blk) for blk in rows]
            if len({len(blk) for blk in rows}) > 1:
                raise ValueError("all blocks must have one size")
            rows = np.array(rows)
        if len(rows) == 0:
            raise ValueError("a design needs at least one block")
        if rows.ndim != 2:
            raise ValueError("blocks must form a 2-d array, one block per row")
        if rows.shape[1] == 0:
            raise ValueError("blocks must not be empty")
        if rows.dtype.kind not in "iu":
            raise ValueError("points must be integers")
        # range first: the sort key below assumes points in 0..v-1
        if rows.min() < 0 or rows.max() >= v:
            blk = tuple(sorted(rows[((rows < 0) | (rows >= v)).any(axis=1)][0].tolist()))
            raise ValueError(f"block {blk} has a point outside 0..{v - 1}")
        if not (rows[:, 1:] > rows[:, :-1]).all():
            rows = np.sort(rows, axis=1)
            repeated = rows[:, 1:] == rows[:, :-1]
            if repeated.any():
                blk = rows[repeated.any(axis=1)][0]
                raise ValueError(f"point repeated in block {tuple(blk.tolist())}")
        keys = row_keys(rows, v)
        if keys.dtype.kind == "V" or not (keys[1:] > keys[:-1]).all():
            keys, first = np.unique(keys, return_index=True)
            if len(keys) < len(rows):
                raise ValueError("duplicate blocks")
            rows = rows[first]
        blocks = rows.astype(np.int64)  # a copy, even of canonical int64 rows
        blocks.flags.writeable = False
        keys.flags.writeable = False
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "keys", keys)

    @property
    def k(self) -> int:
        return self.blocks.shape[1]

    @property
    def b(self) -> int:
        return self.blocks.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Design):
            return NotImplemented
        return self.v == other.v and np.array_equal(self.blocks, other.blocks)

    def __hash__(self):
        return hash((self.v, self.k, self.blocks.tobytes()))

    def __reduce__(self):
        # the points travel in the least unsigned dtype (uint8 for v <= 256),
        # an eighth of the bytes pool workers receive
        return Design, (self.v, self.blocks.astype(np.min_scalar_type(self.v - 1)))

    def block_rows(self) -> tuple[tuple[int, ...], ...]:
        """The blocks as sorted tuples of Python ints, in lexicographic order."""
        # zip the columns: faster than a tuple per listed row
        return tuple(zip(*self.blocks.T.tolist()))

    def relabel(self, sigma: Permutation) -> "Design":
        if sigma.degree != self.v:
            raise ValueError("degree mismatch")
        return Design(self.v, np.asarray(sigma.images)[self.blocks])


def _orbit_rows(G: PermGroup, block: np.ndarray) -> tuple[np.ndarray, str]:
    """The G-orbit of block, one sorted row in a (1, k) array, as unique
    lex-sorted rows, and how it was enumerated. Both ways make rows unique
    with kcombs.unique_rows().

    Down the stabilizer chain when |G| * k <= kcombs.MAX_SUBSETS: G^(i),
    the group of level i, is U_i G^(i+1) for the level's transversal U_i,
    so the orbit O_i of G^(i) is the union of u(O_(i+1)) over u in U_i,
    gathered, row-sorted and made unique in one pass per level, deepest
    first. A level gathers |U_i| |O_(i+1)| <= |U_i| |G^(i+1)| = |G^(i)|
    rows, never more than |G|. A larger group, whose orbit may still be
    small, is closed under its generators instead, one round per step of
    breadth-first search: the orbit of a 256-subset under PSL(2,256) has
    257 blocks, but a chain pass would gather 256 * 255 rows of 256 points
    at the middle level. A round lists the blocks seen first, then each
    generator's row-sorted images of the last round's new blocks; the
    distinct rows whose first copy is an image are the next new blocks."""
    v, k = G.degree, block.shape[1]
    if G.order() * k <= kcombs.MAX_SUBSETS:
        levels = G.transversals()
        orbit = block
        for level in reversed(levels):
            images = np.array([u.images for u in level])
            orbit, _ = unique_rows(np.sort(images[:, orbit].reshape(-1, k), axis=1), v)
        return orbit, f"chain levels with transversals {[len(level) for level in levels]}"
    seen = frontier = block
    gens = [np.asarray(g.images) for g in G.generators]
    rounds = 0
    while len(frontier):
        old = len(seen)
        rows = np.concatenate([seen] + [np.sort(im[frontier], axis=1) for im in gens])
        seen, first = unique_rows(rows, v)
        frontier = seen[first >= old]
        rounds += 1
    return seen, f"generator closure in {rounds} rounds"


def orbit_design(G: PermGroup, base) -> Design:
    """The G-orbit of a base block, as a design. G is block-transitive on the
    result by construction, and the block count divides the group order.
    The orbit is enumerated down G's stabilizer chain, one pass per level,
    when |G| * k <= kcombs.MAX_SUBSETS, else closed under G's generators
    (_orbit_rows())."""
    start = time.perf_counter()
    rows, how = _orbit_rows(G, Design(G.degree, [base]).blocks)
    design = Design(G.degree, rows)
    log.info("orbit design: %d blocks by %s, in %.2f s",
             design.b, how, time.perf_counter() - start)
    return design


def lambda_of(design: Design, t: int) -> int | None:
    """lambda_t if every t-subset of points lies in equally many blocks, else
    None: whether kcombs.coverage() is uniform. Uniform coverage needs
    lambda_t * C(v,t) = b * C(k,t), so nothing is counted unless C(v,t)
    divides b * C(k,t)."""
    if not 1 <= t <= design.k:
        raise ValueError("t must be in 1..k")
    (b, k), v = design.blocks.shape, design.v
    if b * comb(k, t) % comb(v, t):
        return None
    counts = kcombs.coverage(design.blocks, v, t)
    return int(counts[0]) if counts.min() == counts.max() else None


def is_flag_transitive(G: PermGroup, design: Design) -> bool:
    """True iff G is transitive on incident (point, block) pairs. Raises if G
    does not stabilize the block set. By orbit-stabilizer, any flag (p, B)
    has |G:G_p| * |G_p:G_pB| images (G_pB fixing both): all b*k flags iff
    G is flag-transitive. p is G's first base point and B the first block
    through it, so G_p is the tail of the chain G holds and no chain is
    built; when G has no base point or no block holds it, B is the first
    block and p its first point. |G_p:G_pB| is the size of B's G_p-orbit,
    enumerated by _orbit_rows() (down G_p's chain while
    |G_p| * k <= kcombs.MAX_SUBSETS) and only counted: it lies in the
    checked block set, so no design is built from it."""
    if G.degree != design.v:
        raise ValueError("degree mismatch")
    for g in G.generators:
        if not same_block_set(g.images, design.blocks, design.keys):
            raise ValueError("group does not preserve the block set")
    B = design.blocks[:1]
    p = int(B[0, 0])
    through = np.flatnonzero((design.blocks == G.base[0]).any(axis=1)) if G.base else ()
    if len(through):
        # at G's first base point, G_p is the tail of the chain G holds
        p, B = G.base[0], design.blocks[through[:1]]
    # G_p from G's memo, which certificate searches under G share
    orbit_p = _orbit_rows(G.pointwise_stabilizer((p,)), B)[0]
    return len(G.orbit(p)) * len(orbit_p) == design.b * design.k


def fixed_k_subsets(p: Permutation, k: int) -> int:
    """Number of k-subsets fixed setwise by p: a fixed subset is a union of
    whole cycles, so count cycle-length multisets summing to k."""
    lengths = [len(c) for c in p.cycles(include_fixed=True)]
    dp = [0] * (k + 1)
    dp[0] = 1
    for length in lengths:
        for j in range(k, length - 1, -1):
            dp[j] += dp[j - length]
    return dp[k]


def count_orbits_burnside(G: PermGroup, k: int) -> int:
    total = sum(fixed_k_subsets(g, k) for g in G.elements())
    if total % G.order():
        raise AssertionError("Burnside sum not divisible by the group order")
    return total // G.order()


@dataclass(frozen=True)
class DesignClass:
    """One isomorphism class from classify(): the lex-least base block over
    the merged orbit designs, the common lambda and block count, the
    certificate, and every merged orbit's base block."""

    base: tuple[int, ...]
    lam: int
    b: int
    certificate: isomorph.Certificate
    orbit_reps: tuple[tuple[int, ...], ...]


def block_count_step(v: int, k: int, t: int) -> int:
    """The least block count b for which every lambda_s = b*C(k,s)/C(v,s),
    s = 1..t, is an integer: lcm over s of C(v,s)/gcd(C(v,s), C(k,s)). A
    t-design of k-subsets of v points has a multiple of it as block count."""
    return lcm(*(comb(v, s) // gcd(comb(v, s), comb(k, s)) for s in range(1, t + 1)))


def no_orbit_design(order: int, v: int, k: int, t: int) -> bool:
    """Whether, for t < k < v, no orbit of k-subsets under a group of this
    order is a nontrivial t-design, known from the order alone: when
    t >= v - k only the complete design is a t-design (Gottlieb-Kantor, on
    block complements), and an orbit's size divides the order but must be
    a multiple of block_count_step(v, k, t) to carry a t-design."""
    if t >= v - k:
        return True
    step = block_count_step(v, k, t)
    if order % step:
        log.info("orbit scan skipped: |G| = %d is not a multiple of %d, the least "
                 "block count of a %d-design", order, step, t)
    return order % step > 0


def ProcessPoolExecutor(*args, **kwargs):
    """concurrent.futures.ProcessPoolExecutor, imported when classify() first
    starts a pool, so a one-worker run never loads concurrent.futures.process.
    Assigning the name replaces the pool classify() starts."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(*args, **kwargs)


def _certificate_chunk(args) -> list[isomorph.Certificate]:
    """Certificates of one worker's designs, all pruned by one group."""
    designs, G = args
    return [isomorph.certificate(d, G) for d in designs]


def classify(G: PermGroup, k: int, t: int = 2, workers: int = 1) -> list[DesignClass]:
    """All nontrivial t-designs among the G-orbits of k-subsets, merged into
    isomorphism classes, sorted by (lambda, base block).

    The result is [] before any scan when no_orbit_design() rules every
    orbit out. Otherwise orbit O of k-subsets is kept exactly when its lex-least block
    holds C(k,t) |T_j| / C(v,t) t-subsets of every G-orbit T_j of t-subsets
    (Kramer-Mesner), and lambda_t = |O| C(k,t) / C(v,t). permcore.BoundError
    refuses, before any scan, v + block_count_step() over
    isomorph.MAX_VERTICES, even if no orbit would be kept; a scan of over
    kcombs.MAX_SUBSETS k-subsets (never the t-scan: C(v,t) < C(v,k) when
    t < v - k); and, before any search, an orbit design over
    isomorph.MAX_VERTICES.

    The group itself acts by automorphisms on every orbit design and is the
    pruning group of every certificate search; worker processes receive it
    pickled, chain included. Worker count never changes the result, only how
    certificate computations are distributed.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    v = G.degree
    if not t < k < v or no_orbit_design(G.order(), v, k, t):
        return []
    step = block_count_step(v, k, t)
    if v + step > isomorph.MAX_VERTICES:
        # every kept orbit design would be refused before its search
        raise BoundError(f"{v} points + {step} blocks (the least block count of a {t}-design "
                         f"with blocks of {k} points) exceeds the "
                         f"{isomorph.MAX_VERTICES}-vertex bound")
    start = time.perf_counter()
    so = subset_orbits(G, k)
    log.info("orbit scan: %d orbits of %d-subsets in %.2f s",
             so.orbit_count, k, time.perf_counter() - start)
    start = time.perf_counter()

    t_orbits = subset_orbits(G, t)
    # C(k,t) <= C(v,t) < C(v,k), all within MAX_SUBSETS once the k-scan ran
    shares, rests = np.divmod(comb(k, t) * t_orbits.sizes, comb(v, t))
    kept = []
    if not rests.any():
        # a base block's t-subset labels, sorted, against the target's
        target = np.repeat(t_orbits.rep_ranks, shares)
        fits = np.concatenate([(np.sort(t_orbits.labels[ranks], axis=1) == target).all(axis=1)
                               for ranks in subset_rank_chunks(so.rows[so.rep_ranks], v, t)])
        kept = np.flatnonzero(fits & (so.sizes < comb(v, k)))  # the complete design is trivial
    found = [(int(so.sizes[i]) * comb(k, t) // comb(v, t), Design(v, so.orbit_rows(i)))
             for i in kept]  # (lambda_t, orbit design)
    log.info("filter: %d of %d orbits give %d-designs in %.2f s",
             len(found), so.orbit_count, t, time.perf_counter() - start)

    start = time.perf_counter()
    designs = [d for _, d in found]
    if designs:
        # refuse before the first search, not after some of them
        isomorph.check_vertices(v, max(d.b for d in designs))
    # no more processes than designs or CPUs, however many workers are asked for
    procs = min(workers, len(designs), os.cpu_count() or 1)
    if procs <= 1:
        certs = [isomorph.certificate(d, G) for d in designs]
    else:
        # one chunk per worker, dealt round-robin, each with a pickled copy of G
        chunks = [(designs[i::procs], G) for i in range(procs)]
        certs = [None] * len(designs)
        with ProcessPoolExecutor(max_workers=procs) as pool:
            for i, chunk_certs in enumerate(pool.map(_certificate_chunk, chunks)):
                certs[i::procs] = chunk_certs
    log.info("certificates: %d in %.2f s", len(certs), time.perf_counter() - start)

    # orbit rows are lex sorted, so an orbit design's first block is the
    # orbit's lex-least member; (base, lambda, b, certificate) per member
    by_cert: dict[bytes, list[tuple[tuple[int, ...], int, int, isomorph.Certificate]]] = {}
    for (lam, d), cert in zip(found, certs):
        by_cert.setdefault(cert.data, []).append((tuple(d.blocks[0].tolist()), lam, d.b, cert))

    classes = []
    for members in by_cert.values():
        if len({(m[1], m[2]) for m in members}) != 1:
            raise AssertionError("isomorphic orbit designs disagree on lambda or block count")
        bases = sorted(m[0] for m in members)
        _, lam, b, cert = members[0]
        classes.append(DesignClass(base=bases[0], lam=lam, b=b, certificate=cert,
                                   orbit_reps=tuple(bases)))
    classes.sort(key=lambda c: (c.lam, c.base))
    log.info("merging: %d classes", len(classes))
    return classes

