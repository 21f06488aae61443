"""Block designs as orbits of a base block, and their classification.

A design is v points 0..v-1 and a lexicographically sorted tuple of distinct
blocks of one size k, each block a sorted point tuple. orbit_design()
realizes the block-transitive construction: the block set is one group
orbit. classify() enumerates every orbit of k-subsets, keeps the orbits
whose designs are t-designs, and merges them into isomorphism classes by
canonical certificate. It enumerates nothing when divisibility alone rules
out every orbit (block_count_step()).
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

import numpy as np

from . import isomorph
from .grouplib import builtin
from .kcombs import _lex_ranks, block_permutation, image_rows, lex_combinations
from .kcombs import row_keys, subset_orbits
from .permcore import PermGroup, Permutation

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Design:
    """v points and b distinct blocks of one size k. Blocks may be a 2-d
    integer array, one block per row, or any iterable of point collections;
    they are stored as a lexicographically sorted tuple of sorted point
    tuples. This is the one place a design is checked."""

    v: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
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
        if rows.min() < 0 or rows.max() >= self.v:
            blk = tuple(sorted(rows[((rows < 0) | (rows >= self.v)).any(axis=1)][0].tolist()))
            raise ValueError(f"block {blk} has a point outside 0..{self.v - 1}")
        rows = np.sort(rows, axis=1)
        repeated = rows[:, 1:] == rows[:, :-1]
        if repeated.any():
            blk = rows[repeated.any(axis=1)][0]
            raise ValueError(f"point repeated in block {tuple(blk.tolist())}")
        keys = row_keys(rows, self.v)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate blocks")
        # zip the columns: faster than a tuple per listed row
        object.__setattr__(self, "blocks", tuple(zip(*rows[order].T.tolist())))

    @property
    def k(self) -> int:
        return len(self.blocks[0])

    @property
    def b(self) -> int:
        return len(self.blocks)

    def block_rows(self) -> tuple[tuple[int, ...], ...]:
        return self.blocks

    def relabel(self, sigma: Permutation) -> "Design":
        if sigma.degree != self.v:
            raise ValueError("degree mismatch")
        return Design(self.v, image_rows(sigma.images, np.array(self.blocks))[0])


@dataclass(frozen=True)
class LambdaVector:
    """lambda_s for s = 0..t, exact rationals; values[0] = b, values[1] = r."""

    values: tuple[Fraction, ...]

    @property
    def integral(self) -> bool:
        return all(x.denominator == 1 for x in self.values)


def lambda_vector(v: int, k: int, t: int, lambda_t: int) -> LambdaVector:
    if not t <= k <= v:
        raise ValueError("need t <= k <= v")
    vals = tuple(
        Fraction(lambda_t * comb(v - s, t - s), comb(k - s, t - s)) for s in range(t + 1)
    )
    return LambdaVector(vals)


def orbit_design(G: PermGroup, base) -> Design:
    """The G-orbit of a base block, as a design. G is block-transitive on the
    result by construction, and the block count divides the group order."""
    seen = np.array(Design(G.degree, [base]).blocks)
    gens = [np.asarray(g.images) for g in G.generators]
    frontier = seen
    while len(frontier):
        rows = np.concatenate([seen] + [image_rows(im, frontier)[0] for im in gens])
        keys = row_keys(rows, G.degree)
        order = np.argsort(keys, kind="stable")  # a seen block sorts first among equals
        keys, srt = keys[order], rows[order]
        first = np.concatenate(([True], keys[1:] != keys[:-1]))
        frontier = srt[first & (order >= len(seen))]
        seen = srt[first]
    return Design(G.degree, seen)


@lru_cache(maxsize=None)
def _subset_positions(k: int, t: int) -> np.ndarray:
    """The positions of the t-subsets of one k-block, in lex order.
    Read-only: every caller shares it."""
    positions = lex_combinations(k, t)
    positions.flags.writeable = False
    return positions


def _uniform_lambda(rows: np.ndarray, v: int, t: int) -> int | None:
    """lambda_t of the blocks in rows (one sorted block per row) if every
    t-subset of 0..v-1 lies in equally many of them, else None. Counts the
    coverage of all C(v,t) subsets exactly."""
    subs = rows[:, _subset_positions(rows.shape[1], t)].reshape(-1, t)
    ranks = _lex_ranks([subs[:, i] for i in range(t)], v, len(subs))
    counts = np.bincount(ranks, minlength=comb(v, t))
    return int(counts[0]) if counts.min() == counts.max() else None


def lambda_of(design: Design, t: int) -> int | None:
    """lambda_t if every t-subset of points lies in equally many blocks, else
    None."""
    if not 1 <= t <= design.k:
        raise ValueError("t must be in 1..k")
    return _uniform_lambda(np.asarray(design.blocks, dtype=np.int64), design.v, t)


def is_flag_transitive(G: PermGroup, design: Design) -> bool:
    """True iff G is transitive on incident (point, block) pairs. Raises if G
    does not stabilize the block set. By orbit-stabilizer, the flag (p, B),
    B the first block and p its first point, has |G:G_p| * |G_p:G_pB| images
    (G_pB fixing both): all b*k flags iff G is flag-transitive."""
    if G.degree != design.v:
        raise ValueError("degree mismatch")
    rows = np.array(design.blocks)
    for g in G.generators:
        if block_permutation(g.images, rows) is None:
            raise ValueError("group does not preserve the block set")
    B = design.blocks[0]
    p = B[0]
    # G_p from G's memo, which certificate searches under G share
    return len(G.orbit(p)) * orbit_design(G.prefix_stabilizer((p,)), B).b == design.b * design.k


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


def _certificate_chunk(args) -> list[isomorph.Certificate]:
    """Certificates of one worker's designs, all pruned by one group."""
    designs, G = args
    return [isomorph.certificate(d, G) for d in designs]


def classify(G: PermGroup, k: int, t: int = 2, workers: int = 1) -> list[DesignClass]:
    """All nontrivial t-designs among the G-orbits of k-subsets, merged into
    isomorphism classes, sorted by (lambda, base block).

    An orbit's size divides |G| and must be a multiple of
    block_count_step(v, k, t) to carry a t-design. When |G| is not a
    multiple of it, no orbit qualifies and the result is [] without any
    k-subset being enumerated; otherwise orbits of other sizes are skipped
    before their lambda_t is counted. Both are necessary conditions only:
    every kept orbit is still checked by an exact count. Past that test,
    kcombs.BoundError refuses a scan of over kcombs.MAX_SUBSETS k-subsets
    and, before any search, an orbit design over isomorph.MAX_VERTICES.

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
    if not t < k < v:
        return []
    step = block_count_step(v, k, t)
    if G.order() % step:
        log.info("orbit scan skipped: |G| = %d is not a multiple of %d, the least "
                 "block count of a %d-design", G.order(), step, t)
        return []
    start = time.perf_counter()
    so = subset_orbits(G, k)
    log.info("orbit scan: %d orbits of %d-subsets in %.2f s",
             so.orbit_count, k, time.perf_counter() - start)
    start = time.perf_counter()

    found: list[tuple[int, Design]] = []  # (lambda_t, orbit design)
    for i in range(so.orbit_count):
        size = int(so.sizes[i])
        if size == comb(v, k) or size % step:
            continue  # the complete design is trivial; the rest fail divisibility
        rows = so.orbit_rows(i)
        lam = _uniform_lambda(rows, v, t)
        if lam is not None:
            found.append((lam, Design(v, rows)))
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
    # orbit's lex-least member
    by_cert: dict[bytes, list[tuple[tuple[int, ...], int, int]]] = {}
    cert_obj: dict[bytes, isomorph.Certificate] = {}
    for (lam, d), cert in zip(found, certs):
        by_cert.setdefault(cert.data, []).append((d.blocks[0], lam, d.b))
        cert_obj.setdefault(cert.data, cert)

    classes = []
    for data, members in by_cert.items():
        bases = sorted(m[0] for m in members)
        lams = {m[1] for m in members}
        bs = {m[2] for m in members}
        if len(lams) != 1 or len(bs) != 1:
            raise AssertionError("isomorphic orbit designs disagree on lambda or block count")
        classes.append(
            DesignClass(
                base=bases[0],
                lam=members[0][1],
                b=members[0][2],
                certificate=cert_obj[data],
                orbit_reps=tuple(bases),
            )
        )
    classes.sort(key=lambda c: (c.lam, c.base))
    log.info("merging: %d classes", len(classes))
    return classes


_CLASSIFY_CACHE: dict[tuple[str, int, int], list[DesignClass]] = {}


def classify_builtin(name: str, k: int = 6, t: int = 2, workers: int = 1) -> list[DesignClass]:
    """classify() for a builtin group, cached per (name, k, t); the worker
    count is not part of the key because it cannot affect the result."""
    key = (name, k, t)
    if key not in _CLASSIFY_CACHE:
        _CLASSIFY_CACHE[key] = classify(builtin(name), k, t, workers=workers)
    return _CLASSIFY_CACHE[key]
