"""Ranking, unranking and group-orbit labeling of k-subsets of {0..n-1}.

Subsets are kept as sorted tuples (pure-Python side) or as rows of a
lexicographically ordered (C(n,k), k) array (numpy side). Two rank systems
appear: lexicographic rank, which is the row index in that array and the
order every public iterator follows, and colexicographic rank, which has the
closed form sum C(s[i], i+1) and is what the vectorized code computes; a
precomputed permutation converts colex to lex. Orbit labeling propagates
minimum lex ranks along generator images until stable, so each subset ends
up labeled by the lex rank of the lexicographically least subset in its
orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

from .permcore import PermGroup

# points are stored as uint8 in the k-subset arrays
MAX_POINTS = 255


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


def lex_combinations(n: int, k: int) -> np.ndarray:
    """All k-subsets as a (C(n,k), k) uint8 array; row index = lex rank."""
    if n > MAX_POINTS:
        raise ValueError(f"uint8 point labels require n <= {MAX_POINTS}")
    count = comb(n, k)
    flat = np.fromiter(
        chain.from_iterable(combinations(range(n), k)), dtype=np.uint8, count=count * k
    )
    return flat.reshape(count, k)


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


@dataclass(frozen=True, eq=False)
class SubsetOrbits:
    """Orbit partition of all k-subsets of {0..n-1} under a permutation group.

    labels[r] is the lex rank of the lex-least subset in the orbit of the
    subset of lex rank r. rep_ranks lists the distinct labels ascending;
    sizes aligns with it. members(i) returns the lex ranks of orbit i's
    subsets in ascending order, so rows[members(i)] is a lex-sorted block
    list.
    """

    n: int
    k: int
    rows: np.ndarray
    labels: np.ndarray
    rep_ranks: np.ndarray
    sizes: np.ndarray
    _order: np.ndarray
    _starts: np.ndarray

    @property
    def orbit_count(self) -> int:
        return len(self.rep_ranks)

    def members(self, i: int) -> np.ndarray:
        return self._order[self._starts[i] : self._starts[i + 1]]

    def orbit_rows(self, i: int) -> np.ndarray:
        return self.rows[self.members(i)]


def subset_orbits(G: PermGroup, k: int) -> SubsetOrbits:
    n = G.degree
    count = comb(n, k)
    rows = lex_combinations(n, k)
    table = _colex_table(n, k)
    colex_all = _colex_ranks(rows, table)
    lex_of_colex = np.empty(count, dtype=np.int64)
    lex_of_colex[colex_all] = np.arange(count, dtype=np.int64)

    # one subset-level image map per generator and per inverse generator,
    # so min-label propagation can flow both ways along orbit edges
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
        # pointer jumping: chase labels toward their orbit minimum
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
        n=n,
        k=k,
        rows=rows,
        labels=labels,
        rep_ranks=rep_ranks,
        sizes=sizes,
        _order=order,
        _starts=starts,
    )
