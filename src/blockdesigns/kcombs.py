"""k-subsets of {0..n-1}, their coverage, the block-set check, orbit labels.

Subsets are kept as rows of a lexicographically ordered (C(n,k), k) array.
The lex rank is the row index in that array and the order every public
iterator follows. _sorted_ranks() is the one subset rank: image_ranks()
ranks generator images with it after sorting each row (_lex_ranks()), for
the orbit scan and grouplib.pair_action(), and subset_ranks() ranks the
t-subsets of sorted blocks with it directly (a chunk of blocks at a time
in subset_rank_chunks()), for design.py to test an orbit's base block and
for coverage(), the one count of the blocks through each t-subset, which
design.lambda_of() tests for uniformity and isomorph's lambda_3 spectrum
histograms. It subtracts one column's weights at a time, so a (b, C(k,t))
ranking holds the ranks and one gathered column, not all t.

Rows are ordered by one of two keys. row_keys() keys a row by its entries
in place. unique_rows() lex-orders a block list and makes it unique: one
np.unique of those keys gives the distinct rows in lex order and each
one's first index. Both orbit-design passes go through it; Design makes
the same np.unique of the keys it keeps, unless they already ascend.
same_block_set() and refinement's point signatures compare or rank rows by
the same keys. digit_ranks() keys a row as a multiset, by a digit sum over
its entries that orders rows as their sorted copies would be, so rows that
are compared or ranked but not needed sorted (block signatures of
refinement, the block order of a leaf) are never sorted; dense_ranks()
ranks either key.

The block-image check, same_block_set(), maps a lex-sorted block list
through one point permutation and says whether the images are the same
blocks: it sorts the image keys and compares them with the keys a
design.Design holds, ranking nothing. The invariance check of flag
transitivity, the automorphism checks of the certificate search and the
final check of an isomorphism use it. orbit_labels() labels every index by
the least index in its orbit under a list of index permutations,
propagating minima along the maps and their inverses with pointer jumping.

image_ranks() is the one image rank, and needs no search: it gathers the
image points of every row under each generator, in the rows' own dtype,
sorts each row with a min/max network and applies the closed form lex rank
C(n,k) - 1 - sum_i C(n-1-s[i], k-i). In the orbit scan and the pair action
every k-subset is a row, so an image's rank is its row index, and
orbit_labels() labels each subset by the lex rank of the least subset in
its orbit. Lex-sorted rows that are not all k-subsets have ascending ranks
of their own, so np.searchsorted() of an image's rank finds its row. No
stage sorts whole rows or loops over subsets in Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .permcore import BoundError, PermGroup

# lex_combinations builds at most this many k-subsets (classify over the
# C(102, 4) = 4,249,575 of them peaked at 486 MB). It also bounds the
# t-subsets of one block (subset_positions), those subset_rank_chunks ranks
# at a time, both the 3-subsets ranked and the C(m,3) counter (m covered
# points) of an iso spectrum, |G| * k for an orbit pass down the stabilizer
# chain, and degree^2 for a group the CLI builds from --q
MAX_SUBSETS = 5_000_000


def lex_combinations(n: int, k: int) -> np.ndarray:
    """All k-subsets as a (C(n,k), k) array of the least unsigned dtype
    that holds n - 1 (uint8 up to n = 256); row index = lex rank.

    Built column by column, from the last column forward. The lex list of
    j-subsets of {m..n-1} is m prepended to the (j-1)-subsets of
    {m+1..n-1}, followed by the j-subsets of {m+1..n-1}; so the subsets of
    every suffix {y..n-1} are a tail of the list for {k-j..n-1}, the only
    start the last j points of a k-subset need. Size j is that one list,
    C(n-k+j, j) rows, never the subsets of every suffix.
    """
    count = comb(n, k)
    if count > MAX_SUBSETS:
        raise BoundError(f"the {count} {k}-subsets of {n} points exceed the "
                         f"{MAX_SUBSETS}-subset bound")
    dtype = np.min_scalar_type(max(n - 1, 0))
    if not 0 < k <= n:
        return np.zeros((count, k), dtype=dtype)
    cols: list[np.ndarray] = []
    size = 1  # rows of the list for size j - 1
    for j in range(1, k + 1):
        firsts = np.arange(k - j, n - j + 1)
        lengths = np.array([comb(n - 1 - y, j - 1) for y in firsts], dtype=np.int64)
        ends = np.cumsum(lengths)
        if cols:
            # the rows after first point y are the last lengths[y] of the list
            src = np.arange(ends[-1]) - np.repeat(ends - size, lengths)
            cols = [c[src] for c in cols]
        cols.insert(0, np.repeat(firsts.astype(dtype), lengths))
        size = int(ends[-1])
    return np.stack(cols, axis=1)


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


@lru_cache(maxsize=None)
def _lex_weights(n: int, k: int) -> np.ndarray:
    """weights[i, x] = C(n-1-x, k-i) for i <= x <= n-k+i, the points a sorted
    k-subset can hold at i, else 0 (C(67, 33) > 2**63 at n = 68). Read-only."""
    # int64: the weights outgrow int32 well before C(n, k) does, e.g. C(35, 17)
    # in the table for n = 36, k = 34
    weights = np.array([[comb(n - 1 - x, k - i) if i <= x <= n - k + i else 0
                         for x in range(n)] for i in range(k)], dtype=np.int64)
    weights.flags.writeable = False
    return weights


def _lex_ranks(cols: list[np.ndarray], n: int, count: int) -> np.ndarray:
    """Lex ranks of count k-subsets of {0..n-1} given column-wise, in any
    order within a row: sort each row with an odd-even transposition network
    of np.minimum/np.maximum (overwriting the given columns), then rank them
    with _sorted_ranks()."""
    k = len(cols)
    cols = list(cols)
    for step in range(k):
        for i in range(step % 2, k - 1, 2):
            lo = np.minimum(cols[i], cols[i + 1])
            np.maximum(cols[i], cols[i + 1], out=cols[i + 1])
            cols[i] = lo
    return _sorted_ranks(lambda i, table: table[cols[i].astype(np.intp, copy=False)],
                         n, k, (count,))


def _sorted_ranks(lookup, n: int, k: int, shape: tuple[int, ...]) -> np.ndarray:
    """Lex ranks of k-subsets s_0 < ... < s_{k-1} of {0..n-1} as
    C(n,k) - 1 - sum_i C(n-1-s_i, k-i), in the given shape. lookup(i, table)
    returns table[s_i] for every subset; each is subtracted before the next
    is looked up, so the ranks and one such array are held at a time."""
    ranks = np.full(shape, comb(n, k) - 1, dtype=np.int64)
    for i, weights in enumerate(_lex_weights(n, k)):
        ranks -= lookup(i, weights)
    return ranks


@lru_cache(maxsize=None)
def subset_positions(k: int, t: int) -> np.ndarray:
    """The positions of the t-subsets of one k-block, in lex order; a
    permcore.BoundError past MAX_SUBSETS of them. Read-only: every caller shares it."""
    if comb(k, t) > MAX_SUBSETS:
        raise BoundError(f"a block of {k} points has {comb(k, t)} {t}-subsets, more "
                         f"than the {MAX_SUBSETS}-subset bound")
    positions = lex_combinations(k, t)
    positions.flags.writeable = False
    return positions


def subset_ranks(rows: np.ndarray, n: int, t: int) -> np.ndarray:
    """The lex ranks among the t-subsets of {0..n-1} of the C(k,t) t-subsets
    of every row of a (b, k) array of sorted rows, as a (b, C(k,t)) array:
    column j is the j-th t-subset of each row in lex order. The t-subsets of
    a sorted row are sorted, so they are ranked without a sorting network.
    Each weight is looked up on the (b, k) rows and then gathered to the
    t-subset positions, so no (b, C(k,t)) array of points is built."""
    positions = subset_positions(rows.shape[1], t)
    return _sorted_ranks(lambda i, table: table[rows][:, positions[:, i]],
                         n, t, (len(rows), len(positions)))


def subset_rank_chunks(rows: np.ndarray, n: int, t: int):
    """subset_ranks() of rows, at most MAX_SUBSETS ranks (one row's at least) a
    chunk. A row with more t-subsets is refused here, before any chunk."""
    per_chunk = max(1, MAX_SUBSETS // len(subset_positions(rows.shape[1], t)))
    return (subset_ranks(rows[i:i + per_chunk], n, t) for i in range(0, len(rows), per_chunk))


def coverage(rows: np.ndarray, n: int, t: int) -> np.ndarray:
    """How many sorted rows of a (b, k) array hold each t-subset of
    {0..n-1}, by lex rank: bincounts of subset_rank_chunks(), taken first,
    so a row past MAX_SUBSETS t-subsets is refused before the counter."""
    chunks = subset_rank_chunks(rows, n, t)
    counts = np.zeros(comb(n, t), dtype=np.int64)
    for ranks in chunks:
        counts += np.bincount(ranks.ravel(), minlength=len(counts))
    return counts


def row_keys(rows: np.ndarray, bound: int) -> np.ndarray:
    """One scalar per row of a 2-d array with entries in 0..bound-1, ordered
    as the rows are lexicographically and equal exactly when they are: the
    row's value in base bound when bound**width fits an int64, else the row
    as big-endian unsigned bytes, compared whole (np.void)."""
    width = rows.shape[1]
    bound = int(bound)  # a numpy integer power would wrap silently
    if bound**width < 2**63:
        weights = bound ** np.arange(width - 1, -1, -1, dtype=np.int64)
        return rows.astype(np.int64, copy=False) @ weights
    size = next(s for s in (1, 2, 4, 8) if bound <= 256**s)
    raw = np.ascontiguousarray(rows, dtype=f">u{size}")
    return raw.view(f"V{size * width}").ravel()


def unique_rows(rows: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d array with entries in 0..bound-1, in lex
    order, and the index in rows of each one's first copy (np.unique sorts
    the row keys stably when asked for indices)."""
    _, first = np.unique(row_keys(rows, bound), return_index=True)
    return rows[first], first


@lru_cache(maxsize=None)
def _digit_weights(base: int) -> np.ndarray:
    """base**(d-1), ..., base, 1 for the most digits d with base**d <= 2**63,
    negated: the weights of one int64 key word of digit_ranks(). Read-only."""
    digits = 1
    while base ** (digits + 1) <= 2**63:
        digits += 1
    weights = -np.array([base**i for i in range(digits - 1, -1, -1)], dtype=np.int64)
    weights.flags.writeable = False
    return weights


def digit_ranks(members: np.ndarray, labels, count: int,
                most: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Keys, dense ranks and distinct count of the multisets
    labels[members[:, j]], one per column of the 2-d index array members,
    ordered as their sorted rows are lexicographically. Labels lie in
    0..count-1, and no multiset holds more than most copies of one label.

    Of two sorted rows of equal length, the one with more copies of the
    least label whose count differs is the lex-smaller. So minus the
    base-(most+1) number whose digits are the label counts, label 0 the
    most significant, orders the rows exactly, without sorting any: it is
    a sum of one weight per member. A key word holds the digits of as many
    labels as fit an int64; keys[w, j] is word w of multiset j, and the
    words are ranked in turn (dense_ranks()). A point set over n points
    thus takes ceil(n/63) words, whatever its size."""
    keys = _digit_keys(members, labels, count, most)
    return (keys, *dense_ranks(keys))


def _digit_keys(members: np.ndarray, labels, count: int, most: int) -> np.ndarray:
    """The keys of digit_ranks() alone."""
    weights = _digit_weights(most + 1)
    digits = len(weights)
    labels = np.asarray(labels)
    if count <= digits:
        return weights[digits - count:][labels][members].sum(axis=0)[None]
    # each member adds its label's weight to its label's word; one row of
    # members lies in distinct columns, so no index repeats in one addition
    word, digit = np.divmod(labels, digits)
    width = members.shape[1]
    keys = np.zeros(-(-count // digits) * width, dtype=np.int64)
    starts, label_weights, columns = word * width, weights[digit], np.arange(width)
    for row in members:
        keys[starts[row] + columns] += label_weights[row]
    return keys.reshape(-1, width)


def dense_ranks(keys) -> tuple[np.ndarray, int]:
    """For items compared key by key, keys a sequence of equal-length 1-d
    arrays (int or np.void), each item's number of distinct items before
    it, and the number of distinct items."""
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    srt = keys[0][order]
    new = srt[1:] != srt[:-1]
    for key in keys[1:]:
        srt = key[order]
        new |= srt[1:] != srt[:-1]
    ranks = np.zeros(len(order), dtype=np.intp)
    np.cumsum(new, out=ranks[1:])
    out = np.empty_like(ranks)
    out[order] = ranks
    return out, int(ranks[-1]) + 1 if len(ranks) else 0


def same_block_set(images, rows: np.ndarray, keys: np.ndarray) -> bool:
    """True iff the point permutation images maps the blocks of sorted points
    rows onto the block set whose row_keys() over len(images) points are
    keys, in ascending order (design.Design.keys). The image rows are
    sorted and keyed, and their keys sorted: equal keys are equal blocks."""
    images = np.asarray(images)
    image_keys = np.sort(row_keys(np.sort(images[rows], axis=1), len(images)))
    return np.array_equal(image_keys, keys)


def orbit_labels(maps, count: int) -> np.ndarray:
    """For index permutations maps of range(count), the least index in each
    index's orbit under the group they generate. Labels flow along every map
    and its inverse, so the maps need not be closed under inverses."""
    both = []
    for m in maps:
        inverse = np.empty_like(m)
        inverse[m] = np.arange(count)
        both += [m, inverse]
    labels = np.arange(count, dtype=np.int32 if count < 2**31 else np.int64)
    while True:
        for m in both:
            np.minimum(labels, labels.take(m), out=labels)
        # pointer jumping: chase labels toward their orbit minimum
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        # labels equal along every map's edges are constant on each orbit, so
        # each is its orbit's minimum; the inverse edges are the same edges
        if all(np.array_equal(labels.take(m), labels) for m in maps):
            return labels


def image_ranks(G: PermGroup, rows: np.ndarray) -> list[np.ndarray]:
    """Per generator, the lex rank among all k-subsets of {0..G.degree-1} of
    the image of every row of rows, sorted k-subsets of an unsigned dtype
    that holds G.degree - 1 (lex_combinations() gives uint8 up to 256
    points, uint16 beyond). The rows need not be all k-subsets: the ranks
    of any lex-sorted rows ascend, so np.searchsorted() of an image's rank
    in theirs finds its index among them."""
    count, k = rows.shape
    # the image points of every subset, column-wise per generator, of the
    # rows' dtype; numpy gathers faster with an intp index than a narrow one
    images = [np.asarray(g.images, dtype=rows.dtype) for g in G.generators]
    moved: list[list[np.ndarray]] = [[] for _ in images]
    for i in range(k):
        col = rows[:, i].astype(np.intp)
        for img, cols in zip(images, moved):
            cols.append(img[col])
    # free each generator's image points once ranked
    return [_lex_ranks(moved.pop(0), G.degree, count) for _ in range(len(moved))]


def subset_orbits(G: PermGroup, k: int) -> SubsetOrbits:
    rows = lex_combinations(G.degree, k)
    count = len(rows)
    labels = orbit_labels(image_ranks(G, rows), count)

    # a label is the least rank of its orbit, so counting the subsets that
    # are their own label numbers the orbits in ascending representative order
    is_rep = labels == np.arange(count)
    rep_ranks = np.flatnonzero(is_rep)
    orbit_of = (np.cumsum(is_rep) - 1)[labels]
    sizes = np.bincount(orbit_of, minlength=len(rep_ranks))
    # stable sort on the smallest unsigned key: numpy radix-sorts 8- and 16-bit keys
    key = orbit_of.astype(np.min_scalar_type(max(len(rep_ranks) - 1, 0)))
    order = np.argsort(key, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)))
    return SubsetOrbits(
        n=G.degree,
        k=k,
        rows=rows,
        labels=labels,
        rep_ranks=rep_ranks,
        sizes=sizes,
        _order=order,
        _starts=starts,
    )
