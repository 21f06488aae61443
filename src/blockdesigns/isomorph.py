"""Design isomorphism via canonical labeling of the incidence structure.

certificate() runs individualization-refinement on the bipartite point-block
incidence graph, branching on point cells only: blocks are pairwise distinct
point sets, so a discrete point side forces the block order, and any
incidence isomorphism is determined by its point half. The certificate is
the lexicographically least leaf encoding over the whole search tree, which
makes it relabeling-invariant by construction.

Pruning: a candidate in the target cell is skipped when a known automorphism
fixing all previously individualized points maps an already explored
candidate to it; the skipped subtree then only repeats leaf encodings of the
explored one. The known automorphisms form the pruning group: the group
passed in, whose generators are each verified on entry, or else the
identity group, which needs no check, extended by any automorphism
discovered when two leaves encode equally (PermGroup.extend; see Backjump),
verified likewise. Both checks, and isomorphism_witness's check of the map
it recovers, use kcombs.same_block_set, which compares the sorted keys of
the image rows with design.Design.keys: no block is ranked. Block
signatures and a leaf's block order rank blocks as multisets by
kcombs.digit_ranks, with no row sorted; a point signature is one row, the
old point color ahead of the sorted incident block colors, ranked by its
one kcombs.row_keys key. The skips read the orbit labels of the pointwise
stabilizer of the individualized prefix (PermGroup.pointwise_stabilizer,
PermGroup.orbit_labels), both memoized by the groups themselves, so every
certificate pruned by one group shares its chain, its stabilizers and their
labels; a discovered automorphism outside it gives a new group with memos
of its own. That group only records the automorphism as one more
generator: its stabilizer chain is built when the search first asks it for
a prefix stabilizer, based at that prefix, so no chain is built that the
search does not read (whole-group labels, all the root node asks, come from
the generators, and the search tells a trivial group by its generators). A
search node fetches the labels once, and again only after such an
automorphism replaces the group, and skips a candidate whose label an
explored candidate shares. Pruning depends only on the group as a set, so
the group passed in never changes the result.

Points in no block are interchangeable, so the search branches on none of
them: the root coloring gives the m such points colors 1..m in ascending
order and every other point color 0, as McKay and Piperno put an
input-only distinction into the initial coloring. The leaves are those of
the one-color root, whose refinement puts them last (a signature of
sentinels only; cells only split) and whose first path individualizes
them in ascending order. Pruning stays exact, since every permutation of
them is an automorphism. A search that would nest deeper than
Python's recursion limit (one level per branching point) raises BoundError.

Backjump (McKay and Piperno, Practical graph isomorphism II, 2014): each
leaf that is not a new best is compared with two reference leaves, the
best so far and the first, as nauty does. A leaf that encodes like a
reference leaf with another coloring gives an automorphism gamma carrying
its path onto the reference path, since a leaf's coloring determines the
point individualized at each depth. So gamma fixes their common prefix, of
length d, pointwise and maps the current path's node at depth d + 1 onto
the reference path's node there, an earlier sibling whose subtree is
already searched (the first path's node at each depth is the first child
searched there). The search resumes at depth d: every deeper node returns
at once. The abandoned subtree only repeats leaf encodings already seen,
so it holds no leaf less than the best and no earlier one equal to it:
data stays the minimum over the tree and labeling the first least leaf in
depth-first order. Which automorphisms are known, and so how much of the
tree is skipped, never changes data, labeling or a witness; the first-leaf
test only finds automorphisms sooner.

Refinement stops as soon as no cell can split, skipping the round that
would only confirm it; all three stops are exact. Unit: the one-color
coloring is returned at once when every point has one degree (as in an
orbit design of a transitive group), since every block and every point
then has one signature. Discrete: a coloring with v colors is returned at once;
its next round would give the same array back, since the old color leads
every point signature. Block-stable: from the second round on, if the
block color count did not grow, the coloring is returned before point
signatures are built. Colors are renumbered monotonically, so the new
block partition refines the last one, and an equal count makes it the same
partition; every point then has the signature class of its current color,
and the round would return the coloring unchanged. A refiner allocates its
rounds' arrays once per design: the block colors extended by the sentinel,
and the point signatures.

isomorphism_witness first compares exact invariants, as practical
canonical labeling does before it searches (McKay and Piperno 2014): the
parameters (v, b, k), then the lambda_3 spectra, the histogram of how many
blocks contain each 3-subset of points (Kaski and Ostergard, Classification
Algorithms for Codes and Designs, 2006), read off kcombs.coverage() at
t = 3. Unequal spectra answer "not isomorphic" with no search. The
spectrum is skipped when k < 3 or when the b * C(k,3) 3-subsets of the
blocks, or the C(m,3) counter over the m points the blocks hold, exceed
kcombs.MAX_SUBSETS (m >= 312). A pair that passes is decided as
individualization-refinement decides isomorphism without a canonical form
(McKay and Piperno 2014): d1 is searched only to its first leaf, the first
path, which no pruning or backjump touches; d2 is searched until its first
leaf that encodes like that one. A leaf's encoding is the whole incidence
bitmap under a bijective labeling, so equal encodings give the
isomorphism. If d1 and d2 are isomorphic, d2's tree holds such a leaf,
and pruning and backjumps skip only subtrees whose leaf encodings already
appeared earlier in depth-first order: the witness maps d1's first leaf
to the first such leaf of d2's unpruned tree. If no leaf matches, d2's
search runs to the end and the designs are not isomorphic.
Neither the certificate nor the witness depends on which automorphisms
are found.
"""

from __future__ import annotations

import logging
import struct
import sys
import time
from dataclasses import dataclass
from hashlib import sha256
from math import comb

import numpy as np

from . import kcombs
from .kcombs import BoundError, dense_ranks, digit_ranks, row_keys, same_block_set
from .permcore import PermGroup, Permutation, compose

log = logging.getLogger(__name__)

MAX_VERTICES = 5000


@dataclass(frozen=True)
class Certificate:
    """Canonical encoding of a design plus one labeling that realizes it.

    data is relabeling-invariant: equal for isomorphic designs, unequal
    otherwise. labeling maps original point -> canonical point and is one
    witness, not itself canonical across isomorphic inputs.
    """

    data: bytes
    labeling: tuple[int, ...]

    @property
    def hexdigest(self) -> str:
        return sha256(self.data).hexdigest()


class _Refiner:
    """Vectorized color refinement for the incidence structure of one
    design.Design, read from its block array (rows_arr), the same points
    one block per column (cols), and a point-to-block table built from it
    once (pb_arr).

    Block signature: the multiset of the block's point colors, ranked by
    its digit-sum key (kcombs.digit_ranks), which orders blocks as their
    sorted point colors would be. Point signature: old point color, then
    sorted incident block colors (padded with a sentinel that sorts last,
    so unequal degrees split), one row of the psig buffer, ranked by its
    row key. Color ids are lex ranks of the signatures, hence renumbering
    is monotone and cells only ever split; the loop stops when the point
    color count stops growing, or earlier at a unit, discrete or
    block-stable coloring (see the module docstring).
    """

    def __init__(self, design):
        self.v, self.b, self.rows_arr = design.v, design.b, design.blocks
        self.cols = np.ascontiguousarray(self.rows_arr.T)
        # the incidences grouped by point, blocks ascending within a point
        flat = self.rows_arr.ravel()
        # stable sort on the smallest unsigned key: numpy radix-sorts 8- and 16-bit keys
        order = np.argsort(flat.astype(np.min_scalar_type(self.v - 1)), kind="stable")
        degrees = np.bincount(flat, minlength=self.v)
        slots = np.arange(len(flat)) - np.repeat(np.cumsum(degrees) - degrees, degrees)
        # pad with block id b; the sentinel color looked up for it sorts last
        self.pb_arr = np.full((self.v, degrees.max(initial=0)), self.b, dtype=np.int64)
        self.pb_arr[flat[order], slots] = order // self.rows_arr.shape[1]
        # the unit coloring is equitable when every point has one degree
        self.regular = (degrees == degrees[0]).all()
        self.uncovered = degrees == 0
        # every round's buffers: the block colors and the sentinel, then
        # point signatures, the old point color ahead of the sorted
        # incident block colors; numpy sorts int32 rows about twice as fast
        # as int64 (and 8-bit ones far slower)
        self.bcol_ext = np.empty(self.b + 1, dtype=np.int32)
        self.psig = np.empty((self.v, 1 + self.pb_arr.shape[1]), dtype=np.int32)

    def refine(self, pcol: np.ndarray) -> np.ndarray:
        ncol = int(pcol.max()) + 1
        if ncol == 1 and self.regular:
            return pcol  # its first round would only confirm it
        nbcol = 0  # no block partition yet
        psig, incident = self.psig, self.psig[:, 1:]
        while True:
            _, bcol, newnbcol = digit_ranks(self.cols, pcol, ncol, len(self.cols))
            if newnbcol == nbcol:
                return pcol  # block-stable: no point signature can split a cell
            nbcol = newnbcol
            # sentinel color nbcol, beyond any color id
            self.bcol_ext[:-1] = bcol
            self.bcol_ext[-1] = nbcol
            # a gather copied in measures faster than np.take into the strided view
            incident[...] = self.bcol_ext[self.pb_arr]
            incident.sort(axis=1)
            psig[:, 0] = pcol
            new, newncol = dense_ranks([row_keys(psig, max(ncol, nbcol + 1))])
            if newncol == ncol:
                return pcol
            if newncol == self.v:
                return new  # discrete: nothing left to split
            pcol = new
            ncol = newncol


def _individualize(pcol: np.ndarray, x: int) -> np.ndarray:
    # x becomes a singleton cell immediately before the rest of its old cell
    cx = pcol[x]
    out = pcol + (pcol > cx)
    out[pcol == cx] = cx + 1
    out[x] = cx
    return out


def _leaf_bytes(v: int, b: int, k: int, cols: np.ndarray, pcol: np.ndarray) -> bytes:
    """Incidence bitmap under the discrete labeling pcol of the blocks cols
    (one per column): one row per canonical point, one column per canonical
    block, left-aligned bits. A block's canonical column is the lex rank of
    its image, ranked as a point set (kcombs.digit_ranks)."""
    bits = np.zeros((v, 8 * ((b + 7) // 8)), dtype=np.uint8)
    bits[pcol[cols], digit_ranks(cols, pcol, v, 1)[1]] = 1
    return struct.pack(">HIH", v, b, k) + np.packbits(bits, axis=1).tobytes()


def _label_map(labeling, target) -> Permutation:
    """The permutation taking each point i to the point that target gives
    the canonical label labeling gives i."""
    return compose(Permutation(labeling), Permutation(target).inverse())


def check_vertices(v: int, b: int) -> None:
    """Refuse an incidence structure of more than MAX_VERTICES points plus
    blocks, the largest certificate() searches."""
    if v + b > MAX_VERTICES:
        raise BoundError(f"{v} points + {b} blocks exceeds the {MAX_VERTICES}-vertex bound")


def certificate(design, group: PermGroup | None = None) -> Certificate:
    """Canonical certificate of a design.Design with at most MAX_VERTICES
    points plus blocks.

    group is the pruning group, used as it is (its memoized pointwise
    stabilizers shared with every other search it prunes); None means the
    identity group. Every generator is verified to map the block set onto
    itself before use, so a wrong group raises instead of corrupting the
    canonical form. BoundError past the vertex bound, or for a search that
    would nest deeper than Python's recursion limit.
    """
    return _search(design, group)


def _search(design, group: PermGroup | None, stop=None) -> Certificate:
    """The search behind certificate(). stop, when given, is tested on the
    encoding of every leaf reached: the search ends at the first leaf it
    accepts and returns that leaf; if it accepts none, the search runs to
    the end and returns the certificate."""
    v, b, k = design.v, design.b, design.k
    check_vertices(v, b)

    refiner = _Refiner(design)
    if group is None:
        aut_group = PermGroup([Permutation.identity(v)])
    else:
        aut_group = group
        for g in group.generators:
            if g.degree != v:
                raise ValueError("automorphism degree does not match point count")
            if not same_block_set(g.images, design.blocks, design.keys):
                raise ValueError("group generator is not an automorphism of the design")

    # (data, plist, prefix) of the first leaf and of the least leaf so far
    first = best = None
    nodes = leaves = grown = 0

    def add_automorphism(sigma: Permutation) -> bool:
        nonlocal aut_group, grown
        if not same_block_set(sigma.images, design.blocks, design.keys):
            return False  # equal leaf encodings always yield a real automorphism; stay safe anyway
        extended = aut_group.extend(sigma)
        grown += extended is not aut_group
        aut_group = extended
        return True

    def search(pcol: np.ndarray, prefix: tuple[int, ...]) -> int:
        """Search the subtree of prefix; return the depth the search resumes
        at: len(prefix) when the subtree is done, less after a backjump."""
        nonlocal first, best, nodes, leaves
        depth = len(prefix)
        nodes += 1
        pcol = refiner.refine(pcol)
        counts = np.bincount(pcol)
        nonsingleton = np.flatnonzero(counts > 1)
        if not len(nonsingleton):
            leaves += 1
            data, plist = _leaf_bytes(v, b, k, refiner.cols, pcol), pcol.tolist()
            if first is None:
                first = (data, plist, prefix)
            if stop is not None and stop(data):
                best = (data, plist, prefix)  # the leaf returned
                return -1  # below every depth: each level returns at once
            if best is None or data < best[0]:
                best = (data, plist, prefix)
                return depth
            for ref_data, ref_plist, ref_prefix in (best, first):
                if data == ref_data and plist != ref_plist:
                    if add_automorphism(_label_map(plist, ref_plist)):
                        # it maps this path onto the reference leaf's: back to where they part
                        return next(i for i, (x, y) in enumerate(zip(prefix, ref_prefix)) if x != y)
            return depth
        # target cell: smallest non-singleton, earliest in the cell order (argmin's first)
        target = nonsingleton[np.argmin(counts[nonsingleton])]
        candidates = np.flatnonzero(pcol == target).tolist()
        explored: list[int] = []
        # the orbit labels of the prefix stabilizer in labels_group, None
        # while all its generators are the identity
        labels_group = labels = None
        for x in candidates:
            if explored:
                if aut_group is not labels_group:
                    labels_group, labels = aut_group, None
                    if not all(g.is_identity() for g in aut_group.generators):
                        labels = aut_group.pointwise_stabilizer(prefix).orbit_labels()
                if labels is not None and labels[x] in [labels[e] for e in explored]:
                    explored.append(x)
                    continue
            resume = search(_individualize(pcol, x), prefix + (x,))
            if resume < depth:
                return resume
            explored.append(x)
        return depth

    try:
        # the m points in no block colored 1..m in ascending order, the rest 0
        search(np.cumsum(refiner.uncovered) * refiner.uncovered, ())
    except RecursionError:
        raise BoundError(f"the certificate search of {v} points nests deeper than Python's "
                         f"recursion limit of {sys.getrecursionlimit()}") from None
    if log.isEnabledFor(logging.DEBUG):  # the order may need a chain nothing else reads
        log.debug("search: %d nodes, %d leaves; %d discovered automorphisms grew the pruning "
                  "group, now of order %d", nodes, leaves, grown, aut_group.order())
    return Certificate(best[0], tuple(best[1]))


def _coverage_spectrum(design) -> tuple[int, ...] | None:
    """The lambda_3 spectrum of a design, the histogram of
    kcombs.coverage() at t = 3: entry c counts the 3-subsets of points that
    lie in exactly c blocks. Relabeling the points permutes the 3-subsets,
    so isomorphic designs have equal spectra. A point in no block lies only
    in uncovered 3-subsets, so coverage is counted over the m points some
    block holds, relabeled in order, and the other C(v,3) - C(m,3)
    3-subsets join entry 0. None when k < 3, or when the b * C(k,3)
    subsets of the blocks or the C(m,3) counter exceed kcombs.MAX_SUBSETS."""
    (b, k), v = design.blocks.shape, design.v
    covered = np.bincount(design.blocks.ravel(), minlength=v) > 0
    m = int(covered.sum())
    if k < 3 or max(b * comb(k, 3), comb(m, 3)) > kcombs.MAX_SUBSETS:
        return None
    spectrum = np.bincount(kcombs.coverage((np.cumsum(covered) - 1)[design.blocks], m, 3))
    spectrum[0] += comb(v, 3) - comb(m, 3)
    return tuple(spectrum.tolist())


def isomorphism_witness(d1, d2):
    """A Permutation mapping d1's points to d2's so blocks map onto blocks,
    or None. None at once when the parameters or the lambda_3 spectra
    differ; otherwise recovered from the first leaf of d1's search and the
    first leaf of d2's search that encodes like it, then verified, so a
    true return value is self-checking."""
    if (d1.v, d1.b, d1.k) != (d2.v, d2.b, d2.k):
        return None
    check_vertices(d1.v, d1.b)
    start = time.perf_counter()
    s1 = _coverage_spectrum(d1)
    if s1 is not None and s1 != _coverage_spectrum(d2):
        log.info("iso: the lambda_3 spectra decided: not isomorphic, in %.4f s",
                 time.perf_counter() - start)
        return None
    c1 = _search(d1, None, stop=lambda data: True)
    c2 = _search(d2, None, stop=c1.data.__eq__)
    log.info("iso: the first-leaf search decided: %s, in %.4f s",
             "isomorphic" if c1.data == c2.data else "not isomorphic",
             time.perf_counter() - start)
    if c1.data != c2.data:
        return None
    sigma = _label_map(c1.labeling, c2.labeling)
    if not same_block_set(sigma.images, d1.blocks, d2.keys):
        raise AssertionError("certificates matched but the recovered map is not an isomorphism")
    return sigma


def are_isomorphic(d1, d2) -> bool:
    return isomorphism_witness(d1, d2) is not None
