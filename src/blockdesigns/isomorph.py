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
passed in (the identity group if none), whose generators are each verified
on entry, extended by any automorphism discovered when two leaves encode
equally (PermGroup.extend). Both are checked with
kcombs.block_permutation, and leaves are laid out with kcombs.image_rows:
the one block-image kernel. The skips use the orbits of the pointwise
stabilizer of the individualized prefix: the point stabilizer of its last
point in the parent prefix's stabilizer, memoized by the group itself
(PermGroup.prefix_stabilizer), so every certificate pruned by one group
shares its chain and its prefix stabilizers; a discovered automorphism
outside it gives a new group with a memo of its own. Pruning depends only
on the group as a set, so the group passed in never changes the result. A
search node keeps the union of the orbits of its explored candidates, so
each orbit is computed once per node and stabilizer.

Backjump (McKay and Piperno, Practical graph isomorphism II, 2014): a leaf
that encodes like the best leaf gives an automorphism gamma carrying its
path onto the best leaf's path, since a leaf's coloring determines the
point individualized at each depth. So gamma fixes their common prefix, of
length d, pointwise and maps the current path's node at depth d + 1 onto
the best path's node there, whose subtree is already searched. The search
resumes at depth d: every deeper node returns at once. The abandoned
subtree only repeats leaf encodings already seen, so it holds no leaf less
than the best and no earlier one equal to it: data stays the minimum over
the tree and labeling the first least leaf in depth-first order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from hashlib import sha256

import numpy as np

from .kcombs import BoundError, block_permutation, image_rows, row_keys
from .permcore import PermGroup, Permutation

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


def _unique_rows_inverse(arr: np.ndarray) -> np.ndarray:
    """Lex rank of each row of a 2-d array among its distinct rows: the
    inverse that np.unique(arr, axis=0, return_inverse=True) returns. Entries
    must be non-negative."""
    key = row_keys(arr, int(arr.max(initial=0)) + 1)
    order = np.argsort(key)  # equal rows share a rank, so the sort need not be stable
    srt = key[order]
    ranks = np.zeros(len(arr), dtype=np.intp)
    np.cumsum(srt[1:] != srt[:-1], out=ranks[1:])
    inv = np.empty_like(ranks)
    inv[order] = ranks
    return inv


class _Refiner:
    """Vectorized color refinement for one fixed incidence structure.

    Block signature: sorted point colors of the block's points. Point
    signature: old point color, then sorted incident block colors (padded
    with a sentinel that sorts last, so unequal degrees split). Color ids
    are lex ranks of the signature rows, hence renumbering is monotone and
    cells only ever split; the loop stops when the point color count stops
    growing.
    """

    def __init__(self, v: int, rows):
        self.v = v
        self.b = len(rows)
        self.rows_arr = np.asarray(rows, dtype=np.int64).reshape(self.b, -1)
        # the incidences grouped by point, blocks ascending within a point
        flat = self.rows_arr.ravel()
        order = np.argsort(flat, kind="stable")
        degrees = np.bincount(flat, minlength=v)
        slots = np.arange(len(flat)) - np.repeat(np.cumsum(degrees) - degrees, degrees)
        # pad with block id b; the sentinel color looked up for it sorts last
        self.pb_arr = np.full((v, degrees.max(initial=0)), self.b, dtype=np.int64)
        self.pb_arr[flat[order], slots] = order // self.rows_arr.shape[1]

    def refine(self, pcol: np.ndarray) -> np.ndarray:
        ncol = int(pcol.max()) + 1
        while True:
            bsig = np.sort(pcol[self.rows_arr], axis=1)
            bcol = _unique_rows_inverse(bsig)
            bcol_ext = np.concatenate([bcol, [self.b]])  # sentinel beyond any color id
            psig = np.concatenate(
                [pcol.reshape(-1, 1), np.sort(bcol_ext[self.pb_arr], axis=1)], axis=1
            )
            new = _unique_rows_inverse(psig)
            newncol = int(new.max()) + 1
            if newncol == ncol:
                return pcol
            pcol = new
            ncol = newncol


def _individualize(pcol: np.ndarray, x: int) -> np.ndarray:
    # x becomes a singleton cell immediately before the rest of its old cell
    cx = pcol[x]
    out = pcol + (pcol > cx)
    out[pcol == cx] = cx + 1
    out[x] = cx
    return out


def _leaf_bytes(v: int, b: int, k: int, rows_arr: np.ndarray, pcol: np.ndarray) -> bytes:
    """Incidence bitmap under the discrete labeling pcol: one row per
    canonical point, one column per canonical block, left-aligned bits."""
    bits = np.zeros((v, 8 * ((b + 7) // 8)), dtype=np.uint8)
    bits[image_rows(pcol, rows_arr)[0], np.arange(b)[:, None]] = 1
    return struct.pack(">HIH", v, b, k) + np.packbits(bits, axis=1).tobytes()


def check_vertices(v: int, b: int) -> None:
    """Refuse an incidence structure of more than MAX_VERTICES points plus
    blocks, the largest certificate() searches."""
    if v + b > MAX_VERTICES:
        raise BoundError(f"{v} points + {b} blocks exceeds the {MAX_VERTICES}-vertex bound")


def certificate(design, group: PermGroup | None = None) -> Certificate:
    """Canonical certificate of a design.Design with at most MAX_VERTICES
    points plus blocks.

    group is the pruning group, used as it is (its memoized prefix
    stabilizers shared with every other search it prunes); None means the
    identity group. Every generator is verified to map the block set onto
    itself before use, so a wrong group raises instead of corrupting the
    canonical form.
    """
    v, b, k = design.v, design.b, design.k
    check_vertices(v, b)

    refiner = _Refiner(v, design.blocks)
    aut_group = PermGroup([Permutation.identity(v)]) if group is None else group
    for g in aut_group.generators:
        if g.degree != v:
            raise ValueError("automorphism degree does not match point count")
        if block_permutation(g.images, refiner.rows_arr) is None:
            raise ValueError("group generator is not an automorphism of the design")

    best_data: bytes | None = None
    best_pcol: list[int] | None = None
    best_prefix: tuple[int, ...] = ()

    def add_automorphism(sigma: Permutation) -> bool:
        nonlocal aut_group
        if block_permutation(sigma.images, refiner.rows_arr) is None:
            return False  # equal leaf encodings always yield a real automorphism; stay safe anyway
        aut_group = aut_group.extend(sigma)
        return True

    def search(pcol: np.ndarray, prefix: tuple[int, ...]) -> int:
        """Search the subtree of prefix; return the depth the search resumes
        at: len(prefix) when the subtree is done, less after a backjump."""
        nonlocal best_data, best_pcol, best_prefix
        depth = len(prefix)
        pcol = refiner.refine(pcol)
        counts = np.bincount(pcol, minlength=int(pcol.max()) + 1)
        nonsingleton = [c for c in np.nonzero(counts > 1)[0]]
        if not nonsingleton:
            plist = pcol.tolist()
            data = _leaf_bytes(v, b, k, refiner.rows_arr, pcol)
            if best_data is None or data < best_data:
                best_data, best_pcol, best_prefix = data, plist, prefix
            elif data == best_data and plist != best_pcol:
                inv_best = [0] * v
                for i, c in enumerate(best_pcol):
                    inv_best[c] = i
                if add_automorphism(Permutation([inv_best[plist[i]] for i in range(v)])):
                    # it maps this path onto the best leaf's: back to where they part
                    return next(i for i, (x, y) in enumerate(zip(prefix, best_prefix)) if x != y)
            return depth
        # target cell: smallest non-singleton, earliest in the cell order
        target = min(nonsingleton, key=lambda c: (counts[c], c))
        candidates = [int(i) for i in np.nonzero(pcol == target)[0]]
        explored: list[int] = []
        # union of the stabilizer orbits of explored[:folded], for stab only
        stab, covered, folded = None, set(), 0
        for x in candidates:
            if explored and aut_group.order() > 1:
                current = aut_group.prefix_stabilizer(prefix)
                if current is not stab:
                    stab, covered, folded = current, set(), 0
                for e in explored[folded:]:
                    if e not in covered:
                        covered.update(stab.orbit(e))
                folded = len(explored)
                if x in covered:
                    explored.append(x)
                    continue
            resume = search(_individualize(pcol, x), prefix + (x,))
            if resume < depth:
                return resume
            explored.append(x)
        return depth

    search(np.zeros(v, dtype=np.int64), ())
    return Certificate(best_data, tuple(best_pcol))


def isomorphism_witness(d1, d2):
    """A Permutation mapping d1's points to d2's so blocks map onto blocks,
    or None. Recovered from the two canonical labelings and then verified,
    so a true return value is self-checking."""
    if (d1.v, d1.b, d1.k) != (d2.v, d2.b, d2.k):
        return None
    c1 = certificate(d1)
    c2 = certificate(d2)
    if c1.data != c2.data:
        return None
    inv2 = [0] * d2.v
    for i, c in enumerate(c2.labeling):
        inv2[c] = i
    sigma = Permutation([inv2[c1.labeling[i]] for i in range(d1.v)])
    if d1.relabel(sigma) != d2:
        raise AssertionError("certificates matched but the recovered map is not an isomorphism")
    return sigma


def are_isomorphic(d1, d2) -> bool:
    return isomorphism_witness(d1, d2) is not None
