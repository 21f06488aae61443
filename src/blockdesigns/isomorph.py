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
explored one. "Known" automorphisms are the seeded generators, each verified
on entry, plus any discovered when two leaves encode equally, each extending
the group's chain (PermGroup.extend). Both are checked with
kcombs.block_permutation, and leaves are laid out with kcombs.image_rows:
the one block-image kernel. The skips use the orbits of the pointwise
stabilizer of the individualized prefix: the point stabilizer of its last
point in the parent prefix's stabilizer, memoized by the group itself
(PermGroup.prefix_stabilizer). The pruning group may be prebuilt: a
PermGroup passed as the seed is used as it is, so every certificate seeded
with one group shares its chain and its prefix stabilizers; a discovered
automorphism outside it gives a new group with a memo of its own. Pruning
depends only on the group as a set, so seeding never changes the result. A
search node keeps the union of the orbits of its explored candidates, so
each orbit is computed once per node and stabilizer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from hashlib import sha256

import numpy as np

from .kcombs import block_permutation, image_rows, row_keys
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


def certificate(design, known_automorphisms=()) -> Certificate:
    """Canonical certificate of a design.Design with at most MAX_VERTICES
    points plus blocks.

    known_automorphisms seeds the pruning group: a PermGroup, used as it is
    (its memoized prefix stabilizers shared with every other search it
    seeds), or permutations or image sequences to generate one. Every
    generator is verified to map the block set onto itself before use, so a
    wrong seed raises instead of corrupting the canonical form.
    """
    v, b, k = design.v, design.b, design.k
    if v + b > MAX_VERTICES:
        raise ValueError(f"{v} points + {b} blocks exceeds the {MAX_VERTICES}-vertex bound")

    refiner = _Refiner(v, design.blocks)
    if isinstance(known_automorphisms, PermGroup):
        aut_group, seeds = known_automorphisms, known_automorphisms.generators
    else:
        aut_group = None
        seeds = [g if isinstance(g, Permutation) else Permutation(g) for g in known_automorphisms]
    for g in seeds:
        if g.degree != v:
            raise ValueError("automorphism degree does not match point count")
        if block_permutation(g.images, refiner.rows_arr) is None:
            raise ValueError("seeded permutation is not an automorphism of the design")
    if aut_group is None:
        aut_group = PermGroup(seeds or [Permutation.identity(v)])

    best_data: bytes | None = None
    best_pcol: list[int] | None = None

    def add_automorphism(sigma: Permutation) -> None:
        nonlocal aut_group
        if block_permutation(sigma.images, refiner.rows_arr) is None:
            return  # equal leaf encodings always yield a real automorphism; stay safe anyway
        aut_group = aut_group.extend(sigma)

    def search(pcol: np.ndarray, prefix: tuple[int, ...]) -> None:
        nonlocal best_data, best_pcol
        pcol = refiner.refine(pcol)
        counts = np.bincount(pcol, minlength=int(pcol.max()) + 1)
        nonsingleton = [c for c in np.nonzero(counts > 1)[0]]
        if not nonsingleton:
            plist = pcol.tolist()
            data = _leaf_bytes(v, b, k, refiner.rows_arr, pcol)
            if best_data is None or data < best_data:
                best_data, best_pcol = data, plist
            elif data == best_data and plist != best_pcol:
                inv_best = [0] * v
                for i, c in enumerate(best_pcol):
                    inv_best[c] = i
                add_automorphism(Permutation([inv_best[plist[i]] for i in range(v)]))
            return
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
            search(_individualize(pcol, x), prefix + (x,))
            explored.append(x)

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
