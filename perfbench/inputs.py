"""Seeded benchmark inputs, built from the library's public API only.

A run repeats its workload body many times. Repetition `rep` of a run with
seed `seed` gets its own relabeling sigma of the points, drawn from
(seed, rep). Conjugating a group's generators by sigma gives the same
abstract action with the points renamed, so the program sees different
generator tuples, different base blocks and a different search order, while
every isomorphism invariant stays fixed: class count, lambda values, block
counts, flag transitivity and certificate digests. That is why one reference
file checks every seed and repetition, and why a cache keyed on the input
cannot carry one repetition's work over to the next. Seed 0, repetition 0 is
the identity relabeling, i.e. the paper's own labels.

The same (seed, rep) also picks the relabelings of the isomorphism pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from blockdesigns.design import Design
from blockdesigns.permcore import PermGroup, Permutation, compose


def relabeling(seed: int, degree: int, rep: int = 0) -> Permutation:
    """A uniformly random point relabeling; identity for seed 0, rep 0."""
    if seed == 0 and rep == 0:
        return Permutation.identity(degree)
    images = list(range(degree))
    random.Random(f"relabel-{seed}-{rep}").shuffle(images)
    return Permutation(images)


def conjugate(G: PermGroup, sigma: Permutation) -> PermGroup:
    """G^sigma: the group acting on the relabeled points, i.e. generators
    sigma^-1 g sigma, which map sigma(p) to sigma(g(p))."""
    inv = sigma.inverse()
    return PermGroup([compose(compose(inv, g), sigma) for g in G.generators])


@dataclass(frozen=True)
class IsoPair:
    """Two designs whose isomorphism is known by construction: `first` is a
    relabeled table row `case`, `second` a relabeled row `partner`
    (1-based)."""

    case: int
    partner: int
    first: Design
    second: Design
    isomorphic: bool


def iso_pairs(designs: dict[int, Design], cases, seed: int, rep: int = 0) -> list[IsoPair]:
    """One pair per (case, partner) in `cases`, with `designs` mapping each
    row to its design. The first design of every pair is relabeled by
    relabeling(seed, v, rep), each second one by its own permutation from
    the same (seed, rep). Table rows are pairwise non-isomorphic, so the
    expected answer is `partner == case`."""
    rng = random.Random(f"pairs-{seed}-{rep}")
    pairs = []
    for case, partner in cases:
        v = designs[case].v
        images = list(range(v))
        rng.shuffle(images)
        pairs.append(
            IsoPair(
                case=case,
                partner=partner,
                first=designs[case].relabel(relabeling(seed, v, rep)),
                second=designs[partner].relabel(Permutation(images)),
                isomorphic=case == partner,
            )
        )
    return pairs
