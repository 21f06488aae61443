"""Reference data for the degree-36 builtin classifications.

BUILTIN_GENERATORS holds the two builtin groups' generators by name, the
one registry that grouplib.builtin() builds from and the command line lists.

TABLE2 lists, case by case, the 46 base blocks (1-based points) and lambda
values of the 2-(36,6,lambda) designs that are block-transitive under the
psl28_paper36 builtin. The `verify --table2` subcommand checks a freshly
computed classification against this multiset.

PGAMMAL28_LAMBDA_COUNTS freezes the per-lambda class counts of the 330-class
classification under pgammal28_paper36, recorded from the first verified run
of this package and kept since as a regression guard.
"""

from __future__ import annotations

from collections import Counter

# Fixed 36-point generator sets in 1-based cycle text, here rather than in
# grouplib so that the command line can list the names without importing numpy. Degree 36 is the action on
# unordered pairs of the 9-point projective line over GF(8); the labeling is
# the one the tables below are written in.
BUILTIN_GENERATORS: dict[str, tuple[str, ...]] = {
    "psl28_paper36": (
        "(2,3,5,8,13,20,29)(4,7,12,19,11,18,23)(6,10,16,25,28,14,22)"
        "(9,15,24,33,26,17,27)(21,31,32,34,36,35,30)",
        "(1,2,4)(3,6,11)(5,9,7)(8,14,23)(10,17,28)(12,13,21)(15,24,34)"
        "(16,26,31)(18,29,33)(19,20,30)(22,32,36)(25,35,27)",
    ),
    "pgammal28_paper36": (
        "(1,2,4,9,16,24,10)(3,7,6,13,11,19,18)(5,12,20,8,15,14,23)"
        "(17,25,22,28,21,29,27)(26,33,30,34,36,35,31)",
        "(1,3,8)(2,5,6)(4,10,7)(9,17,26)(11,19,14)(12,21,30)(13,22,31)"
        "(15,23,16)(18,27,34)(20,28,33)(24,29,35)(25,32,36)",
        "(1,3,8)(2,6,5)(4,11,15)(7,14,16)(9,18,12)(10,19,23)(13,20,24)"
        "(17,27,21)(22,28,29)(26,34,30)(31,33,35)",
    ),
}
BUILTIN_NAMES = tuple(BUILTIN_GENERATORS)

# case index in the published table = position + 1
TABLE2: tuple[tuple[tuple[int, ...], int], ...] = (
    ((1, 2, 3, 4, 15, 16), 12),
    ((1, 2, 3, 4, 15, 27), 12),
    ((1, 2, 3, 4, 16, 24), 12),
    ((1, 2, 3, 4, 22, 34), 12),
    ((1, 2, 3, 4, 24, 27), 12),
    ((1, 2, 3, 4, 25, 34), 12),
    ((1, 2, 3, 4, 26, 35), 12),
    ((1, 2, 3, 4, 31, 34), 12),
    ((1, 2, 3, 4, 32, 34), 12),
    ((1, 2, 3, 4, 34, 36), 12),
    ((1, 2, 3, 6, 12, 25), 12),
    ((1, 2, 3, 6, 15, 23), 12),
    ((1, 2, 3, 6, 15, 32), 12),
    ((1, 2, 3, 6, 17, 36), 12),
    ((1, 2, 3, 6, 24, 26), 12),
    ((1, 2, 3, 6, 26, 36), 12),
    ((1, 2, 3, 9, 10, 27), 12),
    ((1, 2, 3, 9, 10, 32), 12),
    ((1, 2, 3, 9, 11, 17), 12),
    ((1, 2, 3, 9, 12, 17), 12),
    ((1, 2, 3, 9, 12, 34), 12),
    ((1, 2, 3, 9, 16, 32), 12),
    ((1, 2, 3, 9, 17, 18), 12),
    ((1, 2, 3, 9, 17, 30), 12),
    ((1, 2, 3, 9, 18, 22), 12),
    ((1, 2, 3, 9, 18, 25), 12),
    ((1, 2, 3, 9, 22, 27), 12),
    ((1, 2, 3, 9, 22, 34), 12),
    ((1, 2, 3, 9, 25, 34), 12),
    ((1, 2, 3, 9, 28, 35), 12),
    ((1, 2, 3, 10, 12, 24), 12),
    ((1, 2, 3, 10, 12, 25), 12),
    ((1, 2, 3, 12, 14, 22), 12),
    ((1, 2, 3, 12, 17, 35), 12),
    ((1, 2, 3, 12, 32, 34), 12),
    ((1, 2, 3, 16, 24, 30), 12),
    ((1, 2, 3, 16, 24, 32), 12),
    ((1, 2, 3, 16, 28, 36), 6),
    ((1, 2, 3, 17, 24, 35), 12),
    ((1, 2, 3, 17, 25, 31), 12),
    ((1, 2, 3, 17, 30, 31), 12),
    ((1, 2, 3, 18, 30, 31), 12),
    ((1, 2, 3, 25, 27, 32), 6),
    ((1, 2, 4, 16, 26, 31), 2),
    ((1, 2, 6, 7, 15, 17), 12),
    ((1, 2, 6, 16, 18, 36), 6),
)

# unique flag-transitive case among the 46 (1-based case index)
TABLE2_FLAG_TRANSITIVE_CASE = 44

PGAMMAL28_LAMBDA_COUNTS: dict[int, int] = {
    2: 1,
    6: 4,
    9: 1,
    12: 4,
    18: 11,
    36: 309,
}


def table2_multiset() -> Counter[tuple[tuple[int, ...], int]]:
    """The 46 rows as a multiset of (base block, lambda) pairs."""
    return Counter(TABLE2)
