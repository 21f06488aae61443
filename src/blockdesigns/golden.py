"""Reference data for the degree-36 builtin classifications.

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

# the builtin group names, here rather than in grouplib so that the command
# line can list them without importing numpy
BUILTIN_NAMES = ("psl28_paper36", "pgammal28_paper36")

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
