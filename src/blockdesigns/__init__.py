"""Block-transitive design toolkit: permutation groups, projective-line
actions, k-subset orbit classification up to isomorphism, and a numeric
elimination sieve for t-(k^2, k, lambda) parameter sets."""

from .design import (
    Design,
    DesignClass,
    classify,
    classify_builtin,
    count_orbits_burnside,
    is_flag_transitive,
    lambda_of,
    lambda_vector,
    orbit_design,
)
from .grouplib import BUILTIN_NAMES, builtin, pair_action, projective_group
from .isomorph import are_isomorphic, certificate, isomorphism_witness
from .permcore import PermGroup, Permutation, compose, group, inverse, parse_cycles
from .sieve import case_catalog, evaluate
from .sieve import run as sieve_run

__version__ = "1.0.0"

__all__ = [
    "BUILTIN_NAMES",
    "Design",
    "DesignClass",
    "PermGroup",
    "Permutation",
    "are_isomorphic",
    "builtin",
    "case_catalog",
    "certificate",
    "classify",
    "classify_builtin",
    "compose",
    "count_orbits_burnside",
    "evaluate",
    "group",
    "inverse",
    "is_flag_transitive",
    "isomorphism_witness",
    "lambda_of",
    "lambda_vector",
    "orbit_design",
    "pair_action",
    "parse_cycles",
    "projective_group",
    "sieve_run",
]
