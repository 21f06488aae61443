"""Block-transitive design toolkit: permutation groups, projective-line
actions, k-subset orbit classification up to isomorphism, and a numeric
elimination sieve for t-(k^2, k, lambda) parameter sets."""

from importlib import import_module

# public name -> (module, attribute), imported on first access (PEP 562) so
# that `import blockdesigns` and the sieve do not load numpy
_EXPORTS = {
    **{name: ("design", name) for name in (
        "Design", "DesignClass", "classify", "count_orbits_burnside",
        "is_flag_transitive", "lambda_of", "orbit_design")},
    **{name: ("grouplib", name) for name in (
        "BUILTIN_NAMES", "builtin", "pair_action", "projective_group")},
    **{name: ("isomorph", name) for name in (
        "are_isomorphic", "certificate", "isomorphism_witness")},
    **{name: ("permcore", name) for name in (
        "PermGroup", "Permutation", "compose", "parse_cycles")},
    "case_catalog": ("sieve", "case_catalog"),
    "evaluate": ("sieve", "evaluate"),
    "sieve_run": ("sieve", "run"),
}


def __getattr__(name: str):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), attr)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = sorted(_EXPORTS)
