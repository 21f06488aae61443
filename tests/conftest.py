"""Shared fixtures. The two degree-36 classifications are expensive, so they
are computed once per session (classify_builtin memoizes in-process) with
wall times recorded for the runtime acceptance bounds."""

import time
from functools import cache

import pytest
from hypothesis import HealthCheck, settings

from blockdesigns.design import classify_builtin, is_flag_transitive, orbit_design
from blockdesigns.grouplib import builtin
from blockdesigns.kcombs import subset_orbits

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")

TIMINGS: dict[str, float] = {}


@pytest.fixture(scope="session")
def psl_group():
    return builtin("psl28_paper36")


@pytest.fixture(scope="session")
def pgl_group():
    return builtin("pgammal28_paper36")


@pytest.fixture(scope="session")
def six_subset_orbits():
    """subset_orbits(builtin(name), 6) for a builtin name, each group scanned
    at most once per session."""
    return cache(lambda name: subset_orbits(builtin(name), 6))


@pytest.fixture(scope="session")
def psl_classes():
    t0 = time.perf_counter()
    out = classify_builtin("psl28_paper36", 6, 2)
    TIMINGS.setdefault("classify_psl", time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def pgl_classes():
    t0 = time.perf_counter()
    out = classify_builtin("pgammal28_paper36", 6, 2)
    TIMINGS.setdefault("classify_pgl", time.perf_counter() - t0)
    return out


def class_designs(G, classes):
    """Rebuild the orbit design of every class representative."""
    return [orbit_design(G, cls.base) for cls in classes]


@pytest.fixture(scope="session")
def psl_flag_transitive(psl_group, psl_classes):
    """Indices of flag-transitive classes among the 46."""
    return tuple(
        i
        for i, cls in enumerate(psl_classes)
        if is_flag_transitive(psl_group, orbit_design(psl_group, cls.base))
    )


@pytest.fixture(scope="session")
def pgl_flag_transitive(pgl_group, pgl_classes):
    """Indices of flag-transitive classes among the 330, under the full group."""
    return tuple(
        i
        for i, cls in enumerate(pgl_classes)
        if is_flag_transitive(pgl_group, orbit_design(pgl_group, cls.base))
    )
