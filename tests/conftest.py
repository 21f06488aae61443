"""Shared fixtures. The two degree-36 classifications are expensive, so they
are computed once per session (classify_memo) with wall times recorded for
the runtime acceptance bounds. The memo_classify fixture lends the same memo
to the command line, so an in-process `classify --group` or `verify
--table2` does not classify again."""

import time
from functools import cache

import pytest
from hypothesis import HealthCheck, settings

from blockdesigns import design
from blockdesigns.design import classify, is_flag_transitive, orbit_design
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

_CLASSIFIED: dict = {}


def classify_memo(G, k, t=2, workers=1):
    """design.classify, memoized for the session on (generators, k, t); the
    worker count cannot change the result."""
    key = (tuple(g.images for g in G.generators), k, t)
    if key not in _CLASSIFIED:
        _CLASSIFIED[key] = classify(G, k, t, workers=workers)
    return _CLASSIFIED[key]


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
    out = classify_memo(builtin("psl28_paper36"), 6, 2)
    TIMINGS.setdefault("classify_psl", time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def pgl_classes():
    t0 = time.perf_counter()
    out = classify_memo(builtin("pgammal28_paper36"), 6, 2)
    TIMINGS.setdefault("classify_pgl", time.perf_counter() - t0)
    return out


@pytest.fixture
def memo_classify(monkeypatch, psl_classes):
    """design.classify answering from the session memo, which already holds
    the order-504 classification, for the command line to import."""
    monkeypatch.setattr(design, "classify", classify_memo)


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
