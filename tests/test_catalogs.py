"""Catalog tables: one row per enum member, and every declared endpoint
rule converges, also under a term cap, which bounds interior sums only."""

import math

import pytest

from skewlog import (
    ClosedFormId, IdentityId, SeriesId, Status, set_max_terms, sum_series)
from skewlog.closed_forms import _FORMS
from skewlog.series_engine import _SPECS
from skewlog.verifier import _CHECKS


@pytest.mark.parametrize("table,members", [
    (_SPECS, SeriesId), (_FORMS, ClosedFormId), (_CHECKS, IdentityId),
], ids=["series", "closed_forms", "identities"])
def test_one_row_per_member(table, members):
    assert set(table) == set(members)
    assert len(table) == len(members)


ENDPOINTS = [(sid, t) for sid, spec in _SPECS.items() for t in spec.endpoints]


@pytest.mark.parametrize("sid,t", ENDPOINTS,
                         ids=[f"{sid.name}@{t:+g}" for sid, t in ENDPOINTS])
def test_endpoint_rules_converge(sid, t, endpoint_values):
    res = sum_series(sid, t, tol=1e-8)
    assert res.status is Status.CONVERGED
    assert res.error_bound <= 1e-8
    # the term cap bounds interior sums only: every rule still converges
    ref = endpoint_values[(sid, t)]
    for cap in (2, 8):
        set_max_terms(cap)
        for tol in (1e-6, 1e-8, 1e-10, 1e-11, 1e-12):
            res = sum_series(sid, t, tol=tol)
            assert res.status is Status.CONVERGED, (cap, tol, res)
            assert abs(res.value - ref) <= res.error_bound + math.ulp(ref), (
                cap, tol, res)
