"""Catalog tables: one row per enum member, a wrong id is a ValueError,
every library enum hashes by identity, every entry point answers exactly
on its catalog domain, and every series converges at each end t = +-1 its
domain admits, also under a term cap, which bounds interior sums only."""

import copy
import enum
import importlib
import math
import pickle
import pkgutil
import re

import pytest

import skewlog
from skewlog import (
    ClosedFormId, DomainError, IdentityId, SeriesId, Status, closed_form,
    coefficient, set_max_terms, sum_series, verify_identity)
from skewlog.catalog import CLOSED_FORMS, SERIES, lookup
from skewlog.closed_forms import _FORMS
from skewlog.series_engine import _SPECS
from skewlog.verifier import _CHECKS


@pytest.mark.parametrize("table,members", [
    (_SPECS, SeriesId), (_FORMS, ClosedFormId), (_CHECKS, IdentityId),
], ids=["series", "closed_forms", "identities"])
def test_one_row_per_member(table, members):
    assert set(table) == set(members)
    assert len(table) == len(members)


@pytest.mark.parametrize("call,valid", [
    (lambda: sum_series("GF_SKEW", 0.1), "SeriesId.GF_SKEW"),
    (lambda: coefficient("GF_SKEW", 3), "SeriesId.GF_SKEW"),
    (lambda: closed_form("EQ2", 0.1), "ClosedFormId.EQ2"),
    (lambda: verify_identity("EQ2"), "IdentityId.EQ2"),
    (lambda: sum_series(ClosedFormId.EQ2, 0.1), "SeriesId.GF_SKEW"),
], ids=["sum_series", "coefficient", "closed_form", "verify_identity",
        "other_enum"])
def test_wrong_id_names_the_valid_ones(call, valid):
    # a name, or a member of another catalog, is not an id
    with pytest.raises(ValueError, match=f"unknown .*; valid ids: .*{valid}"):
        call()


def _library_enums():
    """Every enum with members that a skewlog module defines."""
    found = set()
    for info in pkgutil.iter_modules(skewlog.__path__):
        module = importlib.import_module(f"skewlog.{info.name}")
        found.update(
            obj for obj in vars(module).values()
            if isinstance(obj, enum.EnumMeta) and len(obj)
            and obj.__module__ == module.__name__)
    return sorted(found, key=lambda e: e.__name__)


def test_library_enums_hash_by_identity():
    # rows are looked up by member, so each enum takes object's C-level
    # hash; a member must then survive pickle and copy as itself, and a
    # bad key still gets the list of valid ids
    enums = _library_enums()
    assert {e.__name__ for e in enums} >= {
        "SeriesId", "ClosedFormId", "IdentityId", "Status", "Verdict"}
    for members in enums:
        table = {m: m.value for m in members}
        valid = ", ".join(map(str, members))
        for m in members:
            assert type(m).__hash__ is object.__hash__, m
            assert hash(m) == object.__hash__(m), m
            for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m),
                         copy.deepcopy(m)):
                assert twin is m
            assert lookup(table, m, "id") == m.value
            with pytest.raises(ValueError, match=re.escape(
                    f"unknown id {m.name!r}; valid ids: {valid}")):
                lookup(table, m.name, "id")


def _edge_points(domain):
    """(t, mu, admitted) at the edges of a catalog Domain: t at lo, one ulp
    above it, one ulp below 1 and 1, each with mu 0.5 when mu is taken; and
    mu at -1, one ulp above it, 1 and one ulp above 1, at t = 0.5."""
    lo = domain.lo
    ts = (lo, math.nextafter(lo, 1.0), math.nextafter(1.0, 0.0), 1.0)
    if not domain.mu:
        return [(t, None, lo < t < 1.0 or t in domain.ends) for t in ts]
    mus = (-1.0, math.nextafter(-1.0, 0.0), 1.0, math.nextafter(1.0, 2.0))
    return ([(t, 0.5, lo < t < 1.0 or t in domain.ends) for t in ts]
            + [(0.5, mu, -1.0 < mu <= 1.0) for mu in mus])


@pytest.mark.parametrize("cf", list(ClosedFormId), ids=lambda c: c.name)
def test_closed_forms_answer_exactly_on_their_domain(cf):
    # a point the catalog admits has a finite value; any other point, a
    # bad mu too, is a DomainError that names the form and its domain
    domain = CLOSED_FORMS[cf.name]
    text = re.escape(f"{cf.name} requires {domain}") + "$"
    for t, mu, admitted in _edge_points(domain):
        if admitted:
            assert math.isfinite(closed_form(cf, t, mu)), (t, mu)
        else:
            with pytest.raises(DomainError, match=text):
                closed_form(cf, t, mu)


@pytest.mark.parametrize("sid", list(SeriesId), ids=lambda s: s.name)
def test_series_answer_exactly_on_their_domain(sid):
    # a point the catalog admits is summed (a small term cap keeps the
    # points next to |t| = 1 short); any other point is DIVERGENT_INPUT
    domain = SERIES[sid.name].domain
    set_max_terms(64)
    for t, mu, admitted in _edge_points(domain):
        res = sum_series(sid, t, mu=mu)
        if admitted:
            assert res.status is not Status.DIVERGENT_INPUT, (t, mu)
            assert math.isfinite(res.value), (t, mu)
        else:
            assert res.status is Status.DIVERGENT_INPUT, (t, mu)


ENDPOINTS = [(sid, t) for sid in SeriesId
             for t in SERIES[sid.name].domain.ends if abs(t) == 1.0]


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
