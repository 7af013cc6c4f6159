import json
import pathlib

import pytest

from skewlog import SeriesId, get_max_terms, set_max_terms, verify_all


@pytest.fixture(autouse=True)
def _restore_term_cap():
    """The CLI honors SKEWLOG_MAX_TERMS by mutating the engine cap; keep that
    from leaking between tests."""
    cap = get_max_terms()
    yield
    set_max_terms(cap)


@pytest.fixture(scope="session")
def full_report():
    """One shared full verification run; building it per-test would dominate runtime."""
    return verify_all()


@pytest.fixture(scope="session")
def endpoint_values():
    """The exact value, rounded to a double, of every series at each end
    t = +-1 that its catalog Domain admits: the golden table's keys
    ["series", id, +-1, null] (tools/make_reference.py, endpoint_keys)."""
    path = pathlib.Path(__file__).parent / "data" / "reference.json"
    out = {}
    for key, (hi, _) in json.loads(path.read_text())["values"].items():
        key = json.loads(key)
        if key[0] == "series" and abs(key[2]) == 1.0:
            out[SeriesId[key[1]], key[2]] = hi
    return out
