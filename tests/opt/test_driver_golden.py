"""Golden regression: every driver's trajectory is pinned, not just anneal's.

Regenerating after an intended change: see
``tests/opt/update_driver_golden.py``.
"""

import json

import pytest

from tests.opt.update_driver_golden import (
    DRIVER_GOLDEN_PATH,
    generate_driver_snapshot,
)


@pytest.fixture(scope="module")
def fresh():
    return generate_driver_snapshot()["runs"]


@pytest.fixture(scope="module")
def golden():
    assert DRIVER_GOLDEN_PATH.exists(), \
        "missing driver golden; run tests/opt/update_driver_golden.py"
    return json.loads(DRIVER_GOLDEN_PATH.read_text())["runs"]


def test_same_runs_are_pinned(fresh, golden):
    assert sorted(fresh) == sorted(golden)


@pytest.mark.parametrize("field", ["outcome", "evaluations", "reused"])
def test_driver_runs_unchanged(fresh, golden, field):
    for name, run in golden.items():
        # Round-trip through JSON so tuples compare like the stored lists.
        measured = json.loads(json.dumps(fresh[name][field]))
        assert measured == run[field], name
