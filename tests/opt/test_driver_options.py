"""Each driver's accepted option set, written out literally.

``optimize()`` derives the valid options from the drivers' signatures;
these literal sets pin what every driver accepts so a signature change
that adds or loses an option is a visible test change.
"""

import re

import pytest

from repro.circuits import build
from repro.opt import DRIVERS, anneal, beam_search, optimize, random_search
from repro.opt.portfolio import portfolio

RUN_OPTIONS = {"objective", "n_steps", "budgets", "schedulers", "seed",
               "store", "journal", "max_evaluations", "sim_vectors",
               "pm_base", "time_budget", "durability", "progress"}

ACCEPTED = {
    "anneal": RUN_OPTIONS | {"iters", "restarts"},
    "beam": RUN_OPTIONS | {"beam_width"},
    "random": RUN_OPTIONS | {"iters"},
    "portfolio": RUN_OPTIONS | {"iters", "workers", "islands",
                                "migration_every", "archive_size",
                                "front_progress"},
}

FUNCTIONS = {"anneal": anneal, "beam": beam_search, "random": random_search,
             "portfolio": portfolio}

#: SearchSpec knobs a driver without them drops instead of rejecting.
SPEC_KNOBS = {"iters", "restarts", "beam_width", "workers"}


@pytest.fixture(scope="module")
def graph():
    return build("gcd")


def test_every_driver_is_pinned():
    assert set(DRIVERS) == set(ACCEPTED) == set(FUNCTIONS)


@pytest.mark.parametrize("driver", sorted(ACCEPTED))
def test_unknown_option_error_lists_the_accepted_set(graph, driver):
    with pytest.raises(ValueError) as err:
        optimize(graph, driver, n_steps=7, bogus=1)
    message = str(err.value)
    assert "'bogus'" in message and repr(driver) in message
    listed = re.search(r"valid options: (.*)$", message).group(1)
    assert set(listed.split(", ")) == ACCEPTED[driver]


@pytest.mark.parametrize("driver", sorted(ACCEPTED))
def test_foreign_spec_knobs_are_dropped(graph, driver):
    foreign = {knob: 1 for knob in SPEC_KNOBS - ACCEPTED[driver]}
    result = optimize(graph, driver, n_steps=7, seed=0, time_budget=0.0,
                      **foreign)
    assert result.driver == driver


@pytest.mark.parametrize("driver", sorted(ACCEPTED))
def test_direct_calls_reject_foreign_options(graph, driver):
    foreign = sorted(SPEC_KNOBS - ACCEPTED[driver])
    for knob in foreign + ["bogus"]:
        with pytest.raises(TypeError, match=knob):
            FUNCTIONS[driver](graph, n_steps=7, **{knob: 1})
