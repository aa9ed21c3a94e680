"""The oracle suites' shared loop: fixture spaces and bound rules."""

import pytest

from sheafforms import ParseError, RationalField
from sheafforms.oracles import SUITES, fixture_spaces, run_suite

Q = RationalField()


def test_fixture_spaces_are_built_once():
    spaces = fixture_spaces()
    assert fixture_spaces() is spaces
    assert isinstance(spaces, tuple)
    assert [len(space.opens) for space in spaces] == [2, 3, 4]


@pytest.mark.parametrize("bounds", [{"cases": "3"}, {"cases": True}, {"max_rank": 2.0}])
def test_bounds_must_be_integers(bounds):
    with pytest.raises(ParseError):
        run_suite("reflexivity", 0, Q, bounds)


@pytest.mark.parametrize("suite,least", [
    ("orthosymmetry_dichotomy", 1),
    ("orthogonal_calculus", 1),
    ("reflexivity", 1),
    ("splitting", 1),
    ("gram_schmidt", 2),
    ("witt", 2),
])
def test_max_rank_floor(suite, least):
    with pytest.raises(ParseError):
        run_suite(suite, 0, Q, {"max_rank": least - 1, "cases": 1})
    assert run_suite(suite, 0, Q, {"max_rank": least, "cases": 1})["cases"] == 1


def test_scholium_draws_no_rank():
    assert run_suite("scholium_invertibility", 0, Q, {"max_rank": 0, "cases": 3})["cases"] == 3


@pytest.mark.parametrize("suite", list(SUITES))
def test_zero_cases_allowed_and_negative_refused(suite):
    with pytest.raises(ParseError):
        run_suite(suite, 0, Q, {"cases": -1})
    payload = run_suite(suite, 0, Q, {"cases": 0})
    assert payload["cases"] == 0
    assert payload["status"] == "ok"
    assert ("freeness_gated" in payload) == (suite == "witt")
