"""The oracle suites' shared loop: fixture spaces and bound rules."""

import pytest

from sheafforms import (
    ParseError,
    PrimeField,
    RationalField,
    SelfCheckFailed,
    linalg,
    oracles,
    symplectic,
)
from sheafforms.bilinear import BilinearForm, OrthogonalSplit
from sheafforms.modules import Submodule
from sheafforms.oracles import MAX_CASES, MAX_RANK, SUITES, fixture_spaces, run_suite

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


@pytest.mark.parametrize("suite", ["gram_schmidt", "scholium_invertibility"])
def test_unknown_bound_key_refused(suite):
    # a misspelt bound would otherwise run the suite's default cases
    with pytest.raises(ParseError) as err:
        run_suite(suite, 0, PrimeField(101), {"case": 1})
    assert err.value.message == "unknown oracle bound 'case' (choices: cases, max_rank)"


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


@pytest.mark.parametrize("suite", [name for name, spec in SUITES.items() if spec.max_rank])
def test_max_rank_ceiling(suite):
    with pytest.raises(ParseError) as err:
        run_suite(suite, 0, Q, {"max_rank": MAX_RANK + 1, "cases": 1})
    assert err.value.message == (
        f"oracle bound 'max_rank' must be at most {MAX_RANK}, got {MAX_RANK + 1}"
    )
    assert run_suite(suite, 0, Q, {"max_rank": MAX_RANK, "cases": 1})["cases"] == 1


def test_cases_ceiling_admits_every_default():
    assert max(spec.cases for spec in SUITES.values()) <= MAX_CASES
    with pytest.raises(ParseError) as err:
        run_suite("scholium_invertibility", 0, PrimeField(3), {"cases": MAX_CASES + 1})
    assert err.value.message == (
        f"oracle bound 'cases' must be at most {MAX_CASES}, got {MAX_CASES + 1}"
    )
    payload = run_suite("scholium_invertibility", 0, PrimeField(3), {"cases": MAX_CASES})
    assert payload["status"] == "ok"


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


def test_scholium_sweeps_only_fields_of_few_sections(monkeypatch):
    # the exhaustive sweep lists every section of every fixture open, p^2 of
    # them on the discrete pair's whole space: only while that is at most
    # 125 (p <= 11), decided before the field's elements are listed
    original = PrimeField.elements

    def elements(field):
        if field.p > 11:
            raise AssertionError(f"listed GF({field.p})")
        return original(field)

    monkeypatch.setattr(PrimeField, "elements", elements)
    for p in (13, 101, 2**31 - 1):
        payload = run_suite("scholium_invertibility", 0, PrimeField(p), {"cases": 0})
        assert payload["cases"] == 0 and payload["status"] == "ok"
    # 1 + 3 + 1 + 3 + 3 + 1 + 3 + 3 + 9 sections over GF(3), as before
    assert run_suite("scholium_invertibility", 0, PrimeField(3), {"cases": 0})["cases"] == 27
    # 11^2 = 121 sections on the widest open: still swept
    assert run_suite("scholium_invertibility", 0, PrimeField(11), {"cases": 0})["cases"] == (
        3 + 5 * 11 + 11**2)


class TestDichotomyRoute:
    """The dichotomy suite counts zero pairs only on fibers of at most 125
    vectors and samples above them, so a large prime field runs in bounded
    memory."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Ranks the counting route ran at; it refuses fibers above 125."""
        ranks = []
        original = oracles.orthosymmetric_by_counting

        def counting(form):
            field, rank = form.module.field, form.module.rank
            if field.p**rank > 125:
                raise AssertionError(f"counted GF({field.p})^{rank}")
            ranks.append(rank)
            return original(form)

        monkeypatch.setattr(oracles, "orthosymmetric_by_counting", counting)
        return ranks

    def test_large_prime_field_samples(self, counted):
        payload = run_suite("orthosymmetry_dichotomy", 0, PrimeField(101))
        assert payload["cases"] == 200
        assert payload["status"] == "ok"
        # 101 vectors at rank 1 are counted; ranks 2 and 3 are sampled
        assert set(counted) == {1} and len(counted) < 200

    def test_small_fibers_still_count(self, counted):
        payload = run_suite("orthosymmetry_dichotomy", 0, PrimeField(5), {"cases": 20})
        assert payload["status"] == "ok"
        assert len(counted) == 20 and 3 in counted


@pytest.mark.parametrize("suite", ["gram_schmidt", "witt"])
def test_failed_self_check_in_a_generator_is_a_counterexample(monkeypatch, suite):
    # `random_symplectic_isometry` checks the isometry it draws; a library
    # that fails that check gives a counterexample, not an exception
    monkeypatch.setattr(symplectic.Isometry, "holds", lambda iso: False)
    payload = run_suite(suite, 0, PrimeField(101), {"cases": 2, "max_rank": 4})
    assert payload["status"] == "counterexample"
    assert payload["cases"] == 2
    assert payload["counterexample"] == {
        "code": "SelfCheckFailed",
        "message": "the random symplectic isometry fails M^T G' M == G",
    }


def test_failed_self_check_in_an_enumerated_case_is_a_counterexample(monkeypatch):
    # the enumerated cases run one at a time too, so one that fails a
    # self-check does not end the sweep
    real = oracles.orthosymmetric_by_counting
    calls = []

    def failing_once(form):
        calls.append(form)
        if len(calls) == 1:
            raise SelfCheckFailed("planted")
        return real(form)

    monkeypatch.setattr(oracles, "orthosymmetric_by_counting", failing_once)
    payload = run_suite("orthosymmetry_dichotomy", 0, PrimeField(3), {"cases": 0})
    assert payload["counterexample"] == {"code": "SelfCheckFailed", "message": "planted"}
    assert payload["cases"] == len(calls) > 1


@pytest.mark.parametrize("field", [PrimeField(101), Q, PrimeField(3)], ids=["GF101", "Q", "GF3"])
def test_splitting_checks_the_complement_by_its_own_routes(monkeypatch, field):
    # a complement of the right dimensions but the wrong space: per
    # component the nullspace of f's echelon rows, the complement for the
    # identity Gram matrix. Its certificate and every projection still pass,
    # so only the intersection with f and the pairings of the two global
    # bases can see it
    real = BilinearForm.orthogonal_split

    def planted(form, f):
        split = real(form, f)
        n = f.module.rank
        wrong = tuple(linalg.held_nullspace(b, n, f.module.field) for b in f._rows)
        return OrthogonalSplit(f, Submodule(f.module, wrong), split.certificate)

    bounds = {"cases": 20, "max_rank": 4}
    passing = run_suite("splitting", 0, field, bounds)
    assert passing["status"] == "ok"
    monkeypatch.setattr(BilinearForm, "orthogonal_split", planted)
    payload = run_suite("splitting", 0, field, bounds)
    assert payload["status"] == "counterexample"
    assert payload["cases"] == passing["cases"] == 20
