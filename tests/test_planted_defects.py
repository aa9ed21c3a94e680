"""Planted defects, each with the nets that must catch it.

A row plants one defect with `monkeypatch`, leaving the source as it is,
and runs each of its named nets at small bounds. A net catches the defect
when it fails: a tier-1 test that raises, an oracle suite that reports a
counterexample, a scenario that reports `SelfCheckFailed` entries and exits
1. With nothing planted every net passes, so a catch is the defect's doing.

A row names only nets that catch its defect today. A net that stops
catching one fails here; removing a row, or a net from a row, weakens a
check.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import test_modular_agreement as agreement
import test_output_digests as digests
from sheafforms import BilinearForm, PrimeField, RationalField, cli, linalg, symplectic
from sheafforms.oracles import run_suite

TOUR = Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "symplectic_tour.json"
Q, F3, F101 = RationalField(), PrimeField(3), PrimeField(101)
LARGEST = 2**31 - 1


# -- the nets: each returns None when it passes and what it saw when it fails

def _failure(test, *args):
    """A tier-1 test as a net: the exception it raises, if any."""
    try:
        test(*args)
    except Exception as exc:  # an assertion, or a refusal of the library's own
        return f"{type(exc).__name__}: {exc}"[:200]
    return None


def suite(name, field, cases):
    def net():
        payload = run_suite(name, 0, field, {"cases": cases})
        return None if payload["status"] == "ok" else payload["counterexample"]

    net.__name__ = f"{name}/{field.name}"
    return net


def digest(test, field):
    def net():
        return _failure(test, field)

    net.__name__ = f"{test.__name__}/{field.name}"
    return net


def agreement_corpus(test):
    """Every case of the modular agreement corpus at 2^31 - 1: the first
    failure, if any."""
    def net():
        for k in agreement.CASES:
            failure = _failure(test, LARGEST, k)
            if failure:
                return f"case {k}: {failure}"
        return None

    net.__name__ = f"{test.__name__}/{LARGEST}"
    return net


def tour():
    """`symplectic_tour.json` through `cli.main`, in-process so that the
    planted defect reaches it: it passes with exit 0 and no error, and
    catches a defect with exit 1 and `SelfCheckFailed` entries."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["run", str(TOUR)])
    tasks = json.loads(out.getvalue())["tasks"]
    failed = [t["op"] for t in tasks if t.get("error", {}).get("code") == "SelfCheckFailed"]
    if code == 0 and not failed:
        return None
    if code != 1 or not failed:
        raise AssertionError(f"the tour exits {code} with self-check failures in {failed}")
    return f"exit 1, SelfCheckFailed in {failed}"


# -- the defects ----------------------------------------------------------------

def rotated_gram(monkeypatch):
    """Each component pairs on the held Gram matrix of the next one."""
    held = BilinearForm._held_grams

    def rotated(self):
        grams = held(self)
        return grams[1:] + grams[:1]

    monkeypatch.setattr(BilinearForm, "_held_grams", rotated)


def no_midway_reduction(monkeypatch):
    """A packed row is never reduced while it is eliminated."""
    monkeypatch.setattr(linalg, "_headroom", lambda p: 1 << 40)


def failed_congruence(monkeypatch):
    """The completion's certificate P^T G P == A_2n never holds."""
    monkeypatch.setattr(symplectic, "_congruent", lambda *args, **kwargs: None)


def undivided_partner(monkeypatch):
    """A held row divided by a pairing comes back undivided."""
    monkeypatch.setattr(linalg, "held_divide", lambda held, by, field: held)


def shifted_projection(monkeypatch):
    """A projection onto f is off by the first global basis vector of
    f-perp."""
    project = BilinearForm.project

    def shifted(self, f, t):
        p = project(self, f, t)
        perp = self.orthogonal(f).global_basis()
        return p + perp[0].restrict(p.open) if perp else p

    monkeypatch.setattr(BilinearForm, "project", shifted)


DEFECTS = {
    rotated_gram: [
        digest(digests.test_symplectic_outputs_are_byte_identical, Q),
        digest(digests.test_symplectic_outputs_are_byte_identical, F101),
        digest(digests.test_orthogonal_calculus_outputs_are_byte_identical, Q),
        digest(digests.test_orthogonal_calculus_outputs_are_byte_identical, PrimeField(10007)),
        suite("orthosymmetry_dichotomy", F3, 20),
    ],
    no_midway_reduction: [
        agreement_corpus(agreement.test_symplectic_constructions_agree),
        agreement_corpus(agreement.test_calculus_agrees),
    ],
    failed_congruence: [tour],
    undivided_partner: [
        suite(name, field, 2) for name in ("gram_schmidt", "witt") for field in (Q, F3, F101)
    ],
    shifted_projection: [suite("splitting", field, 2) for field in (Q, F3, F101)],
}

ROWS = [
    pytest.param(defect, net, id=f"{defect.__name__}-{net.__name__}")
    for defect, nets in DEFECTS.items() for net in nets
]
NETS = {net.__name__: net for nets in DEFECTS.values() for net in nets}


@pytest.mark.parametrize("net", list(NETS.values()), ids=list(NETS))
def test_every_net_passes_with_nothing_planted(net):
    assert net() is None


@pytest.mark.parametrize("defect, net", ROWS)
def test_every_net_catches_its_planted_defect(defect, net, monkeypatch):
    defect(monkeypatch)
    assert net() is not None, f"{net.__name__} misses {defect.__name__}"
