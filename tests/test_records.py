"""The package's record classes: fresh mutable defaults, value semantics
where something compares or hashes, and the attributes callers read."""

import pytest

from perfectcover.certificates import (
    StepResult,
    VerificationReport,
    serialize_certificate,
    verify_certificate,
)
from perfectcover.construction import ConstructionCertificate, construct
from perfectcover.errors import InputError
from perfectcover.words import Word


def test_construction_certificates_do_not_share_levels():
    first = ConstructionCertificate((), (), 2, 1, 7, 2, 10)
    second = ConstructionCertificate((), (), 2, 1, 7, 2, 10)
    first.levels.append("level")
    assert second.levels == []
    assert first.gamma is None and first.product is None
    named = ConstructionCertificate(
        family=(), names=(), d=2, k=1, seed=7, budget=2, cap=10, levels=[1]
    )
    assert named.levels == [1] and named.cap == 10


def test_step_results_do_not_share_problems():
    first, second = StepResult("words", True), StepResult("words", True)
    first.problems.append("x")
    assert second.problems == []
    assert StepResult("lifts", False, ["bad"]).problems == ["bad"]


def test_word_is_a_value():
    a = Word(2, ((0, 1), (1, -1)))
    b = Word.make(2, [(0, 1), (1, 1), (1, -1), (1, -1)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Word.empty(2)}) == 2
    assert a != Word(3, a.letters)
    assert a != Word(2, ((0, 1),))
    assert a != (2, a.letters)
    assert len(a) == 2


def test_word_rejects_an_out_of_range_letter():
    with pytest.raises(InputError):
        Word(2, ((5, 1),))
    with pytest.raises(InputError):
        Word(2, ((-1, 1),))


def test_verification_report_exposes_what_callers_read(groups):
    cert = construct((groups["A5"],), d=2, k=1, names=("A5",), seed=7, budget=2)
    report = verify_certificate(serialize_certificate(cert))
    assert report.valid is True and report.message == ""
    assert [(s.name, s.ok) for s in report.steps][0] == ("family", True)
    assert all(s.ok for s in report.steps)
    refused = verify_certificate({"format": "other"})
    assert isinstance(refused, VerificationReport)
    assert (refused.valid, refused.steps) == (False, [])
    assert refused.message == "not a certificate document"
