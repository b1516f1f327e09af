import random

import pytest

from perfectcover.errors import VerificationError
from perfectcover.groups import center, enumerate_elements, quotient_action
from perfectcover.homs import Homomorphism
from perfectcover.perms import parse_cycles


def P(text, degree):
    return parse_cycles(text, degree)


def test_identity_hom(groups):
    A5 = groups["A5"]
    phi = Homomorphism(A5, A5, A5.generators)
    assert phi.surjective
    assert phi.apply(P("(1 2 3)", 5)) == P("(1 2 3)", 5)


def test_quotient_hom_sl25(groups):
    SL = groups["SL25"]
    qmap = quotient_action(SL, center(SL))
    Q = qmap.quotient
    phi = Homomorphism(SL, Q, [qmap.apply(g) for g in SL.generators])
    assert phi.surjective
    assert Q.order == 60


def test_swapped_images_rejected(groups):
    A5 = groups["A5"]
    # sending a 5-cycle to a 3-cycle and vice versa is not a homomorphism
    with pytest.raises(VerificationError):
        Homomorphism(A5, A5, (P("(1 2 3)", 5), P("(1 2 3 4 5)", 5)))


def test_wrong_image_count(groups):
    A5 = groups["A5"]
    with pytest.raises(VerificationError):
        Homomorphism(A5, A5, (P("(1 2 3)", 5),))


def test_multiplicativity_on_random_pairs(groups):
    SL = groups["SL25"]
    qmap = quotient_action(SL, center(SL))
    phi = Homomorphism(SL, qmap.quotient, [qmap.apply(g) for g in SL.generators])
    elements = enumerate_elements(SL)
    rng = random.Random(11)
    for _ in range(100):
        a, b = rng.choice(elements), rng.choice(elements)
        assert phi.apply(a * b) == phi.apply(a) * phi.apply(b)


def test_non_surjective_hom(groups):
    # collapse S3 onto the sign quotient inside S3 itself
    S3 = groups["S3"]
    phi = Homomorphism(S3, S3, (P("(1 2)", 3), P("()", 3)))
    assert not phi.surjective
