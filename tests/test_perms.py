import pytest
from hypothesis import given, strategies as st

from perfectcover.errors import InputError
from perfectcover.perms import (
    BYTES_MAX_DEGREE,
    Permutation,
    commutator,
    format_cycles,
    parse_cycles,
)


def P(text, degree):
    return parse_cycles(text, degree)


def test_composition_is_left_to_right():
    # (sigma * tau)(i) = tau(sigma(i)): the left factor acts first
    assert P("(1 2)", 3) * P("(1 3)", 3) == P("(1 2 3)", 3)


def test_identity_and_inverse():
    e = Permutation.identity(4)
    p = P("(1 2 3 4)", 4)
    assert p * p.inverse() == e
    assert p.inverse() * p == e
    assert e.is_identity()
    assert not p.is_identity()


def test_pow_and_order():
    p = P("(1 2 3 4)", 4)
    assert p**4 == Permutation.identity(4)
    assert p**-1 == p.inverse()
    assert p.order() == 4
    assert P("(1 2)(3 4 5)", 5).order() == 6


def test_conjugation_convention():
    # x ** y = y^-1 x y: conjugating a cycle relabels its points by y
    x = P("(1 2 3)", 5)
    y = P("(1 4)", 5)
    assert x.conjugate(y) == P("(4 2 3)", 5)


def test_commutator_convention():
    # [x, y] = x^-1 y^-1 x y, frozen on the Klein-four example
    x = P("(1 2)(3 4)", 4)
    y = P("(1 2 3)", 4)
    assert commutator(x, y) == P("(1 3)(2 4)", 4)


def test_rejects_non_bijections():
    for images in ((0, 0, 1), (0, 1, 3), [0, 0], [1, 2]):
        with pytest.raises(InputError):
            Permutation(images)


def test_degree_mismatch():
    with pytest.raises(InputError):
        P("(1 2)", 2) * P("(1 2 3)", 3)


def test_cycle_parsing():
    assert tuple(P("(1 2 3)(4 5)", 5).images) == (1, 2, 0, 4, 3)
    assert P("()", 3) == Permutation.identity(3)
    with pytest.raises(InputError):
        P("(1 2 2)", 3)
    with pytest.raises(InputError):
        P("(1 9)", 3)
    with pytest.raises(InputError):
        P("(1 2) junk", 3)
    with pytest.raises(InputError):
        P("", 3)


@pytest.mark.parametrize("text", ["(1 2)(1 2 3)", "(1 2)(2 3)", "(1)(1 2)", "(3 1)(2)(1 2)"])
def test_point_in_two_cycles_rejected(text):
    # each cycle wrote its own images, so "(1 2)(1 2 3)" read as (1 2 3)
    with pytest.raises(InputError, match="earlier cycle"):
        P(text, 3)


def test_from_cycles_rejects_a_shared_point():
    with pytest.raises(InputError, match="earlier cycle"):
        Permutation.from_cycles(3, [(0, 1), (1, 2)])
    assert Permutation.from_cycles(4, [(0, 1), (), (2, 3)]) == P("(1 2)(3 4)", 4)


def test_format_cycles():
    assert format_cycles(Permutation.identity(4)) == "()"
    assert format_cycles(P("(1 2 3)(4 5)", 6)) == "(1 2 3)(4 5)"


perm_strategy = st.permutations(range(6)).map(lambda xs: Permutation(tuple(xs)))


@given(perm_strategy, perm_strategy, perm_strategy)
def test_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(perm_strategy)
def test_inverse_roundtrip(p):
    assert p * p.inverse() == Permutation.identity(6)
    assert p.inverse().inverse() == p


@given(perm_strategy)
def test_format_parse_roundtrip(p):
    assert parse_cycles(format_cycles(p), 6) == p


@given(perm_strategy, perm_strategy)
def test_conjugation_is_automorphism(p, q):
    y = Permutation(tuple(range(1, 6)) + (0,))
    assert (p * q).conjugate(y) == p.conjugate(y) * q.conjugate(y)


@st.composite
def perm_pair(draw, degrees=st.integers(1, 40)):
    degree = draw(degrees)
    return tuple(
        Permutation(draw(st.permutations(range(degree)))) for _ in range(2)
    )


def _by_definition(degree, *factors):
    """Validated product of the factors: each point goes through them left to right."""
    images = []
    for i in range(degree):
        for f in factors:
            i = f(i)
        images.append(i)
    return Permutation(images)


def _inverse_by_definition(p):
    return Permutation([p.images.index(i) for i in range(p.degree)])


def _power_by_definition(p, m):
    """The images of p^m for m >= 0, by squaring; each product point by point."""
    base = tuple(p.images)
    result = tuple(range(p.degree))
    while m:
        if m & 1:
            result = tuple(base[i] for i in result)
        base = tuple(base[i] for i in base)
        m >>= 1
    return result


_PRIMES = [r for r in range(2, 300) if all(r % s for s in range(2, r))]


def _is_order_by_definition(p, k):
    """k is the least positive exponent with p^k the identity: p^k is, and
    p^(k/r) is not for any prime r dividing k.  An order divides degree!, so
    its primes are at most the degree."""
    if k < 1:
        return False
    identity = tuple(range(p.degree))
    primes = [r for r in _PRIMES if k % r == 0]
    rest = k
    for r in primes:
        while rest % r == 0:
            rest //= r
    return (
        rest == 1
        and all(r <= p.degree for r in primes)
        and _power_by_definition(p, k) == identity
        and all(_power_by_definition(p, k // r) != identity for r in primes)
    )


def _stored_form_follows_degree(p):
    expected = bytes if p.degree <= BYTES_MAX_DEGREE else tuple
    return type(p.images) is expected


@given(perm_pair(), st.integers(-5, 5))
def test_fast_path_matches_definitions(pair, n):
    _check_fast_path(pair, n)


@given(perm_pair(st.integers(250, 260)), st.integers(-3, 3))
def test_fast_path_matches_definitions_on_both_storage_forms(pair, n):
    # degrees 250..260 straddle the switch from bytes to tuple storage
    _check_fast_path(pair, n)


def _check_fast_path(pair, n):
    p, q = pair
    d = p.degree
    p_inv, q_inv = _inverse_by_definition(p), _inverse_by_definition(q)
    cases = [
        (p * q, _by_definition(d, p, q)),
        (p.inverse(), p_inv),
        (p.conjugate(q), _by_definition(d, q_inv, p, q)),
        (p**n, _by_definition(d, *[p if n > 0 else p_inv] * abs(n))),
        (commutator(p, q), _by_definition(d, p_inv, q_inv, p, q)),
    ]
    for fast, validated in cases:
        assert fast.images == validated.images
        assert fast == validated
        assert hash(fast) == hash(validated)
        assert len({fast, validated}) == 1
        assert {validated: "v"}[fast] == "v"
        assert _stored_form_follows_degree(fast)
    assert _is_order_by_definition(p, p.order())
    assert (p < q) == (tuple(p.images) < tuple(q.images))
    assert (p <= q) == (tuple(p.images) <= tuple(q.images))
    assert (p < p.inverse()) == (tuple(p.images) < tuple(p.inverse().images))


@pytest.mark.parametrize("degree", [1, 5, 250, 255, 256, 257, 260])
def test_every_constructor_stores_bytes_exactly_up_to_256(degree):
    cycle = tuple(range(degree))
    p = Permutation(list(reversed(range(degree))))
    built = [
        p,
        Permutation(p.images),
        Permutation.identity(degree),
        Permutation.from_cycles(degree, [cycle]),
        parse_cycles("(" + " ".join(str(a + 1) for a in cycle) + ")", degree),
        p * p,
        p.inverse(),
        p**0,
        p**3,
        p**-2,
        p.conjugate(p),
        commutator(p, Permutation.from_cycles(degree, [cycle])),
    ]
    assert all(_stored_form_follows_degree(x) for x in built)
    assert built[3].order() == degree


def test_products_make_no_validating_construction(monkeypatch):
    p = P("(1 2 3 4 5)", 6)
    q = P("(1 6)(2 3)", 6)
    pq = P("(1 3 4 5 6)", 6)
    validated = []
    original = Permutation.__init__

    def counting_init(self, images):
        validated.append(images)
        original(self, images)

    monkeypatch.setattr(Permutation, "__init__", counting_init)
    results = [
        p * q,
        p.inverse(),
        p.conjugate(q),
        commutator(p, q),
        p.order(),
        *(p**n for n in range(-5, 6)),
    ]
    assert validated == []
    assert results[0] == pq
    Permutation([1, 0])
    assert len(validated) == 1
