import math
import random

import pytest
from conftest import count_permutation_calls

from perfectcover.construction import construct
from perfectcover.covering import (
    CoveringCertificate,
    _LayeredDecomposer,
    covering_number,
    decompose_conjugate_product,
    is_simple_nonabelian,
    pick_small_centralizer_gen,
    product_set,
    sample_generating_tuple,
    semisimple_cover,
)
from perfectcover.errors import InputError, PreconditionError
from perfectcover.perms import Permutation, parse_cycles
from perfectcover.products import _conjugator_element, _cover_element, t_values
from perfectcover.groups import (
    PermGroup,
    centralizer,
    conjugacy_class_of,
    derived_subgroup,
    enumerate_elements,
)


def P(text, degree):
    return parse_cycles(text, degree)


def test_simplicity_detector(groups):
    assert is_simple_nonabelian(groups["A5"])
    assert is_simple_nonabelian(groups["PSL27"])
    assert not is_simple_nonabelian(groups["S3"])
    assert not is_simple_nonabelian(groups["Z4"])
    assert not is_simple_nonabelian(groups["A5xA5"])


def test_product_set_with_identity(groups):
    A5 = groups["A5"]
    Y = conjugacy_class_of(A5, P("(1 2 3)", 5))
    assert product_set([A5.identity], Y) == frozenset(Y)


def test_involution_class_square_covers_a5(groups):
    # exhaustive 15 x 15 products: the square of the involution class is
    # all of A5 (identity, involutions, 3-cycles and 5-cycles all occur)
    A5 = groups["A5"]
    X = conjugacy_class_of(A5, P("(1 2)(3 4)", 5))
    assert len(X) == 15
    square = product_set(X, X)
    assert len(square) == 60
    assert square == frozenset(enumerate_elements(A5))


def test_inverse_class_product_contains_identity(groups):
    A5 = groups["A5"]
    X = conjugacy_class_of(A5, P("(1 2 3 4 5)", 5))
    Y = frozenset(x.inverse() for x in X)
    assert A5.identity in product_set(X, Y)


def test_covering_number_involutions(groups):
    A5 = groups["A5"]
    X = conjugacy_class_of(A5, P("(1 2)(3 4)", 5))
    cert = covering_number(A5, X)
    assert cert.e == 2
    assert cert.power_sizes == (15, 60)


def test_covering_number_whole_group(groups):
    A5 = groups["A5"]
    cert = covering_number(A5, enumerate_elements(A5))
    assert cert.e == 1


def test_covering_number_psl27(groups):
    PSL = groups["PSL27"]
    rep = next(x for x in enumerate_elements(PSL) if x.order() == 7)
    cert = covering_number(PSL, conjugacy_class_of(PSL, rep))
    assert cert.e <= 3
    assert cert.power_sizes[-1] == 168


def test_covering_counting_bound(groups):
    # e * log|X| >= log|S| on every certificate produced over the catalog
    for name in ("A5", "A6", "PSL27"):
        S = groups[name]
        for rep in (c[0] for c in _nontrivial_classes(S)):
            cert = covering_number(S, conjugacy_class_of(S, rep))
            assert cert.e * math.log(len(cert.normal_set)) >= math.log(S.order) - 1e-9


def _nontrivial_classes(S):
    from perfectcover.groups import conjugacy_classes

    return [c for c in conjugacy_classes(S) if not c[0].is_identity()]


def test_covering_number_preconditions(groups):
    A5 = groups["A5"]
    with pytest.raises(PreconditionError):
        covering_number(A5, [A5.identity])
    with pytest.raises(PreconditionError):
        covering_number(A5, [P("(1 2 3)", 5)])  # not closed under conjugation
    S3 = groups["S3"]
    with pytest.raises(PreconditionError):
        covering_number(S3, conjugacy_class_of(S3, P("(1 2)", 3)))


def test_pick_small_centralizer_example(groups):
    A5 = groups["A5"]
    # centralizer orders are 5 (the 5-cycle) and 3 (the 3-cycle)
    assert pick_small_centralizer_gen(A5, A5.generators) == 1


def test_pick_small_centralizer_bound(groups):
    rng = random.Random(23)
    for name in ("A5", "A6", "PSL27"):
        S = groups[name]
        for t in (2, 3, 5):
            gens = sample_generating_tuple(S, t, rng)
            idx = pick_small_centralizer_gen(S, gens)
            c = centralizer(S, gens[idx]).order
            assert c**t <= S.order ** (t - 1)


def test_pick_small_centralizer_rejects_nongenerating(groups):
    A5 = groups["A5"]
    with pytest.raises(PreconditionError):
        pick_small_centralizer_gen(A5, (P("(1 2 3)", 5),))


def test_decompose_trivial(groups):
    A5 = groups["A5"]
    m1 = A5.generators[0]
    rows = decompose_conjugate_product(A5, m1, [m1], 1)
    assert rows == [[A5.identity]]


def test_decompose_identity_two_rounds(groups):
    # identity = m^r1 * m^r2 requires the class of m to contain its inverse
    A5 = groups["A5"]
    m = P("(1 2 3 4 5)", 5)
    assert m.inverse() in conjugacy_class_of(A5, m)
    rows = decompose_conjugate_product(A5, A5.identity, [m], 2)
    value = m.conjugate(rows[0][0]) * m.conjugate(rows[1][0])
    assert value.is_identity()


def test_decompose_with_certificate(groups):
    A5 = groups["A5"]
    X = frozenset({A5.identity})
    from perfectcover.covering import product_set as ps

    for g in A5.generators:
        X = ps(X, conjugacy_class_of(A5, g))
    cert = covering_number(A5, X)
    target = P("(1 2)(3 4)", 5)
    rows = decompose_conjugate_product(A5, target, A5.generators, cert.e)
    value = A5.identity
    for t in range(cert.e):
        for j, m in enumerate(A5.generators):
            value = value * m.conjugate(rows[t][j])
    assert value == target


def test_decompose_infeasible_depth(groups):
    A5 = groups["A5"]
    X = conjugacy_class_of(A5, P("(1 2)(3 4)", 5))
    # depth 1 with a single involution class cannot reach a 5-cycle
    with pytest.raises(PreconditionError):
        decompose_conjugate_product(A5, P("(1 2 3 4 5)", 5), [P("(1 2)(3 4)", 5)], 1)


def test_semisimple_cover_single_factor(groups):
    cov = semisimple_cover((groups["A5"],), budget=2, seed=1)
    assert cov.group.order == 60
    assert derived_subgroup(cov.group).order == cov.group.order


def test_semisimple_cover_two_distinct_factors(groups):
    cov = semisimple_cover((groups["A5"], groups["PSL27"]), budget=2, seed=1)
    assert cov.group.order == 10080
    assert cov.full_product


def test_semisimple_cover_repeated_factor(groups):
    cov = semisimple_cover((groups["A5"], groups["A5"]), budget=2, seed=1)
    assert cov.group.order == 3600
    assert cov.full_product
    for i in range(2):
        assert cov.product.projection_of(cov.group, i).order == 60


def test_semisimple_cover_budget_61(groups):
    cov = semisimple_cover((groups["A5"],), budget=61, seed=1)
    assert len(cov.gens) == 61
    assert cov.group.order == 60


def test_semisimple_cover_validation(groups):
    with pytest.raises(PreconditionError):
        semisimple_cover((groups["A5"],), budget=0)
    with pytest.raises(PreconditionError):
        semisimple_cover((groups["A5"],), budget=62)
    with pytest.raises(PreconditionError):
        semisimple_cover((groups["S3"],), budget=2)
    with pytest.raises(PreconditionError):
        semisimple_cover((), budget=2)


def _embedded(p, degree):
    """p on `degree` points, moving 0..p.degree-1 as p does and fixing the rest."""
    return Permutation(tuple(p.images) + tuple(range(p.degree, degree)))


def test_covering_layer_above_degree_256_matches_degree_5(groups):
    # Above degree 256 images are tuples; the image loops must give the
    # same sets, covering numbers and decompositions as on 5 points.
    A5 = groups["A5"]
    big = PermGroup(300, [_embedded(g, 300) for g in A5.generators])
    assert type(big.identity.images) is tuple
    for rep in (P("(1 2)(3 4)", 5), P("(1 2 3)", 5), P("(1 2 3 4 5)", 5)):
        X = conjugacy_class_of(A5, rep)
        X_big = conjugacy_class_of(big, _embedded(rep, 300))
        assert product_set(X_big, X_big) == {_embedded(y, 300) for y in product_set(X, X)}
        cert, cert_big = covering_number(A5, X), covering_number(big, X_big)
        assert cert_big.power_sizes == cert.power_sizes
        assert cert_big.e == cert.e
    gens = list(A5.generators)
    gens_big = [_embedded(m, 300) for m in gens]
    for target in (P("(1 2)(3 4)", 5), P("(1 5 2)", 5), A5.identity):
        target_big = _embedded(target, 300)
        rows = decompose_conjugate_product(big, target_big, gens_big, 2)
        value = big.identity
        for row in rows:
            for m, r in zip(gens_big, row):
                value = value * m.conjugate(r)
        assert value == target_big
        native = decompose_conjugate_product(A5, target, gens, 2)
        assert rows == [[_embedded(r, 300) for r in row] for row in native]


def test_product_set_rejects_mixed_degrees(groups):
    x5, x6, x300 = P("(1 2 3)", 5), P("(1 2 3)", 6), _embedded(P("(1 2 3)", 5), 300)
    for X, Y in (([x5], [x6]), ([x5], [x5, x6]), ([x5, x6], [x5]), ([x300], [x5])):
        with pytest.raises(InputError):
            product_set(X, Y)


def test_covering_loops_take_no_permutation_products(groups, monkeypatch):
    # product_set and the decomposer's layers run on raw images.
    A6 = groups["A6"]
    classes = _nontrivial_classes(A6)
    gens = [c[0] for c in classes]
    expected = {x * y for x in classes[0] for y in classes[1]}
    calls = count_permutation_calls(monkeypatch)
    assert product_set(classes[0], classes[1]) == expected
    for X, Y in zip(classes, classes[1:]):
        product_set(X, Y)
    assert calls == {"__mul__": 0, "inverse": 0}
    decomposer = _LayeredDecomposer(A6, gens, 2)
    assert decomposer.saturated_at is not None
    assert calls == {"__mul__": 0, "inverse": 0}


def test_t_values_take_no_product_per_value(groups, monkeypatch):
    # T's generators come from image compositions: Permutation products are
    # allowed only in building the conjugator and cover elements themselves.
    names = ("A5", "A6", "PSL27")
    cert = construct(
        tuple(groups[n] for n in names), d=2, k=1, names=names, seed=7, budget=61
    )
    level = cert.levels[-1]
    product, tdata = level.split.product, level.tdata
    args = (product, tdata.factor_of, tdata.tuples, tdata.r, tdata.e)
    g, m = len(tdata.tuples[0]), len(tdata.r)
    reference = {}
    for l in range(m):
        for c in range(g):
            for t in range(tdata.e):
                conj = _conjugator_element(product, tdata.factor_of, tdata.r, l, c, t)
                for c2 in range(g):
                    m_c = _cover_element(product, tdata.factor_of, tdata.tuples, c2)
                    reference.setdefault(conj.inverse() * m_c * conj, None)
    calls = count_permutation_calls(monkeypatch)
    values = t_values(*args)
    assert values == list(reference) == tdata.values
    n_conjugators = m * g * tdata.e
    assert calls["__mul__"] <= n_conjugators + g
    assert calls["__mul__"] < len(values)
    assert calls["inverse"] == 0
