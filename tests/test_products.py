import pytest
from conftest import full_product_group

from perfectcover.errors import InputError, VerificationError
from perfectcover.groups import PermGroup, mulclose
from perfectcover.perms import Permutation, parse_cycles
from perfectcover.products import (
    DirectProduct,
    check_gamma_perfect,
    check_projections,
    check_Q,
    check_s_in_T,
    check_T,
)


def P(text, degree):
    return parse_cycles(text, degree)


def test_diagonal_subgroup_of_square(groups):
    prod = DirectProduct((groups["A5"], groups["A5"]))
    a = P("(1 2 3 4 5)", 5)
    b = P("(1 2 3)", 5)
    diag = prod.subgroup(
        [prod.element({0: a, 1: a}), prod.element({0: b, 1: b})]
    )
    assert diag.order == len(mulclose(diag.generators, degree=10)) == 60


def test_full_product_of_distinct_simple_factors(groups):
    prod = DirectProduct((groups["A5"], groups["PSL27"]))
    gens = []
    for j, G in enumerate(prod.factors):
        for g in G.generators:
            gens.append(prod.element({j: g}))
    H = prod.subgroup(gens)
    assert H.order == 60 * 168 == 10080


def test_componentwise_pairs_generate_full_product(groups):
    # pairing up the generators coordinatewise still gives the full product
    # for non-isomorphic simple factors
    A5, PSL = groups["A5"], groups["PSL27"]
    prod = DirectProduct((A5, PSL))
    gens = [
        prod.element({0: A5.generators[i], 1: PSL.generators[i]})
        for i in range(2)
    ]
    assert prod.subgroup(gens).order == 10080


def test_single_factor_projection_is_bijective(groups):
    prod = DirectProduct((groups["A5"],))
    H = full_product_group(prod)
    assert H.order == 60
    proj = prod.projection_of(H, 0)
    assert proj.order == 60
    g = P("(1 2 3)", 5)
    assert prod.project(prod.element({0: g}), 0) == g


def test_product_element_arithmetic(groups):
    prod = DirectProduct((groups["A5"], groups["S3"]))
    x = prod.element({0: P("(1 2 3)", 5), 1: P("(1 2)", 3)})
    y = prod.element({0: P("(1 4 5)", 5)})
    z = x * y
    assert prod.project(z, 0) == P("(1 2 3)", 5) * P("(1 4 5)", 5)
    assert prod.project(z, 1) == P("(1 2)", 3)
    assert (x * x.inverse()).is_identity()
    assert x * x.inverse() == prod.identity
    assert prod.element({j: prod.project(x, j) for j in range(2)}) == x
    assert prod.project(y, 1).is_identity()


def test_identity_components_are_dropped(groups):
    prod = DirectProduct((groups["A5"], groups["S3"]))
    x = prod.element({0: Permutation.identity(5), 1: P("(1 2)", 3)})
    assert x == prod.element({1: P("(1 2)", 3)})
    assert prod.element({0: Permutation.identity(5)}) == prod.identity


def test_projection_rejects_block_mixing(groups):
    prod = DirectProduct((groups["S3"], groups["S3"]))
    swap = Permutation((3, 4, 5, 0, 1, 2))
    with pytest.raises(InputError):
        prod.project(swap, 0)


def test_component_degree_checked(groups):
    prod = DirectProduct((groups["A5"], groups["S3"]))
    with pytest.raises(InputError):
        prod.element({0: P("(1 2)", 3)})
    with pytest.raises(InputError):
        prod.element({2: P("(1 2)", 3)})


@pytest.mark.parametrize("degrees", [(200, 50), (200, 56), (200, 57), (250, 10)])
def test_element_and_project_on_both_storage_forms(degrees):
    # a combined degree of 256 or less stores bytes, above it a tuple; each
    # factor keeps its own form
    factors = [
        PermGroup(n, [Permutation.from_cycles(n, [(0, n - 1, 1)])]) for n in degrees
    ]
    prod = DirectProduct(factors)
    off = degrees[0]
    a = Permutation.from_cycles(degrees[0], [(0, 5, 7), (1, degrees[0] - 1)])
    b = Permutation.from_cycles(degrees[1], [(2, 4), (0, 3, degrees[1] - 1)])
    x = prod.element({0: a, 1: b})
    assert tuple(x.images) == tuple(a.images) + tuple(off + i for i in b.images)
    assert tuple(prod.element({1: b}).images) == tuple(range(off)) + tuple(
        off + i for i in b.images
    )
    for g in (x, prod.identity, prod.element({1: b}), x * x, x.inverse()):
        assert type(g.images) is (bytes if sum(degrees) <= 256 else tuple)
    assert prod.project(x, 0) == a and prod.project(x, 1) == b
    assert type(prod.project(x, 0).images) is bytes
    assert type(prod.project(x, 1).images) is bytes
    assert prod.project(prod.identity, 1) == Permutation.identity(degrees[1])
    swap = prod.element({0: Permutation.from_cycles(off, [(0, off - 1)])})
    mixed = swap * Permutation.from_cycles(prod.degree, [(off - 1, off)])
    with pytest.raises(InputError):
        prod.project(mixed, 0)
    with pytest.raises(InputError):
        prod.project(mixed, 1)


# ----------------------------------------------------------------------
# The claim checks that construction and verification share


def test_Q_check_rejects_a_module_Delta_does_not_move(groups):
    # Q = V4 under a trivial Delta: [Q, Delta] = 1 != Q
    V4 = groups["V4"]
    prod = DirectProduct((V4,))
    q_vals = [prod.element({0: g}) for g in V4.generators]
    with pytest.raises(VerificationError, match=r"Q is not equal to \[Q, Delta\]"):
        check_Q(prod, [prod.identity], q_vals, q_vals)


def test_Q_check_needs_every_abelian_residue(groups):
    prod = DirectProduct((groups["A5"],))
    k = prod.element({0: P("(1 2 3)", 5)})
    with pytest.raises(VerificationError, match="nonzero abelian residue with empty Q"):
        check_Q(prod, [prod.identity], [], [k])


def test_s_in_T_check_needs_a_cover_for_a_nontrivial_residue(groups):
    prod = DirectProduct((groups["A5"],))
    s = prod.element({0: P("(1 2 3)", 5)})
    with pytest.raises(VerificationError, match="nontrivial semisimple residue with no T"):
        check_s_in_T(None, [s], prod.subgroup([]))


def test_T_check_rejects_an_abelian_T(groups):
    prod = DirectProduct((groups["A5"],))
    T = prod.subgroup([prod.element({0: P("(1 2 3 4 5)", 5)})])
    with pytest.raises(VerificationError, match="T is not perfect"):
        check_T(prod, T, [groups["A5"]])


def test_T_check_rejects_a_T_that_misses_a_factor(groups):
    A5 = groups["A5"]
    prod = DirectProduct((A5, A5))
    T = prod.subgroup([prod.element({0: g}) for g in A5.generators])
    check_T(prod, T, [A5, PermGroup(5, [])])
    with pytest.raises(VerificationError, match="semisimple part 1"):
        check_T(prod, T, [A5, A5])


def test_projection_check_rejects_a_missed_factor(groups):
    A5 = groups["A5"]
    prod = DirectProduct((A5, A5))
    gamma = prod.subgroup([prod.element({0: g}) for g in A5.generators])
    check_gamma_perfect(gamma)
    with pytest.raises(VerificationError, match="projection onto factor 1"):
        check_projections(prod, gamma, [A5, A5])


def test_gamma_check_rejects_a_non_perfect_gamma(groups):
    prod = DirectProduct((groups["S3"],))
    gamma = full_product_group(prod)
    check_projections(prod, gamma, [groups["S3"]])
    with pytest.raises(VerificationError, match="gamma is not perfect"):
        check_gamma_perfect(gamma)
