import json
import math
import pathlib

import pytest
from conftest import full_product_group

import perfectcover
from perfectcover import groups as groups_module
from perfectcover.certificates import (
    dumps_certificate,
    serialize_certificate,
    verify_certificate,
)
from perfectcover.construction import construct
from perfectcover.errors import InputError, VerificationError
from perfectcover.groupfile import parse_family_file
from perfectcover.groups import PermGroup, mulclose
from perfectcover.perms import Permutation, parse_cycles
from perfectcover.products import (
    DirectProduct,
    Level,
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
        check_s_in_T(None, [s])


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
    check_gamma_perfect(gamma, [A5, A5])
    with pytest.raises(VerificationError, match="projection onto factor 1"):
        check_projections(prod, gamma, [A5, A5])


def test_gamma_check_rejects_a_non_perfect_gamma(groups):
    prod = DirectProduct((groups["S3"],))
    gamma = full_product_group(prod)
    check_projections(prod, gamma, [groups["S3"]])
    with pytest.raises(VerificationError, match="gamma is not perfect"):
        check_gamma_perfect(gamma, [groups["S3"]])


def _copy_witnesses(level, family, k):
    """A fresh Level of the same split holding level's witnesses."""
    fresh = Level(family, k, level.seeds)
    for name in ("m", "words", "lifts", "k_res", "s_res", "q", "cover"):
        setattr(fresh, name, getattr(level, name))
    return fresh


def test_level_bounds_need_witnesses_inside_their_groups(groups):
    # A5 x A5 at k = 1: T = Gamma = A5 x A5, whose chains are bounded by
    # its order once the witnesses are seen to lie in their groups
    family = (groups["A5xA5"],)
    level = construct(family, d=2, k=1, seed=7, budget=2).levels[0]
    assert level.cover_inside and level.delta_q_bound == 3600
    assert level.t_group.chain.bound == level.gamma.chain.bound == 3600
    # the cover tuples swapped: each lies in the other simple factor
    swapped = _copy_witnesses(level, family, 1)
    factor_of, tuples, e, r = level.cover
    swapped.cover = factor_of, [tuples[1], tuples[0]], e, r
    assert not swapped.cover_inside
    assert swapped.t_group.chain.bound is None and swapped.gamma.chain.bound is None
    assert swapped.t_group.order == level.t_group.order
    # a lift outside its member: Delta and Q are not known to lie in the product
    outside = _copy_witnesses(level, family, 1)
    odd = P("(1 2)", groups["A5xA5"].degree)
    outside.lifts = [[odd * level.lifts[0][0], *level.lifts[0][1:]]]
    assert outside.cover_inside and outside.delta_q_bound is None
    assert outside.gamma.chain.bound is None


def test_delta_q_bound_needs_each_q_inside_its_A(groups):
    # SL25 beside E16A5 at k = 2: each q lies in its member's A, so <Delta, Q>
    # is bounded by |SL25| |E16A5|; a lift in place of a q lies outside A
    family = (groups["SL25"], groups["E16A5"])
    level = construct(family, d=2, k=2, seed=7, budget=2).levels[0]
    assert level.delta_q_bound == 120 * 960
    outside = _copy_witnesses(level, family, 2)
    outside.q = [[[level.lifts[0][0], *level.q[0][0][1:]], *level.q[0][1:]], level.q[1]]
    assert outside.q[0][0][0] not in level.A[0]
    assert outside.delta_q_bound is None and not outside.gamma_inside


# ----------------------------------------------------------------------
# The order path: a T or Gamma known to lie in a product, of the product's
# order, is the whole product

ROOT = pathlib.Path(__file__).parent.parent
ORDER_PATH_FAMILIES = [
    (ROOT / "bench" / "families" / "k1-cover.txt", 61),
    (ROOT / "bench" / "families" / "k2-mixed.txt", 2),
    (ROOT / "tests" / "data" / "k1-A5xA5.txt", 2),
    (ROOT / "tests" / "data" / "k2-W2A5.txt", 2),
    (ROOT / "tests" / "data" / "k2-A5xA5-SL25.txt", 2),
]


def _verdict(check, *args):
    """None if the check passes, else its message."""
    try:
        check(*args)
    except VerificationError as exc:
        return str(exc)
    return None


def _verdicts(level, order_path: bool):
    product, gamma = level.product, level.gamma
    t_inside = order_path and level.cover_inside
    gamma_inside = order_path and level.gamma_inside
    return [
        _verdict(check_T, product, level.t_group, level.S, t_inside),
        _verdict(check_gamma_perfect, gamma, level.family, gamma_inside),
        _verdict(check_projections, product, gamma, level.family, gamma_inside),
    ]


@pytest.mark.parametrize(
    "path, budget", ORDER_PATH_FAMILIES, ids=[p.stem for p, _ in ORDER_PATH_FAMILIES]
)
def test_order_path_and_closure_path_agree_on_every_level(path, budget):
    names, members, d, k = parse_family_file(str(path))
    cert = construct(members, d=d, k=k, names=names, seed=7, budget=budget)
    for level in cert.levels:
        # every level of these families takes the order path
        assert level.cover_inside and level.gamma_inside
        assert level.t_group.order == math.prod(S.order for S in level.S)
        assert level.gamma.order == math.prod(G.order for G in level.family)
        assert _verdicts(level, True) == _verdicts(level, False) == [None] * 3


def test_whole_product_with_a_non_perfect_factor_fails(groups):
    A5, S3 = groups["A5"], groups["S3"]
    prod = DirectProduct((A5, S3))
    whole = full_product_group(prod)
    for inside in (True, False):
        with pytest.raises(VerificationError, match="T is not perfect"):
            check_T(prod, whole, [A5, S3], inside)
        with pytest.raises(VerificationError, match="gamma is not perfect"):
            check_gamma_perfect(whole, [A5, S3], inside)
        check_projections(prod, whole, [A5, S3], inside)


def test_proper_subgroup_inside_the_product_takes_the_closure_path(groups):
    A5 = groups["A5"]
    prod = DirectProduct((A5, A5))
    diag = prod.subgroup(
        [prod.element({0: g, 1: g}) for g in A5.generators], bound=3600
    )
    assert diag.order == 60
    check_T(prod, diag, [A5, A5], True)
    # the diagonal's own derived subgroup was taken: the closure path ran
    assert diag.facts["derived"] is diag
    check_gamma_perfect(diag, [A5, A5], True)
    check_projections(prod, diag, [A5, A5], True)
    # A5 x 1 lies in A5 x A5 too, and misses factor 1
    first = prod.subgroup([prod.element({0: g}) for g in A5.generators], bound=3600)
    with pytest.raises(VerificationError, match="semisimple part 1"):
        check_T(prod, first, [A5, A5], True)
    with pytest.raises(VerificationError, match="projection onto factor 1"):
        check_projections(prod, first, [A5, A5], True)


def test_k1_cover_takes_no_derived_subgroup_of_the_product(monkeypatch):
    # seed 7 of bench/families/k1-cover.txt: T and Gamma are both
    # A5 x A6 x PSL27 on 5 + 6 + 8 = 19 points, so T-perfect and
    # gamma-perfect read each member's perfectness, known from
    # admissibility, and take no derived closure on 19 points
    degrees = []
    original = groups_module.derived_subgroup

    def recording(G):
        degrees.append(G.degree)
        return original(G)

    # every package module that binds the name, so no caller escapes
    for module in vars(perfectcover).values():
        if getattr(module, "derived_subgroup", None) is original:
            monkeypatch.setattr(module, "derived_subgroup", recording)
    names, members, d, k = parse_family_file(str(ORDER_PATH_FAMILIES[0][0]))
    cert = construct(members, d=d, k=k, names=names, seed=7, budget=61)
    assert cert.levels[0].product.degree == 19
    assert degrees and 19 not in degrees
    degrees.clear()
    data = json.loads(dumps_certificate(serialize_certificate(cert)))
    assert verify_certificate(data).valid
    assert degrees and 19 not in degrees
