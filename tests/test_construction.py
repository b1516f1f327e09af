"""The inductive construction on small families."""

import pytest

from perfectcover import products
from perfectcover.construction import (
    construct,
    split_levels,
)
from perfectcover.errors import InternalError, PreconditionError
from perfectcover.groups import derived_subgroup
from perfectcover.words import evaluate_word


def test_split_levels_sl25(groups):
    split = split_levels((groups["SL25"],), k=2)
    assert split.W[0].order == 2
    assert split.A[0].order == 2
    assert split.S[0].order == 1
    assert split.B[0].order == 1
    assert split.qmaps[0].quotient.order == 60


def test_split_levels_a5_k1(groups):
    split = split_levels((groups["A5"],), k=1)
    assert split.W[0].order == 60
    assert split.A[0].order == 1
    assert split.S[0].order == 60


def test_split_levels_e16_k2(groups):
    split = split_levels((groups["E16A5"],), k=2)
    assert split.W[0].order == 16
    assert split.A[0].order == 16
    assert split.S[0].order == 1
    assert split.B[0].order == 16


def test_construct_empty_family():
    cert = construct((), d=2, k=1)
    assert cert.gamma.order == 1
    assert cert.levels == []


def test_construct_rejects_inadmissible_members(groups):
    with pytest.raises(PreconditionError):
        construct((groups["S3"],), d=2, k=2, names=("S3",))
    with pytest.raises(PreconditionError):
        construct((groups["SL25"],), d=2, k=1, names=("SL25",))


def test_construct_rejects_too_small_budget(groups):
    with pytest.raises(PreconditionError):
        construct((groups["A5"],), d=2, k=1, names=("A5",), budget=1)


def test_construct_k1_pair(groups):
    cert = construct(
        (groups["A5"], groups["PSL27"]),
        d=2,
        k=1,
        names=("A5", "PSL27"),
        seed=3,
        budget=2,
    )
    gamma = cert.gamma
    assert derived_subgroup(gamma).order == gamma.order
    product = cert.product
    for j, G in enumerate(cert.family):
        assert product.projection_of(gamma, j).order == G.order
    # at k = 1 the abelian parts are trivial
    lvl = cert.top
    assert all(A.order == 1 for A in lvl.A)


def test_construct_sl25_k2(groups):
    cert = construct((groups["SL25"],), d=2, k=2, names=("SL25",), seed=3, budget=2)
    assert cert.gamma.order == 120
    top = cert.levels[0]
    # exact lifts: the center residues vanish after the congruence correction
    assert all(x.is_identity() for x in top.k_res[0])
    assert all(x.is_identity() for x in top.s_res[0])


def test_equation_one_holds_coordinatewise(groups):
    cert = construct(
        (groups["SL25"], groups["E16A5"]),
        d=2,
        k=2,
        names=("SL25", "E16A5"),
        seed=3,
        budget=2,
    )
    for lvl in cert.levels:
        for j in range(len(lvl.family)):
            for i in range(lvl.m):
                lhs = lvl.lifts[j][i] * evaluate_word(lvl.words[i], lvl.lifts[j]).inverse()
                assert lhs == lvl.k_res[j][i] * lvl.s_res[j][i]
                assert lvl.k_res[j][i] in lvl.B[j]
                assert lvl.s_res[j][i] in lvl.S[j]
        for w in lvl.words:
            assert w.in_commutator_subgroup


def test_mixed_family_q_supported_on_second_coordinate(groups):
    cert = construct(
        (groups["SL25"], groups["E16A5"]),
        d=2,
        k=2,
        names=("SL25", "E16A5"),
        seed=3,
        budget=2,
    )
    top = cert.levels[0]
    # the SL(2,5) coordinate has B = 1, so its q data is trivial and any
    # Q generator lives in the affine coordinate only
    for value in top.q_values:
        assert top.product.project(value, 0).is_identity()


def test_gamma_marked_generators_generate(groups):
    cert = construct((groups["A5"],), d=2, k=1, names=("A5",), seed=3, budget=2)
    lvl = cert.top
    from perfectcover.groups import PermGroup

    marked = [lvl.gamma_gens[i] for i in lvl.marked]
    assert PermGroup(cert.product.degree, marked).order == lvl.gamma.order


def test_construct_deterministic_with_seed(groups):
    from perfectcover.certificates import dumps_certificate, serialize_certificate

    one = construct((groups["A5"],), d=2, k=1, names=("A5",), seed=11, budget=2)
    two = construct((groups["A5"],), d=2, k=1, names=("A5",), seed=11, budget=2)
    assert dumps_certificate(serialize_certificate(one)) == dumps_certificate(
        serialize_certificate(two)
    )


def test_assemble_asserts_Q_by_the_shared_check(groups, monkeypatch):
    # with no Q generators, E16A5's nonzero abelian residues are not in Q
    monkeypatch.setattr(products, "q_values", lambda *args: [])
    with pytest.raises(InternalError, match="nonzero abelian residue with empty Q") as info:
        construct(
            (groups["SL25"], groups["E16A5"]),
            d=2, k=2, names=("SL25", "E16A5"), seed=7, budget=2,
        )
    assert info.traceback[-1].name == "assemble_and_verify"
