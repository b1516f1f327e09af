"""The acceptance suite: one test per criterion, at the stated tolerances.

Each test prints and records a single pass/fail line (see the acceptance
criteria section of the terminal summary).  The expensive certificates are
built once and shared between the later criteria.
"""

import copy
import random

from conftest import centralizer_order, criterion, tamper_conjugator, walked_classes

from perfectcover.catalog import CATALOG
from perfectcover.certificates import (
    dumps_certificate,
    serialize_certificate,
    verify_certificate,
)
from perfectcover.construction import construct
from perfectcover.covering import covering_number, sample_generating_tuple
from perfectcover.gmodule import GModule
from perfectcover.groups import (
    PermGroup,
    commutator_subgroup,
    conjugacy_class_of,
    derived_subgroup,
    enumerate_elements,
    is_perfect,
    mulclose,
    normal_closure,
)
from perfectcover.perms import commutator, parse_cycles
from perfectcover.structure import min_generators, normal_subgroups, star_chain
from perfectcover.words import evaluate_word, gaschutz_lift

_CERT_CACHE = {}


def P(text, degree):
    return parse_cycles(text, degree)


def _fresh(name):
    return CATALOG[name].group()


def _k1_family():
    return (_fresh("A5"), _fresh("A6"), _fresh("PSL27")), ("A5", "A6", "PSL27")


def _build(key, family, names, k, seed=7):
    if key not in _CERT_CACHE:
        cert = construct(family, d=2, k=k, names=names, seed=seed)
        _CERT_CACHE[key] = (cert, serialize_certificate(cert))
    return _CERT_CACHE[key]


def get_k1_cert():
    family, names = _k1_family()
    return _build("k1", family, names, k=1)


def get_k2_cert(name):
    family = tuple(_fresh(n) for n in name.split("+"))
    return _build(name, family, tuple(name.split("+")), k=2)


# ----------------------------------------------------------------------


def test_criterion_1_kernel_oracle_equivalence(groups):
    with criterion(1, "stabilizer-chain order equals BFS-closure count", 10):
        for name, G in groups.items():
            assert G.order <= 10**6
            assert G.order == len(mulclose(G.generators, degree=G.degree)), name


def _oracle_star_elements(G):
    """Literal definition of the star subgroup from the normal lattice."""
    normals = [frozenset(enumerate_elements(N)) for N in normal_subgroups(G)]
    gens = list(G.generators)
    result = frozenset(enumerate_elements(G))
    for n_set in normals:
        abelian = all(commutator(a, b) in n_set for a in gens for b in gens)
        proper = len(n_set) < G.order
        maximal = proper and not any(
            n_set < m_set and len(m_set) < G.order for m_set in normals
        )
        if abelian or maximal:
            result = result & n_set
    return result


def test_criterion_2_structure_series(groups):
    with criterion(2, "star series of SL25, A5 and 2^4:A5 are exact", 30):
        expected = {
            "SL25": [120, 2, 1],
            "A5": [60, 1],
            "E16A5": [960, 16, 1],
        }
        for name, orders in expected.items():
            G = groups[name]
            series, level = star_chain(G)
            assert [H.order for H in series] == orders, name
            assert level == len(orders) - 1
            # brute-force cross-check of every step of the series
            for term, nxt in zip(series, series[1:]):
                got = _oracle_star_elements(term)
                assert got == frozenset(enumerate_elements(nxt)), name


def test_criterion_3_gaschutz_lifting_property(groups):
    with criterion(3, "100 random valid lifting instances all succeed", 60):
        rng = random.Random(1003)
        names = list(CATALOG)
        done = 0
        while done < 100:
            G = groups[rng.choice(names)]
            if G.order == 1:
                continue
            normals = normal_subgroups(G)
            N = normals[rng.randrange(len(normals))]
            d = min_generators(G, 3)
            assert d is not None
            k = max(d, 2) + rng.choice((0, 1))
            reps = None
            for _ in range(200):
                cand = [G.sample(rng) for _ in range(k)]
                joined = PermGroup(
                    G.degree, tuple(cand) + tuple(N.generators)
                )
                if joined.order == G.order:
                    reps = cand
                    break
            if reps is None:
                continue
            lifts = gaschutz_lift(G, N, reps, rng=rng)
            assert PermGroup(G.degree, lifts).order == G.order
            for lift, rep in zip(lifts, reps):
                assert lift * rep.inverse() in N
            done += 1


def _module_pairs(groups):
    pairs = []
    for name, G in groups.items():
        for N in normal_subgroups(G):
            if N.order == 1 or N.order > 2**12:
                continue
            gens = N.reduced_generators()
            if all(a * b == b * a for a in gens for b in gens):
                pairs.append((name, G, N))
    return pairs


def test_criterion_4_module_properties(groups):
    with criterion(4, "augmentation submodules behave on all catalog pairs", 60):
        pairs = _module_pairs(groups)
        assert pairs
        for name, G, A in pairs:
            # B = [A, G], computed as the builder and the verifier compute it
            B = commutator_subgroup(G, A, G)
            aug = set(enumerate_elements(B))
            # (a) independence of the generating set, equality with the
            # brute-force commutator span
            extended = tuple(G.generators) + (G.generators[0] * G.generators[-1],)
            for gens in (G.reduced_generators(), extended):
                H = PermGroup(G.degree, gens)
                assert set(enumerate_elements(commutator_subgroup(H, A, H))) == aug, name
            span = {
                commutator(a, g)
                for a in enumerate_elements(A)
                for g in enumerate_elements(G)
            }
            assert set(mulclose(list(span), degree=G.degree)) == aug, name
            # (b) generation from module generators
            M = GModule(G, A)
            from_basis = normal_closure(
                G, [commutator(b, g) for b in M.basis for g in G.generators]
            )
            assert set(enumerate_elements(from_basis)) == aug, name
            # (c) perfect acting group gives a perfect module: [B, G] = B
            if is_perfect(G):
                assert commutator_subgroup(G, B, G).order == B.order, name


def test_criterion_5_covering_number(groups):
    with criterion(5, "covering certificates are exact and satisfy counting", 30):
        A5 = groups["A5"]
        X = conjugacy_class_of(A5, P("(1 2)(3 4)", 5))
        cert = covering_number(A5, X)
        assert cert.e == 2
        assert cert.power_sizes == (15, 60)
        assert len(X) < A5.order  # X^1 is not all of A5
        for name in ("A5", "A6", "PSL27"):
            S = groups[name]
            for cls in walked_classes(S):
                if cls[0].is_identity():
                    continue
                c = covering_number(S, cls)
                assert len(c.normal_set) ** c.e >= S.order, name


def test_criterion_6_centralizer_pigeonhole(groups):
    with criterion(6, "small-centralizer pigeonhole for t in 2..61", 30):
        rng = random.Random(61)
        for name in ("A5", "A6", "PSL27"):
            S = groups[name]
            for t in (2, 3, 5, 9, 17, 33, 61):
                for _ in range(2):
                    gens = sample_generating_tuple(S, t, rng)
                    # |C(m)| = |S| / |m^S|, least over the tuple
                    c, best = min(
                        (S.order // len(conjugacy_class_of(S, m)), i)
                        for i, m in enumerate(gens)
                    )
                    assert c == centralizer_order(S, gens[best]), (name, t)
                    assert c**t <= S.order ** (t - 1), (name, t)


def test_criterion_7_construction_k1():
    with criterion(7, "k=1 family (A5, A6, PSL27): construct and verify", 120):
        cert, data = get_k1_cert()
        report = verify_certificate(data)
        assert report.valid, report.lines()
        gamma = cert.gamma
        assert derived_subgroup(gamma).order == gamma.order
        for j, G in enumerate(cert.family):
            assert cert.product.projection_of(gamma, j).order == G.order


def test_criterion_8_construction_k2():
    for fam_key in ("SL25", "E16A5", "SL25+E16A5"):
        with criterion(8, f"k=2 family ({fam_key}): construct and verify", 300):
            cert, data = get_k2_cert(fam_key)
            report = verify_certificate(data)
            assert report.valid, report.lines()
            # equation (1) coordinatewise at every level, words certified
            for lvl in cert.levels:
                for w in lvl.words:
                    assert w.in_commutator_subgroup
                for j in range(len(lvl.family)):
                    for i in range(lvl.m):
                        lhs = lvl.lifts[j][i] * evaluate_word(
                            lvl.words[i], lvl.lifts[j]
                        ).inverse()
                        assert lhs == lvl.k_res[j][i] * lvl.s_res[j][i]
                        assert lvl.k_res[j][i] in lvl.B[j]
                        assert lvl.s_res[j][i] in lvl.S[j]
            gamma = cert.gamma
            assert derived_subgroup(gamma).order == gamma.order
            for j, G in enumerate(cert.family):
                assert cert.product.projection_of(gamma, j).order == G.order


def test_criterion_9_negative_controls():
    with criterion(9, "tampered certificates rejected at the named steps", 30):
        _, k1_data = get_k1_cert()
        report = verify_certificate(tamper_conjugator(k1_data))
        assert not report.valid
        assert report.failed_steps()[0] == "s-in-T"

        _, e16_data = get_k2_cert("E16A5")
        bad = copy.deepcopy(e16_data)
        # replace q_00 with k_0, another element of A
        factor = next(
            f for lvl in bad["levels"] for f in lvl["factors"] if f["q"] is not None
        )
        assert factor["q"][0][0] != factor["k_res"][0]
        factor["q"][0][0] = factor["k_res"][0]
        report = verify_certificate(bad)
        assert not report.valid
        assert report.failed_steps()[0] == "q-decomposition"

        bad = copy.deepcopy(k1_data)
        bad["levels"][0]["words"][0] = "x1"
        report = verify_certificate(bad)
        assert not report.valid
        assert report.failed_steps()[0] == "words"


def test_criterion_10_determinism():
    with criterion(10, "same seed gives identical bytes, fresh seeds verify", 300):
        _, data = get_k1_cert()
        family, names = _k1_family()
        again = construct(family, d=2, k=1, names=names, seed=7)
        assert dumps_certificate(serialize_certificate(again)) == dumps_certificate(
            data
        )
        family, names = _k1_family()
        other = construct(family, d=2, k=1, names=names, seed=8)
        other_report = verify_certificate(serialize_certificate(other))
        assert other_report.valid
