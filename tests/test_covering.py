import itertools
import json
import math
import pathlib
import random
import sys

import pytest
from conftest import (
    centralizer_order,
    count_enumerations,
    count_permutation_calls,
    count_sifts,
    product_set,
    walked_classes,
)

from perfectcover import catalog, covering, groups as groups_module, structure
from perfectcover.certificates import (
    dumps_certificate,
    serialize_certificate,
    verify_certificate,
)
from perfectcover.construction import construct
from perfectcover.covering import (
    CoveringCertificate,
    _ClassTable,
    _LayeredDecomposer,
    cover_tuples,
    covering_number,
    decompose_conjugate_product,
    is_simple_nonabelian,
    sample_generating_tuple,
)
from perfectcover.errors import PreconditionError
from perfectcover.groupfile import parse_family_file
from perfectcover.perms import Permutation, kernel, parse_cycles
from perfectcover.products import CoverValues, DirectProduct, check_s_in_T, check_T
from perfectcover.groups import (
    PermGroup,
    conjugacy_class_of,
    conjugation_orbit_images,
    enumerate_elements,
)

FAMILIES = pathlib.Path(__file__).parent.parent / "bench" / "families"


def P(text, degree):
    return parse_cycles(text, degree)


def test_simplicity_detector(groups):
    assert is_simple_nonabelian(groups["A5"])
    assert is_simple_nonabelian(groups["PSL27"])
    assert not is_simple_nonabelian(groups["S3"])
    assert not is_simple_nonabelian(groups["Z4"])
    assert not is_simple_nonabelian(groups["A5xA5"])


def _elements_of(table, K):
    """The elements of the classes K of a class table."""
    return frozenset(Permutation(y) for k in K for y in table.members[k])


def test_product_set_with_identity(groups):
    A5 = groups["A5"]
    table = _ClassTable(A5)
    identity = table.classes_of([A5.identity])
    Y = table.classes_of(conjugacy_class_of(A5, P("(1 2 3)", 5)))
    assert table.product(identity, Y) == table.product(Y, identity) == Y


def test_involution_class_square_covers_a5(groups):
    # the square of the involution class is all of A5 (identity,
    # involutions, 3-cycles and 5-cycles all occur), as the exhaustive
    # 15 x 15 element products confirm
    A5 = groups["A5"]
    table = _ClassTable(A5)
    X = conjugacy_class_of(A5, P("(1 2)(3 4)", 5))
    assert len(X) == 15
    K = table.classes_of(X)
    square = table.product(K, K)
    assert len(square) == 5
    assert _elements_of(table, square) == product_set(X, X)
    assert product_set(X, X) == frozenset(enumerate_elements(A5))


def test_inverse_class_product_contains_identity(groups):
    A5 = groups["A5"]
    table = _ClassTable(A5)
    X = conjugacy_class_of(A5, P("(1 2 3 4 5)", 5))
    Y = [x.inverse() for x in X]
    product = table.product(table.classes_of(X), table.classes_of(Y))
    assert table.number(A5.identity) in product
    assert _elements_of(table, product) == product_set(X, Y)


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
    return [c for c in walked_classes(S) if not c[0].is_identity()]


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
    # |C(m)| = |S| / |m^S|: 5 for the 5-cycle and 3 for the 3-cycle
    A5 = groups["A5"]
    orders = [A5.order // len(conjugacy_class_of(A5, m)) for m in A5.generators]
    assert orders == [5, 3]
    assert orders == [centralizer_order(A5, m) for m in A5.generators]


def test_pick_small_centralizer_bound(groups):
    # a generating t-tuple of a simple group has a member m with
    # |C(m)|^t <= |S|^(t-1): the centralizers meet in the trivial center
    rng = random.Random(23)
    for name in ("A5", "A6", "PSL27"):
        S = groups[name]
        for t in (2, 3, 5):
            gens = sample_generating_tuple(S, t, rng)
            c = min(S.order // len(conjugacy_class_of(S, m)) for m in gens)
            assert c == min(centralizer_order(S, m) for m in gens)
            assert c**t <= S.order ** (t - 1)


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
    for g in A5.generators:
        X = product_set(X, conjugacy_class_of(A5, g))
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
    with pytest.raises(PreconditionError, match="not a product of 1 rounds"):
        decompose_conjugate_product(A5, P("(1 2 3 4 5)", 5), [P("(1 2)(3 4)", 5)], 1)


def test_decompose_rejects_a_target_outside_the_group(groups):
    A5 = groups["A5"]
    with pytest.raises(PreconditionError, match="element is not in the group"):
        decompose_conjugate_product(A5, P("(1 2)", 5), [P("(1 2)(3 4)", 5)], 2)


def _cover_group(factors, budget, seed):
    """The tuples of `cover_tuples` and the subgroup T of the product that
    they generate componentwise, checked as the construction checks T."""
    tuples = cover_tuples(factors, budget, random.Random(seed))
    assert [len(tup) for tup in tuples] == [budget] * len(factors)
    prod = DirectProduct(factors)
    T = prod.subgroup(
        prod.element({i: tup[c] for i, tup in enumerate(tuples)}) for c in range(budget)
    )
    check_T(prod, T, factors)
    return T


def test_semisimple_cover_single_factor(groups):
    assert _cover_group((groups["A5"],), 2, 1).order == 60


def test_semisimple_cover_two_distinct_factors(groups):
    assert _cover_group((groups["A5"], groups["PSL27"]), 2, 1).order == 10080


def test_semisimple_cover_repeated_factor(groups):
    assert _cover_group((groups["A5"], groups["A5"]), 2, 1).order == 3600


def test_semisimple_cover_budget_61(groups):
    assert _cover_group((groups["A5"],), 61, 1).order == 60


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
        assert X_big == [_embedded(y, 300) for y in X]
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


def test_covering_loops_take_no_permutation_products(groups, monkeypatch):
    # the class products and the decomposer's layers run on raw images.
    A6 = groups["A6"]
    classes = _nontrivial_classes(A6)
    gens = [c[0] for c in classes]
    calls = count_permutation_calls(monkeypatch)
    table = _ClassTable(A6)
    powers = table.layers(itertools.repeat(table.classes_of(classes[0])))
    assert [table.size(K) for K in powers[1:]] == [72, 360]
    decomposer = _LayeredDecomposer(table, gens, 2)
    assert len(decomposer.layers[-1]) == len(table.members)
    assert calls == {"__mul__": 0, "inverse": 0}


def test_t_values_take_no_product_per_value(groups, monkeypatch):
    # A level builds each cover element m_c and each distinct conjugator
    # column r_{l,c,t} once as a DirectProduct element; T's generators and
    # the s-in-T row products are composed on images from those values.
    names = ("A5", "A6", "PSL27")
    cert = construct(
        tuple(groups[n] for n in names), d=2, k=1, names=names, seed=7, budget=61
    )
    level = cert.levels[-1]
    product = level.product
    factor_of, tuples, e, r = level.cover
    g, m = len(tuples[0]), len(r)

    def element(parts):
        # simple factors of one member multiply into its component
        comps = {}
        for j, part in zip(factor_of, parts):
            comps[j] = comps[j] * part if j in comps else part
        return product.element(comps)

    cover_elements = [element([tup[c] for tup in tuples]) for c in range(g)]
    columns = {
        (l, c, t): element([rows[t][c] for rows in r[l]])
        for l in range(m)
        for c in range(g)
        for t in range(e)
    }
    reference = {}
    for conj in columns.values():
        for m_c in cover_elements:
            reference.setdefault(conj.inverse() * m_c * conj, None)
    row_products = []
    for l in range(m):
        x = product.identity
        for t in range(e):
            for c in range(g):
                x = x * cover_elements[c].conjugate(columns[l, c, t])
        row_products.append(x)
    distinct = len(set(columns.values()))
    assert (g, m * g * e, distinct) == (61, 122, 5)

    calls = {"element": 0}
    original = DirectProduct.element

    def counting(*args):
        calls["element"] += 1
        return original(*args)

    monkeypatch.setattr(DirectProduct, "element", counting)
    products = count_permutation_calls(monkeypatch)
    values = CoverValues(product, level.cover)
    assert values.t_values() == list(reference) == level.t_values
    assert calls["element"] <= g + distinct
    built = calls["element"]
    assert [values.row_product(l) for l in range(m)] == row_products == level.s_elems
    assert calls["element"] == built
    # the level's own values are shared by T and the s-in-T check
    check_s_in_T(level.cover_values, level.s_elems)
    assert calls["element"] == built
    # every member is simple, so no component is a product of two parts
    assert products == {"__mul__": 0, "inverse": 0}


class _ElementLayerDecomposer:
    """The element-level decomposer the class-level one replaced, kept as
    the reference for which targets are reachable: it stores every layer
    below saturation as a dict from each product to its first (layer i-1
    factor, class member)."""

    def __init__(self, S, gens, e):
        self.S, self.gens, self.e, self.g = S, tuple(gens), e, len(gens)
        self._table, self._compose, self._invert = kernel(S.degree)
        self._ident = S.identity.images
        self.conjugators = [conjugation_orbit_images(S, m) for m in self.gens]
        self.all_elements = {x.images for x in enumerate_elements(S)}
        self.layers = [{self._ident: None}]
        self.saturated_at = None
        for i in range(1, e * self.g + 1):
            cls = [(c, self._table(c)) for c in self.conjugators[(i - 1) % self.g]]
            layer = {}
            for x in self.layers[i - 1]:
                for c, c_table in cls:
                    layer.setdefault(self._compose(x, c_table), (x, c))
            self.layers.append(layer)
            if len(layer) == S.order:
                self.saturated_at = i
                break

    def _layer_contains(self, i, x):
        if self.saturated_at is not None and i >= self.saturated_at:
            return x in self.all_elements
        return x in self.layers[i]

    def _back_step(self, i, x):
        if self.saturated_at is None or i < len(self.layers):
            entry = self.layers[i].get(x)
            if entry is not None:
                return entry
        for c in self.conjugators[(i - 1) % self.g]:
            prev = self._compose(x, self._table(self._invert(c)))
            if self._layer_contains(i - 1, prev):
                return prev, c
        raise AssertionError("back-pointer resolution failed")

    def decompose(self, target):
        total = self.e * self.g
        cur = target.images
        if not self._layer_contains(total, cur):
            raise PreconditionError("not a product of the classes")
        rows = [[self.S.identity] * self.g for _ in range(self.e)]
        for i in range(total, 0, -1):
            prev, used = self._back_step(i, cur)
            t, j = divmod(i - 1, self.g)
            rows[t][j] = Permutation._trusted(self.conjugators[j][used])
            cur = prev
        return rows


@pytest.mark.parametrize("name", ["A5", "A6", "PSL27"])
def test_decompose_agrees_with_element_layer_reference(groups, name):
    # The class layers refuse exactly the targets the stored element layers
    # cannot reach; every row multiplies back to its target, and past
    # saturation every conjugator is the identity (m_j itself qualifies).
    S = groups[name]
    rng = random.Random(1729)
    elements = enumerate_elements(S)
    targets = elements if name == "A5" else rng.sample(elements, 24)
    for size in (2, 3, 61):
        gens = sample_generating_tuple(S, size, rng)
        table = _ClassTable(S)
        for e in (1, 2, 3):
            reference = _ElementLayerDecomposer(S, gens, e)
            decomposer = _LayeredDecomposer(table, gens, e)
            saturated = reference.saturated_at
            if saturated is not None:
                assert len(decomposer.layers) == saturated + 1
            reachable = 0
            for target in targets:
                try:
                    reference.decompose(target)
                except PreconditionError:
                    with pytest.raises(PreconditionError):
                        decomposer.decompose(target)
                    continue
                rows = decomposer.decompose(target)
                product = S.identity
                for t, row in enumerate(rows):
                    for j, r in enumerate(row):
                        product = product * gens[j].conjugate(r)
                        if saturated is not None and t * size + j >= saturated:
                            assert r.is_identity()
                assert product == target
                reachable += 1
            assert reachable > 0


def _element_power_sizes(S, X):
    power, sizes = frozenset(X), [len(X)]
    while len(power) < S.order:
        power = product_set(power, X)
        sizes.append(len(power))
    return tuple(sizes)


@pytest.mark.parametrize("name", ["A5", "A6", "PSL27"])
def test_covering_number_equals_element_powers(groups, name):
    S = groups[name]
    classes = _nontrivial_classes(S)
    subsets = classes + [a + b for i, a in enumerate(classes) for b in classes[i + 1:]]
    for X in subsets:
        cert = covering_number(S, X)
        sizes = _element_power_sizes(S, X)
        assert cert.power_sizes == sizes
        assert cert.e == len(sizes)
        assert cert.normal_set == frozenset(X)


def test_k1_cover_walks_each_factor_once(groups, monkeypatch):
    # seed 7 of bench/families/k1-cover.txt: 3 simple factors, 61 cover
    # generators each.  The decomposers read their conjugators off the
    # class tables, so no generator's class is walked on its own, and a
    # factor's lattice, centre and class table read one walk of its classes.
    orbit_walks = []
    walk_orbit = groups_module.conjugation_orbit_images

    def counting_orbit(S, x):
        # a class walked on its own, not as a step of a walk of all classes
        if sys._getframe(1).f_code.co_name != "conjugacy_classes":
            orbit_walks.append(S.order)
        return walk_orbit(S, x)

    monkeypatch.setattr(groups_module, "conjugation_orbit_images", counting_orbit)
    enumerated = count_enumerations(monkeypatch)
    names = ("A5", "A6", "PSL27")
    family = tuple(catalog.CATALOG[n].group() for n in names)
    construct(family, d=2, k=1, names=names, seed=7, budget=61)
    assert orbit_walks == []
    walks = [order for caller, order, _ in enumerated if caller == "conjugacy_classes"]
    assert sorted(walks) == [60, 168, 360]
    assert not hasattr(covering, "enumerate_elements")
    assert not hasattr(covering, "conjugation_orbit_images")


def test_k1_cover_walks_each_group_once_per_process(monkeypatch):
    # seed 7 of bench/families/k1-cover.txt: a simple member is its own
    # derived subgroup and its own simple factor, so the class walk of its
    # lattice in admissibility also serves its centre in the split and its
    # class table in the cover.  Beside the walk, construct enumerates each
    # member once more for the Gaschutz lift search, whose candidates are
    # in enumeration order; the star subgroup is read off the lattice.
    enumerated = count_enumerations(monkeypatch)
    names = ("A5", "A6", "PSL27")
    family = tuple(catalog.CATALOG[n].group() for n in names)
    cert = construct(family, d=2, k=1, names=names, seed=7, budget=61)
    walks = [("conjugacy_classes", order) for order in (60, 168, 360)]
    lifts = [("gaschutz_lift", order) for order in (60, 168, 360)]
    assert sorted(call[:2] for call in enumerated) == sorted(walks + lifts)
    enumerated.clear()
    data = json.loads(dumps_certificate(serialize_certificate(cert)))
    assert verify_certificate(data).valid
    assert sorted(call[:2] for call in enumerated) == sorted(walks)


def _construct_and_verify_sifts(monkeypatch, workload, budget):
    """The sifts of a seed-7 construct of a benchmark family, then of a
    verify of its certificate."""
    names, members, d, k = parse_family_file(str(FAMILIES / f"{workload}.txt"))
    sifts = count_sifts(monkeypatch)
    cert = construct(members, d=d, k=k, names=names, seed=7, budget=budget)
    constructed = len(sifts)
    sifts.clear()
    data = json.loads(dumps_certificate(serialize_certificate(cert)))
    assert verify_certificate(data).valid
    return constructed, len(sifts)


def test_k1_cover_sift_count_per_process(monkeypatch):
    # seed 7 of bench/families/k1-cover.txt: T = A5 x A6 x PSL27 and Gamma,
    # the same group, are bounded by its order 3,628,800 once their
    # witnesses are seen to lie in their groups, so their chains stop there;
    # at that order T-perfect, gamma-perfect and projections need only each
    # factor's own perfectness, and take no derived closure and no
    # projection chain.  The cover tuples' chains are bounded by the
    # factor's order without sifting the factor's own samples.  Before
    # that, construct made 1,576 sifts and verify 1,319; with unbounded
    # chains, 2,865 and 2,629.  s-in-T sifts no residue into T: a row
    # product of T's generators lies in T.  Verify sifts each cover tuple
    # element into its factor once: after that membership test, |M| bounds
    # the chain of the tuple (880 sifts before).
    assert _construct_and_verify_sifts(
        monkeypatch, "k1-cover", 61
    ) == (954, 697)


def test_k2_mixed_sift_count_per_process(monkeypatch):
    # seed 7 of bench/families/k2-mixed.txt (SL25 and E16A5): each level's
    # T and Gamma are whole products, so the order path holds both levels;
    # before it, construct made 1,281 sifts and verify 1,011.  Each distinct
    # q is sifted into its A, and no residue into T.  The level-1 members act
    # on 12 and 16 points, not 60 and 60 (1,131 and 860 sifts then): their
    # chains are longer but each sift is cheaper, and the Gaschutz search
    # starts from other lifts, so construct tries more candidate tuples.
    assert _construct_and_verify_sifts(
        monkeypatch, "k2-mixed", 2
    ) == (1347, 851)
