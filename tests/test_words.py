import random
from collections import deque

import pytest
from conftest import count_permutation_calls
from hypothesis import given, settings, strategies as st

from perfectcover import construction, groups, words
from perfectcover.catalog import get
from perfectcover.errors import InputError, PreconditionError, SearchError, SizeLimitError
from perfectcover.groups import (
    PermGroup,
    center,
    derived_subgroup,
    enumerate_elements,
)
from perfectcover.perms import Permutation, parse_cycles
from perfectcover.words import (
    Word,
    _word_of,
    commutator_words,
    evaluate_word,
    gaschutz_lift,
    parse_word,
    word_table,
)


def P(text, degree):
    return parse_cycles(text, degree)


def generator_word(size, idx, exp=1):
    """The one-letter word x_idx^exp over `size` generators."""
    return Word.make(size, [(idx, exp)])


# ---------------------------------------------------------------- words


def test_free_reduction():
    w = Word.make(2, [(0, 1), (0, -1), (1, 1)])
    assert w.letters == ((1, 1),)
    assert len(Word.make(1, [(0, 1), (0, -1)])) == 0


def test_exponent_sums_and_certificate():
    w = Word.make(2, [(0, 1), (1, 1), (0, -1), (1, -1)])
    assert w.exponent_sums() == [0, 0]
    assert w.in_commutator_subgroup
    assert not generator_word(2, 0).in_commutator_subgroup


def test_serialization_roundtrip():
    w = Word.make(3, [(0, 1), (2, -1), (1, 1)])
    assert str(w) == "x1 x3^-1 x2"
    assert parse_word(str(w), 3) == w
    assert parse_word("e", 2) == Word.empty(2)
    with pytest.raises(InputError):
        parse_word("y1", 2)


def test_word_algebra():
    a, b = generator_word(2, 0), generator_word(2, 1)
    comm = a.commutator(b)
    assert comm.letters == ((0, -1), (1, -1), (0, 1), (1, 1))
    assert (comm * comm.inverse()).letters == ()


def test_evaluate_word_convention():
    # left-to-right evaluation fixes the value of the basic commutator word
    w = Word.make(2, [(0, 1), (1, 1), (0, -1), (1, -1)])
    got = evaluate_word(w, (P("(1 2)", 3), P("(1 3)", 3)))
    # hand-traced through the four maps: 1 -> 3, 2 -> 1, 3 -> 2
    assert got == P("(1 3 2)", 3)


def test_evaluate_word_trivia():
    assert evaluate_word(Word.empty(2), (P("(1 2)", 3), P("(1 3)", 3))).is_identity()
    w = generator_word(1, 0)
    assert evaluate_word(w, (P("(1 2 3)", 3),)) == P("(1 2 3)", 3)
    with pytest.raises(InputError):
        evaluate_word(generator_word(2, 1), (P("(1 2)", 3),))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=1),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_commutator_built_words_land_in_derived_subgroup(spec):
    # products of commutators of generator words evaluate into [G, G]
    A4 = get("A4")
    word = Word.empty(2)
    for i, j, inv in spec:
        c = generator_word(2, i).commutator(generator_word(2, j))
        word = word * (c.inverse() if inv else c)
    assert word.in_commutator_subgroup
    value = evaluate_word(word, A4.generators)
    assert value in derived_subgroup(A4)


# ------------------------------------------------- commutator word search


def reference_word_table(gens, degree):
    """The word table as one `Word` per element: a breadth-first walk over
    `Permutation` products, each word built from its parent's."""
    m = len(gens)
    identity = Permutation.identity(degree)
    table = {identity: Word.empty(m)}
    queue = deque([identity])
    moves = []
    for i, g in enumerate(gens):
        if g.is_identity():
            continue
        moves.append((g, generator_word(m, i, 1)))
        moves.append((g.inverse(), generator_word(m, i, -1)))
    while queue:
        x = queue.popleft()
        wx = table[x]
        for g, letter in moves:
            y = x * g
            if y not in table:
                table[y] = wx * letter
                queue.append(y)
    return table


def bfs_distances(gens, degree):
    """Distance from the identity in the Cayley graph on gens and inverses."""
    identity = Permutation.identity(degree)
    dist = {identity: 0}
    queue = deque([identity])
    steps = [*gens, *(g.inverse() for g in gens)]
    while queue:
        x = queue.popleft()
        for g in steps:
            y = x * g
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def test_word_table_is_shortest_first():
    for name in ("S3", "A5"):
        G = get(name)
        table = word_table(G.generators, G.degree)
        dist = bfs_distances(G.generators, G.degree)
        assert len(table) == len(dist) == G.order, name
        assert table[G.identity.images] is None, name
        for images in table:
            elem = Permutation(images)
            w = _word_of(table, images, len(G.generators))
            assert evaluate_word(w, G.generators) == elem, name
            assert len(w) == dist[elem], name


@pytest.mark.parametrize("name", ["A5", "A6", "PSL27", "SL25"])
def test_word_of_equals_reference_table(name):
    G = get(name)
    m = len(G.generators)
    table = word_table(G.generators, G.degree)
    reference = reference_word_table(G.generators, G.degree)
    assert [Permutation(images) for images in table] == list(reference)
    for elem, w in reference.items():
        assert _word_of(table, elem.images, m) == w, name


def reference_commutator_pool(G):
    """For each u^-1 * x, x in the class of a class representative u, the
    first (u, v) with x = u ** v, on `Permutation` products; the classes are
    led in `enumerate_elements` order."""
    pool = {}
    for orbit in groups.conjugacy_classes(G):
        u = Permutation(next(iter(orbit)))
        u_inv = u.inverse()
        for x, v in orbit.items():
            x, v = Permutation(x), Permutation(v)
            value = u_inv * x
            if value not in pool:
                pool[value] = (u, v)
    return pool


class _FullPoolSearch:
    """The commutator word search the early-stopping one replaced, kept as
    its reference: it pools every commutator value of G before answering
    any target, with a pool hit, else with the first k1 in pool order
    whose k1^-1 * target is pooled."""

    def __init__(self, G, gens):
        self.m = len(gens)
        self.words = reference_word_table(gens, G.degree)
        self.pool = reference_commutator_pool(G)

    def _value_word(self, k):
        u, v = self.pool[k]
        return self.words[u].commutator(self.words[v])

    def word(self, target):
        """The parent's word for target; SearchError where it raised one."""
        if target.is_identity():
            return Word.empty(self.m)
        if target in self.pool:
            w = self._value_word(target)
        else:
            k1 = next((k for k in self.pool if k.inverse() * target in self.pool), None)
            if k1 is None:
                raise SearchError("target is not a product of at most two commutators")
            w = self._value_word(k1) * self._value_word(k1.inverse() * target)
        if len(w) > 256:
            raise SearchError("word over the cap")
        return w


def _reference_fails(reference, target):
    try:
        reference.word(target)
    except SearchError:
        return True
    return False


def _assert_search_matches_reference(G, gens, targets):
    """commutator_words raises SearchError for exactly the targets the
    full-pool search does, and otherwise returns zero-sum words of at most
    256 letters that evaluate to their targets."""
    reference = _FullPoolSearch(G, gens)
    failing = [t for t in targets if _reference_fails(reference, t)]
    for target in failing:
        with pytest.raises(SearchError):
            commutator_words(G, gens, [target])
    answered = [t for t in targets if t not in failing]
    for target, w in zip(answered, commutator_words(G, gens, answered)):
        assert w.in_commutator_subgroup
        assert len(w) <= 256
        assert evaluate_word(w, gens) == target


@pytest.mark.parametrize("name", ["A5", "A6", "PSL27", "SL25"])
def test_commutator_words_fail_exactly_where_the_full_pool_search_fails(name):
    G = get(name)
    _assert_search_matches_reference(G, G.generators, enumerate_elements(G))


@pytest.fixture(scope="module")
def mixed_level1_search():
    """(Gamma, gens) of the commutator word search on the level-1 Gamma of
    order 3600 in the seed-7 construct of SL25 beside E16A5 (k=2)."""
    calls = []

    def record(G, gens, targets, cap=groups.ENUMERATION_CAP):
        calls.append((G, tuple(gens)))
        return commutator_words(G, gens, targets, cap=cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construction, "commutator_words", record)
        construction.construct(
            (get("SL25"), get("E16A5")), d=2, k=2, names=("SL25", "E16A5"), seed=7, budget=2
        )
    (gamma, gens), = [(G, gens) for G, gens in calls if G.order == 3600]
    return gamma, gens


def test_commutator_words_on_a_level_gamma_match_the_full_pool_search(mixed_level1_search):
    gamma, gens = mixed_level1_search
    _assert_search_matches_reference(gamma, gens, gens)


def test_search_stops_before_walking_every_class(mixed_level1_search, monkeypatch):
    gamma, gens = mixed_level1_search
    walks = []

    def counted(G, x):
        walks.append(x)
        return groups.conjugation_orbit_images(G, x)

    monkeypatch.setattr(words, "conjugation_orbit_images", counted)
    commutator_words(gamma, gens, gens)
    n_classes = sum(1 for _ in groups.conjugacy_classes(gamma))
    assert 0 < len(walks) < n_classes


def test_search_error_once_the_classes_run_out(monkeypatch):
    # with each class cut down to its leader the only commutator value is 1,
    # so the walk covers the whole table and finds no nontrivial target
    A5 = get("A5")
    monkeypatch.setattr(
        words, "conjugation_orbit_images", lambda G, x: {x.images: G.identity.images}
    )
    with pytest.raises(SearchError):
        commutator_words(A5, A5.generators, [P("(1 2 3)", 5)])
    assert commutator_words(A5, A5.generators, [A5.identity]) == [Word.empty(2)]


def test_word_search_takes_no_permutation_products(monkeypatch):
    # The word table, the class walks and the pool run on raw images; the
    # only products are those of the final evaluation of each word.
    A5 = get("A5")
    targets = [P("(1 2 3)", 5), P("(1 2)(3 4)", 5), P("(1 2 3 4 5)", 5)]
    commutator_words(A5, A5.generators, targets)  # caches A5's derived subgroup
    calls = count_permutation_calls(monkeypatch)
    assert len(word_table(A5.generators, 5)) == 60
    found = commutator_words(A5, A5.generators, targets)
    assert calls["__mul__"] == sum(len(w) for w in found)
    assert calls["inverse"] <= len(A5.generators) * len(targets)


def test_word_table_cap_and_identity_generators():
    A5 = get("A5")
    with pytest.raises(SizeLimitError):
        word_table(A5.generators, 5, cap=59)
    gens = (Permutation.identity(5), *A5.generators)
    table = word_table(gens, 5)
    assert len(table) == 60
    assert all(step is None or step[1][0] != 0 for step in table.values())
    with pytest.raises(InputError):
        word_table((P("(1 2 3)", 4),), 5)


def test_commutator_word_examples():
    A5 = get("A5")
    (w,) = commutator_words(A5, A5.generators, [A5.identity])
    assert len(w) == 0

    target = P("(1 2 3)", 5)
    (w,) = commutator_words(A5, A5.generators, [target])
    assert w.in_commutator_subgroup
    assert len(w) <= 24
    assert evaluate_word(w, A5.generators) == target


def test_commutator_word_every_element_of_a5():
    A5 = get("A5")
    targets = enumerate_elements(A5)
    found = commutator_words(A5, A5.generators, targets)
    assert len(found) == len(targets) == 60
    for target, w in zip(targets, found):
        assert w.in_commutator_subgroup
        assert evaluate_word(w, A5.generators) == target


def test_commutator_word_requires_perfect():
    Z4 = get("Z4")
    with pytest.raises(PreconditionError):
        commutator_words(Z4, Z4.generators, [P("(1 2 3 4)", 4)])


def test_commutator_word_requires_membership():
    A5 = get("A5")
    with pytest.raises(PreconditionError):
        commutator_words(A5, A5.generators, [P("(1 2)", 5)])
    with pytest.raises(PreconditionError):
        commutator_words(A5, A5.generators, [P("(1 2 3)", 5), P("(1 2)", 5)])


@pytest.mark.parametrize("name", ["A5", "A6", "PSL27"])
def test_batched_words_equal_single_target_words(name):
    G = get(name)
    gens = G.generators
    elements = enumerate_elements(G)
    targets = [G.identity, *gens, *elements[1:6], elements[-1]]
    batch = commutator_words(G, gens, targets)
    assert len(batch) == len(targets)
    for target, w in zip(targets, batch):
        assert w == commutator_words(G, gens, [target])[0], name
        assert evaluate_word(w, gens) == target, name


def test_batched_words_build_table_and_enumerate_once(monkeypatch):
    A5 = get("A5")
    calls = {"word_table": 0, "enumerate_elements": 0, "_word_of": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(words, "word_table", counted("word_table", words.word_table))
    monkeypatch.setattr(words, "_word_of", counted("_word_of", words._word_of))
    counted_enumerate = counted("enumerate_elements", groups.enumerate_elements)
    monkeypatch.setattr(groups, "enumerate_elements", counted_enumerate)
    monkeypatch.setattr(words, "enumerate_elements", counted_enumerate)
    targets = [P("(1 2 3)", 5), P("(1 2)(3 4)", 5), P("(1 2 3 4 5)", 5)]
    result = commutator_words(A5, A5.generators, targets)
    assert [evaluate_word(w, A5.generators) for w in result] == targets
    assert calls["word_table"] == 1
    # the classes are led by word table elements, so G is not enumerated
    assert calls["enumerate_elements"] == 0
    # words are read back only for the witnesses used, at most 4 a target
    assert 0 < calls["_word_of"] <= 4 * len(targets)


# ----------------------------------------------------------- gaschutz


def test_gaschutz_s3_example():
    S3 = get("S3")
    A3 = derived_subgroup(S3)
    reps = (P("(1 2)", 3), Permutation.identity(3))
    lifts = gaschutz_lift(S3, A3, reps)
    assert PermGroup(3, lifts).order == 6
    for lift, rep in zip(lifts, reps):
        assert lift * rep.inverse() in A3


def test_gaschutz_returns_generating_reps_unchanged():
    SL = get("SL25")
    lifts = gaschutz_lift(SL, center(SL), SL.generators)
    assert tuple(lifts) == tuple(SL.generators)


def test_gaschutz_draws_from_a_large_N_without_enumerating_it(monkeypatch):
    # |N|^k = 360^3 is over 10^6, so the candidates are draws from N's chain
    def refuse(*args):
        raise AssertionError("N was enumerated")

    monkeypatch.setattr(words, "enumerate_elements", refuse)
    A6 = get("A6")
    lifts = gaschutz_lift(A6, A6, [A6.identity] * 3, rng=random.Random(5))
    assert PermGroup(A6.degree, lifts).order == A6.order


def test_gaschutz_rejects_nongenerating_cosets():
    S3 = get("S3")
    A3 = derived_subgroup(S3)
    with pytest.raises(PreconditionError):
        gaschutz_lift(S3, A3, (Permutation.identity(3), Permutation.identity(3)))


def test_gaschutz_rejects_small_k():
    V4 = get("V4")
    with pytest.raises(PreconditionError):
        gaschutz_lift(V4, V4, (Permutation.identity(4),))


def test_gaschutz_property_sample():
    # a small version of the lifting property; the acceptance suite runs 100
    rng = random.Random(2)
    for name in ("S3", "A4", "A5", "SL25"):
        G = get(name)
        D = derived_subgroup(G)
        N = D if D.order < G.order else center(G) if center(G).order > 1 else None
        if N is None:
            N = G  # lift arbitrary cosets of the whole group
        for _ in range(3):
            while True:
                reps = [G.sample(rng) for _ in range(2)]
                if PermGroup(G.degree, tuple(reps) + tuple(N.generators)).order == G.order:
                    break
            lifts = gaschutz_lift(G, N, reps, rng=rng)
            assert PermGroup(G.degree, lifts).order == G.order
            for lift, rep in zip(lifts, reps):
                assert lift * rep.inverse() in N
