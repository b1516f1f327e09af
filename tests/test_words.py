import random
from collections import deque

import pytest
from conftest import count_permutation_calls
from hypothesis import given, settings, strategies as st

from perfectcover import groups, words
from perfectcover.catalog import get
from perfectcover.errors import InputError, PreconditionError, SizeLimitError
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


# ---------------------------------------------------------------- words


def test_free_reduction():
    w = Word.make(2, [(0, 1), (0, -1), (1, 1)])
    assert w.letters == ((1, 1),)
    assert len(Word.make(1, [(0, 1), (0, -1)])) == 0


def test_exponent_sums_and_certificate():
    w = Word.make(2, [(0, 1), (1, 1), (0, -1), (1, -1)])
    assert w.exponent_sums() == [0, 0]
    assert w.in_commutator_subgroup
    assert not Word.generator(2, 0).in_commutator_subgroup


def test_serialization_roundtrip():
    w = Word.make(3, [(0, 1), (2, -1), (1, 1)])
    assert str(w) == "x1 x3^-1 x2"
    assert parse_word(str(w), 3) == w
    assert parse_word("e", 2) == Word.empty(2)
    with pytest.raises(InputError):
        parse_word("y1", 2)


def test_word_algebra():
    a, b = Word.generator(2, 0), Word.generator(2, 1)
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
    w = Word.generator(1, 0)
    assert evaluate_word(w, (P("(1 2 3)", 3),)) == P("(1 2 3)", 3)
    with pytest.raises(InputError):
        evaluate_word(Word.generator(2, 1), (P("(1 2)", 3),))


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
        c = Word.generator(2, i).commutator(Word.generator(2, j))
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
        moves.append((g, Word.generator(m, i, 1)))
        moves.append((g.inverse(), Word.generator(m, i, -1)))
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
    first (u, v) with x = u ** v, on `Permutation` products."""
    pool = {}
    for orbit in groups.conjugation_orbits(G):
        u = next(iter(orbit))
        u_inv = u.inverse()
        for x, v in orbit.items():
            value = u_inv * x
            if value not in pool:
                pool[value] = (u, v)
    return pool


@pytest.mark.parametrize("name", ["A5", "A6", "PSL27", "SL25"])
def test_commutator_pool_equals_reference(name):
    G = get(name)
    pool = words._commutator_pool(G, groups.ENUMERATION_CAP)
    wrapped = [
        (Permutation(value), (Permutation(u), Permutation(v)))
        for value, (u, v) in pool.items()
    ]
    assert wrapped == list(reference_commutator_pool(G).items())


def test_word_search_takes_no_permutation_products(monkeypatch):
    # The word table and the commutator pool run on raw images.
    A5 = get("A5")
    calls = count_permutation_calls(monkeypatch)
    assert len(word_table(A5.generators, 5)) == 60
    assert words._commutator_pool(A5, groups.ENUMERATION_CAP)
    assert calls == {"__mul__": 0, "inverse": 0}


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
    monkeypatch.setattr(
        groups,
        "enumerate_elements",
        counted("enumerate_elements", groups.enumerate_elements),
    )
    targets = [P("(1 2 3)", 5), P("(1 2)(3 4)", 5), P("(1 2 3 4 5)", 5)]
    result = commutator_words(A5, A5.generators, targets)
    assert [evaluate_word(w, A5.generators) for w in result] == targets
    assert calls["word_table"] == 1
    assert calls["enumerate_elements"] == 1
    # words are read back only for the pool witnesses used, at most 4 a target
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
