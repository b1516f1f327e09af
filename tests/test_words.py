import random

import pytest
from hypothesis import given, settings, strategies as st

from perfectcover import groups, words
from perfectcover.catalog import get
from perfectcover.errors import InputError, PreconditionError
from perfectcover.groups import (
    PermGroup,
    center,
    derived_subgroup,
    enumerate_elements,
)
from perfectcover.perms import Permutation, parse_cycles
from perfectcover.words import (
    Word,
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


def test_word_table_is_shortest_first():
    S3 = PermGroup(3, [P("(1 2)", 3), P("(1 2 3)", 3)])
    table = word_table(S3.generators, 3)
    assert len(table) == 6
    assert len(table[Permutation.identity(3)]) == 0
    for elem, w in table.items():
        assert evaluate_word(w, S3.generators) == elem


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
    calls = {"word_table": 0, "enumerate_elements": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(words, "word_table", counted("word_table", words.word_table))
    monkeypatch.setattr(
        groups,
        "enumerate_elements",
        counted("enumerate_elements", groups.enumerate_elements),
    )
    targets = [P("(1 2 3)", 5), P("(1 2)(3 4)", 5), P("(1 2 3 4 5)", 5)]
    result = commutator_words(A5, A5.generators, targets)
    assert [evaluate_word(w, A5.generators) for w in result] == targets
    assert calls == {"word_table": 1, "enumerate_elements": 1}


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
