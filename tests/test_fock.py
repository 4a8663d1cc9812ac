"""Word combinatorics and creation/flip operator identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adj, opnorm
from fockmodel import (
    TruncatedFockSpace,
    enumerate_words,
    flip_unitary,
    left_creation,
    left_creation_tuple,
    right_creation,
    right_creation_tuple,
    word_count,
    word_label,
)
from fockmodel.fock import parse_word, reversed_word_products, word_operator


# ---------------------------------------------------------------------------
# word enumeration


@pytest.mark.parametrize(
    "n,d,expected",
    [(1, 0, 1), (1, 10, 11), (2, 6, 127), (3, 4, 121), (2, 0, 1), (4, 3, 85)],
)
def test_word_count_frozen(n, d, expected):
    assert word_count(n, d) == expected
    assert len(enumerate_words(n, d)) == expected


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=5))
def test_word_count_matches_enumeration(n, d):
    assert word_count(n, d) == len(enumerate_words(n, d))


def test_enumeration_is_graded_lex():
    words = enumerate_words(3, 4)
    degrees = [len(w) for w in words]
    assert degrees == sorted(degrees)
    for k in range(5):
        block = [w for w in words if len(w) == k]
        assert block == sorted(block)
    # no duplicates
    assert len(set(words)) == len(words)


def test_vacuum_is_first():
    assert enumerate_words(2, 3)[0] == ()
    space = TruncatedFockSpace(2, 3)
    assert space.index(()) == 0
    assert space.vacuum()[0] == 1.0


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.data(),
)
def test_index_word_round_trip(n, d, data):
    space = TruncatedFockSpace(n, d)
    i = data.draw(st.integers(min_value=0, max_value=space.dim - 1))
    assert space.index(space.word(i)) == i
    k = data.draw(st.integers(min_value=0, max_value=d))
    w = tuple(
        data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k), label="word")
    )
    assert space.word(space.index(w)) == w


def test_index_rejects_long_words():
    space = TruncatedFockSpace(2, 2)
    with pytest.raises(KeyError):
        space.index((1, 2, 1))


def test_degree_slices_partition_the_basis():
    space = TruncatedFockSpace(2, 5)
    stops = [space.degree_slice(k) for k in range(6)]
    assert stops[0] == slice(0, 1)
    for k in range(5):
        assert stops[k].stop == stops[k + 1].start
    assert stops[-1].stop == space.dim
    for k in range(6):
        assert all(len(space.word(i)) == k for i in range(stops[k].start, stops[k].stop))
    assert space.dim_up_to(2) == 7
    assert space.dim_up_to(5) == space.dim
    assert space.dim_up_to(99) == space.dim


@pytest.mark.parametrize("bad", [(0, 3), (2, -1)])
def test_space_constructor_rejects_bad_args(bad):
    with pytest.raises(ValueError):
        TruncatedFockSpace(*bad)


# ---------------------------------------------------------------------------
# labels


def test_word_label_round_trip():
    assert word_label(()) == "vac"
    assert word_label((1, 2, 1)) == "1.2.1"
    assert parse_word("vac", 2) == ()
    assert parse_word("", 2) == ()
    assert parse_word("1.2.1", 2) == (1, 2, 1)


@given(st.lists(st.integers(1, 3), max_size=5))
def test_parse_inverts_label(letters):
    w = tuple(letters)
    assert parse_word(word_label(w), 3) == w


def test_parse_word_errors():
    with pytest.raises(ValueError):
        parse_word("1.x", 2)
    with pytest.raises(ValueError):
        parse_word("1.3", 2)  # letter outside 1..n


# ---------------------------------------------------------------------------
# creation operators


@pytest.mark.parametrize("n,d", [(2, 4), (3, 3), (1, 6)])
def test_creation_relations(n, d, space_factory):
    """S_i* S_j = delta_ij (I - P_top) and sum_i S_i S_i* = I - P_vac."""
    space = space_factory(n, d)
    s = left_creation_tuple(space)
    eye = np.eye(space.dim)
    p_top = np.zeros((space.dim, space.dim))
    top = space.degree_slice(d)
    p_top[top, top] = np.eye(top.stop - top.start)
    for i in range(n):
        for j in range(n):
            want = eye - p_top if i == j else 0 * eye
            assert opnorm(adj(s[i]) @ s[j] - want) < 1e-12
    p_vac = np.zeros((space.dim, space.dim))
    p_vac[0, 0] = 1.0
    acc = sum(x @ adj(x) for x in s)
    assert opnorm(acc - (eye - p_vac)) < 1e-12


@pytest.mark.parametrize("n,d", [(2, 4), (3, 3)])
def test_right_creations_satisfy_the_same_relations(n, d, space_factory):
    space = space_factory(n, d)
    r = right_creation_tuple(space)
    eye = np.eye(space.dim)
    p_top = np.zeros((space.dim, space.dim))
    top = space.degree_slice(d)
    p_top[top, top] = np.eye(top.stop - top.start)
    for i in range(n):
        for j in range(n):
            want = eye - p_top if i == j else 0 * eye
            assert opnorm(adj(r[i]) @ r[j] - want) < 1e-12


def test_left_prepends_right_appends():
    space = TruncatedFockSpace(2, 3)
    e = space.basis_vector((1, 2))
    s1 = left_creation(space, 1)
    r1 = right_creation(space, 1)
    assert np.allclose(s1 @ e, space.basis_vector((1, 1, 2)))
    assert np.allclose(r1 @ e, space.basis_vector((1, 2, 1)))
    # top degree goes to zero
    top = space.basis_vector((2, 2, 2))
    assert np.allclose(s1 @ top, 0)
    assert np.allclose(r1 @ top, 0)


def test_left_and_right_creations_commute():
    space = TruncatedFockSpace(2, 4)
    s = left_creation_tuple(space)
    r = right_creation_tuple(space)
    for a in s:
        for b in r:
            assert opnorm(a @ b - b @ a) < 1e-12


def test_products_of_more_than_d_creations_vanish():
    space = TruncatedFockSpace(2, 3)
    s = left_creation_tuple(space)
    assert opnorm(word_operator(space, (1, 2, 1, 2), s)) == 0.0


def test_word_operator_moves_basis_vectors():
    space = TruncatedFockSpace(2, 4)
    out = word_operator(space, (2, 1)) @ space.basis_vector((1, 2))
    assert np.allclose(out, space.basis_vector((2, 1, 1, 2)))


def test_reversed_word_products_are_the_reversed_word_operators():
    # the parent-word recurrence multiplies from the other end than word_operator
    space = TruncatedFockSpace(2, 4)
    rng = np.random.default_rng(3)
    mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
    products = reversed_word_products(space, mats)
    assert products.shape == (space.dim, 3, 3)
    for w, prod in zip(space.words, products):
        want = word_operator(space, tuple(reversed(w)), mats)
        assert opnorm(prod - want) <= 1e-13 * max(1.0, opnorm(want))


def test_creation_rejects_bad_letter():
    space = TruncatedFockSpace(2, 2)
    with pytest.raises(ValueError):
        left_creation(space, 3)
    with pytest.raises(ValueError):
        right_creation(space, 0)


# ---------------------------------------------------------------------------
# flip unitary


@pytest.mark.parametrize("n,d", [(2, 4), (3, 3), (1, 5)])
def test_flip_exchanges_left_and_right(n, d, space_factory):
    space = space_factory(n, d)
    u = flip_unitary(space)
    eye = np.eye(space.dim)
    assert opnorm(u @ u - eye) < 1e-12
    assert opnorm(u - adj(u)) < 1e-12
    for i in range(1, n + 1):
        assert opnorm(u @ left_creation(space, i) @ u - right_creation(space, i)) < 1e-12


@settings(max_examples=25)
@given(st.lists(st.integers(1, 2), max_size=4))
def test_flip_reverses_words(letters):
    space = TruncatedFockSpace(2, 4)
    u = flip_unitary(space)
    w = tuple(letters)
    assert np.allclose(u @ space.basis_vector(w), space.basis_vector(tuple(reversed(w))))
