import math
import random

import pytest

from imids_sim.rng import SeededRng


@pytest.mark.parametrize("seed", [1.0, "1", None])
def test_a_seed_that_is_not_an_int_is_refused(seed):
    with pytest.raises(TypeError, match="seed must be an integer"):
        SeededRng(seed)


def test_same_tokens_same_stream():
    a = SeededRng(42).derive("sleep", 3, 17)
    b = SeededRng(42).derive("sleep", 3, 17)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


def test_different_tokens_diverge():
    root = SeededRng(42)
    a = root.derive("sleep", 3, 17)
    b = root.derive("sleep", 3, 18)
    assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]


def test_different_master_seeds_diverge():
    a = SeededRng(1).derive("deploy", "positions")
    b = SeededRng(2).derive("deploy", "positions")
    assert a.random() != b.random()


def test_derivation_is_stateless():
    """Drawing from one substream must not shift any other."""
    root = SeededRng(7)
    first = root.derive("attack", 0, 5).random()
    for _ in range(100):
        root.derive("noise", _).random()
    assert root.derive("attack", 0, 5).random() == first


def test_token_types_are_distinguished():
    root = SeededRng(7)
    assert root.derive("a", 1).random() != root.derive("a", "1").random()


# Token shapes a shared prefix must reproduce exactly: the engine's own,
# a string holding the tuple separator and quotes, ints past 64 bits and
# below zero, a one-token prefix and no prefix at all.
PREFIXES = (
    ("sleep", 3),
    ("it's, \"odd\"", ", ", 1),
    (-5, 2**70, -(2**65)),
    ("only",),
    (),
)
LASTS = (17, -1, 2**64 + 3, "x, y)", 0)
KEYS = LASTS + LASTS[::-1]  # interleaved and revisited


def test_flip_rows_give_the_derived_streams_draw_for_draw():
    """Each row bit is `draw >= p`, so a p equal to the derived stream's
    j-th draw sets bit j and the next float above it clears it: the row
    holds that exact draw."""
    root = SeededRng(42)
    for prefix in PREFIXES:
        draws = []
        for key in KEYS:
            stream = root.derive(*prefix, key)
            draws.append([stream.random() for _ in range(8)])
        for j in range(8):
            for row, expected in zip(root.flip_rows(prefix, KEYS, 8, draws[0][j]), draws):
                assert row == [draw >= draws[0][j] for draw in expected]
            for key, expected in zip(KEYS, draws):
                assert root.flip_rows(prefix, [key], 8, expected[j])[0][j] is True
                above = math.nextafter(expected[j], 2.0)
                assert root.flip_rows(prefix, [key], 8, above)[0][j] is False


@pytest.mark.parametrize("p", [0, 1, 0.0, 1.0, 0.5, 0.3])
def test_flip_rows_compare_like_the_engine_did(p):
    """Integer and edge probabilities give `draw >= p`, as the engine's
    per-slot comparison did."""
    root = SeededRng(5)
    rows = root.flip_rows(("sleep", 9), range(20), 12, p)
    for key, row in zip(range(20), rows):
        stream = root.derive("sleep", 9, key)
        assert row == [stream.random() >= p for _ in range(12)]
        assert all(type(bit) is bool for bit in row)
    assert root.flip_rows(("sleep", 9), [], 12, p) == []
    assert root.flip_rows(("sleep", 9), [1, 2], 0, p) == [[], []]


def test_flip_rows_leave_other_streams_unshifted():
    root = SeededRng(7)
    derived = root.derive("attack", 0, 5)
    reference = SeededRng(7).derive("attack", 0, 5)
    assert derived.random() == reference.random()
    global_state = random.getstate()
    for r in range(10):
        root.flip_rows(("sleep", r), range(10), 10, 0.5)
    assert [derived.random() for _ in range(20)] == [reference.random() for _ in range(20)]
    assert random.getstate() == global_state
