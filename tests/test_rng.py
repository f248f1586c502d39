import random

from imids_sim.rng import SeededRng


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


# Token shapes a family prefix must reproduce exactly: the engine's own,
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


def test_substreams_give_the_derived_streams_draw_for_draw():
    root = SeededRng(42)
    for prefix in PREFIXES:
        stream = root.substreams(*prefix)
        for last in LASTS + LASTS[::-1]:  # interleaved and revisited
            expected = root.derive(*prefix, last)
            got = stream(last)
            assert [got.random() for _ in range(20)] == [expected.random() for _ in range(20)]


def test_substreams_leave_other_streams_unshifted():
    root = SeededRng(7)
    derived = root.derive("attack", 0, 5)
    reference = SeededRng(7).derive("attack", 0, 5)
    assert derived.random() == reference.random()
    global_state = random.getstate()
    stream = root.substreams("sleep", 0)
    for last in range(10):
        stream(last).random()
    assert [derived.random() for _ in range(20)] == [reference.random() for _ in range(20)]
    assert random.getstate() == global_state
