"""Seeded random streams with reproducible, independently derivable substreams.

The package's only source of randomness: every draw is keyed by the scenario seed."""

from __future__ import annotations

import hashlib
import random
from _random import Random as _Generator  # random.Random's C base, same draws
from functools import partial
from itertools import starmap
from operator import le


def _derive_seed(master_seed: int, tokens: tuple) -> int:
    material = repr((master_seed,) + tokens).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big")


class SeededRng:
    """Master random source for one run.

    Every consumer asks for a named substream via `derive`. Substreams are
    plain `random.Random` instances whose seeds depend only on the master
    seed and the token tuple, so draws in one subsystem never shift draws
    in another. The same (seed, tokens) pair always yields the same stream.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, int):
            raise TypeError("seed must be an integer")
        self.seed = seed

    def derive(self, *tokens) -> random.Random:
        return random.Random(_derive_seed(self.seed, tokens))

    def flip_rows(self, prefix: tuple, keys, count: int, p: float) -> list:
        """One list per key: the first `count` draws of
        `derive(*prefix, key)` as bits `draw >= p`, draw for draw.

        The shared part of the seed material is hashed once. Each key seeds
        a C generator as `random.Random` would, and its draws are mapped to
        bits in C."""
        # repr of a tuple is its items' reprs joined by ", " in parentheses
        prefix = "(" + ", ".join(map(repr, (self.seed, *prefix))) + ", "
        copy = hashlib.sha256(prefix.encode("utf-8")).copy
        at_least_p = partial(le, p)  # p <= draw
        no_args = ((),) * count
        rows = []
        for key in keys:
            digest = copy()
            digest.update(f"{key!r})".encode("utf-8"))
            draw = _Generator(int.from_bytes(digest.digest()[:8], "big")).random
            rows.append(list(map(at_least_p, starmap(draw, no_args))))
        return rows
