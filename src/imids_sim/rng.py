"""Seeded random streams with reproducible, independently derivable substreams."""

from __future__ import annotations

import hashlib
import random


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

    def substreams(self, *tokens):
        """A family of substreams sharing the leading `tokens`.

        `stream(last)` gives the generator `derive(*tokens, last)` would
        give, draw for draw. The shared part of the seed material is hashed
        once, and every stream reseeds one `random.Random` the family owns,
        so the returned generator is valid only until the next
        `stream(...)` call.
        """
        # repr of a tuple is its items' reprs joined by ", " in parentheses
        prefix = "(" + ", ".join(map(repr, (self.seed, *tokens))) + ", "
        hashed = hashlib.sha256(prefix.encode("utf-8"))
        generator = None

        def stream(last) -> random.Random:
            nonlocal generator
            digest = hashed.copy()
            digest.update(f"{last!r})".encode("utf-8"))
            seed = int.from_bytes(digest.digest()[:8], "big")
            if generator is None:  # an unseeded Random() would read OS entropy first
                generator = random.Random(seed)
            else:
                generator.seed(seed)
            return generator

        return stream
