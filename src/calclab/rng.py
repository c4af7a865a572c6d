"""Reproducible randomness: a seed-keyed, counter-based generator.

numpy is loaded (through ``calclab._numpy``) when a generator is made, not
with this module.
"""

from __future__ import annotations

from ._numpy import np
from ._record import Record

__all__ = ["RandomSource"]


class RandomSource(Record):
    """A 64-bit seed for a counter-based (Philox) generator.

    Every call to :meth:`generator` restarts the stream, so an operation
    given the same RandomSource always sees the same numbers, and distinct
    seeds give independent streams safe to use in parallel.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("need seed >= 0")
        self._set(seed)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.seed))
