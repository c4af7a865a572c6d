"""Reproducible randomness: a seed-keyed, counter-based generator.

numpy is imported when a generator is made, not with this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["RandomSource"]


@dataclass(frozen=True)
class RandomSource:
    """A 64-bit seed for a counter-based (Philox) generator.

    Every call to :meth:`generator` restarts the stream, so an operation
    given the same RandomSource always sees the same numbers, and distinct
    seeds give independent streams safe to use in parallel.
    """

    seed: int

    def generator(self) -> np.random.Generator:
        import numpy as np

        return np.random.Generator(np.random.Philox(self.seed))

    def split(self, tag: int) -> "RandomSource":
        """Derive an independent source keyed by (seed, tag)."""
        return RandomSource((self.seed * 0x9E3779B97F4A7C15 + tag) % 2**64)
