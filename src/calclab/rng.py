"""Reproducible randomness: a seed-keyed, counter-based generator.

A seed names one stream of 64-bit words, defined here:

- **Key.** numpy's ``SeedSequence`` hash of the seed: its 32-bit words,
  least significant first (0 gives [0]), are mixed into a pool of four
  words, and ``generate_state(2, uint64)`` reads the 128-bit key (k0, k1)
  off the pool.
- **Blocks.** Block b of the stream is Philox4x64-10 (Salmon, Moraes, Dror
  & Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC '11) of the
  256-bit counter b + 1 under that key; its four words are used in order.
- **Doubles.** A draw on [low, high) from the word u is
  low + (high - low)·((u >> 11)·2⁻⁵³), in that order of operations.
- **Substreams.** Substream b of a seed (b >= 0) is the stream under the
  same key whose counter starts with word 2 set to b, so that its blocks
  take the counters b·2¹²⁸ + 1, b·2¹²⁸ + 2, ...: numpy's
  ``Philox(seed).jumped(b)``.  The substreams share no counter, so they are
  independent streams (Salmon et al.), and substream 0 is the seed's
  stream itself.

NEP 19 fixes numpy's bit generators, not the methods of its ``Generator``.
:meth:`RandomSource.uniforms` computes the stream in Python integers, and
:meth:`RandomSource.generator` hands the same stream to numpy, as
``Generator(Philox(seed))``, for the array routes; the tests hold the
first to ``generator().uniform`` bit for bit.  :meth:`RandomSource.map_blocks`
runs the row blocks of a sampled kernel, row block b on substream b, on
every CPU the process may use; as each row block writes only its own
output, the results are the same bits on one CPU or many.  numpy is loaded
(through ``calclab._numpy``) when a generator is made, not with this module.
"""

from __future__ import annotations

import math
import operator
import os
import struct
import threading
from typing import Callable

from ._numpy import np
from ._record import Record

__all__ = ["RandomSource"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_PHILOX_MULTIPLIERS = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_KEY_BUMPS = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def _philox_key(seed: int) -> tuple[int, int]:
    """(k0, k1) = ``SeedSequence(seed).generate_state(2, uint64)``, in uint32 arithmetic."""
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hash_const = 0x8B51F9DD
    state = []
    for value in pool:
        value ^= hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _philox_words(key: tuple[int, int], blocks: int) -> list[int]:
    """The first 4·blocks words of the stream under key, in order.

    Word j of block b sits in 128-bit lane b of the Python int x_j, so each
    of the ten rounds is a dozen big-int operations whatever the block
    count: a lane's 64 × 64-bit product fits in the lane, and masks against
    the low 64 bits of every lane split it into its high and low words.
    """
    ones = int.from_bytes((b"\x01" + bytes(15)) * blocks, "little")
    mask = _MASK64 * ones
    counters = [0] * (2 * blocks)
    counters[::2] = range(1, blocks + 1)
    x0, x1, x2, x3 = int.from_bytes(struct.pack(f"<{2 * blocks}Q", *counters), "little"), 0, 0, 0
    (m0, m1), (w0, w1), (k0, k1) = _PHILOX_MULTIPLIERS, _PHILOX_KEY_BUMPS, key
    for _ in range(10):
        p0, p1 = m0 * x0, m1 * x2
        x0, x1, x2, x3 = (
            (p1 >> 64 & mask) ^ x1 ^ k0 * ones,
            p1 & mask,
            (p0 >> 64 & mask) ^ x3 ^ k1 * ones,
            p0 & mask,
        )
        k0, k1 = (k0 + w0) & _MASK64, (k1 + w1) & _MASK64
    words = [0] * (4 * blocks)
    for j, x in enumerate((x0, x1, x2, x3)):
        words[j::4] = struct.unpack(f"<{2 * blocks}Q", x.to_bytes(16 * blocks, "little"))[::2]
    return words


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class RandomSource(Record):
    """A seed for a counter-based (Philox) generator: any integer >= 0.

    Every draw restarts the stream, so an operation given the same
    RandomSource always sees the same numbers, and distinct seeds give
    independent streams safe to use in parallel.  A kernel that draws in
    row blocks draws row block b from substream b, the seed's key with
    counter word 2 set to b (:meth:`map_blocks`).  Substream 0 is the
    stream of :meth:`generator`, so a call that fits in one row block draws
    what one stream gives, and no result depends on the CPU count.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        seed = operator.index(seed)  # TypeError for a float or a string, here rather than at the first draw
        if seed < 0:
            raise ValueError("need seed >= 0")
        self._set(seed)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.seed))

    def map_blocks(self, rows: int, block_rows: int, work: Callable[[slice, np.random.Generator], object]) -> list:
        """[work(rows of block b, a Generator on substream b) for each block b], the
        blocks being range(rows) cut every block_rows rows.

        The calling thread and min(blocks, CPUs) - 1 helper threads take the
        blocks in turn; numpy's draws and array loops release the GIL, so
        they run at once.  The helpers are started here and joined before
        this returns or raises; the exception of the lowest failed block
        reaches the caller.  work writes only its own rows' output.
        """
        key = np.array(_philox_key(self.seed), dtype=np.uint64)
        count = -(-operator.index(rows) // block_rows)
        results: list = [None] * count
        claim, lock, failed = iter(range(count)), threading.Lock(), {}

        def drain() -> None:
            while not failed:
                with lock:
                    b = next(claim, None)
                if b is None:
                    return
                try:
                    gen = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, b, 0]))
                    results[b] = work(slice(b * block_rows, min(rows, (b + 1) * block_rows)), gen)
                except BaseException as exc:
                    failed[b] = exc

        helpers = []
        try:
            for _ in range(min(count, _cpus()) - 1):
                helper = threading.Thread(target=drain)
                helper.start()
                helpers.append(helper)
            drain()
        finally:
            for helper in helpers:
                helper.join()
        if failed:
            raise failed[min(failed)]
        return results

    def uniforms(self, n: int, low: float, high: float) -> list[float]:
        """n draws on [low, high) as Python floats, without numpy: the bits of
        ``generator().uniform(low, high, n).tolist()``."""
        n = operator.index(n)
        if n < 0:
            raise ValueError("need n >= 0")
        low, span = float(low), float(high) - float(low)
        if not math.isfinite(span):
            raise OverflowError("high - low is not finite")
        if span < 0.0:
            raise ValueError("need low <= high")
        words = _philox_words(_philox_key(self.seed), -(-n // 4))[:n]
        return [low + span * ((u >> 11) * 2.0**-53) for u in words]
