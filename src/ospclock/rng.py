"""Deterministic counter-based randomness for reproducible experiments.

Every stochastic routine in this package draws from :class:`CounterRng`,
a counter-based generator built on the splitmix64 output function.  The
stream is a pure function of ``(seed, counter)``, so results are
reproducible across platforms and Python versions, and two runs with the
same seed produce byte-identical reports.

The stream ("splitmix64-v1") is defined as::

    out(i) = mix64((seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2**64)

where ``mix64`` is the standard splitmix64 finalizer:

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

all in 64-bit arithmetic.  Bounded draws use rejection sampling on the
high bits, so ``below(n)`` is exactly uniform for any ``n < 2**64``.

``coin_mask(n)`` batches n fair coins: it returns the bitmask that n
calls of ``below(2) == 0`` would build (``below(2)`` never rejects, so
each coin is one word and heads means an even word).  It draws the same
words in the same order without going through ``next_word``, so the
stream, and its name ``splitmix64-v1``, are unchanged.
"""

from __future__ import annotations

from typing import Sequence

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * _MUL1 & _MASK64
    z = (z ^ (z >> 27)) * _MUL2 & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class CounterRng:
    """Counter-based splitmix64 stream with a fixed draw discipline.

    Parameters
    ----------
    seed:
        Any integer; reduced mod 2**64.

    The counter starts at 0 and advances by one per 64-bit word drawn.
    Callers that need to document their sampling order (mechanisms with
    a specified coin sequence) rely on that: the k-th word drawn is
    ``out(k)`` regardless of which helper consumed it.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed & _MASK64
        self.counter = 0

    def clone(self) -> "CounterRng":
        dup = CounterRng(self.seed)
        dup.counter = self.counter
        return dup

    def next_word(self) -> int:
        """Return the next raw 64-bit word of the stream."""
        word = _mix64((self.seed + (self.counter + 1) * _GAMMA) & _MASK64)
        self.counter += 1
        return word

    def below(self, n: int) -> int:
        """Uniform integer in ``range(n)`` via rejection sampling.

        Rejects words >= n * floor(2**64 / n) so every residue is
        equally likely; the expected number of words consumed is < 2.
        """
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        if n == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            word = self.next_word()
            if word < limit:
                return word % n

    def coin_mask(self, n: int) -> int:
        """Bitmask of n fair coins: bit i is set when word i is even.

        Equal to setting bit i whenever the i-th of n ``below(2)`` calls
        returns 0; advances the counter by n.
        """
        mask = 0
        z = (self.seed + (self.counter + 1) * _GAMMA) & _MASK64
        for i in range(n):
            # _mix64 inlined; heads is an even word
            x = (z ^ (z >> 30)) * _MUL1 & _MASK64
            x = (x ^ (x >> 27)) * _MUL2 & _MASK64
            if not (x ^ (x >> 31)) & 1:
                mask |= 1 << i
            z = (z + _GAMMA) & _MASK64
        self.counter += n
        return mask

    def weighted_index(self, weights: Sequence[int]) -> int:
        """Pick index i with probability weights[i] / sum(weights).

        Weights must be non-negative integers, not all zero.  Used for
        sampling mechanism branches whose probabilities share a common
        denominator.
        """
        total = sum(weights)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        ticket = self.below(total)
        acc = 0
        for i, w in enumerate(weights):
            acc += w
            if ticket < acc:
                return i
        raise AssertionError("unreachable: ticket below total")

    def shuffled(self, items: Sequence) -> list:
        """Return a uniformly shuffled copy (Fisher-Yates, descending).

        Draws ``below(i + 1)`` for i = len-1 down to 1, swapping the
        current position with the drawn one.  The input is not modified.
        """
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out
