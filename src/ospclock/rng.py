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
high bits, so ``below(n)`` is exactly uniform for any ``n <= 2**64``;
larger bounds are refused rather than drawn from several words.

``coin_mask(n)`` batches n fair coins: it returns the bitmask that n
calls of ``below(2) == 0`` would build (``below(2)`` never rejects, so
each coin is one word and heads means an even word).  ``shuffled``
draws its k = len - 1 Fisher-Yates words as one batch too.

A batch is computed in one pass over a lane-packed Python int: lane i
holds word ``counter + i`` at bits [128 i, 128 i + 64), and the upper
64 bits of every lane are padding.  ``base * ONES + STEPS``, cut to 64
bits per lane by ``LOW``, gives every lane's ``seed + (counter + i + 1)
* gamma mod 2**64`` (``STEPS`` holds ``i * gamma mod 2**64`` in lane
i).  Each multiplying round of the finalizer is then
``z = (z ^ (z >> s) & LOW) * MUL & LOW``: the inner mask drops the bits
a shift brings down from the next lane, and a lane's 64-bit product
fits in its 128-bit slot, so no carry crosses lanes.  One ``to_bytes``
reads the words out.  ``ONES``, ``STEPS`` and ``LOW`` are built once at
import for a chunk of ``_CHUNK`` lanes and cut to a shorter batch with
one mask; longer batches run chunk by chunk, low words first.

The batched helpers draw exactly the words, in the order, that the same
draws through ``next_word`` would, and leave the counter where those
draws would, so the stream, and its name ``splitmix64-v1``, are
unchanged; only ``next_word`` calls become fewer.
"""

from __future__ import annotations

import struct
from typing import Sequence

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# lane-packed batches: one 128-bit lane per word, _CHUNK lanes at most
_CHUNK = 256
_LANE_BITS = 128
_LANE_BYTES = _LANE_BITS // 8
_LOW = sum(_MASK64 << (_LANE_BITS * i) for i in range(_CHUNK))
_ONES = sum(1 << (_LANE_BITS * i) for i in range(_CHUNK))
_STEPS = sum((i * _GAMMA & _MASK64) << (_LANE_BITS * i) for i in range(_CHUNK))
# an even low byte is a head: '1' in the mask's binary string
_HEADS = bytes(b"10"[b & 1] for b in range(256))


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * _MUL1 & _MASK64
    z = (z ^ (z >> 27)) * _MUL2 & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _packed_words(seed: int, counter: int, r: int) -> bytes:
    """Words ``counter .. counter + r - 1`` of the stream, 0 < r <= _CHUNK.

    Little-endian bytes, one 16-byte lane per word: the word in the low
    8 bytes.  The high 8 are padding; the last round skips its mask, so
    they hold bits shifted down from the next lane and must not be read.
    """
    cut = (1 << (_LANE_BITS * r)) - 1
    low = _LOW & cut
    base = (seed + (counter + 1) * _GAMMA) & _MASK64
    z = (base * (_ONES & cut) + (_STEPS & cut)) & low
    z = (z ^ (z >> 30) & low) * _MUL1 & low
    z = (z ^ (z >> 27) & low) * _MUL2 & low
    return (z ^ z >> 31).to_bytes(_LANE_BYTES * r, "little")


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
        One word cannot serve a bound above 2**64, so that is refused.
        """
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        if n > 1 << 64:
            raise ValueError(f"below() needs a bound of at most 2**64, got {n}")
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
        if n < 0:
            raise ValueError(f"coin_mask() needs n >= 0, got {n}")
        mask = 0
        for done in range(0, n, _CHUNK):
            r = min(_CHUNK, n - done)
            lanes = _packed_words(self.seed, self.counter + done, r)
            # each lane's low byte, highest lane first, as binary digits
            digits = lanes[-_LANE_BYTES::-_LANE_BYTES].translate(_HEADS)
            mask |= int(digits, 2) << done
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
        The words come in batches; a word that ``below(i + 1)`` might
        reject (one >= 2**64 - i - 1, probability below len / 2**64)
        hands that position and the rest to ``below``, which draws the
        same word first, so draws and counter match the scalar loop.
        """
        out = list(items)
        top = max(len(out) - 1, 0)
        start = self.counter
        for done in range(0, top, _CHUNK):
            r = min(_CHUNK, top - done)
            lanes = _packed_words(self.seed, start + done, r)
            words = struct.unpack("<" + "Q8x" * r, lanes)
            for i, word in zip(range(top - done, top - done - r, -1), words):
                if word >= _MASK64 - i:
                    self.counter = start + top - i
                    for p in range(i, 0, -1):
                        j = self.below(p + 1)
                        out[p], out[j] = out[j], out[p]
                    return out
                j = word % (i + 1)
                out[i], out[j] = out[j], out[i]
        self.counter = start + top
        return out
