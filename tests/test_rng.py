"""Tests for the counter-based random stream."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ospclock import rng as rng_module
from ospclock.rng import CounterRng

MASK = (1 << 64) - 1


def reference_splitmix64(seed, count):
    """Sequential-state splitmix64, written independently of CounterRng.

    The counter-based stream must equal the classic generator that
    advances an internal state by the golden-ratio increment.
    """
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append((z ^ (z >> 31)) & MASK)
    return out


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_stream_matches_sequential_reference(seed):
    rng = CounterRng(seed)
    words = [rng.next_word() for _ in range(20)]
    assert words == reference_splitmix64(seed, 20)


def test_same_seed_same_stream():
    a = CounterRng(12345)
    b = CounterRng(12345)
    assert [a.next_word() for _ in range(50)] == [b.next_word() for _ in range(50)]


def test_different_seeds_diverge():
    a = CounterRng(0)
    b = CounterRng(1)
    assert [a.next_word() for _ in range(8)] != [b.next_word() for _ in range(8)]


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=1000))
def test_below_in_range(seed, n):
    rng = CounterRng(seed)
    for _ in range(5):
        assert 0 <= rng.below(n) < n


def test_below_one_consumes_nothing():
    rng = CounterRng(7)
    assert rng.below(1) == 0
    assert rng.counter == 0


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        CounterRng(0).below(0)


def test_clone_is_independent():
    rng = CounterRng(3)
    rng.next_word()
    dup = rng.clone()
    assert dup.next_word() == rng.next_word()


class _TicketRng(CounterRng):
    """Feeds a fixed ticket to below(), to test bucket boundaries."""

    def __init__(self, ticket):
        super().__init__(0)
        self.ticket = ticket

    def below(self, n):
        assert self.ticket < n
        return self.ticket


def test_weighted_index_bucket_boundaries():
    weights = [2, 0, 3, 1]
    expected = [0, 0, 2, 2, 2, 3]
    got = [_TicketRng(t).weighted_index(weights) for t in range(6)]
    assert got == expected


def test_weighted_index_rejects_zero_total():
    with pytest.raises(ValueError):
        CounterRng(0).weighted_index([0, 0])


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=8))
def test_shuffled_is_a_permutation(seed, size):
    items = list(range(size))
    out = CounterRng(seed).shuffled(items)
    assert sorted(out) == items
    assert items == list(range(size))  # input untouched


def test_shuffled_hits_every_order_of_three():
    """All 6 orders of a 3-element list appear across a seed sweep."""
    seen = set()
    for seed in range(200):
        seen.add(tuple(CounterRng(seed).shuffled([0, 1, 2])))
    assert len(seen) == 6


def test_coin_mask_draws_the_words_of_n_fair_coins():
    """coin_mask(n) is n calls of below(2) == 0 on the same stream: same
    mask, same counter afterwards, and the next word agrees."""
    for seed in (0, 1, 9, 2**63 + 5, MASK):
        for start in (0, 3):
            for n in (0, 1, 63, 64, 65, 200):
                rng = CounterRng(seed)
                rng.counter = start
                ref = rng.clone()
                mask = rng.coin_mask(n)
                expected = 0
                for i in range(n):
                    if ref.below(2) == 0:
                        expected |= 1 << i
                assert mask == expected, (seed, start, n)
                assert rng.counter == ref.counter == start + n
                assert rng.next_word() == ref.next_word()


# ---------------------------------------------------------------------------
# the lane-packed batch kernel against scalar draws through next_word


def _scalar_shuffled(rng, items):
    """Descending Fisher-Yates on ``below``: the word-at-a-time reference."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def test_below_refuses_bounds_past_one_word():
    rng = CounterRng(4)
    rng.below(2**64)  # still one word: every word is accepted
    assert rng.counter == 1
    with pytest.raises(ValueError, match=r"2\*\*64"):
        rng.below(2**64 + 1)
    with pytest.raises(ValueError, match=r"2\*\*64"):
        rng.below(2**70)
    assert rng.counter == 1


def test_coin_mask_refuses_a_negative_count():
    rng = CounterRng(4)
    rng.counter = 10
    with pytest.raises(ValueError, match="-3"):
        rng.coin_mask(-3)
    assert rng.counter == 10


def test_coin_mask_matches_fair_coins_across_chunks_and_wraparound():
    """Batches of one, a full chunk, a chunk and a word, and several
    chunks, from counters where ``seed + (counter + 1) * gamma`` wraps
    past 2**64 inside the batch."""
    for seed in (0, 5, MASK):
        for start in (0, MASK - 300, MASK - 2, 2**63 - 1):
            for n in (0, 1, 255, 256, 257, 600):
                rng = CounterRng(seed)
                rng.counter = start
                ref = rng.clone()
                expected = 0
                for i in range(n):
                    if ref.below(2) == 0:
                        expected |= 1 << i
                assert rng.coin_mask(n) == expected, (seed, start, n)
                assert rng.counter == ref.counter == start + n
                assert rng.next_word() == ref.next_word()


def test_shuffled_matches_scalar_fisher_yates():
    """Permutation, final counter and the next word agree for every size
    from 0 to 300, across chunk boundaries."""
    for seed in (0, 77, MASK):
        for start in (0, 12_345, MASK - 150):
            rng = CounterRng(seed)
            rng.counter = start
            ref = rng.clone()
            for size in range(301):
                items = [f"x{i}" for i in range(size)]
                assert rng.shuffled(items) == _scalar_shuffled(ref, items), (
                    seed,
                    start,
                    size,
                )
                assert rng.counter == ref.counter
            assert rng.next_word() == ref.next_word()


class _ForcedWordRng(CounterRng):
    """The stream with the word at counter ``at`` replaced by ``word``."""

    def __init__(self, seed, at, word):
        super().__init__(seed)
        self.at = at
        self.word = word

    def next_word(self):
        if self.counter == self.at:
            self.counter += 1
            return self.word
        return super().next_word()


@pytest.mark.parametrize(
    "size,offset,at_limit",
    [
        (40, 0, False),
        (40, 7, False),
        (40, 7, True),
        (40, 32, False),
        (40, 38, False),
        (300, 260, False),
        (600, 520, True),
    ],
    ids=["first", "mid", "mid-limit", "bound-8", "last", "second-chunk", "third-chunk"],
)
def test_shuffled_falls_back_to_below_on_a_rejectable_word(
    monkeypatch, size, offset, at_limit
):
    """A batch word that ``below`` might reject hands the rest of the
    shuffle to ``below``, which rejects that same word first (or, for a
    power-of-two bound, accepts it): the draws match a reference fed
    the same words.  The forced word is 2**64 - 1, or with ``at_limit``
    the smallest word ``below`` rejects for that bound."""
    packed = rng_module._packed_words
    seed, start = 31, 1_000
    at = start + offset
    bound = size - offset  # the forced word serves below(bound)
    word = (1 << 64) - (1 << 64) % bound if at_limit else MASK

    def forced(seed_, counter, r):
        lanes = bytearray(packed(seed_, counter, r))
        if counter <= at < counter + r:
            lane = 16 * (at - counter)
            lanes[lane:lane + 8] = word.to_bytes(8, "little")
        return bytes(lanes)

    monkeypatch.setattr(rng_module, "_packed_words", forced)
    rng = _ForcedWordRng(seed, at, word)
    rng.counter = start
    ref = _ForcedWordRng(seed, at, word)
    ref.counter = start
    items = list(range(size))
    assert rng.shuffled(items) == _scalar_shuffled(ref, items)
    assert rng.counter == ref.counter
    rejected = bound & (bound - 1) != 0
    assert rng.counter == start + size - 1 + rejected
    assert rng.next_word() == ref.next_word()
