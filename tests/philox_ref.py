"""Philox4x64-10 on Python ints, and the Monte Carlo runner's draw scheme
(``philox4x64-10/v1``) stated with it. Imports nothing from numpy or wqsc,
so it pins the words a run reads independently of numpy's generator."""

MASK = 2**64 - 1
MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
DRAW_TAG, MODE_TAG = 2**64 - 2, 2**64 - 1


def philox4x64(counter: int, key: tuple[int, int]) -> list[int]:
    """The four 64-bit words of the block at the 256-bit ``counter`` (its
    lowest word first) under the 128-bit ``key``, after 10 rounds."""
    x = [(counter >> (64 * i)) & MASK for i in range(4)]
    k0, k1 = key
    for round_ in range(10):
        if round_:
            k0, k1 = (k0 + WEYL[0]) & MASK, (k1 + WEYL[1]) & MASK
        p0, p1 = MULTIPLIERS[0] * x[0], MULTIPLIERS[1] * x[2]
        x = [(p1 >> 64) ^ x[1] ^ k0, p1 & MASK, (p0 >> 64) ^ x[3] ^ k1, p0 & MASK]
    return x


def draw_words(seed: int, round_: int) -> list[int]:
    """Round ``round_``'s 8 draw words: counters 2r+1 and 2r+2 under key
    ``(seed, 2**64-2)``, each word shifted ``>> 11``."""
    blocks = (philox4x64(2 * round_ + step, (seed, DRAW_TAG)) for step in (1, 2))
    return [word >> 11 for block in blocks for word in block]


def mode_word(seed: int, round_: int) -> int:
    """Round ``round_``'s mode word: word r mod 4 at counter r//4 + 1 under
    key ``(seed, 2**64-1)``, shifted ``>> 11``."""
    return philox4x64(round_ // 4 + 1, (seed, MODE_TAG))[round_ % 4] >> 11
