"""Bloom filters rendered as S3 Select predicates (paper SV).

S3 Select has no bitwise operators and no binary data, so PushdownDB
represents the bit array as a literal string of ``'0'``/``'1'``
characters and tests membership with ``SUBSTRING(bits, h(x)+1, 1) = '1'``
where ``h`` is a universal hash -- only arithmetic, which the dialect
supports::

    h_{a,b}(x) = ((a*x + b) mod n) mod m,   n prime >= m

Sizing for a target false-positive rate ``p`` over ``s`` keys follows
Almeida et al. (paper's formulas)::

    k_p = log2(1/p)          hash functions
    m_p = s * |ln p| / (ln 2)^2   bits

The rendered predicate must fit S3 Select's 256 KB SQL limit; callers
degrade ``p`` (and ultimately fall back to a filtered join) when it
does not -- see :func:`fit_fpr_to_limit`.
"""
from __future__ import annotations

import math

import numpy as np


def next_prime(n: int) -> int:
    """Smallest prime >= n (trial division; n is at most a few million)."""
    if n <= 2:
        return 2
    candidate = n if n % 2 else n + 1
    while True:
        if all(candidate % d for d in range(3, int(math.isqrt(candidate)) + 1, 2)):
            return candidate
        candidate += 2


def optimal_k(p: float) -> int:
    """Number of hash functions for false-positive rate ``p``."""
    return max(1, round(math.log2(1.0 / p)))


def optimal_m(s: int, p: float) -> int:
    """Bit-array length for ``s`` keys at false-positive rate ``p``."""
    return max(1, math.ceil(s * abs(math.log(p)) / (math.log(2) ** 2)))


# Largest key value the filter supports. Universal hashing needs its
# prime modulus n >= the key universe (otherwise keys collide mod n and
# every hash function agrees on the collision, inflating the FPR), and
# a*x must stay exact in the engine's float64 arithmetic: with
# a < n ~= 2*MAX_KEY, a*x < 2*MAX_KEY^2 ~= 2**52 < 2**53.
MAX_KEY = 60_000_000


class BloomFilter:
    """A Bloom filter over integer keys with universal hashing."""

    def __init__(self, n_keys: int, fpr: float, seed: int = 0,
                 universe: int = MAX_KEY):
        if universe > MAX_KEY:
            raise ValueError(f"keys above {MAX_KEY} overflow the hash arithmetic")
        self.fpr = fpr
        self.m = optimal_m(max(1, n_keys), fpr)
        self.k = optimal_k(fpr)
        # Prime >= both the bit array and the key universe (paper: "a
        # prime >= m"; universality additionally needs n > max key).
        self.n = next_prime(max(self.m, universe + 1))
        rng = np.random.default_rng(seed)
        # a in [1, n), b in [0, n): k independent universal hash functions.
        self.a = [int(rng.integers(1, self.n)) for _ in range(self.k)]
        self.b = [int(rng.integers(0, self.n)) for _ in range(self.k)]
        self.bits = np.zeros(self.m, dtype=bool)

    def _positions(self, keys: np.ndarray, i: int) -> np.ndarray:
        # Exact in int64: a < n ~= 2*MAX_KEY and keys <= MAX_KEY keep
        # a*x below 2**53.
        return ((self.a[i] * keys.astype(np.int64) + self.b[i]) % self.n) % self.m

    def add_all(self, keys) -> None:
        ks = np.asarray(keys, dtype=np.int64)
        for i in range(self.k):
            self.bits[self._positions(ks, i)] = True

    def might_contain(self, keys) -> np.ndarray:
        ks = np.asarray(keys, dtype=np.int64)
        out = np.ones(len(ks), dtype=bool)
        for i in range(self.k):
            out &= self.bits[self._positions(ks, i)]
        return out

    def bit_string(self) -> str:
        """The 0/1-character rendering sent inside the S3 Select SQL."""
        return (self.bits.view(np.uint8) + ord("0")).tobytes().decode("ascii")

    def to_predicate(self, column: str) -> str:
        """S3 Select boolean text testing ``column`` against the filter."""
        bits = self.bit_string()
        clauses = [
            f"SUBSTRING('{bits}', "
            f"((({self.a[i]} * CAST({column} AS INT) + {self.b[i]}) % {self.n}) "
            f"% {self.m}) + 1, 1) = '1'"
            for i in range(self.k)
        ]
        return " AND ".join(clauses)


def build_from_keys(keys, fpr: float, seed: int = 0) -> BloomFilter:
    """Build a filter holding every (distinct) key in ``keys``."""
    ks = np.unique(np.asarray(keys, dtype=np.int64))
    if len(ks) and (ks.min() < 0 or ks.max() > MAX_KEY):
        raise ValueError(
            f"join keys must be in [0, {MAX_KEY}] for exact hash arithmetic"
        )
    universe = int(ks.max()) if len(ks) else 1
    bf = BloomFilter(len(ks), fpr, seed=seed, universe=universe)
    bf.add_all(ks)
    return bf


def fit_fpr_to_limit(
    keys,
    fpr: float,
    column: str,
    sql_budget: int,
    seed: int = 0,
) -> BloomFilter | None:
    """Degrade ``fpr`` until the predicate fits ``sql_budget``.

    Rates are tried in x10 steps from ``fpr``, with 0.5 (a single hash
    function) as the last resort. Returns ``None`` when no achievable
    rate < 1 fits -- the paper's signal to fall back to a (serial)
    filtered join.
    """
    schedule = []
    p = fpr
    while p < 0.5:
        schedule.append(p)
        p *= 10.0
    schedule.append(0.5)
    for p in schedule:
        bf = build_from_keys(keys, p, seed=seed)
        if len(bf.to_predicate(column).encode()) <= sql_budget:
            return bf
    return None
