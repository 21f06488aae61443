"""Small exact integer helpers: prime factorization, the prime-power test
that grouplib's fields and the sieve share, and the sieve's prime-power table.

Everything here is integer-only; no floats anywhere.
"""

from __future__ import annotations

import math
from itertools import compress


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}. Trial division; fine for n <= ~10**12."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, f) with q = p**f, or None if q is not a prime power >= 2."""
    if q < 2:
        return None
    fac = factorize(q)
    if len(fac) != 1:
        return None
    (p, f), = fac.items()
    return p, f


def prime_powers_upto(lo: int, hi: int) -> list[int]:
    """The prime powers q with lo <= q <= hi, ascending: the primes up to hi
    from a sieve of Eratosthenes in a bytearray (one byte per integer,
    composites cleared by slice assignment), then the higher powers of those
    up to isqrt(hi), then one sort. The sieve takes memory linear in hi, so
    prime_power() and factorize() keep trial division for single, possibly
    large, q."""
    if hi < 2:
        return []
    flags = bytearray([1]) * (hi + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(hi) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, hi + 1, p)))
    primes = list(compress(range(hi + 1), flags))
    out = [p for p in primes if p >= lo]
    for p in primes:
        q = p * p
        if q > hi:
            break
        while q <= hi:
            if q >= lo:
                out.append(q)
            q *= p
    out.sort()
    return out

