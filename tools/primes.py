"""The first primes, by a sieve of Eratosthenes.

    python3 tools/primes.py COUNT     (prints the first COUNT primes, one a line)

Scripts run from the repository root import it with
`sys.path.insert(0, "tools"); from primes import first_primes`. Uses the
standard library only.
"""

from __future__ import annotations

import math
import sys
from typing import List


def first_primes(count: int) -> List[int]:
    """The first count primes, ascending; the sieve doubles until it holds them."""
    limit = 16
    while True:
        sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
        for d in range(2, math.isqrt(limit - 1) + 1):
            if sieve[d]:
                sieve[d * d :: d] = bytes(len(range(d * d, limit, d)))
        primes = [n for n, prime in enumerate(sieve) if prime]
        if len(primes) >= count:
            return primes[:count]
        limit *= 2


if __name__ == "__main__":
    print(*first_primes(int(sys.argv[1])), sep="\n")
