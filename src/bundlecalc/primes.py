"""Deterministic primality testing, exact below psi_13 ~ 3.3e24.

The Miller-Rabin test with the first 13 prime bases 2..41 is exact below
psi_13 = 3 317 044 064 679 887 385 961 981, the least strong pseudoprime to
all of them (Sorenson & Webster 2015).  With the 12 bases 2..37 it would be
exact only below psi_12 = 318 665 857 834 031 151 167 461, which those bases
pass although it is 399 165 290 221 * 798 330 580 441.
"""

from __future__ import annotations

from .errors import DomainError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin with the bases that make the test exact below
    EXACT_BELOW.  A number at or above it with no factor among the bases
    raises DomainError, since the test cannot decide it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= EXACT_BELOW:
        raise DomainError(
            f"primality is undecided at or above {EXACT_BELOW}, where the "
            "Miller-Rabin bases are no longer exact", code="prime_undecided"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
