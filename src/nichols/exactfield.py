"""Roots of unity as integers, and rationality tests by integer traces.

A root of unity is held as RootOfUnity: an (order, exponent) pair in
lowest terms, which multiplies by adding exponents and prints as "1", "-1"
or "z(m,a)".

A cyclotomic number sum_j c_j zeta_m^j with integer c_j is never built as
a field element.  rational_trace decides whether it is rational, and which
rational it is, from integer traces alone: the trace from Q(zeta_m) to Q
of zeta_m^j is the Ramanujan sum c_m(j) (Hardy-Wright 16.6), and the trace
form is non-degenerate, so x is the rational r exactly when
Tr(x zeta_m^-b) = r c_m(b) for every b below phi(m) = c_m(0).  It
returns the integer phi(m) x = Tr(x), so a caller tests a rational
against an integer, or its divisibility, in integers alone.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Optional


class RootOfUnity:
    """The value zeta_m**a as integers: order m and exponent a, in lowest
    terms (gcd(a, m) = 1, with 1 stored as (1, 0)).  Printed as "1", "-1"
    or "z(m,a)"."""

    __slots__ = ("m", "a")

    def __init__(self, m: int, a: int) -> None:
        if m < 1:
            raise ValueError("order must be positive")
        a %= m
        g = gcd(m, a)
        self.m = m // g
        self.a = a // g

    def order(self) -> int:
        return self.m

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        m = self.m * other.m // gcd(self.m, other.m)
        return RootOfUnity(m, self.a * (m // self.m) + other.a * (m // other.m))

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(self.m, -self.a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return self.m == other.m and self.a == other.a

    def __hash__(self) -> int:
        return hash((self.m, self.a))

    def __str__(self) -> str:
        if self.m == 1:
            return "1"
        if self.m == 2:
            return "-1"
        return "z(%d,%d)" % (self.m, self.a)

    __repr__ = __str__


ROOT_ONE = RootOfUnity(1, 0)
ROOT_MINUS_ONE = RootOfUnity(2, 1)


@lru_cache(maxsize=None)
def _ramanujan_sums(m: int) -> tuple:
    # c_m(j) for j < m, the sum of the j-th powers of the primitive m-th
    # roots of unity: the j-th powers of all m-th roots sum to m when m
    # divides j and to 0 otherwise, and the roots of each exact order d | m
    # contribute c_d(j)
    sums = [m] + [0] * (m - 1)
    for d in range(1, m):
        if m % d == 0:
            inner = _ramanujan_sums(d)
            for j in range(m):
                sums[j] -= inner[j % d]
    return tuple(sums)


def totient(m: int) -> int:
    """phi(m), the degree of Q(zeta_m)."""
    return _ramanujan_sums(m)[0]


def rational_trace(m: int, coeffs) -> Optional[int]:
    """phi(m) x for the number x = sum_j coeffs[j] zeta_m^j, m integer
    coefficients, when x is rational (then phi(m) x = Tr(x), an integer),
    or None when x is not rational."""
    sums = _ramanujan_sums(m)
    phi = sums[0]
    terms = [(j, c) for j, c in enumerate(coeffs) if c]
    trace = sum(c * sums[j] for j, c in terms)
    for b in range(1, phi):
        if phi * sum(c * sums[j - b] for j, c in terms) != trace * sums[b]:
            return None
    return trace
