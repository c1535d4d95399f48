"""Roots of unity as integers, and rationality tests by integer traces.

A root of unity zeta_m^a is held as its integer exponent a mod m, for the
m of its diagram or group: roots multiply by adding exponents, and
zeta_m^a is -1 exactly when 2a = m.  It is printed only through
root_name(m, a), as "1", "-1" or "z(o,e)" in lowest terms, one root at a
time: a caller names only the roots it prints, so printing one costs the
same whatever m is.

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


@lru_cache(maxsize=None)
def root_name(m: int, a: int) -> str:
    """The printed form of zeta_m**a, a < m, in lowest terms: "1", "-1",
    or "z(o,e)" for zeta_o**e with gcd(e, o) = 1."""
    o, e = m // gcd(a, m), a // gcd(a, m)
    return "1" if o == 1 else "-1" if o == 2 else "z(%d,%d)" % (o, e)


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
