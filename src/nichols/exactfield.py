"""Roots of unity as integers, and rationality read on a basis.

A root of unity zeta_m^a is held as its integer exponent a mod m, for the
m of its diagram or group: roots multiply by adding exponents, and
zeta_m^a is -1 exactly when 2a = m.  It is printed only through
root_name(m, a), as "1", "-1" or "z(o,e)" in lowest terms, one root at a
time: a caller names only the roots it prints, so printing one costs the
same whatever m is.

A cyclotomic number x = sum_j c_j zeta_m^j with integer c_j is never
built as a field element.  It is held as its terms (j, c), and
integer_value decides whether it is rational, and then which integer it
is (a rational algebraic integer is an integer), by writing it on a basis
of Q(zeta_m) that holds 1.  By the Chinese remainder theorem Q(zeta_m) is
the tensor product of the Q(zeta_q) over the prime powers q = p^a exactly
dividing m, each with its power basis of q - q/p roots, so the zeta_m^j
with j mod q below q - q/p for every such q are a basis of Q(zeta_m) (the
basis GAP uses for cyclotomics; T. Breuer, "Integral bases for subfields
of cyclotomic fields", AAECC 8 (1997), cited from memory).  zeta_m^(m/p)
is a primitive p-th root of unity, so sum_{t<p} zeta_m^(j + t m/p) = 0,
and a term whose exponent j has j mod q at or above q - q/p is replaced
by minus its p - 1 partners j + t m/p, 0 < t < p: their residues mod q
lie below q - q/p, and their residues mod every other prime power are
j's.  Once every q is reduced in turn, x is on the basis, so it is
rational exactly when only the exponent 0 is left, and x is that
coefficient.
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
def _axes(m: int) -> tuple:
    # for each prime power q = p^a exactly dividing m: q, the least residue
    # mod q off the basis, q - q/p, and the steps t m/p to the partners
    # (each p that divides what is left of m is prime: its factors are out)
    axes, rest = [], m
    for p in range(2, m + 1):
        q = 1
        while rest % p == 0:
            rest //= p
            q *= p
        if q > 1:
            axes.append((q, q - q // p, range(m // p, m, m // p)))
    return tuple(axes)


def integer_value(m: int, terms) -> Optional[int]:
    """The number x = sum c zeta_m^j over the (j, c) terms, 0 <= j < m, in
    any order and with exponents repeated, when x is rational (then it is
    an integer), or None when it is not."""
    x = {}
    for j, c in terms:
        x[j] = x.get(j, 0) + c
    for q, low, steps in _axes(m):
        for j, c in list(x.items()):
            if j % q >= low:
                del x[j]
                for s in steps:
                    t = (j + s) % m
                    x[t] = x.get(t, 0) - c
    value = x.pop(0, 0)
    return None if any(x.values()) else value
