"""Exact arithmetic in cyclotomic fields.

An element of Q(zeta_m) is stored as a polynomial in zeta_m of degree
below phi(m), reduced modulo the m-th cyclotomic polynomial, with
rational coefficients.  Equality of elements is equality of coefficient
vectors after coercing both operands to the lcm conductor.  Elements
whose coefficient vector is constant are demoted to conductor 1, so a
rational value has exactly one representation.

Hashing goes through a canonical form: the coefficient vector in the
smallest cyclotomic field that contains the element, so equal elements
hash equally whatever conductor they were built at.  A rational hashes as
the Fraction it equals.

Roots of unity also have an integer form, RootOfUnity: an (order,
exponent) pair in lowest terms, which multiplies by adding exponents and
prints exactly as the equal field element does.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

Rational = Fraction


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return out


def _poly_rem(num: list, den: tuple) -> list:
    # den must be monic; returns num mod den, padded to deg(den) coefficients
    num = list(num)
    dn = len(den) - 1
    while len(num) > dn:
        lead = num[-1]
        if lead:
            shift = len(num) - 1 - dn
            for i in range(dn):
                if den[i]:
                    num[shift + i] -= lead * den[i]
        num.pop()
    while len(num) < dn:
        num.append(Fraction(0))
    return num


def _poly_divexact(num: list, den: tuple) -> list:
    # den monic and dividing num exactly
    num = list(num)
    dn = len(den) - 1
    quot = [Fraction(0)] * (len(num) - dn)
    for shift in range(len(num) - dn - 1, -1, -1):
        lead = num[shift + dn]
        quot[shift] = lead
        if lead:
            for i in range(dn + 1):
                if den[i]:
                    num[shift + i] -= lead * den[i]
    if any(num):
        raise ArithmeticError("division was not exact")
    return quot


def _poly_divmod(num: list, den: list) -> tuple:
    num = [Fraction(c) for c in num]
    den = list(den)
    while den and not den[-1]:
        den.pop()
    dn = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - dn, 0)
    for shift in range(len(num) - dn - 1, -1, -1):
        c = num[shift + dn] / lead
        quot[shift] = c
        if c:
            for i in range(dn + 1):
                if den[i]:
                    num[shift + i] -= c * den[i]
    rem = num[:dn]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _poly_sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    out = [x - y for x, y in zip(a, b)]
    while out and not out[-1]:
        out.pop()
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients of the m-th cyclotomic polynomial, lowest degree first."""
    if m < 1:
        raise ValueError("order must be positive")
    if m == 1:
        return (Fraction(-1), Fraction(1))
    num = [Fraction(0)] * (m + 1)
    num[0] = Fraction(-1)
    num[m] = Fraction(1)
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divexact(num, cyclotomic_polynomial(d))
    return tuple(num)


def degree_of_field(m: int) -> int:
    """phi(m), the dimension of Q(zeta_m) over Q."""
    return len(cyclotomic_polynomial(m)) - 1


class RootOfUnity:
    """The value zeta_m**a as integers: order m and exponent a, in lowest
    terms (gcd(a, m) = 1, with 1 stored as (1, 0)).  Equal to the matching
    Cyclotomic, and printed the same way: "1", "-1" or "z(m,a)"."""

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

    def value(self) -> "Cyclotomic":
        return zeta(self.m, self.a)

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
        # equal to the matching Cyclotomic, so it must hash like it
        return _root_hash(self.m, self.a)

    def __str__(self) -> str:
        if self.m == 1:
            return "1"
        if self.m == 2:
            return "-1"
        return "z(%d,%d)" % (self.m, self.a)

    __repr__ = __str__


@lru_cache(maxsize=None)
def _root_hash(m: int, a: int) -> int:
    return hash(zeta(m, a))


class Cyclotomic:
    """An element of the cyclotomic field Q(zeta_m), in the power basis."""

    __slots__ = ("m", "coeffs", "_str", "_hash")

    def __init__(self, m: int, coeffs) -> None:
        if m < 1:
            raise ValueError("conductor must be positive")
        phi = degree_of_field(m)
        vec = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if len(vec) > phi:
            vec = _poly_rem(vec, cyclotomic_polynomial(m))
        while len(vec) < phi:
            vec.append(Fraction(0))
        if m > 1 and not any(vec[1:]):
            m = 1
            vec = vec[:1]
        self.m = m
        self.coeffs = tuple(vec)
        self._str = None
        self._hash = None

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic(1, (x,))
        if isinstance(x, RootOfUnity):
            return x.value()
        return NotImplemented

    def _lift(self, big: int) -> list:
        # coefficient vector of self inside Q(zeta_big), for m dividing big
        if self.m == big:
            return list(self.coeffs)
        step = big // self.m
        poly = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            poly[i * step] = c
        return _poly_rem(poly, cyclotomic_polynomial(big))

    def __add__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big = self.m * other.m // gcd(self.m, other.m)
        return Cyclotomic(big, [x + y for x, y in zip(self._lift(big), other._lift(big))])

    __radd__ = __add__

    def __sub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Cyclotomic(self.m, [-c for c in self.coeffs])

    def __mul__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big = self.m * other.m // gcd(self.m, other.m)
        return Cyclotomic(big, _poly_mul(self._lift(big), other._lift(big)))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if not self:
            raise ZeroDivisionError("inversion of zero")
        mod = list(cyclotomic_polynomial(self.m))
        r0, s0 = mod, [Fraction(0)]
        r1, s1 = list(self.coeffs), [Fraction(1)]
        while r1 and not r1[-1]:
            r1.pop()
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if len(r0) != 1:
            raise ArithmeticError("modulus is not irreducible")
        c = r0[0]
        return Cyclotomic(self.m, [x / c for x in s0])

    def __truediv__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "Cyclotomic":
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyclotomic(1, (1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def galois(self, t: int) -> "Cyclotomic":
        """Apply the field automorphism zeta_m -> zeta_m**t; t coprime to m."""
        if self.m == 1:
            return self
        if gcd(t, self.m) != 1:
            raise ValueError("exponent must be coprime to the conductor")
        t %= self.m
        poly = [Fraction(0)] * self.m
        for i, c in enumerate(self.coeffs):
            poly[(i * t) % self.m] += c
        return Cyclotomic(self.m, poly)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta_m -> zeta_m**(m-1)."""
        if self.m == 1:
            return self
        return self.galois(self.m - 1)

    def is_rational(self) -> bool:
        return self.m == 1

    def as_rational(self) -> Fraction:
        if self.m != 1:
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def as_root_of_unity(self):
        """Return the RootOfUnity equal to this element (lowest terms), or None."""
        if self.m == 1:
            c = self.coeffs[0]
            if c == 1:
                return RootOfUnity(1, 0)
            if c == -1:
                return RootOfUnity(2, 1)
            return None
        hit = _root_table(self.m).get(self.coeffs)
        if hit is None:
            return None
        return RootOfUnity(hit[0], hit[1])

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.m == other.m:
            return self.coeffs == other.coeffs
        big = self.m * other.m // gcd(self.m, other.m)
        return self._lift(big) == other._lift(big)

    def __hash__(self) -> int:
        if self._hash is None:
            m, coeffs = self.canonical()
            self._hash = hash(coeffs[0]) if m == 1 else hash((m, coeffs))
        return self._hash

    def canonical(self) -> tuple:
        """(f, coefficients) of this element in Q(zeta_f) for the smallest f
        with Q(zeta_f) containing it.  Equal elements give equal pairs."""
        if self.m == 1:
            return 1, self.coeffs
        for f in range(3, self.m):
            # Q(zeta_f) = Q(zeta_{f/2}) for f = 2 mod 4, already tried
            if self.m % f or f % 4 == 2:
                continue
            step = self.m // f
            basis = [zeta(self.m, i * step)._lift(self.m)
                     for i in range(degree_of_field(f))]
            coords = _solve(basis, list(self.coeffs))
            if coords is not None:
                return f, tuple(coords)
        return self.m, self.coeffs

    def __str__(self) -> str:
        if self._str is None:
            self._str = self._format()
        return self._str

    __repr__ = __str__

    def _format(self) -> str:
        if self.m == 1:
            return str(self.coeffs[0])
        root = self.as_root_of_unity()
        if root is not None:
            return "z(%d,%d)" % (root.m, root.a)
        return "cyc(%d;%s)" % (self.m, ",".join(str(c) for c in self.coeffs))


def _solve(columns: list, target: list):
    # the rational x with sum_i x_i * columns[i] = target, or None
    rows = [[col[r] for col in columns] + [target[r]] for r in range(len(target))]
    width = len(columns)
    pivots = []
    top = 0
    for c in range(width):
        pick = next((r for r in range(top, len(rows)) if rows[r][c]), None)
        if pick is None:
            continue
        rows[top], rows[pick] = rows[pick], rows[top]
        lead = rows[top][c]
        rows[top] = [x / lead for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[top])]
        pivots.append(c)
        top += 1
    if any(row[width] for row in rows[top:]):
        return None
    out = [Fraction(0)] * width
    for r, c in enumerate(pivots):
        out[c] = rows[r][width]
    return out


@lru_cache(maxsize=None)
def _root_table(m: int) -> dict:
    # coefficient vector at conductor m -> (order, exponent) in lowest terms,
    # over all roots of unity contained in Q(zeta_m), namely +-zeta_m^t
    full = m if m % 2 == 0 else 2 * m
    table = {}
    for s in (1, -1):
        for t in range(m):
            vec = [Fraction(0)] * (t + 1)
            vec[t] = Fraction(s)
            elt = Cyclotomic(m, vec)
            if elt.m != m:
                continue
            if m % 2 == 0:
                a = (t + (m // 2 if s < 0 else 0)) % m
            else:
                a = (2 * t + (m if s < 0 else 0)) % full
            g = gcd(a, full)
            table[elt.coeffs] = (full // g, a // g) if a else (1, 0)
    return table


def zeta(m: int, a: int = 1) -> Cyclotomic:
    """The root of unity zeta_m**a as a field element."""
    if m < 1:
        raise ValueError("order must be positive")
    a %= m
    vec = [Fraction(0)] * (a + 1)
    vec[a] = Fraction(1)
    return Cyclotomic(m, vec)


def rational(p, q: int = 1) -> Cyclotomic:
    """The rational number p/q as a field element."""
    return Cyclotomic(1, (Fraction(p, q),))


ZERO = rational(0)
ONE = rational(1)
MINUS_ONE = rational(-1)
ROOT_ONE = RootOfUnity(1, 0)
ROOT_MINUS_ONE = RootOfUnity(2, 1)
