"""Exact arithmetic in finite fields F_q, q = p^k.

Elements are encoded as integers in [0, q).  For prime fields the encoding
is the residue itself; for extension fields the base-p digits of the
encoding are the coefficients of the residue polynomial (digit i is the
coefficient of X^i).  The modulus is the lexicographically smallest monic
irreducible of degree k over F_p, coefficients compared low-degree-first,
so encodings are reproducible.

An element is its encoding everywhere: the `Field` methods ending in
`_enc` do the arithmetic on encodings, and `Field.text` prints one.

An extension-field product is computed once from the digits and then kept
in the field's dict keyed a * q + b, so `mul_enc` costs a lookup after the
first call on a pair.  `mul_table` builds its rows from the digits without
filling that dict.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import DivisionByZero, NonPrime, UnsupportedSize

MAX_PRIME = 2**31
MAX_EXTENSION_ORDER = 2**20


def _least_factor(n: int) -> int:
    """The smallest prime factor of n >= 2, by trial division up to sqrt(n):
    at most 46,340 divisions below MAX_PRIME, the bound of every field."""
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)


def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division: exact at any n, and quick below
    2^31, the only characteristics a `Field` takes."""
    return n >= 2 and _least_factor(n) == n


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient tuples, low degree first)
# ---------------------------------------------------------------------------

def _poly_mod(num: tuple[int, ...], den: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of num modulo den (den monic), coefficients mod p."""
    num = list(num)
    dd = len(den) - 1
    while len(num) - 1 >= dd and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dd:
            break
        shift = len(num) - 1 - dd
        lead = num[-1]
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - lead * c) % p
        while num and num[-1] == 0:
            num.pop()
    out = num + [0] * (dd - len(num))
    return tuple(out[:dd])


def _poly_is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if poly[0] == 0:  # divisible by X
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = tuple(tail) + (1,)
            if not any(_poly_mod(poly, den, p)):
                return False
    return True


@lru_cache(maxsize=None)
def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p."""
    if k == 1:
        return (0, 1)  # the polynomial X; F_p[X]/(X) = F_p
    for tail in itertools.product(range(p), repeat=k):
        cand = tuple(tail) + (1,)
        if _poly_is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """A finite field F_q together with exact arithmetic on encodings."""

    __slots__ = ("p", "k", "q", "modulus", "_products", "_mul_table",
                 "_plus_one_table", "_inv_table")

    def __init__(self, p: int, k: int = 1):
        if isinstance(p, int) and p >= MAX_PRIME:
            raise UnsupportedSize(f"characteristic {p} >= 2^31")
        if not isinstance(p, int) or not is_prime(p):
            raise NonPrime(f"{p} is not prime")
        if not isinstance(k, int) or k < 1:
            raise UnsupportedSize(f"extension degree {k} must be >= 1")
        q = p**k
        if k > 1 and q > MAX_EXTENSION_ORDER:
            raise UnsupportedSize(f"extension order {p}^{k} exceeds 2^20")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = _smallest_irreducible(p, k)
        self._products: dict[int, int] = {}
        self._mul_table = None
        self._plus_one_table = None
        self._inv_table = None

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.k) == (other.p, other.k))

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.q}(={self.p}^{self.k}, mod {self.modulus_str()})"

    def modulus_str(self) -> str:
        terms = []
        for i, c in enumerate(self.modulus):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return " + ".join(reversed(terms))

    # -- encoding helpers ----------------------------------------------------

    def _digits(self, code: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return out

    def _encode(self, digits) -> int:
        code = 0
        for d in reversed(list(digits)):
            code = code * self.p + d % self.p
        return code

    def from_int(self, value: int) -> int:
        """Encode an integer: reduced mod p as a constant, except that values
        already in [0, q) for an extension field are taken as raw encodings."""
        if self.k > 1 and 0 <= value < self.q:
            return value
        return value % self.p

    def from_vector(self, coeffs) -> int:
        coeffs = list(coeffs)
        if len(coeffs) > self.k:
            raise UnsupportedSize(f"vector longer than extension degree {self.k}")
        coeffs += [0] * (self.k - len(coeffs))
        return self._encode(coeffs)

    def text(self, code: int) -> str:
        """An encoding as printed: the residue over a prime field, otherwise
        its base-p digits, low degree first, joined by ','."""
        if self.k == 1:
            return str(code)
        return ",".join(map(str, self._digits(code)))

    # -- arithmetic on encodings ----------------------------------------------

    def add_enc(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return self._encode(x + y for x, y in zip(self._digits(a), self._digits(b)))

    def sub_enc(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        return self._encode(x - y for x, y in zip(self._digits(a), self._digits(b)))

    def neg_enc(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        return self._encode(-x for x in self._digits(a))

    def mul_enc(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        key = a * self.q + b
        out = self._products.get(key)
        if out is None:
            out = self._products[key] = self._mul_digits(a, b)
        return out

    def _mul_digits(self, a: int, b: int) -> int:
        """The product of two extension-field encodings, from their digits."""
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        return self._encode(_poly_mod(tuple(c % self.p for c in prod),
                                      self.modulus, self.p))

    def pow_enc(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_enc(self.inv_enc(a), -e)
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul_enc(out, base)
            base = self.mul_enc(base, base)
            e >>= 1
        return out

    def inv_enc(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no inverse")
        if self.k == 1:
            return pow(a, -1, self.p)
        return self.pow_enc(a, self.q - 2)

    # -- lookup tables for the enumeration kernels ------------------------------

    def mul_table(self):
        """(q, q) int64 multiplication table on encodings."""
        import numpy as np

        if self._mul_table is None:
            q = self.q
            if self.k == 1:
                col = np.arange(q, dtype=np.int64)
                self._mul_table = (col[:, None] * col[None, :]) % q
            else:
                tab = np.zeros((q, q), dtype=np.int64)
                for a in range(q):
                    for b in range(a, q):
                        v = self._mul_digits(a, b)
                        tab[a, b] = v
                        tab[b, a] = v
                self._mul_table = tab
        return self._mul_table

    def plus_one_table(self):
        """int64 table mapping encoding of v to encoding of v + 1."""
        import numpy as np

        if self._plus_one_table is None:
            self._plus_one_table = np.array(
                [self.add_enc(c, 1) for c in range(self.q)], dtype=np.int64)
        return self._plus_one_table

    def inv_table(self) -> list[int]:
        if self._inv_table is None:
            self._inv_table = [0] + [self.inv_enc(c) for c in range(1, self.q)]
        return self._inv_table


def field_make(p: int, k: int = 1) -> Field:
    """Construct F_{p^k} with the deterministic modulus choice."""
    return Field(p, k)


def field_from_order(q: int) -> Field:
    """Construct the field of order q, factoring q as a prime power.  An
    order of 2^31 or more is rejected before any factoring."""
    if q < 2:
        raise UnsupportedSize(f"field order {q} < 2")
    if q >= MAX_PRIME:
        raise UnsupportedSize(f"field order {q} >= 2^31")
    p, k, m = _least_factor(q), 0, q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise NonPrime(f"{q} is not a prime power")
    return Field(p, k)
