"""Exact arithmetic in finite fields F_q, q = p^k.

Elements are encoded as integers in [0, q).  For prime fields the encoding
is the residue itself; for extension fields the base-p digits of the
encoding are the coefficients of the residue polynomial (digit i is the
coefficient of X^i).  The modulus is the lexicographically smallest monic
irreducible of degree k over F_p, coefficients compared low-degree-first,
so encodings are reproducible.

An element is its encoding everywhere: the `Field` methods ending in
`_enc` do the arithmetic on encodings, and `Field.text` prints one.

A prime field multiplies residues.  An extension field multiplies through
its discrete logarithm: `log_tables` fixes a generator g of F_q^* and lists
its powers once per field, so `mul_enc`, `inv_enc` and `pow_enc` add or
scale logs mod q - 1 and `mul_table` is one gather.  The digit product
`_mul_digits` is the one definition of the product; only that build reads
it.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

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
    """Remainder of num modulo den (den monic), by long division from the top
    shift down.  The coefficients of num must already lie in range(p), as
    both callers' do; the remainder's then do too."""
    num = list(num)
    dd = len(den) - 1
    for shift in range(len(num) - 1 - dd, -1, -1):
        lead = num[shift + dd]
        if lead:
            for i, c in enumerate(den):
                num[shift + i] = (num[shift + i] - lead * c) % p
    return tuple(num[:dd] + [0] * (dd - len(num)))


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

    __slots__ = ("p", "k", "q", "modulus", "_logs", "_mul_table",
                 "_scaled_mul_table", "_plus_one_table", "_inv_table",
                 "_neg_inv_table")

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
        self._logs = None
        self._mul_table = None
        self._scaled_mul_table = None
        self._plus_one_table = None
        self._inv_table = None
        self._neg_inv_table = None

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
        if a == 0 or b == 0:
            return 0
        log, antilog = self.log_tables()
        return antilog[(log[a] + log[b]) % (self.q - 1)]

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
        if a == 0:
            if e < 0:
                raise DivisionByZero("0 has no inverse")
            return int(e == 0)
        if self.k == 1:
            return pow(a, e, self.p)
        log, antilog = self.log_tables()
        return antilog[log[a] * e % (self.q - 1)]

    def inv_enc(self, a: int) -> int:
        return self.pow_enc(a, -1)

    # -- discrete logarithm of an extension field -------------------------------

    def log_tables(self) -> tuple[list[int], list[int]]:
        """(log, antilog) of an extension field, built on first use:
        antilog[i] is g^i for 0 <= i < q - 1, where g is the least encoding
        >= p whose q - 1 powers are all distinct, and log[antilog[i]] == i
        (log[0] is 0 and stands for no power).  A prime field has none: it
        multiplies residues, at q up to 2^31."""
        if self.k == 1:
            raise UnsupportedSize(f"F_{self.p} is a prime field: no log tables")
        if self._logs is None:
            antilog = next(pw for g in range(self.p, self.q)
                           if not ((pw := self._powers(g))[1:] == 1).any())
            log = np.zeros(self.q, dtype=np.int64)
            log[antilog] = np.arange(self.q - 1)
            self._logs = log.tolist(), antilog.tolist()
        return self._logs

    def _powers(self, g: int):
        """g^0 ... g^(q-2) as an int64 array, in baby and giant steps: the
        first B = ceil(sqrt(q - 1)) powers one `_mul_digits` at a time, then
        each further block of B as the digit vectors of the last block times
        the F_p-linear map "multiply by g^B", one int64 matrix product."""
        p, k, q = self.p, self.k, self.q
        baby = [1]
        for _ in range(math.isqrt(q - 2) + 1):
            baby.append(self._mul_digits(baby[-1], g))
        giant = baby.pop()
        step = np.array([self._digits(self._mul_digits(giant, p**i))
                         for i in range(k)], dtype=np.int64)
        block = np.array([self._digits(b) for b in baby], dtype=np.int64)
        weights = p ** np.arange(k, dtype=np.int64)
        out = []
        for _ in range(-(-(q - 1) // len(baby))):
            out.append(block @ weights)
            block = block @ step % p
        return np.concatenate(out)[:q - 1]

    # -- lookup tables for the enumeration kernels ------------------------------

    def mul_table(self):
        """(q, q) multiplication table on encodings, in the narrowest
        unsigned dtype that holds q - 1: uint8 up to q = 256, else uint16
        up to the kernel's q <= 1024."""
        if self._mul_table is None:
            q, dtype = self.q, np.min_scalar_type(self.q - 1)
            if self.k == 1:
                col = np.arange(q, dtype=np.int64)
                tab = col[:, None] * col[None, :] % q
                self._mul_table = tab.astype(dtype)
            else:
                log, antilog = map(np.array, self.log_tables())
                tab = antilog.astype(dtype).take(log[:, None] + log[None, :],
                                                 mode="wrap")
                tab[0, :] = tab[:, 0] = 0
                self._mul_table = tab
        return self._mul_table

    def scaled_mul_table(self):
        """`mul_table` times q, flat: entry a*q + b is q * (a*b), so that a
        product read from it plus an encoding b is the index of the next
        product by b.  Its dtype is the narrowest unsigned one that holds
        q^2 - 1: uint8 up to q = 16, uint16 up to q = 256, else uint32."""
        if self._scaled_mul_table is None:
            q = self.q
            self._scaled_mul_table = np.multiply(
                self.mul_table().ravel(), q,
                dtype=np.min_scalar_type(q * q - 1))
        return self._scaled_mul_table

    def plus_one_table(self):
        """Table mapping encoding of v to encoding of v + 1, in the dtype
        of `mul_table`."""
        if self._plus_one_table is None:
            self._plus_one_table = np.array(
                [self.add_enc(c, 1) for c in range(self.q)],
                dtype=np.min_scalar_type(self.q - 1))
        return self._plus_one_table

    def inv_table(self) -> list[int]:
        if self._inv_table is None:
            self._inv_table = [0] + [self.inv_enc(c) for c in range(1, self.q)]
        return self._inv_table

    def neg_inv_table(self) -> list[int]:
        """-1/c for each unit c, the root of 1 + c*y; 0 at c = 0, which
        has none."""
        if self._neg_inv_table is None:
            self._neg_inv_table = [0] + [self.neg_enc(c)
                                         for c in self.inv_table()[1:]]
        return self._neg_inv_table


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
