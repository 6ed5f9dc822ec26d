import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercount import field_from_order, field_make
from clustercount.coeffs import parse_coeff_text
from clustercount.errors import DivisionByZero, NonPrime, UnsupportedSize
from clustercount.forests import Forest
from clustercount.gf import is_prime

EXTENSIONS_BELOW_2_12 = [
    p**k for p in range(2, 64) if is_prime(p)
    for k in range(2, 12) if p**k < 2**12]


def test_prime_field_construction():
    f = field_make(5)
    assert (f.p, f.k, f.q) == (5, 1, 5)


def test_forced_modulus_f4():
    f = field_make(2, 2)
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1, the unique choice


def test_modulus_f9_is_lex_smallest():
    assert field_make(3, 2).modulus == (1, 0, 1)  # x^2 + 1


def test_modulus_f8():
    # candidates in low-degree-first lex order: x^3+1 factors, x^3+x^2+1 is
    # the first irreducible
    assert field_make(2, 3).modulus == (1, 0, 1, 1)


def test_nonprime_rejected():
    with pytest.raises(NonPrime):
        field_make(4, 1)
    with pytest.raises(NonPrime):
        field_from_order(12)


def test_size_bounds():
    with pytest.raises(UnsupportedSize):
        field_make(2, 21)  # 2^21 > 2^20
    with pytest.raises(UnsupportedSize):
        field_make(2**31 + 11)


def test_field_from_order():
    assert field_from_order(9).modulus == (1, 0, 1)
    assert field_from_order(7).k == 1
    assert field_from_order(8).q == 8


def _sieve(limit: int) -> list[bool]:
    """Eratosthenes: entry n says whether n is prime, for n < limit."""
    prime = [False, False] + [True] * (limit - 2)
    for n in range(2, limit):
        if prime[n]:
            prime[n * n::n] = [False] * len(prime[n * n::n])
    return prime


def test_is_prime_matches_sieve():
    assert [is_prime(n) for n in range(-3, 10**5)] == [False] * 3 + _sieve(10**5)
    # the largest prime below the bound of every field, and its neighbours
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 2) and not is_prime(2**31)


def test_field_from_order_every_small_order():
    prime = _sieve(2**12)
    powers = {p**k: (p, k) for p in range(2**12) if prime[p]
              for k in range(1, 12) if p**k < 2**12}
    for q in range(-2, 2**12):
        if q in powers:
            f = field_from_order(q)
            assert (f.p, f.k, f.q) == (*powers[q], q)
        else:
            with pytest.raises(UnsupportedSize if q < 2 else NonPrime):
                field_from_order(q)


@pytest.mark.parametrize("q", [2**31, 2**31 + 11, 6 * 10**9, 10**18 + 9])
def test_order_at_or_above_bound_rejected_before_factoring(q):
    with pytest.raises(UnsupportedSize, match=f"^field order {q} >= 2\\^31$"):
        field_from_order(q)


def test_inverse_examples():
    f5 = field_make(5)
    assert f5.inv_enc(f5.from_int(2)) == f5.from_int(3)
    f7 = field_make(7)
    assert f7.neg_enc(f7.from_int(3)) == f7.from_int(4)


def test_f4_generator_square():
    f4 = field_make(2, 2)
    x = f4.from_vector((0, 1))
    assert f4.text(f4.mul_enc(x, x)) == "1,1"  # x^2 = x + 1 mod x^2+x+1


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 27])
def test_text_reads_back_through_coeff_file(q):
    # every printed element, zero included, read back as a coefficient-file
    # value, is the encoding it was printed from
    f = field_from_order(q)
    single = Forest.make([1], [])
    for code in range(q):
        cm = parse_coeff_text(f"1 {f.text(code)}\n", f, single)
        assert cm.enc(1) == code


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_field_axioms_exhaustive_scalar(q):
    f = field_from_order(q)
    codes = range(q)
    for a, b, c in itertools.product(codes, repeat=3):
        assert f.add_enc(a, b) == f.add_enc(b, a)
        assert f.mul_enc(a, b) == f.mul_enc(b, a)
        assert f.add_enc(f.add_enc(a, b), c) == f.add_enc(a, f.add_enc(b, c))
        assert f.mul_enc(f.mul_enc(a, b), c) == f.mul_enc(a, f.mul_enc(b, c))
        assert (f.mul_enc(a, f.add_enc(b, c))
                == f.add_enc(f.mul_enc(a, b), f.mul_enc(a, c)))


@pytest.mark.parametrize("q", [9, 11, 16, 25, 27, 32, 49, 64])
def test_field_axioms_exhaustive_tables(q):
    # all q^3 triples at once: the product table is the log-table gather
    # (checked against the digit product in test_mul_table_is_digit_product)
    # and the sum table is built here from add_enc
    import numpy as np
    f = field_from_order(q)
    mul = f.mul_table()
    add = np.array([[f.add_enc(a, b) for b in range(q)] for a in range(q)],
                   dtype=np.int64)
    assert (mul == mul.T).all()
    assert (add == add.T).all()
    a = np.arange(q)[:, None, None]
    b = np.arange(q)[None, :, None]
    c = np.arange(q)[None, None, :]
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()


@pytest.mark.parametrize("q", [81, 121, 128])
def test_field_axioms_randomized_large(q):
    import random
    f = field_from_order(q)
    rng = random.Random(q)
    for _ in range(300):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.mul_enc(f.mul_enc(a, b), c) == f.mul_enc(a, f.mul_enc(b, c))
        assert (f.mul_enc(a, f.add_enc(b, c))
                == f.add_enc(f.mul_enc(a, b), f.mul_enc(a, c)))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27, 49, 121, 512])
def test_unit_group_order(q):
    f = field_from_order(q)
    for a in range(1, q):
        assert f.pow_enc(a, q - 1) == 1
        assert f.mul_enc(a, f.inv_enc(a)) == 1


def test_zero_inverse_raises():
    with pytest.raises(DivisionByZero):
        field_make(5).inv_enc(0)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 48), st.integers(0, 48))
@settings(max_examples=200, deadline=None)
def test_element_ops_match_int_mod(p, x, y):
    f = field_make(p)
    a, b = f.from_int(x), f.from_int(y)
    assert f.add_enc(a, b) == (x + y) % p
    assert f.mul_enc(a, b) == (x * y) % p
    assert f.sub_enc(a, b) == (x - y) % p


def test_table_dtypes():
    # the narrowest unsigned dtype that holds q - 1, built once per field
    for q, dtype in ((251, np.uint8), (256, np.uint8), (257, np.uint16),
                     (1024, np.uint16)):
        f = field_from_order(q)
        assert f.mul_table().dtype == f.plus_one_table().dtype == dtype
        assert f.mul_table() is f.mul_table()
        assert f.plus_one_table() is f.plus_one_table()


def test_tables_match_ops():
    # an extension field's product table reads its log tables; a prime
    # field's is residue arithmetic and builds none
    for q in (4, 5, 8, 9, 27):
        f = field_from_order(q)
        mul = f.mul_table()
        assert (f._logs is None) == (f.k == 1)
        plus = f.plus_one_table()
        for a in range(q):
            assert plus[a] == f.add_enc(a, 1)
            for b in range(q):
                assert mul[a, b] == f.mul_enc(a, b)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 256, 257, 1024])
def test_kernel_derived_tables(q):
    # the scan kernel's roots -1/c of 1 + c*y, and its product table
    # scaled by q, flat, in the narrowest dtype that holds q^2 - 1
    f = field_from_order(q)
    root = f.neg_inv_table()
    assert all(f.add_enc(1, f.mul_enc(c, root[c])) == 0 for c in range(1, q))
    mulq = f.scaled_mul_table()
    assert np.array_equal(mulq, q * f.mul_table().ravel().astype(np.int64))
    assert mulq.dtype == (np.uint8 if q <= 16 else np.uint16 if q <= 256
                          else np.uint32)
    assert f.scaled_mul_table() is mulq and f.neg_inv_table() is root


# -- discrete-log tables of the extension fields --------------------------------

def _pow_digits(f, a, e):
    """a^e by square-and-multiply on `_mul_digits`, a^-1 as a^(q-2)."""
    if e < 0:
        a, e = _pow_digits(f, a, f.q - 2), -e
    out = 1
    while e:
        if e & 1:
            out = f._mul_digits(out, a)
        a, e = f._mul_digits(a, a), e >> 1
    return out


@pytest.mark.parametrize("q", EXTENSIONS_BELOW_2_12)
def test_log_tables_walk_the_least_generator(q):
    f = field_from_order(q)
    log, antilog = f.log_tables()
    g = antilog[1]
    assert len(antilog) == len(set(antilog)) == q - 1 and 0 not in antilog
    assert all(antilog[i + 1] == f._mul_digits(g, antilog[i])
               for i in range(q - 2))
    assert f._mul_digits(g, antilog[-1]) == 1 == antilog[0]
    assert all(log[antilog[i]] == i for i in range(q - 1))
    # h generates F_q^* exactly when gcd(log h, q - 1) == 1; g is the least
    # encoding >= p that does
    assert all(math.gcd(log[h], q - 1) > 1 for h in range(f.p, g))
    assert all(type(x) is int for x in log + antilog)
    assert f.log_tables() is f.log_tables()


@pytest.mark.parametrize("q", [2**16, 3**9, 101**2])
def test_log_tables_large_build(q):
    import random
    f = field_from_order(q)
    log, antilog = f.log_tables()
    g, rng = antilog[1], random.Random(q)
    assert len(set(antilog)) == q - 1 and 0 not in antilog
    for i in [0, q - 3] + rng.sample(range(q - 2), 200):
        assert antilog[i + 1] == f._mul_digits(g, antilog[i])
        assert log[antilog[i]] == i
    assert f._mul_digits(g, antilog[-1]) == 1
    assert type(log[-1]) is int and type(antilog[-1]) is int


@pytest.mark.parametrize("q", [q for q in EXTENSIONS_BELOW_2_12 if q <= 256])
def test_mul_table_is_digit_product(q):
    f = field_from_order(q)
    mul = f.mul_table()
    assert [[f._mul_digits(a, b) for b in range(q)] for a in range(q)] \
        == mul.tolist()
    assert all(f.mul_enc(a, b) == mul[a, b]
               for a in range(q) for b in range(0, q, 7))


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49, 64, 81, 121, 243, 256])
def test_pow_and_inv_match_square_and_multiply(q):
    f = field_from_order(q)
    for a in range(1, q):
        assert f.inv_enc(a) == _pow_digits(f, a, -1)
        for e in (-2 * q - 1, -q, -3, -1, 0, 1, 2, q - 2, q - 1, q, 5 * q + 3):
            assert f.pow_enc(a, e) == _pow_digits(f, a, e)
    assert [f.pow_enc(0, e) for e in (0, 1, q)] == [1, 0, 0]
    with pytest.raises(DivisionByZero):
        f.pow_enc(0, -1)
    with pytest.raises(DivisionByZero):
        f.inv_enc(0)


def test_prime_fields_have_no_log_tables():
    f = field_make(2**31 - 1)
    with pytest.raises(UnsupportedSize):
        f.log_tables()
    assert f.pow_enc(3, -1) == pow(3, -1, 2**31 - 1)
    assert f.pow_enc(0, 0) == 1
    with pytest.raises(DivisionByZero):
        f.pow_enc(0, -2)
    assert f._logs is None
