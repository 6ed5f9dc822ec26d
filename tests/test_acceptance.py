"""Acceptance suite: one test per verification battery, exact tolerances.

Each battery runs over its full stated range (see `clustercount.suites`)
and prints a PASS/FAIL line; every comparison inside is exact integer
equality.  Per-battery time limits guard the enumeration-heavy ones.
"""

import time

from clustercount.suites import PAPER_SUITE, run_suite


def _run(name, time_limit=None):
    start = time.perf_counter()
    result = run_suite(name)[0]
    elapsed = time.perf_counter() - start
    status = "PASS" if result.ok else "FAIL"
    print(f"[{status}] {result.name}: {result.checked} checks "
          f"in {elapsed:.1f}s")
    for failure in result.failures[:10]:
        print(f"    counterexample: {failure}")
    assert result.ok, f"{result.name}: {result.failures[:3]}"
    if time_limit is not None:
        assert elapsed < time_limit, (
            f"{result.name} took {elapsed:.1f}s, limit {time_limit}s")
    return result


def test_criterion_01_type_a_battery():
    # n = 0..8, q in {2,3,4,5,7}, every normal-form parameter; three-way
    # agreement plus the exact q^((n+1)/2) special-case excess
    _run("typeA", time_limit=120)


def test_criterion_02_type_d_battery():
    # n in {4,5,6}, q in {2,3,4,5}, all unit parameters; all six branches
    # fire
    _run("typeD", time_limit=120)


def test_criterion_03_type_e_battery():
    # E6/E7/E8, each at every q in {2,3,4,5}: the criterion range {2,3,5}
    # plus the prime power 4
    _run("typeE")


def test_criterion_04_reduction_soundness():
    # 500 random (tree <= 7, q in {2,3,5}, unit coefficients) cases:
    # count invariance under flip and normalize; ones on covered vertices
    _run("reduction", time_limit=60)


def test_criterion_05_yz_identities():
    # n <= 5, q in {2,3,5}: enumerated Y and Z match the closed forms and
    # Z(n) = Y(n) + Y(n-1)
    _run("yz")


def test_criterion_06_z_fibration():
    # n in {1,2,3}, q in {2,3}: surjective, every fiber exactly q points
    _run("fibration")


def test_criterion_07_smoothness_classification():
    # n <= 6, q in {2,3,5,7}, all unit leading coefficients: singular
    # counts match the parity/special-value classification, odd
    # coordinates vanish at the unique singular point; the points come from
    # the matching criterion (independent sets failing Hall's condition)
    _run("smoothness", time_limit=60)


def test_criterion_08_cohomology_consistency():
    # alternating weight sums equal counts: Y (n <= 6), even all-ones
    # family (n <= 8), q in {2,3,5,7}
    _run("cohomology")


def test_criterion_09_interpolation():
    # nine family branches reproduce their polynomials with zero held-out
    # residual at two extra primes and integer coefficients
    _run("interpolation")


def test_criterion_10_prime_power_sanity():
    # counts over F_4 and F_9 equal the polynomials at q = 4, 9
    # (A_n for n <= 4, D_4): the formulas are in q, not p
    _run("primepower")


def test_suite_registry_complete():
    assert set(PAPER_SUITE) == {
        "typeA", "typeD", "typeE", "reduction", "yz", "fibration",
        "smoothness", "cohomology", "interpolation", "primepower"}
