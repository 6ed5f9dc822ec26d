import gc
import random
import weakref

import numpy as np
import pytest

from clustercount import (CoeffMap, Forest, VarietyInstance, brute_count,
                          brute_points, check_z_fibration, count_Y, count_Z,
                          dynkin, field_from_order, field_make,
                          normal_form_instance)
from clustercount import _countpy, counting
from clustercount.errors import (BadBudget, BudgetExceeded, NonPrime,
                                 UnsupportedSize)
from clustercount.recursion import recursive_count

from helpers import (naive_count, random_coeffs, random_tree,
                     record_satisfies, relabel, spider)


def _zero_digits(i, q, n):
    """The number of zero digits of i written with n base-q digits."""
    return sum(i // q**t % q == 0 for t in range(n))


def _instance(dynkin_type, rank, field, values=None):
    f = dynkin(dynkin_type, rank)
    cm = (CoeffMap.ones(field, f) if values is None
          else CoeffMap.make(field, values))
    return VarietyInstance(f, cm, field)


def _tables(field):
    """The field's lookup tables that `_countpy.count_block` reads."""
    return (field.mul_table(), field.scaled_mul_table(),
            field.neg_inv_table())


class TestBruteCount:
    def test_a1_generic(self):
        assert brute_count(_instance("A", 1, field_make(5))).count == 4

    def test_a1_special(self):
        inst = _instance("A", 1, field_make(5), {1: -1})
        assert brute_count(inst).count == 9

    def test_a0_point(self):
        assert brute_count(_instance("A", 0, field_make(7))).count == 1

    def test_matches_naive_oracle_exhaustively(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(1, 3)
            q = rng.choice((2, 3, 4, 5))
            F = field_from_order(q)
            f = random_tree(rng, n)
            inst = VarietyInstance(f, random_coeffs(rng, F, f), F)
            assert brute_count(inst).count == naive_count(inst)

    def test_engines_agree(self):
        rng = random.Random(4)
        insts = []
        for _ in range(25):
            n = rng.randint(1, 6)
            q = rng.choice((2, 3, 4, 5, 7, 9))
            F = field_from_order(q)
            f = random_tree(rng, n)
            insts.append(VarietyInstance(f, random_coeffs(rng, F, f), F))
        # stars and spiders: many leaves vanish at once, so counts run high
        for legs in ((1,) * 3, (1,) * 7, (2, 2, 2), (1, 2, 3), (3, 3, 1, 1)):
            f = spider(legs)
            for q in (2, 3, 4):
                F = field_from_order(q)
                insts.append(VarietyInstance(f, CoeffMap.ones(F, f), F))
                insts.append(VarietyInstance(f, random_coeffs(rng, F, f), F))
        for inst in insts:
            engines = ["numpy"] + (["scalar"] if inst.field.q ** inst.n <= 4000
                                   else [])
            counts = {e: brute_count(inst, engine=e).count for e in engines}
            counts["recursion"] = recursive_count(inst).count
            assert len(set(counts.values())) == 1, counts

    def test_kernel_exact_beyond_int64(self):
        # K_{1,60} over F_2, center first: on this range the center is 1 and
        # the last 15 leaves read i, each zero leaf weighing 2
        F = field_make(2)
        tables = _tables(F)
        f = spider((1,) * 60)
        alpha, nbrs = VarietyInstance(f, CoeffMap.ones(F, f), F).scan_arrays
        got = _countpy.count_block(2, *tables, alpha, nbrs,
                                   2**60, 2**60 + 2**15)
        assert got == sum(2 ** (60 - bin(i).count("1")) for i in range(2**15))
        assert got == 504857282956046106624 > 2**63
        # K_{1,63} (2^64 assignments) on a range straddling 2^63: below it
        # the center is 0 and only the all-ones leaves are live, weighing 2;
        # from it on the center is 1, 49 leaves are 0 and the last 14 read i
        f = spider((1,) * 63)
        alpha, nbrs = VarietyInstance(f, CoeffMap.ones(F, f), F).scan_arrays
        got = _countpy.count_block(2, *tables, alpha, nbrs,
                                   2**63 - 2**14, 2**63 + 2**14)
        assert got == 2 + sum(2 ** (63 - bin(i).count("1"))
                              for i in range(2**14))

    def test_count_above_pair_bound_raises(self, monkeypatch):
        inst = _instance("A", 3, field_make(3))
        monkeypatch.setattr(_countpy, "count_block",
                            lambda q, *args: q ** (2 * inst.n) + 1)
        with pytest.raises(ArithmeticError, match=r"of forest\[3v/2e\]"):
            brute_count(inst)

    def test_scalar_range_split(self):
        # uneven [lo, hi) chunks of the scalar scan sum to the whole count
        # and agree with the NumPy kernel on every chunk
        rng = random.Random(12)
        cases = [_instance("A", 0, field_make(5)),
                 _instance("D", 4, field_from_order(4)),
                 _instance("A", 3, field_from_order(9), {1: -1, 2: 1, 3: 1})]
        for _ in range(6):
            F = field_from_order(rng.choice((2, 3, 4, 5, 7, 8)))
            f = random_tree(rng, rng.randint(1, 4))
            cases.append(VarietyInstance(f, random_coeffs(rng, F, f), F))
        for inst in cases:
            F = inst.field
            space = F.q ** inst.n
            cuts = sorted({0, space} | {rng.randint(0, space) for _ in range(4)})
            whole = counting._count_scalar(inst, 0, space)
            assert whole == brute_count(inst, engine="numpy").count
            parts = []
            for lo, hi in zip(cuts, cuts[1:]):
                part = counting._count_scalar(inst, lo, hi)
                assert part == _countpy.count_block(
                    F.q, *_tables(F),
                    *inst.scan_arrays, lo, hi)
                parts.append(part)
            assert sum(parts) == whole

    def test_kernel_blocks_equal_scalar(self):
        # random forests with zero coefficients, cut at random [lo, hi) and
        # scanned in blocks of 1, q, q^2 and BLOCK assignments, so that
        # the ranges cross blocks and end inside them
        rng = random.Random(14)
        for _ in range(40):
            F = field_from_order(rng.choice((2, 3, 4, 5, 7, 8, 9,
                                             16, 25, 27, 32)))
            q = F.q
            # q^n at most 4096, so that the scalar scan stays quick
            n = rng.randint(1, {2: 12, 3: 7, 4: 6, 5: 5, 7: 4, 8: 4, 9: 3,
                                16: 3, 25: 2, 27: 2, 32: 2}[q])
            tree = random_tree(rng, n)
            f = Forest.make(tree.vertices,
                            [e for e in tree.edges if rng.random() < 0.75])
            cm = CoeffMap.make(F, {v: rng.randrange(q) for v in f.vertices})
            inst = VarietyInstance(f, cm, F)
            tables = _tables(F)
            lo = rng.randint(0, q**n)
            hi = rng.randint(lo, q**n)
            want = counting._count_scalar(inst, lo, hi)
            for block in (1, q, q * q, _countpy.BLOCK):
                assert want == _countpy.count_block(
                    q, *tables, *inst.scan_arrays, lo, hi, block), block

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 32])
    def test_kernel_products_over_many_suffix_neighbours(self, q):
        # a star with its centre first or last and three or four leaves in
        # the suffix: the centre's product runs through the scaled table
        # for each leaf between the first and the last.  A centre first
        # reads its product only where its digit is 0, where ranges start.
        rng = random.Random(q)
        F = field_from_order(q)
        for leaves in (3, 4):
            n = leaves + 1
            for centre in (1, n):
                f = Forest.make(range(1, n + 1),
                                [(centre, v) for v in range(1, n + 1)
                                 if v != centre])
                values = {v: rng.randrange(q) for v in f.vertices}
                values[centre] = rng.randrange(1, q)
                cm = CoeffMap.make(F, values)
                inst = VarietyInstance(f, cm, F)
                lo = rng.randrange(q ** (n - 1) if centre == 1 else q**n)
                hi = min(lo + rng.randint(1, 2000), q**n)
                want = counting._count_scalar(inst, lo, hi)
                for block in [b for b in (q**3, q**4, _countpy.BLOCK)
                              if b <= 1 << 16]:
                    assert want == _countpy.count_block(
                        q, *_tables(F), *inst.scan_arrays, lo, hi,
                        block), block

    def test_kernel_skips_dead_blocks(self, monkeypatch):
        # A_4 over F_3 in blocks of 3: x_1 = x_2 = 0 gives r_1 = 1 on the
        # prefix alone, so those blocks are skipped without a tally
        F = field_make(3)
        inst = _instance("A", 4, F)
        tallies = []
        dot = np.dot
        monkeypatch.setattr(np, "dot",
                            lambda *a: tallies.append(a) or dot(*a))
        got = _countpy.count_block(3, *_tables(F),
                                   *inst.scan_arrays, 0, 81, 3)
        assert got == counting._count_scalar(inst, 0, 81)
        assert 0 < len(tallies) < 27

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 257, 1024])
    def test_layout_groups_suffixes_by_zero_count(self, q):
        dtype = field_from_order(q).mul_table().dtype
        k = 0
        while q**k <= _countpy.BLOCK:
            B = q**k
            x, slot, packed, nonzero, weights = _countpy._layout(q, k, dtype)
            real = slot != B
            # the slots hold each suffix assignment once, with its digits;
            # a padding slot has all digits 0, so only the packed mask of
            # the real slots, where every scan starts, keeps it dead
            assert np.array_equal(np.sort(slot[real]), np.arange(B))
            assert np.array_equal(np.unpackbits(packed.view(np.uint8),
                                                bitorder="little"), real)
            for t in range(k):
                assert np.array_equal(x[t, real],
                                      slot[real] // q ** (k - 1 - t) % q)
                # the packed nonzero row of position t reads x_t != 0
                bits = np.unpackbits(nonzero[t].view(np.uint8),
                                     bitorder="little")
                assert np.array_equal(bits[real], x[t, real] != 0)
            assert nonzero.shape == (k, len(slot) // 64)
            assert not x[:, ~real].any()
            # each 64-slot word holds assignments with one zero count z,
            # groups ascending, and weighs q^z
            zeros = (x == 0).sum(axis=0).reshape(-1, 64)
            word_z = [int(z[r].max()) for z, r in
                      zip(zeros, real.reshape(-1, 64))]
            assert all(np.all(z[r] == wz) for z, r, wz in
                       zip(zeros, real.reshape(-1, 64), word_z))
            assert word_z == sorted(word_z)
            assert weights.dtype == np.int64
            assert weights.tolist() == [q**z for z in word_z]
            k += 1

    @pytest.mark.parametrize("q, n", [(2, 18), (3, 11), (4, 9), (5, 8),
                                      (7, 7), (8, 6), (9, 6)])
    def test_isolated_special_vertices_count_every_assignment(self, q, n):
        # with alpha = -1 and no edges every assignment is live, and so
        # would be every padding slot: n vertices count (2q - 1)^n over
        # several full BLOCKs, and any range counts q^(zeros) of each index
        F = field_from_order(q)
        f = Forest.make(range(1, n + 1), [])
        cm = CoeffMap.make(F, {v: F.neg_enc(1) for v in f.vertices})
        inst = VarietyInstance(f, cm, F)
        assert q**n >= 3 * _countpy.BLOCK
        assert brute_count(inst).count == (2 * q - 1) ** n
        rng = random.Random(q)
        tables = _tables(F)
        B = max(q**k for k in range(n) if q**k <= _countpy.BLOCK)
        for _ in range(3):  # ranges that cross a block boundary
            lo = rng.randrange(1, q**n // B) * B - rng.randint(1, 1500)
            hi = lo + rng.randint(1500, 3000)
            want = sum(q ** _zero_digits(i, q, n) for i in range(lo, hi))
            assert want == _countpy.count_block(
                q, *tables, *inst.scan_arrays, lo, hi)

    @pytest.mark.parametrize("q", [16, 17, 31, 251, 256, 257, 1021, 1024])
    def test_kernel_dtype_boundaries(self, q):
        # vertex 1 is joined to the last two vertices, so that in blocks of
        # q^2 or more it multiplies two suffix digits: a product index
        # formed in the tables' uint8 or uint16 would wrap from q = 17 on.
        # Most ranges start where x_1 = 0, so that only that product can
        # keep vertex 1 alive; alpha_1 != 0, every other alpha may be 0.
        rng = random.Random(q)
        F = field_from_order(q)
        tables = _tables(F)
        for i in range(4):
            n = rng.randint(3, 5)
            rest = [(rng.choice([1, n - 1, n, *range(2, v)]), v)
                    for v in range(2, n - 1)]
            f = Forest.make(range(1, n + 1), [(1, n - 1), (1, n)]
                            + [e for e in rest if rng.random() < 0.75])
            values = {v: rng.randrange(q) for v in f.vertices}
            values[1] = rng.randrange(1, q)
            cm = CoeffMap.make(F, values)
            inst = VarietyInstance(f, cm, F)
            lo = rng.randrange(min(q ** (n - 1 if i else n), 10**7))
            hi = min(lo + rng.randint(1, 2000), q**n)
            want = counting._count_scalar(inst, lo, hi)
            for block in (1, q, q * q, _countpy.BLOCK):
                assert want == _countpy.count_block(
                    q, *tables, *inst.scan_arrays, lo, hi, block), block

    def test_kernel_keeps_no_field_state(self):
        F = field_make(17)
        inst = _instance("A", 3, F)
        assert _countpy.count_block(17, *_tables(F),
                                    *inst.scan_arrays, 0, 17**3) == \
            counting._count_scalar(inst, 0, 17**3)
        table = weakref.ref(F.mul_table())
        del F, inst
        gc.collect()
        assert table() is None

    def test_layout_cache_is_read_only_and_bounded(self):
        for a in _countpy._layout(5, 3, np.dtype(np.uint8)):
            with pytest.raises(ValueError):
                a[0] = 1
        assert _countpy.LAYOUT_BYTES <= 8 * 16 * _countpy.BLOCK
        # a scan at every q < 200 with the largest suffix BLOCK allows:
        # the cache keeps the most recent layouts that fit in LAYOUT_BYTES
        _countpy._layouts.clear()
        keys = []
        for q in range(2, 200):
            try:
                F = field_from_order(q)
            except NonPrime:
                continue
            k = max(k for k in range(16) if q**k <= _countpy.BLOCK)
            brute_count(_instance("A", k + 1, F))
            keys.append((q, k, F.mul_table().dtype))

        def size(key):
            return sum(a.nbytes for a in _countpy._layout(*key))

        held = list(_countpy._layouts)
        assert held == keys[-len(held):]
        nbytes = sum(map(size, held))
        assert nbytes <= _countpy.LAYOUT_BYTES
        assert nbytes + size(keys[-len(held) - 1]) > _countpy.LAYOUT_BYTES
        # every layout at q <= 9 is held at once
        _countpy._layouts.clear()
        small = [(q, k, np.dtype(np.uint8)) for q in (2, 3, 4, 5, 7, 8, 9)
                 for k in range(16) if q**k <= _countpy.BLOCK]
        for key in small:
            _countpy._layout(*key)
        assert list(_countpy._layouts) == small

    def test_engine_refusals(self):
        inst = _instance("A", 1, field_make(1031))
        with pytest.raises(UnsupportedSize, match="lookup-table limit 1024"):
            brute_count(inst, engine="numpy")
        with pytest.raises(ValueError, match="unknown engine 'cython'"):
            brute_count(inst, engine="cython")

    def test_scalar_parallel_equals_serial(self, monkeypatch):
        monkeypatch.setattr(counting, "_SCALAR_PARALLEL_THRESHOLD", 1 << 12)
        F = field_make(521)
        inst = _instance("A", 2, F, {1: 2, 2: 3})
        assert F.q ** 2 == 271_441 >= counting._SCALAR_PARALLEL_THRESHOLD
        assert (brute_count(inst, engine="scalar", jobs=2).count
                == brute_count(inst, engine="numpy").count)

    def test_parallel_equals_serial(self, monkeypatch):
        monkeypatch.setattr(counting, "_PARALLEL_THRESHOLD", 1 << 12)
        F = field_make(5)
        inst = normal_form_instance(F, "A", 8)
        assert F.q ** 8 >= counting._PARALLEL_THRESHOLD
        lo = brute_count(inst, jobs=1).count
        hi = brute_count(inst, jobs=4).count
        assert lo == hi

    @pytest.mark.parametrize("cpus, workers", [(3, [3]), (None, [])])
    def test_pool_capped_at_cpu_count(self, monkeypatch, cpus, workers):
        # a stand-in pool records its size and maps in-process, so a large
        # `jobs` starts no process
        seen = []

        class InProcessPool:
            def __init__(self, workers):
                seen.append(workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(counting, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(counting, "_PARALLEL_THRESHOLD", 1 << 12)
        monkeypatch.setattr(counting.os, "cpu_count", lambda: cpus)
        inst = normal_form_instance(field_make(5), "A", 6)
        assert 5**6 >= counting._PARALLEL_THRESHOLD
        assert (brute_count(inst, jobs=1000).count
                == counting._count_scalar(inst, 0, 5**6))
        assert seen == workers

    def test_forest_multiplicativity(self):
        rng = random.Random(6)
        for _ in range(25):
            q = rng.choice((2, 3, 5))
            F = field_make(q)
            t1 = random_tree(rng, rng.randint(1, 4), base=1)
            t2 = random_tree(rng, rng.randint(1, 4), base=10)
            both = Forest.make(t1.vertices + t2.vertices,
                               t1.edges + t2.edges)
            c1 = random_coeffs(rng, F, t1)
            c2 = random_coeffs(rng, F, t2)
            cm = CoeffMap(F, {**c1.values, **c2.values})
            n_both = brute_count(VarietyInstance(both, cm, F)).count
            n1 = brute_count(VarietyInstance(t1, c1, F)).count
            n2 = brute_count(VarietyInstance(t2, c2, F)).count
            assert n_both == n1 * n2

    def test_relabeling_invariance(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(1, 6)
            q = rng.choice((2, 3, 5))
            F = field_make(q)
            f = random_tree(rng, n)
            cm = random_coeffs(rng, F, f)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            mapping = dict(zip(f.vertices, perm))
            g = relabel(f, mapping)
            gm = CoeffMap(F, {mapping[v]: cm.enc(v) for v in f.vertices})
            assert (brute_count(VarietyInstance(f, cm, F)).count
                    == brute_count(VarietyInstance(g, gm, F)).count)

    def test_descriptor_extension_field(self):
        F = field_make(2, 2)
        one_vertex = _instance("A", 1, F, {1: (1, 1)})
        two_vertices = _instance("A", 2, F, {1: 1, 2: 1})
        assert "alpha=[1:1]" in one_vertex.descriptor()
        assert "alpha=[1:0,1:0]" in two_vertices.descriptor()
        assert "alpha=[2,3]" in _instance("A", 2, field_make(5),
                                          {1: 2, 2: 3}).descriptor()

    def test_budget_enforced(self):
        inst = _instance("A", 8, field_make(7))
        with pytest.raises(BudgetExceeded) as exc:
            brute_count(inst, budget=1000)
        assert exc.value.estimate == 8 * 7**8

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget, monkeypatch):
        inst = _instance("A", 1, field_make(2))
        with pytest.raises(BadBudget, match=f"^budget must be at least 1, "
                                            f"got {budget}$"):
            brute_count(inst, budget=budget)
        assert brute_count(inst, budget=2).count == 3  # n * q^n = 2
        monkeypatch.setenv("CLUSTERCOUNT_BUDGET", str(budget))
        with pytest.raises(BadBudget, match="^CLUSTERCOUNT_BUDGET must be at "
                                            f"least 1, got {budget}$"):
            brute_count(inst)

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("CLUSTERCOUNT_BUDGET", "10")
        inst = _instance("A", 3, field_make(5))
        with pytest.raises(BudgetExceeded):
            brute_count(inst)
        monkeypatch.delenv("CLUSTERCOUNT_BUDGET")
        assert brute_count(inst).count > 0


class TestBrutePoints:
    def test_a1_listing(self):
        inst = _instance("A", 1, field_make(3))
        assert list(brute_points(inst)) == [((1,), (2,)), ((2,), (1,))]

    def test_a1_special_listing_q2(self):
        inst = _instance("A", 1, field_make(2), {1: -1})
        assert list(brute_points(inst)) == [((0,), (0,)), ((0,), (1,)),
                                            ((1,), (0,))]

    def test_a0_single_empty_record(self):
        assert list(brute_points(_instance("A", 0, field_make(3)))) == [((), ())]

    def test_records_satisfy_equations_and_count(self):
        # a third of the instances allow zero coefficients
        rng = random.Random(10)
        for i in range(45):
            q = rng.choice((2, 3, 4, 5, 7, 8, 9))
            F = field_from_order(q)
            f = random_tree(rng, rng.randint(1, 4 if q <= 5 else 3))
            if i % 3:
                cm = random_coeffs(rng, F, f)
            else:
                cm = CoeffMap.make(F, {v: rng.randrange(q) for v in f.vertices})
            inst = VarietyInstance(f, cm, F)
            pts = list(brute_points(inst))
            assert all(record_satisfies(inst, p) for p in pts)
            assert len(pts) == brute_count(inst).count
            assert len(set(pts)) == len(pts)

    def test_scalar_listing_above_table_limit(self):
        F = field_make(1031)
        assert F.q > counting.TABLE_MAX_Q
        for alpha, expect in ((-1, 2 * F.q - 1), (1, F.q - 1)):
            inst = _instance("A", 1, F, {1: alpha})
            pts = list(brute_points(inst))
            assert len(pts) == expect
            assert pts == sorted(pts)
            assert all(record_satisfies(inst, p) for p in pts)

    def test_points_are_pairs_of_vertex_tuples(self):
        inst = _instance("D", 4, field_from_order(4))
        for xs, xps in brute_points(inst):
            assert len(xs) == len(xps) == inst.n
            assert all(0 <= c < inst.field.q for c in xs + xps)

    def test_deterministic_order(self):
        inst = _instance("A", 2, field_make(3))
        a = list(brute_points(inst))
        b = list(brute_points(inst))
        assert a == b
        assert a == sorted(a)


class TestUnions:
    def test_count_y_values(self):
        assert count_Y(1, field_make(3)) == 7
        assert count_Y(0, field_make(5)) == 4
        assert count_Y(2, field_make(2)) == 5

    def test_count_z_values(self):
        assert count_Z(1, field_make(3)) == 9
        assert count_Z(2, field_make(2)) == 8
        assert count_Z(3, field_make(2)) == 16

    def test_z_decomposes_as_two_ys(self):
        for q in (2, 3, 5):
            F = field_make(q)
            ys = {n: count_Y(n, F) for n in range(5)}
            for n in range(1, 5):
                assert count_Z(n, F) == ys[n] + ys[n - 1]


class TestFibration:
    @pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
    def test_fibers_are_lines(self, n, q):
        rep = check_z_fibration(n, field_make(q))
        assert rep.ok
        assert rep.surjective
        assert rep.fiber_size == q
        assert rep.total_points == q ** (n + 2)
