import math
import os
import re
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from frobsep import (CurveSpec, compute_range, curves, euler_factor, export_csv,
                     import_csv)
from frobsep import store
from frobsep.errors import (CeilingExceeded, ChildFailed, ConflictError,
                            IncompleteTable, SchemaError, ValidationError)
from frobsep.store import (CSV_HEADER, TraceTable, bad_prime_sets, from_csv_text,
                           sieve_primes, to_csv_text)


def rows_of(table, keep):
    """The table restricted to the rows selected by `keep` (slice or mask)."""
    return TraceTable(curve_label=table.curve_label, conductor=table.conductor,
                      genus=table.genus, p=table.p[keep], a_p=table.a_p[keep],
                      good=table.good[keep],
                      lpoly=None if table.lpoly is None else table.lpoly[keep])


def a_p_at(table, p):
    return int(table.a_p[table.rows(np.array([p]))[0]])


class TestComputeRange:
    def test_small_range_flags(self, c32):
        table = compute_range(c32, 10)
        assert table.p.tolist() == [2, 3, 5, 7]
        assert table.good.tolist() == [False, True, True, True]

    @pytest.mark.parametrize("p_max, primes, absent", [
        (50, [3001, 4], 3001),    # above the table's last prime
        (50, [3, 4, 3001], 4),    # between two of its primes
        (1, [3, 4], 3),           # an empty table
    ])
    def test_rows_name_the_first_absent_prime(self, c32, p_max, primes, absent):
        table = compute_range(c32, p_max)
        with pytest.raises(IncompleteTable, match=f"^32a: table lacks prime {absent}$"):
            table.rows(np.array(primes))

    def test_empty_below_first_prime(self, c32):
        assert len(compute_range(c32, 1).p) == 0

    def test_recomputation_is_byte_identical(self, c11):
        a = to_csv_text(compute_range(c11, 500))
        b = to_csv_text(compute_range(c11, 500))
        assert a == b

    def test_ceiling(self, c11):
        with pytest.raises(CeilingExceeded):
            compute_range(c11, 100, ceiling=50)

    def test_worker_count_does_not_change_content(self, c11):
        serial = compute_range(c11, 5000, workers=1)
        parallel = compute_range(c11, 5000, workers=2)
        assert serial == parallel

    def test_lpoly_storage(self, g2b):
        table = compute_range(g2b, 30, with_lpoly=True)
        assert table.lpoly.shape == (len(table.p), 5)
        assert np.all(table.lpoly[table.good, 0] == 1)
        assert not table.lpoly[~table.good].any()

    def test_lpoly_ignored_for_genus1(self, c11):
        assert compute_range(c11, 500, with_lpoly=True) == compute_range(c11, 500)

    def test_negative_pmax_rejected(self, c11):
        with pytest.raises(ValueError, match="p_max must be >= 0"):
            compute_range(c11, -5)

    def test_bad_prime_set_report(self, g2b):
        by_n, by_disc = bad_prime_sets(g2b, 30)
        assert by_n == [2, 13]
        assert by_disc == [2, 13]
        lopsided = CurveSpec.elliptic("11a1loN", (0, -1, 1, -10, -20), 11 * 3)
        by_n, by_disc = bad_prime_sets(lopsided, 30)
        assert by_n == [3, 11] and by_disc == [11]


class TestWorkerPool:
    """This process counts chunk 0 and a child forked for the call each other
    chunk, never more processes than the CPUs this process may run on.  The
    tests see 2 such CPUs, so none starts more than one child at a time."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    @pytest.fixture
    def forks(self, monkeypatch):
        """Lanes of each chunk handed to `_fork`, which counts it here and
        starts no process."""
        started = []

        def recording(lanes, primes, options):
            started.append(len(lanes))
            part = store.euler_factors(lanes, primes, **options)
            return lambda: part

        monkeypatch.setattr(store, "_fork", recording)
        return started

    @staticmethod
    def in_child(fn, *args):
        """`fn(*args)`, called in a forked child only; the parent counts as usual."""
        parent, count = os.getpid(), store.euler_factors
        return lambda *chunk, **options: (count(*chunk, **options)
                                          if os.getpid() == parent else fn(*args))

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_two_tables_leave_no_child(self, c11, c37, monkeypatch):
        forked, fork = [], os.fork

        def counted():
            forked.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        for curve in (c11, c37):
            assert compute_range(curve, 5000, workers=2) == compute_range(curve, 5000)
        assert len(forked) == 2
        self.assert_no_child_left()

    def test_same_table_for_any_worker_count(self, c11, g2b, monkeypatch):
        tables = [compute_range(c11, 5000, workers=w) for w in (1, 2, 0)]
        assert tables[0] == tables[1] == tables[2]
        monkeypatch.setattr(store, "_PARALLEL_THRESHOLD", 8)
        tables = [compute_range(g2b, 97, with_lpoly=True, workers=w) for w in (1, 2, 0)]
        assert tables[0].lpoly is not None
        assert tables[0] == tables[1] == tables[2]

    def test_worker_error_keeps_its_type(self, g2b, monkeypatch):
        def past_ceiling():
            raise CeilingExceeded("raised in a child")

        monkeypatch.setattr(store, "_PARALLEL_THRESHOLD", 8)
        monkeypatch.setattr(store, "euler_factors", self.in_child(past_ceiling))
        with pytest.raises(CeilingExceeded) as excinfo:
            compute_range(g2b, 97, with_lpoly=True, workers=2)
        assert str(excinfo.value) == "raised in a child"
        child_traceback, = excinfo.value.__notes__
        assert child_traceback.startswith("Traceback (most recent call last)")
        assert "in past_ceiling" in child_traceback
        self.assert_no_child_left()

    def test_own_error_waits_for_children(self, c11, monkeypatch):
        """Chunk 0 raises in this process; the child is still reaped first."""
        parent, count = os.getpid(), store.euler_factors

        def fails_here(*chunk, **options):
            if os.getpid() == parent:
                raise CeilingExceeded("raised in the parent")
            return count(*chunk, **options)

        monkeypatch.setattr(store, "euler_factors", fails_here)
        with pytest.raises(CeilingExceeded, match="^raised in the parent$"):
            compute_range(c11, 5000, workers=2)
        self.assert_no_child_left()

    def test_search_bound_error_same_for_any_worker_count(self, c11, monkeypatch):
        """The 168 primes <= 1000 alternate between two workers, so 997 is
        in the second chunk; the error still names it, as one worker does."""
        monkeypatch.setattr(store, "_PARALLEL_THRESHOLD", 8)
        monkeypatch.setattr(curves, "SEARCH_PMAX", 500)
        for workers in (1, 2):
            with pytest.raises(CeilingExceeded,
                               match=r"^p=997 above the genus-1 search bound 500$"):
                compute_range(c11, 1000, workers=workers)

    def test_fp2_ceiling_error_before_search_bound(self, c11, g2b, monkeypatch):
        """11a1 is past the search bound and g2b's Euler factors past the
        F_{p^2} ceiling in one call; the F_{p^2} error comes first, as the
        README states, whichever lane comes first or counts it."""
        monkeypatch.setattr(store, "_PARALLEL_THRESHOLD", 8)
        monkeypatch.setattr(curves, "SEARCH_PMAX", 500)
        for workers in (1, 2):
            with pytest.raises(CeilingExceeded,
                               match=r"^p\^2=10201 above enumeration ceiling 10000$"):
                store.compute_ranges({c11: 1000, g2b: 200}, with_lpoly=True,
                                     workers=workers)

    def test_child_without_result(self, c11, monkeypatch):
        count = store.euler_factors
        monkeypatch.setattr(store, "euler_factors", self.in_child(os._exit, 1))
        with pytest.raises(ChildFailed, match=r"ended with exit status 1 and no result$"):
            compute_range(c11, 5000, workers=2)
        self.assert_no_child_left()
        monkeypatch.setattr(store, "euler_factors", count)
        assert compute_range(c11, 5000, workers=2) == compute_range(c11, 5000)

    def test_workers_clamped_to_cpu_count(self, c11, forks, monkeypatch):
        """The CPUs this process may run on, not the machine's count."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        for workers in (10 ** 6, 0):
            assert compute_range(c11, 5000, workers=workers) == compute_range(c11, 5000)
        assert forks == [223, 222, 223, 222]     # 668 good lanes of 669 primes in 3 chunks

    def test_fork_for_one_large_block(self, c11, c37, forks, monkeypatch):
        """A batch of many small blocks stays serial; one block of
        _PARALLEL_THRESHOLD primes sends the whole batch to a child and this
        process."""
        monkeypatch.setattr(store, "_PARALLEL_THRESHOLD", 50)
        small = {c11: 200, c37: 200}                      # 46 primes each
        assert store.compute_ranges(small, workers=2) == \
            {curve: compute_range(curve, 200) for curve in small}
        assert forks == []
        large = {c11: 250, c37: 200}                      # 53 and 46 primes
        assert store.compute_ranges(large, workers=2) == \
            {curve: compute_range(curve, p_max) for curve, p_max in large.items()}
        assert forks == [48]                              # 97 good lanes in 2 chunks

    def test_no_good_lane_counts_nothing(self, c32, forks, monkeypatch):
        """32a is bad at 2, its only prime <= 2: a block large enough to
        fork calls no counter and forks no child."""
        def no_count(*args, **kwargs):
            raise AssertionError("a bad lane was counted")

        monkeypatch.setattr(store, "_PARALLEL_THRESHOLD", 1)
        monkeypatch.setattr(store, "euler_factors", no_count)
        monkeypatch.setattr(curves, "count_points_many", no_count)
        table = compute_range(c32, 2, workers=2)
        assert table.p.tolist() == [2] and table.good.tolist() == [False]
        assert forks == []

    def test_serial_without_fork(self, c11, forks, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert compute_range(c11, 5000, workers=2) == compute_range(c11, 5000)
        assert forks == []

    def test_negative_workers_rejected(self, c11):
        with pytest.raises(ValueError):
            compute_range(c11, 50, workers=-1)


class TestCsvRoundTrip:
    def test_identity(self, t11):
        assert from_csv_text(to_csv_text(t11)) == t11

    def test_thousand_prime_table_bytes(self, c37):
        table = compute_range(c37, 8000)   # ~1000 primes
        assert len(table.p) > 1000
        text = to_csv_text(table)
        assert to_csv_text(from_csv_text(text)) == text
        assert text.endswith("\n") and "\r" not in text

    def test_file_round_trip(self, t11, tmp_path):
        path = tmp_path / "t.csv"
        export_csv(t11, path)
        assert import_csv(path) == t11

    def test_wrong_header(self):
        with pytest.raises(SchemaError):
            from_csv_text("# frobsep-trace-table label=x conductor=1 genus=1\n"
                          "p,good,count\n")

    def test_missing_metadata(self):
        with pytest.raises(SchemaError):
            from_csv_text("p,good,count_fp,a_p,lpoly\n2,1,5,-2,\n")

    def test_weil_violation_names_line(self):
        text = ("# frobsep-trace-table label=x conductor=35 genus=1\n"
                "p,good,count_fp,a_p,lpoly\n"
                "2,1,5,-2,\n"
                "3,1,-6,10,\n")
        with pytest.raises(ValidationError, match="line 4"):
            from_csv_text(text)

    def test_ordering_violation(self):
        text = ("# frobsep-trace-table label=x conductor=35 genus=1\n"
                "p,good,count_fp,a_p,lpoly\n"
                "5,1,5,1,\n"
                "3,1,5,-1,\n")
        with pytest.raises(ValidationError, match="ascending"):
            from_csv_text(text)

    @pytest.mark.parametrize("row", ["5,1,5,1,", "5,1,-6,12,"])
    def test_rows_checked_once(self, row, monkeypatch):
        """The constructor's column check is the only one an import makes,
        for a valid table and for one it rejects."""
        calls = []
        check = store._first_invalid_row
        monkeypatch.setattr(store, "_first_invalid_row",
                            lambda *args: calls.append(1) or check(*args))
        text = "\n".join([META.format(g=1), CSV_HEADER, "3,1,3,1,", row]) + "\n"
        try:
            from_csv_text(text)
        except ValidationError as exc:
            assert str(exc) == "line 4: p=5: Weil bound violated"
        assert len(calls) == 1

    def test_error_without_row_names_no_line(self):
        text = "\n".join([META.format(g=1).replace("=x", "=x/y"), CSV_HEADER,
                          "3,1,3,1,"]) + "\n"
        with pytest.raises(ValidationError, match="^label 'x/y' not filesystem-safe$"):
            from_csv_text(text)


class TestJoin:
    """Buckets are joined in ascending order into the table one count gives."""

    def test_buckets_equal_one_count(self, c11, tmp_path, monkeypatch):
        whole = compute_range(c11, 250)
        monkeypatch.setattr(store, "CACHE_BUCKET", 100)
        sieved = []
        sieve = store.sieve_primes
        monkeypatch.setattr(store, "sieve_primes", lambda n: sieved.append(n) or sieve(n))
        assert compute_range(c11, 250) == whole
        assert sieved == [250]                  # once for all three buckets
        assert compute_range(c11, 250, cache_dir=tmp_path) == whole    # counted
        assert compute_range(c11, 250, cache_dir=tmp_path) == whole    # read back

    def test_cached_lpoly_bucket_between_plain_ones(self, g2b, tmp_path, monkeypatch):
        ceilings = {"fp2_ceiling": 200 ** 2}
        rich = compute_range(g2b, 199, with_lpoly=True, **ceilings)
        plain = compute_range(g2b, 250)
        monkeypatch.setattr(store, "CACHE_BUCKET", 100)
        compute_range(g2b, 199, with_lpoly=True, cache_dir=tmp_path, **ceilings)
        (tmp_path / "g2b.b0000.csv").unlink()     # recounted without Euler factors
        lpoly = np.zeros((len(plain.p), 5), dtype=np.int64)
        lpoly[(plain.p > 100) & (plain.p < 200)] = rich.lpoly[rich.p > 100]
        assert compute_range(g2b, 250, cache_dir=tmp_path) == replace(plain, lpoly=lpoly)
        # a bucket cached without Euler factors is counted again for them
        assert compute_range(g2b, 99, with_lpoly=True, cache_dir=tmp_path) == \
            rows_of(rich, rich.p < 100)


def random_curve(draw, label):
    """A genus-1 or genus-2 model with small coefficients, or None when
    `CurveSpec` rejects it."""
    try:
        if draw(st.booleans()):
            return CurveSpec.elliptic(
                label, draw(st.lists(st.integers(-9, 9), min_size=5, max_size=5)), 1)
        return CurveSpec.hyperelliptic(
            label, draw(st.lists(st.integers(-3, 3), min_size=7, max_size=7)),
            draw(st.lists(st.integers(0, 1), min_size=4, max_size=4)), 1)
    except ValidationError:
        return None


class TestBadPrimes:
    @settings(max_examples=20, deadline=None)
    @given(st.data(), st.integers(1, 2 ** 70), st.integers(2, 10 ** 4))
    def test_masks_decide_good_rows(self, data, conductor, p_max):
        """The masks are p | N and p | disc, computed here one prime at a
        time, also for a conductor past int64.  The table's good rows are the
        primes in neither."""
        curve = random_curve(data.draw, "r")
        assume(curve is not None)
        curve = replace(curve, conductor=conductor)
        primes = sieve_primes(p_max)
        by_n, by_disc = curve.bad_primes(primes)
        assert by_n.tolist() == [conductor % p == 0 for p in primes.tolist()]
        assert by_disc.tolist() == [curve.discriminant % p == 0 for p in primes.tolist()]
        assert np.array_equal(compute_range(curve, p_max).good, ~(by_n | by_disc))


class TestComputeRanges:
    """Tables counted together equal the tables of each curve alone."""

    @staticmethod
    def one_by_one(p_maxes, **kw):
        return {curve: compute_range(curve, p_max, **kw) for curve, p_max in p_maxes.items()}

    @pytest.mark.parametrize("threshold", [None, 50])
    def test_mixed_batch(self, c11, c37, c32, g2b, monkeypatch, threshold):
        """p = 2 on 11a1, 37a1 ending at MESTRE_BOUND, both genera swept
        at the same primes; 50 sends 11a1's block to a child."""
        p_maxes = {c11: 3000, c37: curves.MESTRE_BOUND, c32: 2, g2b: 1000}
        if threshold is not None:
            monkeypatch.setattr(store, "_PARALLEL_THRESHOLD", threshold)
        batch = store.compute_ranges(p_maxes, workers=1 if threshold is None else 2)
        assert batch == self.one_by_one(p_maxes)
        assert batch[c11].p[0] == 2 and batch[c11].good[0]

    def test_euler_factors_for_genus_2_only(self, c11, g2b, monkeypatch):
        """One chunk counts every F_p point, Euler-factor lanes included, in
        one `count_points_many` call."""
        p_maxes = {c11: 500, g2b: 97}
        calls, count = [], curves.count_points_many

        def counting(lanes, primes, **kw):
            calls.append(len(primes))
            return count(lanes, primes, **kw)

        monkeypatch.setattr(curves, "count_points_many", counting)
        batch = store.compute_ranges(p_maxes, with_lpoly=True)
        assert calls == [94 + 23]        # good primes of 11a1 <= 500 and g2b <= 97
        assert batch == self.one_by_one(p_maxes, with_lpoly=True)
        assert batch[c11].lpoly is None and batch[g2b].lpoly is not None

    @settings(max_examples=25, deadline=None)
    @given(st.data(), st.integers(1, 4), st.booleans(), st.booleans())
    def test_random_batches(self, data, n, forked, with_lpoly):
        """With Euler factors, p_max <= 97 keeps p^2 under the F_{p^2}
        ceiling, and the batch mixes genus-2 factor lanes with genus-1 trace
        lanes."""
        p_maxes = {}
        for i in range(n):
            curve = random_curve(data.draw, f"c{i}")
            if curve is not None:
                p_maxes[curve] = data.draw(st.integers(2, 97 if with_lpoly else 3000))
        assume(p_maxes)
        with patch.object(store, "_PARALLEL_THRESHOLD", 10 if forked else 10 ** 9):
            batch = store.compute_ranges(p_maxes, with_lpoly=with_lpoly, workers=2)
        assert batch == self.one_by_one(p_maxes, with_lpoly=with_lpoly)
        for curve, table in batch.items():
            if table.lpoly is not None:
                for p, row in zip(table.p[table.good].tolist(),
                                  table.lpoly[table.good].tolist()):
                    assert tuple(row) == euler_factor(curve, p), (curve, p)

    def test_two_models_under_one_label(self, tmp_path, monkeypatch):
        """Below a full bucket they are counted apart; a full bucket they
        would both write is a conflict, found before anything is counted."""
        first = CurveSpec.elliptic("E", (0, -1, 1, -10, -20), 11)    # 11a1
        second = CurveSpec.elliptic("E", (0, 0, 1, -1, 0), 11)       # 37a1
        monkeypatch.setattr(store, "CACHE_BUCKET", 100)
        p_maxes = {first: 199, second: 199}
        batch = store.compute_ranges(p_maxes)
        assert batch == self.one_by_one(p_maxes)
        assert (a_p_at(batch[first], 101), a_p_at(batch[second], 101)) == (2, 3)

        def no_count(*args, **kwargs):
            raise AssertionError("counted before the conflict was found")

        monkeypatch.setattr(curves, "count_points_many", no_count)
        with pytest.raises(ConflictError, match="two curves under one label"):
            store.compute_ranges(p_maxes, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestCache:
    def test_bucket_written_and_reused(self, c11, tmp_path, monkeypatch):
        import frobsep.store as store_mod

        monkeypatch.setattr(store_mod, "CACHE_BUCKET", 100)
        first = compute_range(c11, 250, cache_dir=tmp_path)
        files = sorted(f.name for f in tmp_path.iterdir())
        assert files == ["11a1.b0000.csv", "11a1.b0001.csv"]
        meta = (tmp_path / "11a1.b0000.csv").read_text().splitlines()[0]
        assert meta.endswith(" model=-20,-10,-1,1/1")
        again = compute_range(c11, 250, cache_dir=tmp_path)
        assert first == again

    def test_conflicting_cache_rejected(self, c11, tmp_path, monkeypatch):
        import frobsep.store as store_mod

        monkeypatch.setattr(store_mod, "CACHE_BUCKET", 100)
        compute_range(c11, 100, cache_dir=tmp_path)
        other = CurveSpec.elliptic("11a1", (0, -1, 1, -10, -20), 77)
        with pytest.raises(ConflictError):
            compute_range(other, 100, cache_dir=tmp_path)

    def test_redeclared_model_rejected(self, tmp_path, monkeypatch):
        import frobsep.store as store_mod

        monkeypatch.setattr(store_mod, "CACHE_BUCKET", 100)
        first = CurveSpec.elliptic("E", (0, -1, 1, -10, -20), 11)    # 11a1
        second = CurveSpec.elliptic("E", (0, 0, 1, -1, 0), 11)       # 37a1
        assert a_p_at(compute_range(first, 199, cache_dir=tmp_path), 101) == 2
        with pytest.raises(ConflictError):
            compute_range(second, 199, cache_dir=tmp_path)
        assert a_p_at(compute_range(second, 199), 101) == 3

    @staticmethod
    def _rewrite_bucket(path, edit):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")

    @pytest.mark.parametrize("p_max", [99, 150])
    def test_bucket_for_another_label_rejected(self, c11, tmp_path, monkeypatch,
                                               p_max):
        monkeypatch.setattr(store, "CACHE_BUCKET", 100)
        compute_range(c11, 99, cache_dir=tmp_path)
        self._rewrite_bucket(tmp_path / "11a1.b0000.csv", lambda lines: [
            lines[0].replace(" label=11a1 ", " label=other "), *lines[1:]])
        with pytest.raises(ConflictError, match="label"):
            compute_range(c11, p_max, cache_dir=tmp_path)

    def test_bucket_without_fingerprint_is_recounted(self, c11, tmp_path,
                                                     monkeypatch):
        import frobsep.store as store_mod

        monkeypatch.setattr(store_mod, "CACHE_BUCKET", 100)
        truth = compute_range(c11, 199, cache_dir=tmp_path)
        path = tmp_path / "11a1.b0001.csv"

        def unfingerprinted_and_wrong(lines):
            # a bucket from before fingerprints, with a wrong a_101 = 2 + 1
            assert lines[2] == "101,1,100,2,"
            return [lines[0].split(" model=")[0], lines[1], "101,1,99,3,",
                    *lines[3:]]

        self._rewrite_bucket(path, unfingerprinted_and_wrong)
        assert compute_range(c11, 199, cache_dir=tmp_path) == truth
        assert " model=" in path.read_text().splitlines()[0]

    @pytest.mark.parametrize("tag", ["computed", "imported"])
    def test_bucket_with_provenance_tag_is_read(self, c11, tmp_path, monkeypatch,
                                                tag):
        # files written before the tag was dropped still load, uncounted
        monkeypatch.setattr(store, "CACHE_BUCKET", 100)
        truth = compute_range(c11, 199, cache_dir=tmp_path)
        for path in tmp_path.iterdir():
            self._rewrite_bucket(path, lambda lines: [
                lines[0].replace(" model=", f" provenance={tag} model=", 1),
                *lines[1:]])

        def no_count(*args, **kwargs):
            raise AssertionError("cached bucket was counted again")

        monkeypatch.setattr(curves, "count_points_many", no_count)
        assert compute_range(c11, 199, cache_dir=tmp_path) == truth

    def test_bucket_missing_a_prime_is_recounted(self, c11, tmp_path,
                                                 monkeypatch):
        import frobsep.store as store_mod

        monkeypatch.setattr(store_mod, "CACHE_BUCKET", 100)
        truth = compute_range(c11, 199, cache_dir=tmp_path)
        path = tmp_path / "11a1.b0001.csv"
        complete = path.read_text()
        self._rewrite_bucket(path, lambda lines: lines[:3] + lines[4:])
        assert compute_range(c11, 199, cache_dir=tmp_path) == truth
        assert path.read_text() == complete


class TestValidation:
    def test_bad_entry_with_trace_data_rejected(self):
        with pytest.raises(ValidationError):
            TraceTable(curve_label="x", conductor=2, genus=1, p=[2], a_p=[-1],
                       good=[False])

    def test_corrupt_lpoly_rejected(self):
        # trace column consistent but quartic breaks the functional equation
        with pytest.raises(ValidationError):
            TraceTable(curve_label="x", conductor=2, genus=2, p=[3], a_p=[0],
                       good=[True], lpoly=[(1, 0, 0, 0, 7)])

    def test_sieve(self):
        assert sieve_primes(20).tolist() == [2, 3, 5, 7, 11, 13, 17, 19]
        assert sieve_primes(1).tolist() == []


META = "# frobsep-trace-table label=x conductor=35 genus={g}"


class TestMetadataLine:
    @pytest.mark.parametrize("line, reason", [
        (META.format(g=1) + " junk", "without '='"),
        (META.format(g=1).replace("conductor=35", "conductor=3x5"), "integers"),
        (META.format(g="one"), "integers"),
        (META.format(g=0), "not 1 or 2"),
        (META.format(g=3), "not 1 or 2"),
        (META.format(g=1).replace("label=x ", ""), "lacks label"),
    ])
    def test_malformed_metadata_is_schema_error(self, line, reason):
        with pytest.raises(SchemaError, match=reason):
            from_csv_text(line + "\np,good,count_fp,a_p,lpoly\n2,0,,,\n")


class TestRowChecks:
    """Each check the table makes on CSV data names the offending line."""

    @pytest.mark.parametrize("row, message", [
        ("3,1,5,1,", "a_p != p \\+ 1"),
        ("3,1,5", "expected 5 fields, got 3"),
        ("3,0,,1,", "carries trace data"),
        ("3,1,,1,", "lacks count/trace"),
        ("3,1,-6,10,", "Weil bound"),
        ("3,1,3,1,1;1;3", "L-polynomial mismatch"),
        ("3,1,3,1,2;-1;3", "L-polynomial mismatch"),
        ("3,1,4,0,1;0", "L-polynomial mismatch"),
        ("3,1,3,1,1;-1;4", "constant term"),
        ("3,2,3,1,", "good flag"),
        ("3,1,3,x,", "malformed row"),
        # a_p^2 = 2^64 wraps to 0 in int64 and would pass the bound
        (f"3,1,{4 - 2 ** 32},{2 ** 32},", "Weil bound"),
        (f"3,1,{4 - 2 ** 63},{2 ** 63},", "does not fit in int64"),
        (f"{2 ** 64 + 3},0,,,", "does not fit in int64"),
        ("3,1,3,1,1;-1;" + str(2 ** 70), "does not fit in int64"),
    ])
    def test_error_names_line(self, row, message):
        text = "\n".join([META.format(g=1), "p,good,count_fp,a_p,lpoly",
                          "2,1,5,-2,", "", row, "5,1,5,1,"]) + "\n"
        with pytest.raises(ValidationError, match=f"line 5: .*{message}"):
            from_csv_text(text)

    @pytest.mark.parametrize("row, message", [
        ("3,1,4,0,1;0;0;0;7", "functional equation"),
        ("3,1,4,0,1;0;7;0;9", "4 c2 <= c1^2 + 8p"),
        ("3,1,4,0,1;0;-7;0;9", "c2 + 2p >= 0"),
        ("3,1,2,2,1;-2;0;-6;9", "(c2 + 2p)^2 >= 4p c1^2"),
        # c1^2 <= 16p is the trace column's Weil bound, as c1 = -a_p
        ("3,1,-3,7,1;-7;30;-21;9", "Weil bound"),
    ])
    def test_genus2_factor_names_line(self, row, message):
        """Each inequality of a real Weil quartic, compared in integers."""
        text = "\n".join([META.format(g=2), "p,good,count_fp,a_p,lpoly",
                          "2,0,,,", "", row, "5,0,,,"]) + "\n"
        with pytest.raises(ValidationError, match=f"line 5: .*{re.escape(message)}"):
            from_csv_text(text)

    def test_constructor_checks_columns(self):
        with pytest.raises(ValidationError, match="ascending"):
            TraceTable(curve_label="x", conductor=1, genus=1, p=[3, 3],
                       a_p=[0, 0], good=[True, True])
        with pytest.raises(ValidationError, match="Weil"):
            TraceTable(curve_label="x", conductor=1, genus=1, p=[3],
                       a_p=[2 ** 32], good=[True])
        with pytest.raises(ValidationError, match="int64"):
            TraceTable(curve_label="x", conductor=1, genus=1, p=[3],
                       a_p=[2 ** 63], good=[True])

    def test_columns_are_read_only(self, t11):
        with pytest.raises(ValueError):
            t11.a_p[0] = 1


PRIMES = sieve_primes(400).tolist()


@st.composite
def genus1_tables(draw):
    """A random genus-1 table within the Weil bound."""
    primes = sorted(draw(st.lists(st.sampled_from(PRIMES), unique=True, max_size=40)))
    good = [draw(st.booleans()) for _ in primes]
    a_p = [draw(st.integers(-math.isqrt(4 * p), math.isqrt(4 * p))) if ok else 0
           for p, ok in zip(primes, good)]
    return TraceTable(curve_label="h", conductor=7, genus=1, p=primes, a_p=a_p,
                      good=good)


class TestColumnProperties:
    @settings(max_examples=60, deadline=None)
    @given(genus1_tables())
    def test_csv_round_trip(self, table):
        assert from_csv_text(to_csv_text(table)) == table

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_mixed_lpoly_csv_round_trip(self, g2b, data):
        rich = compute_range(g2b, 60, with_lpoly=True)
        n = len(rich.p)
        keep, stored = (np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                                    max_size=n)), dtype=bool)
                        for _ in range(2))
        table = rows_of(replace(rich, lpoly=rich.lpoly * stored[:, None]), keep)
        assert from_csv_text(to_csv_text(table)) == table

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3),
           st.one_of(st.integers(2 ** 63, 2 ** 90), st.integers(-2 ** 90, -2 ** 63 - 1)))
    def test_int64_overflow_row(self, row, field, value):
        rows = [[2, 1, 5, -2, ""], [3, 1, 5, -1, ""], [5, 1, 5, 1, ""],
                [7, 1, 10, -2, ""]]
        rows[row][(0, 2, 3, 4)[field]] = value if field < 3 else f"1;2;{value}"
        text = "\n".join([META.format(g=1), "p,good,count_fp,a_p,lpoly"]
                         + [",".join(map(str, r)) for r in rows]) + "\n"
        with pytest.raises(ValidationError, match=f"line {row + 3}: "):
            from_csv_text(text)
