import math
import os
import re
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frobsep import CurveSpec, compute_range, export_csv, import_csv
from frobsep import store
from frobsep.errors import (CeilingExceeded, ConflictError, SchemaError,
                            ValidationError)
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
    """One executor per process and worker count, never more workers than CPUs."""

    @pytest.fixture(autouse=True)
    def fresh_pools(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)   # at most 2 processes
        store._pool.cache_clear()
        yield
        store._pool.cache_clear()

    def test_one_executor_for_two_tables(self, c11, c37, monkeypatch):
        built = []

        class Counted(ProcessPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(store, "ProcessPoolExecutor", Counted)
        for curve in (c11, c37):
            assert compute_range(curve, 5000, workers=2) == compute_range(curve, 5000)
        assert built == [2]

    def test_same_table_for_any_worker_count(self, c11, g2b, monkeypatch):
        tables = [compute_range(c11, 5000, workers=w) for w in (1, 2, 0)]
        assert tables[0] == tables[1] == tables[2]
        monkeypatch.setattr(store, "_PARALLEL_THRESHOLD", 8)
        tables = [compute_range(g2b, 97, with_lpoly=True, workers=w) for w in (1, 2, 0)]
        assert tables[0].lpoly is not None
        assert tables[0] == tables[1] == tables[2]

    def test_worker_error_keeps_its_type(self, g2b, monkeypatch):
        monkeypatch.setattr(store, "_PARALLEL_THRESHOLD", 8)
        with pytest.raises(CeilingExceeded) as excinfo:
            compute_range(g2b, 200, with_lpoly=True, workers=2)   # F_{p^2} past p = 97
        assert type(excinfo.value.__cause__).__name__ == "_RemoteTraceback"

    def test_broken_pool_is_replaced(self, c11):
        broken = store._pool(2)
        assert isinstance(broken.submit(os._exit, 1).exception(timeout=60),
                          BrokenProcessPool)
        with pytest.raises(BrokenProcessPool):
            compute_range(c11, 5000, workers=2)
        assert compute_range(c11, 5000, workers=2) == compute_range(c11, 5000)
        assert store._pool(2) is not broken

    def test_workers_clamped_to_cpu_count(self, c11, monkeypatch):
        started = []

        class Recording:                  # runs the chunks in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(store, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert compute_range(c11, 5000, workers=10 ** 6) == compute_range(c11, 5000)
        assert started == [3]

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

        monkeypatch.setattr(store, "count_points_many", no_count)
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
    ])
    def test_malformed_metadata_is_schema_error(self, line, reason):
        with pytest.raises(SchemaError, match=reason):
            from_csv_text(line + "\np,good,count_fp,a_p,lpoly\n2,0,,,\n")


class TestRowChecks:
    """Each check the table makes on CSV data names the offending line."""

    @pytest.mark.parametrize("row, message", [
        ("3,1,5,1,", "a_p != p \\+ 1"),
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
