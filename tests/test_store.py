import pytest

from frobsep import CurveSpec, compute_range, export_csv, import_csv, merge
from frobsep.curves import PrimeTrace
from frobsep.errors import (CeilingExceeded, ConflictError, SchemaError,
                            ValidationError)
from frobsep.store import (TraceTable, bad_prime_sets, from_csv_text,
                           sieve_primes, to_csv_text)


class TestComputeRange:
    def test_small_range_flags(self, c32):
        table = compute_range(c32, 10)
        assert [e.p for e in table.entries] == [2, 3, 5, 7]
        assert not table.entry(2).good
        assert all(table.entry(p).good for p in (3, 5, 7))

    def test_empty_below_first_prime(self, c32):
        assert compute_range(c32, 1).entries == ()

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
        for e in table.entries:
            if e.good:
                assert e.lpoly is not None and len(e.lpoly) == 5

    def test_bad_prime_set_report(self, g2b):
        by_n, by_disc = bad_prime_sets(g2b, 30)
        assert by_n == [2, 13]
        assert by_disc == [2, 13]
        lopsided = CurveSpec.elliptic("11a1loN", (0, -1, 1, -10, -20), 11 * 3)
        by_n, by_disc = bad_prime_sets(lopsided, 30)
        assert by_n == [3, 11] and by_disc == [11]


class TestCsvRoundTrip:
    def test_identity(self, t11):
        assert from_csv_text(to_csv_text(t11)) == t11

    def test_thousand_prime_table_bytes(self, c37):
        table = compute_range(c37, 8000)   # ~1000 primes
        assert len(table.entries) > 1000
        text = to_csv_text(table)
        assert to_csv_text(from_csv_text(text)) == text
        assert text.endswith("\n") and "\r" not in text

    def test_file_round_trip(self, t11, tmp_path):
        path = tmp_path / "t.csv"
        export_csv(t11, path)
        assert import_csv(path) == t11

    def test_wrong_header(self):
        with pytest.raises(SchemaError):
            from_csv_text("# frobsep-trace-table label=x conductor=1 genus=1 "
                          "provenance=computed\np,good,count\n")

    def test_missing_metadata(self):
        with pytest.raises(SchemaError):
            from_csv_text("p,good,count_fp,a_p,lpoly\n2,1,5,-2,\n")

    def test_weil_violation_names_line(self):
        text = ("# frobsep-trace-table label=x conductor=35 genus=1 "
                "provenance=imported\n"
                "p,good,count_fp,a_p,lpoly\n"
                "2,1,5,-2,\n"
                "3,1,-6,10,\n")
        with pytest.raises(ValidationError, match="line 4"):
            from_csv_text(text)

    def test_ordering_violation(self):
        text = ("# frobsep-trace-table label=x conductor=35 genus=1 "
                "provenance=imported\n"
                "p,good,count_fp,a_p,lpoly\n"
                "5,1,5,1,\n"
                "3,1,5,-1,\n")
        with pytest.raises(ValidationError, match="ascending"):
            from_csv_text(text)


class TestMerge:
    def test_disjoint_concatenation(self, c11):
        low = compute_range(c11, 50)
        high_entries = tuple(e for e in compute_range(c11, 200).entries if e.p > 50)
        high = TraceTable(curve_label=low.curve_label, conductor=low.conductor,
                          genus=low.genus, entries=high_entries)
        merged = merge(low, high)
        assert merged == compute_range(c11, 200)

    def test_idempotent(self, t11):
        assert merge(t11, t11) == t11

    def test_commutative(self, c11):
        a = compute_range(c11, 100)
        b = compute_range(c11, 300)
        assert merge(a, b) == merge(b, a)

    def test_associative(self, c11):
        full = compute_range(c11, 300)
        a = TraceTable(curve_label=full.curve_label, conductor=full.conductor,
                       genus=full.genus, entries=full.entries[:10])
        b = TraceTable(curve_label=full.curve_label, conductor=full.conductor,
                       genus=full.genus, entries=full.entries[5:20])
        c = TraceTable(curve_label=full.curve_label, conductor=full.conductor,
                       genus=full.genus, entries=full.entries[15:])
        assert merge(merge(a, b), c) == merge(a, merge(b, c)) == full

    def test_conflict_raises(self, t11):
        bad = PrimeTrace(p=3, good=True, point_count_fp=3, a_p=1)
        other = TraceTable(curve_label=t11.curve_label, conductor=t11.conductor,
                           genus=t11.genus, entries=(bad,))
        with pytest.raises(ConflictError):
            merge(t11, other)

    def test_label_mismatch_rejected(self, t11, t37):
        with pytest.raises(ValidationError):
            merge(t11, t37)

    def test_lpoly_enrichment(self, g2b):
        plain = compute_range(g2b, 30)
        rich = compute_range(g2b, 30, with_lpoly=True)
        merged = merge(plain, rich)
        assert merged == rich


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
        assert compute_range(first, 199, cache_dir=tmp_path).entry(101).a_p == 2
        with pytest.raises(ConflictError):
            compute_range(second, 199, cache_dir=tmp_path)
        assert compute_range(second, 199).entry(101).a_p == 3

    @staticmethod
    def _rewrite_bucket(path, edit):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")

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
            TraceTable(curve_label="x", conductor=2, genus=1,
                       entries=(PrimeTrace(p=2, good=False, point_count_fp=4,
                                           a_p=-1),))

    def test_corrupt_lpoly_rejected(self):
        # trace column consistent but quartic breaks the functional equation
        entry = PrimeTrace(p=3, good=True, point_count_fp=4, a_p=0,
                           lpoly=(1, 0, 0, 0, 7))
        with pytest.raises(ValidationError):
            TraceTable(curve_label="x", conductor=2, genus=2, entries=(entry,))

    def test_sieve(self):
        assert sieve_primes(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert sieve_primes(1) == []
