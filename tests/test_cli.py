import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import frobsep
import oracles
from frobsep import CurveSpec, compute_range, separation
from frobsep.cli import main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def child_env(**preset):
    """This process's environment for a child Python with `src` importable,
    without a cache directory or an OpenBLAS thread count, plus `preset`."""
    src = str(Path(frobsep.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("FROBSEP_CACHE", "OPENBLAS_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**env, **preset}


class TestDelta:
    def test_psi_11(self):
        code, text = run_cli(["delta", "--g", "1", "--g2", "1"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0].endswith("quadrature = 1")
        assert lines[1].endswith("exact = 1")

    def test_character_file(self, tmp_path):
        doc = {"g": 1, "terms": [{"lambda": [1], "coeff": 1},
                                 {"lambda": [], "coeff": 3}]}
        path = tmp_path / "chi.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, text = run_cli(["delta", "--g", "1", "--character", str(path)])
        assert code == 0
        assert all(line.endswith("= 3") for line in text.splitlines())

    def test_character_file_needs_no_g(self, tmp_path):
        path = tmp_path / "g3.json"
        path.write_text(TestMalformedInput.FILES["g3.json"], encoding="utf-8")
        assert run_cli(["delta", "--character", str(path)]) == (
            0, "delta(chi[g3.json]) quadrature = 2\ndelta(chi[g3.json]) exact = 2\n")

    def test_psi_31(self):
        code, text = run_cli(["delta", "--g", "3", "--g2", "1"])
        assert code == 0
        assert text.splitlines() == ["delta(psi[g=3,g'=1]) quadrature = 1",
                                     "delta(psi[g=3,g'=1]) exact = 1"]


class TestCount:
    def test_summary(self, curve_json, tmp_path):
        code, text = run_cli(["--cache-dir", str(tmp_path), "count",
                              str(curve_json["11a1"]), "--pmax", "50"])
        assert code == 0
        assert "curve 11a1 genus 1 conductor 11" in text
        assert "15 (14 good, 1 bad)" in text

    def test_integral_scientific_notation(self, tmp_path, g2b):
        """1e4 is read as the integer 10000: a genus-2 sum, whose Euler
        factors stop at the F_{p^2} ceiling, prints the same bytes."""
        curve = tmp_path / "g2b.json"
        curve.write_text(json.dumps(g2b.to_json()), encoding="utf-8")
        chi = tmp_path / "sym2.json"
        chi.write_text('{"g": 2, "terms": [{"lambda": [2], "coeff": 1}]}',
                       encoding="utf-8")
        runs = [run_cli(["--cache-dir", str(tmp_path / ceiling), "--fp2-ceiling", ceiling,
                         "sum", str(curve), "--x", "97", "--chi", str(chi)])
                for ceiling in ("1e4", "10000")]
        assert runs[0] == runs[1] and runs[0][0] == 0

    def test_bad_prime_sets_differ(self, tmp_path):
        # a non-minimal model of 11a1: its discriminant is divisible by 2
        path = tmp_path / "nonminimal.json"
        path.write_text(json.dumps({"label": "11a1nm", "genus": 1, "conductor": 11,
                                    "model": {"a_invariants": [0, -4, 8, -160, -1280]}}),
                        encoding="utf-8")
        assert run_cli(["--cache-dir", str(tmp_path), "count", str(path),
                        "--pmax", "50"]) == (0, (
            "curve 11a1nm genus 1 conductor 11\n"
            "primes <= 50: 15 (13 good, 2 bad)\n"
            "bad-prime sets differ: conductor [11] vs discriminant [2, 11]\n"
            "  p=2 a_p=bad\n  p=3 a_p=-1\n  p=5 a_p=1\n  p=7 a_p=-2\n"
            "  p=11 a_p=bad\n"))

    def test_genus1_f_h_model(self, tmp_path, t11):
        # y^2 + y = x^3 - x^2 - 10x - 20 given by f and h, not a-invariants
        path = tmp_path / "11a1.json"
        path.write_text(json.dumps({"label": "11a1", "genus": 1, "conductor": 11,
                                    "model": {"f": [-20, -10, -1, 1], "h": [1]}}),
                        encoding="utf-8")
        assert compute_range(CurveSpec.from_path(path), 3000) == t11

    def test_ceiling_error_same_at_any_parallelism(self, tmp_path, g2b, capsys,
                                                   monkeypatch):
        """p = 101 is the first prime past the F_{p^2} ceiling; it is named
        before any lane is counted, whichever worker would count it."""
        from frobsep import store

        path = tmp_path / "g2b.json"
        path.write_text(json.dumps(g2b.to_json()), encoding="utf-8")
        counted = []
        monkeypatch.setattr(store, "_count_lanes", lambda *args: counted.append(args))
        errors = []
        for n in ("1", "2"):
            argv = ["--parallelism", n, "count", str(path), "--pmax", "5000", "--lpoly"]
            assert run_cli(argv) == (2, "")
            errors.append(capsys.readouterr().err)
        assert errors == ["error: p^2=10201 above enumeration ceiling 10000\n"] * 2
        assert counted == []


class TestSum:
    def test_psi_ladder(self, curve_json):
        code, text = run_cli(["sum", str(curve_json["11a1"]),
                              str(curve_json["37a1"]), "--x", "100,1000"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "x,sum,main,residual,res_sqrtx,res_sqrtx_log3,primes,skipped"
        assert len(lines) == 3
        assert lines[1].startswith("100,")
        assert lines[2].startswith("1000,")

    def test_trivial(self, curve_json):
        code, text = run_cli(["sum", str(curve_json["11a1"]),
                              "--x", "100", "--chi", "trivial"])
        assert code == 0
        assert text.splitlines()[1].split(",")[6] == "25"   # pi(100)

    def test_trivial_reads_and_counts_no_table(self, curve_json, tmp_path, monkeypatch):
        import frobsep.store as store_mod

        monkeypatch.setattr(store_mod, "CACHE_BUCKET", 100)
        cache = tmp_path / "cache"
        cache.mkdir()
        code, text = run_cli(["--cache-dir", str(cache), "sum", str(curve_json["11a1"]),
                              "--x", "3e3", "--chi", "trivial"])
        assert (code, text) == (0, TestFrozenStdout.CASES["trivial"][1])
        assert not any(cache.iterdir())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"label": "x", "genus": 1, "conductor": 0,
                                   "model": {"a_invariants": [0, 0, 0, 1, 0]}}),
                       encoding="utf-8")
        assert run_cli(["sum", str(bad), "--x", "100", "--chi", "trivial"])[0] == 2

    def test_character_rank_checked_before_counting(self, curve_json, tmp_path,
                                                    monkeypatch, capsys):
        import frobsep.store as store_mod

        def no_count(*args, **kwargs):
            raise AssertionError("compute_range called")

        monkeypatch.setattr(store_mod, "compute_range", no_count)
        cache = tmp_path / "cache"
        cache.mkdir()
        chi = tmp_path / "g2.json"
        chi.write_text('{"g": 2, "terms": [{"lambda": [1], "coeff": 1}]}', encoding="utf-8")
        code, text = run_cli(["--cache-dir", str(cache), "sum", str(curve_json["11a1"]),
                              "--x", "1e5", "--chi", str(chi)])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: character rank 2 does not match genus of 11a1")
        assert not any(cache.iterdir())

    def test_character_file(self, curve_json, tmp_path):
        # chi = V of the first curve: delta = 0, so main term is 0
        doc = {"g": 1, "terms": [{"lambda": [1], "coeff": 1}]}
        chi = tmp_path / "v.json"
        chi.write_text(json.dumps(doc), encoding="utf-8")
        code, text = run_cli(["sum", str(curve_json["11a1"]), "--x", "500",
                              "--chi", str(chi)])
        assert code == 0
        row = text.splitlines()[1].split(",")
        assert row[2] == "0"   # main term

    def test_product_group_character_file(self, curve_json, tmp_path, t11, t37):
        # chi = V (x) V' on 11a1 x 37a1: the value at p is 4 cos(theta) cos(theta')
        chi = tmp_path / "box.json"
        chi.write_text(TestMalformedInput.FILES["box.json"], encoding="utf-8")
        code, text = run_cli(["sum", str(curve_json["11a1"]), str(curve_json["37a1"]),
                              "--x", "3000", "--chi", str(chi)])
        assert code == 0
        row = text.splitlines()[1].split(",")
        assert row[1] == "-62.0500916958"
        want = oracles.plain_weighted_sum(
            lambda u, v: 4 * math.cos(u[0]) * math.cos(v[0]), [t11, t37], 3000.0, 0.25)
        assert float(row[1]) == pytest.approx(want, abs=1e-9)

    def test_x_below_two_is_usage_error(self, curve_json):
        code, _ = run_cli(["sum", str(curve_json["11a1"]),
                           str(curve_json["37a1"]), "--x", "1"])
        assert code == 1

    def test_determinism_across_parallelism(self, curve_json, tmp_path):
        outputs = []
        for par in ("1", "4", "0"):
            code, text = run_cli(["--cache-dir", str(tmp_path / par),
                                  "--parallelism", par, "sum",
                                  str(curve_json["11a1"]), str(curve_json["37a1"]),
                                  "--x", "600,1200"])
            assert code == 0
            outputs.append(text)
        assert outputs[0] == outputs[1] == outputs[2]


class TestSeparate:
    def test_found(self, curve_json):
        code, text = run_cli(["separate", str(curve_json["11a1"]),
                              str(curve_json["37a1"]), "--pmax", "100"])
        assert code == 0
        assert text.splitlines()[1].split(",")[4] == "5"

    def test_not_found_exit_code(self, curve_json, tmp_path, c11):
        clone = tmp_path / "clone.json"
        doc = c11.to_json()
        doc["label"] = "11a1clone"
        clone.write_text(json.dumps(doc), encoding="utf-8")
        code, text = run_cli(["separate", str(curve_json["11a1"]), str(clone),
                              "--pmax", "100"])
        assert code == 3
        assert "no separating prime" in text


class TestScan:
    def test_corpus(self, curve_json, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({
            "pairs": [[str(curve_json["11a1"]), str(curve_json["37a1"])],
                      [str(curve_json["11a1"]), str(curve_json["11a1"])]],
        }), encoding="utf-8")
        code, text = run_cli(["scan", str(corpus), "--pmax", "100"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "labelA,labelB,N,N2,least_prime,log_bound,ratio"
        assert lines[1].split(",")[4] == "5"
        assert lines[-1].startswith("# max_ratio=")

    def test_each_distinct_curve_counted_once(self, curve_json, tmp_path,
                                              monkeypatch):
        from frobsep import store

        corpus = tmp_path / "corpus.json"
        a, b = str(curve_json["11a1"]), str(curve_json["37a1"])
        corpus.write_text(json.dumps({"pairs": [[a, b], [b, a], [a, b]]}),
                          encoding="utf-8")
        counted = []
        compute_ranges = store.compute_ranges
        monkeypatch.setattr(store, "compute_ranges", lambda p_maxes, **kw:
                            counted.extend(c.label for c in p_maxes)
                            or compute_ranges(p_maxes, **kw))
        code, text = run_cli(["scan", str(corpus), "--pmax", "100"])
        assert code == 0
        assert counted == ["11a1", "37a1"]
        assert [line.split(",")[4] for line in text.splitlines()[1:4]] == ["5"] * 3

    def test_each_file_read_once(self, curve_json, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus.json"
        a, b = str(curve_json["11a1"]), str(curve_json["37a1"])
        corpus.write_text(json.dumps({"pairs": [[a, b], [b, a], [a, a], [b, b]]}),
                          encoding="utf-8")
        read, from_path = [], CurveSpec.from_path
        monkeypatch.setattr(CurveSpec, "from_path", classmethod(
            lambda cls, path: read.append(path) or from_path(path)))
        assert run_cli(["scan", str(corpus), "--pmax", "100"])[0] == 0
        assert read == [a, b]

    def test_first_unreadable_file_named(self, curve_json, tmp_path, capsys):
        corpus = tmp_path / "corpus.json"
        a = str(curve_json["11a1"])
        corpus.write_text(json.dumps({"pairs": [[a, "one.json"], ["two.json", a]]}),
                          encoding="utf-8")
        assert run_cli(["scan", str(corpus), "--pmax", "100"]) == (2, "")
        assert "one.json" in capsys.readouterr().err


class TestKernelCheck:
    def test_table(self):
        code, text = run_cli(["kernel-check", "--y", "0.5,2", "--T", "1e4"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "y,closed,contour,abs_err"
        for line in lines[1:]:
            assert float(line.split(",")[3]) < 1e-3


class TestConfig:
    def test_cache_env_and_flag_precedence(self, curve_json, tmp_path, monkeypatch):
        import frobsep.store as store_mod

        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        env_dir.mkdir()
        flag_dir.mkdir()
        monkeypatch.setattr(store_mod, "CACHE_BUCKET", 100)
        monkeypatch.setenv("FROBSEP_CACHE", str(env_dir))
        run_cli(["count", str(curve_json["11a1"]), "--pmax", "150"])
        assert any(env_dir.iterdir()) and not any(flag_dir.iterdir())
        run_cli(["--cache-dir", str(flag_dir), "count",
                 str(curve_json["11a1"]), "--pmax", "150"])
        assert any(flag_dir.iterdir())

    def test_usage_exit_codes(self):
        assert run_cli(["separate"])[0] == 1          # missing arguments
        assert run_cli(["--kernel-a", "0.7", "delta", "--g", "1", "--g2", "1"])[0] == 1
        # an unknown flag: the quadrature grid is sized by the character
        assert run_cli(["--quadrature-order", "64", "delta", "--g", "1", "--g2", "1"])[0] == 1

    def test_negative_parallelism_is_usage_error(self, curve_json):
        argv = ["--parallelism", "-3", "count", str(curve_json["11a1"]), "--pmax", "50"]
        assert run_cli(argv)[0] == 1
        # rejected with the other settings, also by a subcommand that counts nothing
        assert run_cli(["--parallelism", "-1", "kernel-check", "--y", "1"])[0] == 1

    def test_bad_setting_names_itself(self, curve_json, capsys):
        for argv, message in (
                (["--parallelism", "-3", "count", str(curve_json["11a1"]), "--pmax", "50"],
                 "error: parallelism must be >= 0, got -3"),
                (["--kernel-a", "0.7", "delta", "--g", "1", "--g2", "1"],
                 "error: kernel a=0.7 outside (0, 1/4]")):
            assert run_cli(argv) == (1, "")
            err = capsys.readouterr().err
            assert err.startswith("usage:") and message in err.splitlines()

    def test_missing_file_is_validation_error(self):
        code, _ = run_cli(["count", "/nonexistent/curve.json", "--pmax", "10"])
        assert code == 2


class TestMalformedInput:
    """Malformed input files and out-of-range arguments end in one `error:`
    line and a typed exit code: 2 for a bad file, naming it, or for a value
    outside a function's domain, 1 for a bad argument.  An exception
    escaping `main` would fail the test; at the command line it would print
    a traceback."""

    CURVE = {"label": "11a1", "genus": 1, "conductor": 11,
             "model": {"a_invariants": [0, -1, 1, -10, -20]}}
    FILES = {
        "curve.json": json.dumps(CURVE),
        "no_genus.json": '{"label": "x"}',
        "not_json.json": "not json",
        "short_ainv.json": json.dumps({**CURVE, "model": {"a_invariants": [0, 0]}}),
        "genus_word.json": json.dumps({**CURVE, "genus": "two"}),
        "genus3.json": json.dumps({**CURVE, "genus": 3, "model": {
            "f": [0, 0, 0, 0, 1, 1], "h": [1, 1, 0, 1]}}),
        "g1_h_quadratic.json": json.dumps({**CURVE, "model": {
            "f": [-20, -10, -1, 1], "h": [1, 0, 1]}}),
        "g2_f_degree7.json": json.dumps({**CURVE, "genus": 2, "model": {
            "f": [1, 0, 0, 0, 0, 0, 0, 1]}}),
        "g2_h_quartic.json": json.dumps({**CURVE, "genus": 2, "model": {
            "f": [0, 0, 0, 0, 1, 1], "h": [1, 1, 0, 1, 1]}}),
        "g2_a_invariants.json": json.dumps({**CURVE, "genus": 2}),
        "chi_no_terms.json": '{"g": 1}',
        "chi_no_coeff.json": '{"g": 1, "terms": [{"lambda": [1]}]}',
        "chi_rank0.json": '{"g": 0, "terms": [{"lambda": [], "coeff": 1}]}',
        "chi_rank_negative.json": '{"g": -1, "terms": [{"lambda": [], "coeff": 1}]}',
        "chi_g2_rank0.json": '{"g": 1, "g2": 0, "terms": [{"lambda": [], "coeff": 1}]}',
        "corpus_no_pairs.json": '{"curves": []}',
        "g3.json": '{"g": 3, "terms": [{"lambda": [1, 1], "coeff": 1}, '
                   '{"lambda": [], "coeff": 2}]}',
        "box.json": '{"g": 1, "g2": 1, "terms": [{"lambda": [1], "mu": [1], "coeff": 1}]}',
    }

    @pytest.mark.parametrize("argv, code, message", [
        (["count", "no_genus.json", "--pmax", "10"], 2,
         "no_genus.json: missing field 'genus'"),
        (["count", "not_json.json", "--pmax", "10"], 2, "not_json.json: Expecting value"),
        (["count", "short_ainv.json", "--pmax", "10"], 2, "short_ainv.json: "),
        (["count", "genus_word.json", "--pmax", "10"], 2, "genus_word.json: "),
        (["count", "genus3.json", "--pmax", "10"], 2,
         "genus3.json: genus must be 1 or 2, got 3"),
        (["count", "g1_h_quadratic.json", "--pmax", "10"], 2,
         "g1_h_quadratic.json: genus-1 model needs deg h <= 1"),
        (["count", "g2_f_degree7.json", "--pmax", "10"], 2,
         "g2_f_degree7.json: genus-2 model needs deg f <= 6"),
        (["count", "g2_h_quartic.json", "--pmax", "10"], 2,
         "g2_h_quartic.json: genus-2 model needs deg h <= 3"),
        (["count", "g2_a_invariants.json", "--pmax", "10"], 2,
         "g2_a_invariants.json: a_invariants model implies genus 1"),
        (["delta", "--g", "1", "--character", "chi_no_terms.json"], 2,
         "chi_no_terms.json: missing field 'terms'"),
        (["sum", "curve.json", "--x", "100", "--chi", "chi_no_coeff.json"], 2,
         "chi_no_coeff.json: missing field 'coeff'"),
        (["delta", "--g", "1", "--character", "chi_rank0.json"], 2,
         "chi_rank0.json: factor ranks must be >= 1, got (0,)"),
        (["delta", "--g", "1", "--character", "chi_rank_negative.json"], 2,
         "chi_rank_negative.json: factor ranks must be >= 1, got (-1,)"),
        (["delta", "--g", "1", "--character", "chi_g2_rank0.json"], 2,
         "chi_g2_rank0.json: factor ranks must be >= 1, got (1, 0)"),
        (["sum", "curve.json", "--x", "100", "--chi", "chi_rank0.json"], 2,
         "chi_rank0.json: factor ranks must be >= 1, got (0,)"),
        (["scan", "corpus_no_pairs.json", "--pmax", "10"], 2,
         "corpus_no_pairs.json: missing field 'pairs'"),
        (["sum", "curve.json", "--x", "100", "--chi", "box.json"], 2,
         "product-group characters need two curves"),
        (["delta", "--g", "7", "--character", "g3.json"], 1,
         "--g 7 does not match the character's g=3"),
        (["delta", "--g", "3", "--g2", "1", "--character", "g3.json"], 1,
         "--g2 1 does not match the character's g=3"),
        (["delta"], 1, "delta needs --g (or --character)"),
        (["delta", "--g", "1"], 1, "delta needs --g2 (or --character)"),
        (["count", "curve.json", "--pmax", "-5"], 1, "p_max must be >= 0, got -5"),
        (["separate", "curve.json", "curve.json", "--pmax", "-1"], 1,
         "p_max must be >= 0, got -1"),
        (["count", "curve.json", "--pmax=-1e1"], 1, "p_max must be >= 0, got -10"),
        (["count", "curve.json", "--pmax", "2.5"], 1,
         "argument --pmax: invalid integer value: '2.5'"),
        (["separate", "curve.json", "curve.json", "--pmax", "abc"], 1,
         "argument --pmax: invalid integer value: 'abc'"),
        (["--fp2-ceiling", "1e-3", "count", "curve.json", "--pmax", "10"], 1,
         "argument --fp2-ceiling: invalid integer value: '1e-3'"),
        (["--count-ceiling", "inf", "scan", "corpus_no_pairs.json", "--pmax", "10"], 1,
         "argument --count-ceiling: invalid integer value: 'inf'"),
        (["sum", "curve.json", "curve.json", "--x", "1e400"], 1,
         "every x must be finite and >= 2"),
        (["sum", "curve.json", "curve.json", "--x", "1e3,abc"], 1,
         "bad --x list '1e3,abc'"),
        (["sum", "curve.json", "--x", "1e3"], 2, "psi sums need two curves"),
        # chi = 1 reads no table, but its sum sieves every prime up to x
        (["--count-ceiling", "1000", "sum", "curve.json", "--x", "2000", "--chi", "trivial"],
         2, "p_max=2000 above counting ceiling 1000"),
        (["kernel-check", "--y", ","], 1, "empty --y list"),
        (["kernel-check", "--y", "nan"], 1, "every y and T must be finite"),
        (["kernel-check", "--y", "2,inf"], 1, "every y and T must be finite"),
        (["kernel-check", "--y", "2", "--T", "nan"], 1, "every y and T must be finite"),
        (["kernel-check", "--y", "2", "--T", "inf"], 1, "every y and T must be finite"),
        # a finite T too high for the contour's windows is outside its domain
        (["kernel-check", "--y", "2", "--T", "1e12"], 2,
         "truncation height T=1000000000000.0 not finite and in [1000, 10000000]"),
        # argparse's own errors name what is wrong
        (["separate"], 1,
         "the following arguments are required: curve_a, curve_b, --pmax"),
        (["count", "curve.json"], 1, "the following arguments are required: --pmax"),
        (["--parallelism", "abc", "delta", "--g", "1", "--g2", "1"], 1,
         "argument --parallelism: invalid int value: 'abc'"),
        # the unknown flag's value would otherwise be named as the command
        (["--quadrature-order", "64", "delta", "--g", "1", "--g2", "1"], 1,
         "unrecognized arguments: --quadrature-order"),
    ], ids=["curve-missing-field", "curve-not-json", "curve-short-a-invariants",
            "curve-genus-not-int", "curve-genus-3", "curve-genus1-h-quadratic",
            "curve-genus2-f-degree-7", "curve-genus2-h-quartic",
            "curve-genus2-a-invariants", "character-missing-terms",
            "character-missing-coeff", "character-rank-zero", "character-rank-negative", "character-g2-rank-zero",
            "sum-character-rank-zero",
            "corpus-missing-pairs", "sum-product-character-one-curve",
            "delta-g-mismatch", "delta-g2-mismatch", "delta-no-g", "delta-no-g2",
            "count-negative-pmax", "separate-negative-pmax",
            "count-negative-scientific-pmax", "count-fractional-pmax",
            "separate-pmax-not-number", "fp2-ceiling-fractional",
            "count-ceiling-infinite",
            "sum-infinite-x", "sum-bad-x-list", "sum-psi-one-curve",
            "sum-trivial-above-ceiling",
            "kernel-check-empty-y", "kernel-check-nan-y", "kernel-check-infinite-y",
            "kernel-check-nan-T", "kernel-check-infinite-T", "kernel-check-huge-T",
            "separate-missing-arguments", "count-missing-pmax", "parallelism-not-int",
            "unknown-flag-before-command"])
    def test_error_line_not_traceback(self, argv, code, message, tmp_path, capsys):
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        argv = [str(tmp_path / arg) if arg in self.FILES else arg for arg in argv]
        assert run_cli(argv) == (code, "")
        err = capsys.readouterr().err
        assert "Traceback" not in err
        named = message.split(":")[0] in self.FILES
        prefix = f"error: {tmp_path / message}" if named else f"error: {message}"
        assert err.splitlines()[-1].startswith(prefix)


class TestRuntimeImports:
    """No subcommand loads scipy or a process pool's modules; sum, delta and
    small counts load no sympy; count, separate and scan load no kernel sums
    or character theory; `import frobsep` loads no numpy, and the CLI starts
    OpenBLAS with one thread unless the caller set a count."""

    PROBE = (
        "import runpy, sys\n"
        "sys.argv, code = ['frobsep'] + sys.argv[1:], None\n"
        "try:\n"
        "    runpy.run_module('frobsep', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print('exit', code, sorted(m for m in (\n"
        "    'scipy', 'sympy', 'concurrent.futures.process', 'multiprocessing',\n"
        "    'frobsep.kernels', 'frobsep.symplectic', 'frobsep.laurent')\n"
        "    if m in sys.modules))\n"
    )
    CHARACTERS = "'frobsep.kernels', 'frobsep.laurent', 'frobsep.symplectic'"

    def run_python(self, code, args, cwd, **preset):
        done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                              env=child_env(**preset), capture_output=True,
                              text=True, check=True)
        return done.stdout.splitlines()[-1]

    def run_module(self, args, cwd):
        return self.run_python(self.PROBE, args, cwd)

    def test_sum_genus1_genus2(self, curve_json, g2b, tmp_path):
        g2_path = tmp_path / "g2b.json"
        g2_path.write_text(json.dumps(g2b.to_json()), encoding="utf-8")
        last = self.run_module(["--cache-dir", str(tmp_path / "cache"), "sum",
                                str(curve_json["11a1"]), str(g2_path),
                                "--x", "1e3"], tmp_path)
        assert last == f"exit 0 [{self.CHARACTERS}]"

    def test_every_export_resolves(self):
        assert [name for name in frobsep.__all__ if not hasattr(frobsep, name)] == []

    def test_delta_22(self, tmp_path):
        assert self.run_module(["delta", "--g", "2", "--g2", "2"], tmp_path) == \
            "exit 0 ['frobsep.laurent', 'frobsep.symplectic']"

    def test_count_below_pool_threshold(self, curve_json, tmp_path):
        assert self.run_module(["count", str(curve_json["11a1"]), "--pmax", "97"],
                               tmp_path) == "exit 0 []"

    @pytest.mark.parametrize("command", ["count", "separate", "scan"])
    def test_counting_commands_load_no_character_theory(self, command, curve_json,
                                                        tmp_path):
        """At --parallelism 2; count's 669 primes fork a child."""
        a, b = str(curve_json["11a1"]), str(curve_json["37a1"])
        (tmp_path / "corpus.json").write_text(json.dumps({"pairs": [[a, b]]}),
                                              encoding="utf-8")
        args = {"count": [a], "separate": [a, b], "scan": ["corpus.json"]}[command]
        assert self.run_module(["--parallelism", "2", command, *args, "--pmax", "5000"],
                               tmp_path) == "exit 0 []"

    def test_kernel_check_loads_no_pool(self, tmp_path):
        last = self.run_module(["kernel-check", "--y", "1.5", "--T", "1000"], tmp_path)
        assert last.startswith("exit 0 [")
        assert "multiprocessing" not in last and "concurrent" not in last
        assert "scipy" not in last

    def test_package_import_defers_numpy(self, tmp_path):
        probe = "import sys, frobsep; print('numpy' in sys.modules)"
        assert self.run_python(probe, [], tmp_path) == "False"

    @pytest.mark.parametrize("preset, seen", [({}, "1"),
                                              ({"OPENBLAS_NUM_THREADS": "3"}, "3")])
    def test_openblas_thread_count(self, preset, seen, tmp_path):
        probe = ("import os; from frobsep import cli; "
                 "print(os.environ['OPENBLAS_NUM_THREADS'])")
        assert self.run_python(probe, [], tmp_path, **preset) == seen

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="counts threads through /proc")
    def test_cli_import_starts_no_thread(self, tmp_path):
        # the setting only works if it precedes numpy's import
        probe = ("import os; from frobsep import cli; "
                 "print(len(os.listdir('/proc/self/task')))")
        assert self.run_python(probe, [], tmp_path) == "1"


class TestFrozenStdout:
    """Byte-exact stdout of reference invocations, recorded from the
    per-prime implementation before the trace store became columnar."""

    SUM_HEADER = "x,sum,main,residual,res_sqrtx,res_sqrtx_log3,primes,skipped\n"
    CASES = {
        "psi_ladder": (
            ["sum", "11a1", "37a1", "--x", "1e3,3e3"],
            SUM_HEADER
            + "1000,504.173668204,640,-135.826331796,-4.29520574702,"
              "-0.0130308618879,166,2\n"
            + "3000,1636.24363127,1920,-283.756368725,-5.18065879955,"
              "-0.0100943513531,428,2\n"),
        "psi_genus2": (
            ["sum", "11a1", "g2b", "--x", "2e3"],
            SUM_HEADER
            + "2000,3272.52224592,1280,1992.52224592,44.5541518856,"
              "0.101459496531,300,3\n"),
        "trivial": (
            ["sum", "11a1", "--x", "3e3", "--chi", "trivial"],
            SUM_HEADER
            + "3000,1857.52165736,1920,-62.4783426443,-1.14069325406,"
              "-0.00222260506591,430,0\n"),
        "sym2": (
            ["sum", "11a1", "--x", "3e3", "--chi", "sym2"],
            SUM_HEADER
            + "3000,-59.6622494121,0,-59.6622494121,-1.08927866115,"
              "-0.00212242534252,429,1\n"),
        "delta_22": (
            ["delta", "--g", "2", "--g2", "2"],
            "delta(psi[g=2,g'=2]) quadrature = 1\n"
            "delta(psi[g=2,g'=2]) exact = 1\n"),
        "separate": (
            ["separate", "11a1", "37a1", "--pmax", "3000"],
            "labelA,labelB,N,N2,least_prime,log_bound,ratio\n"
            "11a1,37a1,11,37,5,44.9162727475,0.111318230435\n"),
        "count": (
            ["count", "11a1", "--pmax", "3000"],
            "curve 11a1 genus 1 conductor 11\n"
            "primes <= 3000: 430 (429 good, 1 bad)\n"
            "  p=2 a_p=-2\n  p=3 a_p=-1\n  p=5 a_p=1\n  p=7 a_p=-2\n"
            "  p=11 a_p=bad\n"),
    }

    @pytest.fixture
    def files(self, curve_json, g2b, tmp_path):
        paths = {label: str(path) for label, path in curve_json.items()}
        for name, doc in (("g2b", g2b.to_json()),
                          ("sym2", {"g": 1, "terms": [{"lambda": [2], "coeff": 1}]})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths[name] = str(path)
        return paths

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reference_stdout(self, case, files, tmp_path):
        argv, want = self.CASES[case]
        argv = [files.get(arg, arg) for arg in argv]
        code, text = run_cli(["--cache-dir", str(tmp_path / "cache"), *argv])
        assert code == 0
        assert text == want

    @pytest.mark.parametrize("threads", [{}, {"OPENBLAS_NUM_THREADS": "2"}],
                             ids=["default", "openblas2"])
    @pytest.mark.parametrize("case", ["delta_22", "sym2"])
    def test_fresh_process_stdout(self, case, threads, files, tmp_path):
        # in this process numpy loaded before the CLI could set OpenBLAS's
        # thread count; a child process starts under the CLI's setting
        argv, want = self.CASES[case]
        done = subprocess.run(
            [sys.executable, "-m", "frobsep", "--cache-dir", str(tmp_path / "cache"),
             *(files.get(arg, arg) for arg in argv)],
            cwd=tmp_path, env=child_env(**threads), capture_output=True, check=True)
        assert done.stdout == want.encode()


class TestCorruptCache:
    def test_malformed_metadata_line_is_validation_error(self, curve_json,
                                                         tmp_path, monkeypatch):
        import frobsep.store as store_mod

        monkeypatch.setattr(store_mod, "CACHE_BUCKET", 100)
        argv = ["--cache-dir", str(tmp_path), "count", str(curve_json["11a1"]),
                "--pmax", "100"]
        assert run_cli(argv)[0] == 0
        path = tmp_path / "11a1.b0000.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0] + " junk", *lines[1:]]) + "\n")
        assert run_cli(argv)[0] == 2

    @pytest.mark.parametrize("p_max", ["99", "150"])
    def test_bucket_for_another_label_is_conflict(self, curve_json, tmp_path,
                                                  monkeypatch, capsys, p_max):
        import frobsep.store as store_mod

        monkeypatch.setattr(store_mod, "CACHE_BUCKET", 100)
        argv = ["--cache-dir", str(tmp_path), "count", str(curve_json["11a1"]),
                "--pmax", p_max]
        assert run_cli(argv)[0] == 0
        path = tmp_path / "11a1.b0000.csv"
        path.write_text(path.read_text().replace(" label=11a1 ", " label=other ", 1))
        capsys.readouterr()
        assert run_cli(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: cache file {path} ") and "label" in err

    def test_separate_reaching_a_corrupt_bucket_is_conflict(
            self, curve_json, tmp_path, monkeypatch, capsys, c11):
        """The 11a1 clone pair never separates, so its search reads the
        cached bucket of primes below 100 on its last window."""
        import frobsep.store as store_mod

        monkeypatch.setattr(store_mod, "CACHE_BUCKET", 100)
        clone = tmp_path / "clone.json"
        clone.write_text(json.dumps({**c11.to_json(), "label": "11a1clone"}),
                         encoding="utf-8")
        cache = tmp_path / "cache"
        argv = ["--cache-dir", str(cache), "separate", str(curve_json["11a1"]),
                str(clone), "--pmax", "150"]
        assert run_cli(argv)[0] == 3
        path = cache / "11a1.b0000.csv"
        path.write_text(path.read_text().replace(" label=11a1 ", " label=other ", 1))
        capsys.readouterr()
        assert run_cli(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: cache file {path} ") and "label" in err


class TestWindowedSearch:
    """`separate` and `scan` count to log(2 N N')^2, then to 8 times the
    last window, and stop at the first window that holds a separating
    prime; their records equal `least_separating_prime` over tables
    counted to --pmax."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Primes handed to the counting body, the widths each curve's table
        is built for, each counting call's {label: width}, and the cache
        files read.  Blocks stay below the fork threshold, so every lane is
        counted in this process."""
        from frobsep import store

        seen = {"primes": [], "widths": {}, "calls": [], "imports": []}
        count, compute, read = (store.euler_factors, store.compute_ranges,
                                store.import_csv)

        def counting(lanes, primes, **kw):
            seen["primes"] += list(primes)
            return count(lanes, primes, **kw)

        def computing(p_maxes, **kw):
            seen["calls"].append({curve.label: p_max for curve, p_max in p_maxes.items()})
            for curve, p_max in p_maxes.items():
                seen["widths"].setdefault(curve.label, []).append(p_max)
            return compute(p_maxes, **kw)

        def reading(path, *args):
            seen["imports"].append(path)
            return read(path, *args)

        monkeypatch.setattr(store, "euler_factors", counting)
        monkeypatch.setattr(store, "compute_ranges", computing)
        monkeypatch.setattr(store, "import_csv", reading)
        return seen

    @staticmethod
    def curve_file(tmp_path, curve, **changes):
        path = tmp_path / f"{changes.get('label', curve.label)}.json"
        path.write_text(json.dumps({**curve.to_json(), **changes}), encoding="utf-8")
        return str(path)

    @staticmethod
    def oracle(files, p_max):
        from frobsep import least_separating_prime

        a, b = (compute_range(CurveSpec.from_path(f), p_max) for f in files)
        return least_separating_prime(a, b, p_max)

    @pytest.mark.parametrize("command", ["separate", "scan"])
    def test_counting_stops_at_first_window(self, command, curve_json, tmp_path,
                                            monkeypatch, recorded):
        from frobsep import store

        monkeypatch.setattr(store, "CACHE_BUCKET", 1000)
        cache = ["--cache-dir", str(tmp_path / "cache")]
        files = [str(curve_json["11a1"]), str(curve_json["37a1"])]
        for path in files:                                # a warm cache
            assert run_cli([*cache, "count", path, "--pmax", "3000"])[0] == 0
        assert len(list((tmp_path / "cache").iterdir())) == 6
        recorded["primes"].clear()
        recorded["imports"].clear()
        if command == "scan":
            corpus = tmp_path / "corpus.json"
            corpus.write_text(json.dumps({"pairs": [files]}), encoding="utf-8")
            argv = ["scan", str(corpus)]
        else:
            argv = ["separate", *files]
        code, text = run_cli([*cache, *argv, "--pmax", "3000"])
        assert code == 0
        assert text.splitlines()[1] == "11a1,37a1,11,37,5,44.9162727475,0.111318230435"
        assert recorded["primes"] and max(recorded["primes"]) <= 45
        assert recorded["imports"] == []

    def test_widening_and_no_hit_match_full_count(self, c11, c37, tmp_path,
                                                  recorded):
        """Declared conductor 1 gives first window ceil(log(2)^2) = 1, so
        the windows 1, 8, 64, 512 are walked; the clone pair never
        separates and is counted to --pmax."""
        a = self.curve_file(tmp_path, c11, label="a", conductor=1)
        b = self.curve_file(tmp_path, c37, label="b", conductor=1)
        clone = self.curve_file(tmp_path, c11, label="clone", conductor=1)
        # widths first: the oracle's full tables go through the same spy
        code, text = run_cli(["separate", a, b, "--pmax", "3000"])
        assert recorded["widths"] == {"a": [1, 8], "b": [1, 8]}
        assert (code, text.splitlines()[1]) == (0, self.oracle([a, b], 3000).csv_row())

        recorded["widths"].clear()
        code, text = run_cli(["separate", a, clone, "--pmax", "3000"])
        assert code == 3
        assert recorded["widths"] == {"a": [1, 8, 64, 512, 3000],
                                      "clone": [1, 8, 64, 512, 3000]}
        assert text.splitlines()[1:] == [self.oracle([a, clone], 3000).csv_row(),
                                         "# no separating prime <= 3000"]

        recorded["widths"].clear()
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({"pairs": [[a, b], [a, clone], [b, a]]}),
                          encoding="utf-8")
        code, text = run_cli(["scan", str(corpus), "--pmax", "3000"])
        assert code == 3
        # each curve is counted once per width, and only to widen its table
        assert recorded["widths"] == {"a": [1, 8, 64, 512, 3000], "b": [1, 8],
                                      "clone": [1, 8, 64, 512, 3000]}
        assert text == separation.scan_csv(
            [self.oracle(pair, 3000) for pair in ([a, b], [a, clone], [b, a])])

    def test_scan_rounds_count_once_each(self, c11, c37, g2a, g2b, tmp_path,
                                         recorded):
        """With every conductor declared 1 all pairs share the windows 1, 8,
        64, 512, 3000, so round k is window k: one counting call per round
        for the curves of the pairs still open, each widened once.  Pairs
        close in the second, third and fourth rounds, and one never."""
        a, b, clone, g, h = (self.curve_file(tmp_path, curve, label=label, conductor=1)
                             for curve, label in ((c11, "a"), (c37, "b"), (c11, "clone"),
                                                  (g2b, "g"), (g2a, "h")))
        pairs = [[a, b], [a, clone], [a, g], [g, h], [b, a]]
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({"pairs": pairs}), encoding="utf-8")
        code, text = run_cli(["scan", str(corpus), "--pmax", "3000"])
        assert code == 3
        every = ("a", "b", "clone", "g", "h")
        assert recorded["calls"] == [
            dict.fromkeys(every, 1), dict.fromkeys(every, 8),
            dict.fromkeys(("a", "clone", "g", "h"), 64),
            dict.fromkeys(("a", "clone", "g", "h"), 512),
            dict.fromkeys(("a", "clone"), 3000)]
        records = [self.oracle(pair, 3000) for pair in pairs]
        assert [r.least_prime for r in records] == [5, None, 17, 131, 5]
        assert text == separation.scan_csv(records)

    @pytest.mark.parametrize("command", ["separate", "scan"])
    def test_pmax_above_ceiling_counts_nothing(self, command, curve_json, tmp_path,
                                               capsys, recorded):
        files = [str(curve_json["11a1"]), str(curve_json["37a1"])]
        if command == "scan":
            corpus = tmp_path / "corpus.json"
            corpus.write_text(json.dumps({"pairs": [files]}), encoding="utf-8")
            argv = ["scan", str(corpus)]
        else:
            argv = ["separate", *files]
        assert run_cli(["--count-ceiling", "100", *argv, "--pmax", "101"]) == (2, "")
        assert capsys.readouterr().err == \
            "error: p_max=101 above counting ceiling 100\n"
        assert recorded["primes"] == [] and recorded["widths"] == {}
