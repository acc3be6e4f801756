import io
import json

import pytest

from frobsep.cli import main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


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


class TestCount:
    def test_summary(self, curve_json, tmp_path):
        code, text = run_cli(["--cache-dir", str(tmp_path), "count",
                              str(curve_json["11a1"]), "--pmax", "50"])
        assert code == 0
        assert "curve 11a1 genus 1 conductor 11" in text
        assert "15 (14 good, 1 bad)" in text


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
        compute_range = store.compute_range
        monkeypatch.setattr(store, "compute_range", lambda curve, *args, **kw:
                            counted.append(curve.label) or compute_range(curve, *args, **kw))
        code, text = run_cli(["scan", str(corpus), "--pmax", "100"])
        assert code == 0
        assert counted == ["11a1", "37a1"]
        assert [line.split(",")[4] for line in text.splitlines()[1:4]] == ["5"] * 3


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

    def test_missing_file_is_validation_error(self):
        code, _ = run_cli(["count", "/nonexistent/curve.json", "--pmax", "10"])
        assert code == 2
