import csv
import hashlib
import io
import json
import os
import re

import pytest

import seedsense.cli as cli_mod
import seedsense.sampling as sampling_mod
from seedsense.alignments import ORACLE_LENGTH_LIMIT
from seedsense.cli import run
from seedsense.selfcheck import CheckResult, run_selfcheck


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = invoke(capsys, "count", "--length", "5", "--score", "3",
                              "--match", "1", "--mismatch", "1")
        assert code == 0
        assert out == "1\n"

    def test_usage_errors(self, capsys):
        assert invoke(capsys, "count")[0] == 2
        assert invoke(capsys, "count", "--length", "0")[0] == 2
        assert invoke(capsys, "nonsense")[0] == 2
        assert invoke(capsys, "sensitivity", "--seed", "011", "--length", "5",
                      "--score", "3")[0] == 2
        assert invoke(capsys, "sensitivity", "--seed", "101", "--length", "9",
                      "--score", "3", "--max-overlap", "3")[0] == 2
        assert invoke(capsys, "count", "--length", "5", "--score", "3",
                      "--model", "all", "--format", "yaml")[0] == 2
        # an option is named in full: no abbreviation stands for it
        assert invoke(capsys, "count", "--len", "5")[0] == 2

    def test_all_model_requires_score(self, capsys):
        assert invoke(capsys, "count", "--length", "5", "--model", "all")[0] == 2

    def test_infeasible(self, capsys):
        code, _, err = invoke(capsys, "sensitivity", "--seed", "11", "--length", "5",
                              "--score", "2")
        assert code == 3
        assert "error" in err

    def test_curve_infeasible_range(self, capsys):
        code, _, _ = invoke(capsys, "curve", "--seed", "11", "--score", "5",
                            "--length-range", "2:4")
        assert code == 3

    def test_help(self, capsys):
        assert invoke(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("command, options", [
        ("count", "--length --score --model --match --mismatch --format --output"),
        ("generate", "--length --score --samples --rng-seed --threads --match --mismatch "
                     "--format --output"),
        ("sensitivity", "--seed --occurrences --max-overlap --length --score --model --match "
                        "--mismatch --format --output --precision"),
        ("mc", "--seed --occurrences --max-overlap --length --score --model --samples "
               "--rng-seed --match --mismatch --format --output --precision"),
        ("optimize", "--weight --max-span --length --score --model --top --threads --match "
                     "--mismatch --format --output --precision"),
        ("curve", "--seed --occurrences --max-overlap --score --length-range --model --match "
                  "--mismatch --format --output --precision"),
        ("selfcheck", "--max-length --format --output"),
    ])
    def test_command_help_names_every_option(self, capsys, command, options):
        code, out, _ = invoke(capsys, command, "--help")
        assert code == 0
        named = set(re.findall(r"--[a-z-]+", out))
        assert set(options.split()) | {"--help"} <= named

    def test_selfcheck_failure_maps_to_4(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli_mod, "run_selfcheck",
            lambda max_length: [CheckResult("stub", False, "forced failure")])
        code, out, err = invoke(capsys, "selfcheck")
        assert code == 4
        assert "FAIL stub" in out


class TestCount:
    def test_free_score(self, capsys):
        code, out, _ = invoke(capsys, "count", "--length", "5", "--match", "1",
                              "--mismatch", "1")
        assert code == 0 and out == "2\n"

    def test_infeasible_counts_zero(self, capsys):
        code, out, _ = invoke(capsys, "count", "--length", "5", "--score", "2")
        assert code == 0 and out == "0\n"

    def test_all_model(self, capsys):
        code, out, _ = invoke(capsys, "count", "--length", "40", "--score", "12",
                              "--model", "all")
        assert code == 0 and out == "18643560\n"

    def test_homogeneous_score_below_one_is_a_usage_error(self, capsys):
        # the score rule every other command applies; the uniform model has no such rule
        for score in ("0", "-3"):
            code, out, err = invoke(capsys, "count", "--length", "10", "--score", score)
            assert code == 2 and out == ""
            assert "homogeneous alignments require score >= 1" in err
        code, out, _ = invoke(capsys, "count", "--length", "10", "--score", "0",
                              "--model", "all", "--match", "1", "--mismatch", "1")
        assert code == 0 and out == "252\n"

    def test_free_score_beyond_old_length_cap(self, capsys):
        # under (1, 600) only the all-match alignment has a positive score
        code, out, _ = invoke(capsys, "count", "--length", "513", "--match", "1",
                              "--mismatch", "600")
        assert code == 0 and out == "1\n"

    def test_csv_fields(self, capsys):
        code, out, _ = invoke(capsys, "count", "--length", "6", "--score", "4",
                              "--match", "1", "--mismatch", "1", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["count"] == "2"
        assert rows[0]["model"] == "homogeneous"


class TestGenerate:
    def test_unique_member_text(self, capsys):
        code, out, _ = invoke(capsys, "generate", "--length", "5", "--score", "3",
                              "--match", "1", "--mismatch", "1", "--samples", "3",
                              "--rng-seed", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["11011", "11011", "11011"]
        assert lines[3].startswith("# match=1 mismatch=1 length=5 score=3")

    def test_identical_invocations_byte_identical(self, capsys):
        args = ("generate", "--length", "12", "--score", "8", "--samples", "5",
                "--rng-seed", "41")
        first = invoke(capsys, *args)
        second = invoke(capsys, *args)
        assert first == second

    def test_threads_do_not_change_output(self, capsys):
        base = ("generate", "--length", "12", "--score", "8", "--samples", "6",
                "--rng-seed", "3")
        serial = invoke(capsys, *base, "--threads", "1")
        forked = invoke(capsys, *base, "--threads", "2")
        assert serial == forked

    def test_json_fields_match_csv(self, capsys):
        args = ("generate", "--length", "10", "--score", "6", "--samples", "2",
                "--rng-seed", "1")
        _, csv_out, _ = invoke(capsys, *args, "--format", "csv")
        _, json_out, _ = invoke(capsys, *args, "--format", "json")
        csv_rows = parse_csv(csv_out)
        json_rows = json.loads(json_out)
        assert [set(r) for r in csv_rows] == [set(r) for r in json_rows]
        assert [r["alignment"] for r in csv_rows] == [r["alignment"] for r in json_rows]

    def test_infeasible(self, capsys):
        assert invoke(capsys, "generate", "--length", "5", "--score", "2")[0] == 3

    def test_homogeneous_score_below_one_is_a_usage_error(self, capsys, serial_pool):
        # the same rule and exit code as sensitivity, mc, optimize and curve
        for score in ("0", "-3"):
            code, out, err = invoke(capsys, "generate", "--length", "10", "--score", score,
                                    "--threads", "2")
            assert code == 2
            assert out == ""
            assert "homogeneous alignments require score >= 1" in err and "Traceback" not in err
        assert serial_pool == []

    def test_infeasible_with_workers_rejected_before_the_pool(self, capsys, serial_pool):
        code, out, err = invoke(capsys, "generate", "--length", "5", "--score", "2",
                                "--samples", "2", "--threads", "2")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert serial_pool == []

    def test_fixed_score_population_built_once(self, capsys, monkeypatch):
        # the infeasibility check counts the class; only the draw builds its rows
        built = []
        build = sampling_mod._population
        monkeypatch.setattr(sampling_mod, "_population",
                            lambda *args: built.append(args) or build(*args))
        code, _, _ = invoke(capsys, "generate", "--length", "12", "--score", "8",
                            "--samples", "5", "--threads", "1")
        assert code == 0
        assert len(built) == 1

    def test_default_threads_one_per_cpu_for_large_batches(self, capsys, serial_pool,
                                                            usable_cpus):
        usable_cpus(3)
        args = ("generate", "--length", "5", "--score", "3", "--match", "1", "--mismatch", "1")
        assert invoke(capsys, *args, "--samples", "49999")[0] == 0
        assert serial_pool == []
        assert invoke(capsys, *args, "--samples", "50000")[0] == 0
        assert serial_pool == [3]

    def test_precision_rejected(self, capsys):
        # only the commands that print probabilities take --precision
        assert invoke(capsys, "generate", "--length", "5", "--score", "3",
                      "--precision", "3")[0] == 2
        assert invoke(capsys, "count", "--length", "5", "--precision", "3")[0] == 2
        assert invoke(capsys, "selfcheck", "--max-length", "1", "--precision", "3")[0] == 2

    def test_rng_seed_is_64_bit(self, capsys):
        args = ("generate", "--length", "5", "--score", "3", "--match", "1", "--mismatch", "1")
        code, out, err = invoke(capsys, *args, "--rng-seed", str(2**64))
        assert code == 2 and out == "" and "--rng-seed" in err
        code, out, _ = invoke(capsys, *args, "--rng-seed", str(2**64 - 1))
        assert code == 0 and out.splitlines()[0] == "11011"

    def test_free_score_beyond_old_length_cap(self, capsys):
        code, out, _ = invoke(capsys, "generate", "--length", "513", "--match", "1",
                              "--mismatch", "600", "--samples", "2")
        assert code == 0
        assert out.splitlines()[:2] == ["1" * 513] * 2


class TestSensitivity:
    def test_text_is_decimal_line(self, capsys):
        code, out, _ = invoke(capsys, "sensitivity", "--seed", "11", "--length", "5",
                              "--score", "3", "--match", "1", "--mismatch", "1")
        assert code == 0 and out == "1.000000\n"

    def test_precision(self, capsys):
        code, out, _ = invoke(capsys, "sensitivity", "--seed", "111", "--length", "12",
                              "--score", "4", "--match", "1", "--mismatch", "1",
                              "--precision", "3")
        assert code == 0
        value = out.strip()
        assert len(value.split(".")[1]) == 3

    def test_csv_roundtrip_lossless(self, capsys):
        code, out, _ = invoke(capsys, "sensitivity", "--seed", "1011", "--length", "14",
                              "--score", "6", "--format", "csv")
        assert code == 0
        row = parse_csv(out)[0]
        assert int(row["numerator"]) <= int(row["denominator"])
        assert row["seed"] == "1011"
        assert row["model"] == "homogeneous"
        assert (int(row["length"]), int(row["score"])) == (14, 6)
        from seedsense.sensitivity import decimal_ratio
        assert row["probability"] == decimal_ratio(
            int(row["numerator"]), int(row["denominator"]), 6)

    def test_occurrence_flags(self, capsys):
        base = ("sensitivity", "--seed", "101", "--length", "14", "--score", "4",
                "--match", "1", "--mismatch", "1", "--format", "csv")
        _, single, _ = invoke(capsys, *base)
        _, double, _ = invoke(capsys, *base, "--occurrences", "2", "--max-overlap", "1")
        p1 = parse_csv(single)[0]
        p2 = parse_csv(double)[0]
        assert int(p2["numerator"]) <= int(p1["numerator"])
        assert p2["occurrences"] == "2" and p2["max_overlap"] == "1"

    def test_empty_homogeneous_population_names_the_model(self, capsys):
        # three sequences of length 3 score 1 under (1, 1), and none is homogeneous
        args = ("--length", "3", "--score", "1", "--match", "1", "--mismatch", "1")
        assert invoke(capsys, "count", *args, "--model", "all")[:2] == (0, "3\n")
        code, out, err = invoke(capsys, "sensitivity", "--seed", "1", *args)
        assert code == 3
        assert out == ""
        assert err.startswith("error: no homogeneous alignment of length 3 has score 1 under")


class TestMc:
    def test_deterministic_and_fields(self, capsys):
        args = ("mc", "--seed", "1011", "--length", "14", "--score", "6",
                "--samples", "400", "--rng-seed", "11", "--format", "json")
        first = invoke(capsys, *args)
        second = invoke(capsys, *args)
        assert first == second
        row = json.loads(first[1])[0]
        assert row["samples"] == 400
        assert 0.0 <= float(row["estimate"]) <= 1.0
        assert "stderr" in row


class TestPinnedOutput:
    """The sha256 of stdout, each recorded before a change to how samples are
    drawn or rows rendered (the JSON case when each row was still a dict passed
    to json.dumps); the bytes must not change."""

    @pytest.mark.parametrize("argv, digest", [
        pytest.param("generate --length 40 --score 12 --samples 2000 --rng-seed 7 --format csv",
                     "d1d45c28ce9f96b903378473a16f2fb78f25a16c33ff883aa047ea1022bf30cb",
                     id="generate-fixed-csv"),
        pytest.param("generate --length 64 --samples 500 --rng-seed 9 --format json",
                     "e1ab66b8ee909f745f69639c6641ac80ca37ccef845211364e4ad2d1b071076c",
                     id="generate-free-json"),
        pytest.param("generate --length 17 --score 9 --match 1 --mismatch 1 --samples 300 "
                     "--rng-seed 3 --threads 2",
                     "8c1a8d6120f8009771689213ef95fca9107c464aa223be157429421ee8f7c586",
                     id="generate-fixed-text-2-workers"),
        pytest.param("generate --length 40 --score 12 --samples 1000 --rng-seed 11 --threads 2 "
                     "--format json",
                     "77a8fe0faa4a3cf10d7f986cfe6dbfc37069543d2535e260315d9ff298863386",
                     id="generate-fixed-json-2-workers"),
        pytest.param("mc --seed 1010110111010001 --length 40 --score 12 --model all "
                     "--samples 5000 --rng-seed 4 --format csv",
                     "4bf9d65f47a09f2b15422f059ecc60a6eae775c8a67881082cac2aaeb4035650",
                     id="mc-all-csv"),
    ])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = invoke(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOptimize:
    def test_csv_schema_and_ranking(self, capsys):
        code, out, _ = invoke(capsys, "optimize", "--weight", "3", "--max-span", "6",
                              "--length", "12", "--score", "4", "--match", "1",
                              "--mismatch", "1", "--top", "3", "--threads", "1",
                              "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert list(rows[0]) == ["rank", "seed", "span", "weight", "numerator",
                                 "denominator", "probability"]
        assert [r["rank"] for r in rows] == ["1", "2", "3"]
        assert rows[0]["seed"] == "100101"
        probabilities = [float(r["probability"]) for r in rows]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_homogeneous_score_below_one_rejected_before_the_pool(self, capsys, serial_pool,
                                                                   usable_cpus):
        usable_cpus(2)
        code, out, err = invoke(capsys, "optimize", "--weight", "2", "--max-span", "3",
                                "--length", "10", "--score", "0")
        assert code == 2
        assert out == ""
        assert "score >= 1" in err and "Traceback" not in err
        assert serial_pool == []

    @pytest.mark.parametrize("score, model", [("40", "all"), ("4", "homogeneous")])
    def test_infeasible_score_rejected_before_the_pool(self, capsys, serial_pool, usable_cpus,
                                                       score, model):
        usable_cpus(2)
        code, out, err = invoke(capsys, "optimize", "--weight", "3", "--max-span", "5",
                                "--length", "12", "--score", score, "--model", model,
                                "--threads", "2")
        assert code == 3
        assert out == ""
        assert err.startswith({"all": "error: no alignments of length 12 and score",
                               "homogeneous": "error: no homogeneous alignment of length 12 "
                                              "has score"}[model])
        assert serial_pool == []

    def test_text_footer(self, capsys):
        code, out, _ = invoke(capsys, "optimize", "--weight", "2", "--max-span", "3",
                              "--length", "10", "--score", "4", "--match", "1",
                              "--mismatch", "1", "--threads", "1")
        assert code == 0
        assert out.splitlines()[-1] == "# candidates=2"


class TestCurve:
    def test_schema_and_sorting(self, capsys):
        code, out, _ = invoke(capsys, "curve", "--seed", "1011", "--score", "8",
                              "--length-range", "8:24", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert list(rows[0]) == ["n", "score", "seed", "model", "numerator",
                                 "denominator", "probability"]
        pairs = [(int(r["n"]), r["model"]) for r in rows]
        assert pairs == sorted(pairs)
        assert len(pairs) == len(set(pairs))
        # both models present for every feasible length; (1,3) needs n % 4 == 0
        assert {n for n, _ in pairs} == {8, 12, 16, 20, 24}
        assert {m for _, m in pairs} == {"all", "homogeneous"}

    def test_single_model_and_step(self, capsys):
        code, out, _ = invoke(capsys, "curve", "--seed", "11", "--score", "4",
                              "--match", "1", "--mismatch", "1",
                              "--length-range", "8:16:4", "--model", "homogeneous",
                              "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert {r["model"] for r in rows} == {"homogeneous"}
        assert [int(r["n"]) for r in rows] == [8, 12, 16]

    def test_both_models_skip_lengths_without_a_homogeneous_alignment(self, capsys):
        # under (1,3), length 6 has alignments of score 2 ("111011" and its kin) but
        # no homogeneous one, so a request that includes the homogeneous model drops it
        def lengths(model):
            code, out, _ = invoke(capsys, "curve", "--seed", "11", "--score", "2",
                                  "--length-range", "2:6", "--model", model, "--format", "csv")
            assert code == 0
            return [(int(r["n"]), r["model"]) for r in parse_csv(out)]
        assert lengths("all") == [(2, "all"), (6, "all")]
        assert lengths("homogeneous") == [(2, "homogeneous")]
        assert lengths("both") == [(2, "all"), (2, "homogeneous")]

    def test_bad_range(self, capsys):
        for text, reason in (("9", "must look like"), ("5:1", "is empty or invalid"),
                             ("a:b", "is not numeric")):
            code, out, err = invoke(capsys, "curve", "--seed", "11", "--score", "4",
                                    "--length-range", text)
            assert code == 2 and out == ""
            assert reason in err, text


class TestOutputFile:
    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = invoke(capsys, "count", "--length", "5", "--score", "3",
                              "--match", "1", "--mismatch", "1", "--format", "csv",
                              "--output", str(target))
        assert code == 0
        assert out == ""
        rows = parse_csv(target.read_text())
        assert rows[0]["count"] == "1"

    def test_missing_directory_rejected_before_work(self, capsys, tmp_path, monkeypatch):
        def no_work(*args):
            raise AssertionError("counted before the output path was checked")

        monkeypatch.setattr(cli_mod, "count_homogeneous", no_work)
        target = tmp_path / "missing" / "out.txt"
        locked = tmp_path / "locked.txt"
        locked.write_text("")
        # nothing may be written (a permission bit does not bind root)
        monkeypatch.setattr(os, "access", lambda path, mode: mode != os.W_OK)
        # an empty path names no file either (it used to fall through to stdout),
        # and an existing directory is not a file
        for path, reason in ((str(target), "does not exist"), ("", "empty"),
                             (str(tmp_path), "is a directory"), (str(locked), "not writable")):
            code, out, err = invoke(capsys, "count", "--length", "5", "--output", path)
            assert code == 2
            assert out == ""
            assert "Error:" in err and reason in err
            assert "Traceback" not in err
        assert not target.parent.exists()


class TestSelfcheckCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = invoke(capsys, "selfcheck", "--max-length", "8")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith(("PASS", "#")) for line in lines)
        assert lines[-1].startswith("# 9/9")

    def test_max_length_bounded_by_the_oracle_limit(self, capsys):
        code, out, err = invoke(capsys, "selfcheck", "--max-length", str(ORACLE_LENGTH_LIMIT + 1))
        assert code == 2 and out == ""
        assert "--max-length" in err

    @pytest.mark.parametrize("max_length", [0, ORACLE_LENGTH_LIMIT + 1])
    def test_run_selfcheck_rejects_lengths_outside_the_oracle_range(self, max_length):
        with pytest.raises(ValueError, match="max_length must be in"):
            run_selfcheck(max_length)
