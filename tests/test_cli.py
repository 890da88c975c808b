"""Command-line interface: output shapes and the exit-code contract."""

import json
import subprocess
import sys

import pytest

from strongeq import cli
from strongeq.cli import main
from strongeq.discovery import DiscoveryReport


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestAnswersets:
    def test_listing(self, tmp_path, capsys):
        path = write(tmp_path, "p.lp", "a;b. c :- not a.")
        assert main(["answersets", path]) == 0
        assert capsys.readouterr().out == "{a}\n{b, c}\n"

    def test_json(self, tmp_path, capsys):
        path = write(tmp_path, "p.lp", "a;b. c :- not a.")
        assert main(["answersets", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == [["a"], ["b", "c"]]

    def test_empty_program_has_empty_answer_set(self, tmp_path, capsys):
        path = write(tmp_path, "p.lp", "")
        assert main(["answersets", path]) == 0
        assert capsys.readouterr().out == "{}\n"

    def test_contradiction_reports_no_answer_sets(self, tmp_path, capsys):
        path = write(tmp_path, "p.lp", ":- .")
        assert main(["answersets", path]) == 0
        assert capsys.readouterr().out == "no answer sets\n"

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "p.lp", "a :- ;")
        assert main(["answersets", path]) == 2
        err = capsys.readouterr().err
        assert "1:6" in err

    def test_guard_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "p.lp", "a :- b, c.")
        assert main(["answersets", path, "--max-atoms", "2"]) == 3

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["answersets", str(tmp_path / "nope.lp")]) == 2


class TestCheckSE:
    def test_equivalent_pair(self, tmp_path, capsys):
        p1 = write(tmp_path, "p1.lp", "a :- not a.")
        p2 = write(tmp_path, "p2.lp", ":- not a.")
        assert main(["check-se", p1, p2]) == 0
        assert "strongly equivalent" in capsys.readouterr().out

    def test_identical_files(self, tmp_path, capsys):
        p1 = write(tmp_path, "p1.lp", "a :- b. c.")
        assert main(["check-se", p1, p1]) == 0

    def test_non_equivalent_pair_prints_countermodel(self, tmp_path, capsys):
        p1 = write(tmp_path, "p1.lp", "a :- b.")
        p2 = write(tmp_path, "p2.lp", "a :- c.")
        assert main(["check-se", p1, p2]) == 1
        out = capsys.readouterr().out
        assert "NOT strongly equivalent" in out
        assert "countermodel" in out

    def test_json_payload(self, tmp_path, capsys):
        p1 = write(tmp_path, "p1.lp", "a :- b.")
        p2 = write(tmp_path, "p2.lp", "a :- c.")
        assert main(["check-se", p1, p2, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"equivalent": False, "countermodel": {"x": [], "y": ["b"]}}

    def test_shared_symbol_table_across_files(self, tmp_path, capsys):
        # The same atom names must line up between the two files.
        p1 = write(tmp_path, "p1.lp", "x :- y.")
        p2 = write(tmp_path, "p2.lp", "x :- y.")
        assert main(["check-se", p1, p2]) == 0


class TestSimplifyCommand:
    def test_writes_simplified_program(self, tmp_path, capsys):
        src = write(tmp_path, "p.lp", "a :- not b. b :- not a. a :- a.")
        assert main(["simplify", src]) == 0
        assert capsys.readouterr().out == "a :- not b.\nb :- not a.\n"

    def test_idempotent_byte_for_byte(self, tmp_path, capsys):
        src = write(tmp_path, "p.lp", "a2 :- a1, not a3. a1;a2 :- not a3.")
        out1 = str(tmp_path / "o1.lp")
        assert main(["simplify", src, "--out", out1]) == 0
        first = (tmp_path / "o1.lp").read_bytes()
        assert first == b"a2 :- not a3.\n"
        out2 = str(tmp_path / "o2.lp")
        assert main(["simplify", out1, "--out", out2]) == 0
        assert (tmp_path / "o2.lp").read_bytes() == first

    def test_verify_flag(self, tmp_path, capsys):
        src = write(tmp_path, "p.lp", "a :- not a. a :- not b. b :- not a.")
        assert main(["simplify", src, "--verify"]) == 0

    def test_trace_file(self, tmp_path, capsys):
        src = write(tmp_path, "p.lp", "a :- not b. b :- not a. a :- a.")
        trace_path = tmp_path / "trace.jsonl"
        assert main(["simplify", src, "--trace", str(trace_path)]) == 0
        lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert lines == [{"step": "T5-delete", "removed": 2}]

    def test_json_output(self, tmp_path, capsys):
        src = write(tmp_path, "p.lp", "a :- a.")
        assert main(["simplify", src, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"rules": [], "verified": None, "steps": 1}


class TestVerifyCommand:
    def test_exact_condition_exits_0(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--shape", "0,1,0",
                "--atoms", "3",
                "--condition", "cond_0_1_0",
                "--report", str(report),
            ]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["total"] == 511
        assert payload["mismatches"] == []

    def test_pair_condition_exits_0(self, capsys):
        assert main(["verify", "--shape", "1,1,0", "--atoms", "2", "--condition", "cond_1_1_0"]) == 0

    def test_canonical_triples(self, capsys):
        code = main(
            [
                "verify",
                "--shape", "2,1,0",
                "--atoms", "2",
                "--canonical",
                "--condition", "cond_2_1_0",
                "--jobs", "2",
            ]
        )
        assert code == 0

    def test_incomplete_condition_exits_1(self, capsys):
        code = main(["verify", "--shape", "1,1,0", "--atoms", "2", "--condition", "s_implies"])
        assert code == 1
        assert "mismatches" in capsys.readouterr().out

    def test_unknown_condition_exits_2(self, capsys):
        assert main(["verify", "--shape", "0,1,0", "--atoms", "2", "--condition", "nope"]) == 2

    def test_shape_mismatch_exits_2(self, capsys):
        code = main(["verify", "--shape", "0,1,0", "--atoms", "2", "--condition", "cond_1_1_0"])
        assert code == 2

    def test_bad_shape_string_exits_2(self, capsys):
        code = main(["verify", "--shape", "x,y", "--atoms", "2", "--condition", "cond_0_1_0"])
        assert code == 2

    def test_huge_run_requires_opt_in(self, capsys):
        code = main(
            ["verify", "--shape", "2,1,0", "--atoms", "6", "--canonical",
             "--condition", "cond_2_1_0"]
        )
        assert code == 2
        assert "--allow-long" in capsys.readouterr().err

    def test_atom_guard_exits_3_before_counting_tuples(self, capsys):
        code = main(["verify", "--shape", "0,1,0", "--atoms", "5000", "--condition", "cond_0_1_0"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: rule enumeration: 5000 atoms")

    def test_huge_count_refused_in_one_line(self, capsys):
        # the exact count has thousands of digits, past int-to-str's limit
        code = main(["verify", "--shape", "0,1,0", "--atoms", "5000", "--max-atoms", "5000",
                     "--condition", "cond_0_1_0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: this run enumerates about 10^4515 tuples")
        assert "--allow-long" in err
        assert err.count("\n") == 1

    def test_report_path_checked_before_the_scan(self, tmp_path, monkeypatch, capsys):
        def scan(*_args, **_kwargs):
            raise AssertionError("the scan ran before the report path was checked")

        monkeypatch.setattr(cli, "test_conjecture", scan)
        code = main(["verify", "--shape", "0,1,0", "--atoms", "1", "--condition", "cond_0_1_0",
                     "--report", str(tmp_path / "missing" / "report.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("iso, expected", [(True, 0), (False, 2)], ids=["iso", "full"])
    def test_long_run_guard_counts_classes_under_modulo_iso(self, monkeypatch, capsys,
                                                            iso, expected):
        # 1023^3 canonical triples over 5 atoms pass 1e8; 1023^3 / 5! do not
        calls = []

        def scan(shape, atom_count, _predicate, **kwargs):
            calls.append(kwargs["modulo_iso"])
            return DiscoveryReport(shape, atom_count, 0, 0, 0, 0, (), 0.0)

        monkeypatch.setattr(cli, "test_conjecture", scan)
        argv = ["verify", "--shape", "2,1,0", "--atoms", "5", "--canonical",
                "--condition", "cond_2_1_0"]
        assert main(argv + ["--modulo-iso"] * iso) == expected
        assert calls == ([True] if iso else [])
        if not iso:
            assert "about 10^9 tuples" in capsys.readouterr().err

    def test_json_report_on_stdout(self, capsys):
        code = main(
            ["verify", "--shape", "0,1,0", "--atoms", "2", "--condition", "cond_0_1_0", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 63
        assert payload["se_positive"] == payload["cond_positive"]


class TestUsage:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["answersets", "{latin1}"],
            ["verify", "--shape", "0,1,0", "--atoms", "-1", "--condition", "cond_0_1_0"],
            ["simplify", "{program}", "--out", "{missing}/out.lp"],
            ["simplify", "{program}", "--trace", "{missing}/trace.jsonl"],
            ["verify", "--shape", "0,1,0", "--atoms", "1", "--condition", "cond_0_1_0",
             "--report", "{missing}/report.json"],
            ["verify", "--shape", "0,1,0", "--atoms", "1", "--condition", "cond_0_1_0",
             "--jobs", "-3"],
            ["verify", "--shape", "0,1,0", "--atoms", "1", "--condition", "cond_0_1_0",
             "--jobs", "0"],
        ],
        ids=["non-utf8-file", "negative-atoms", "out-dir-missing", "trace-dir-missing",
             "report-dir-missing", "negative-jobs", "zero-jobs"],
    )
    def test_bad_input_exits_2_with_one_error_line(self, tmp_path, capsys, argv):
        latin1 = tmp_path / "latin1.lp"
        latin1.write_bytes("caf\u00e9 :- b.".encode("latin-1"))
        paths = {
            "latin1": str(latin1),
            "program": write(tmp_path, "p.lp", "a :- a. b."),
            "missing": str(tmp_path / "missing"),
        }
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_console_script_runs(self, tmp_path):
        path = write(tmp_path, "p.lp", "a.")
        proc = subprocess.run(
            [sys.executable, "-m", "strongeq.cli", "answersets", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "{a}\n"
