"""Command-line interface: output shapes and the exit-code contract."""

import argparse
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from strongeq import cli, discovery, oracle
from strongeq.cli import main
from strongeq.discovery import DiscoveryReport, TupleShape

ROOT = Path(__file__).resolve().parent.parent


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _must_not_simplify(*_args, **_kwargs):
    raise AssertionError("simplify ran although the command was bound to fail")


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

    def test_unreadable_file_is_named_as_given(self, tmp_path, capsys):
        path = f"{tmp_path}/./nope.lp"
        assert main(["answersets", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ") and err.endswith(f"'{path}'\n")

    def test_well_formed_text_with_carriage_returns_parses(self, tmp_path, capsys):
        path = tmp_path / "crlf.lp"
        path.write_bytes(b"\xef\xbb\xbfa :- not b.\r\nb :- not a.\r% note\r\n:- b.")
        assert main(["answersets", str(path)]) == 0
        assert capsys.readouterr().out == "{a}\n"

    def test_leading_byte_order_mark_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "bom.lp"
        path.write_bytes(b"\xef\xbb\xbfa. b :- a.\n")
        assert main(["answersets", str(path)]) == 0
        assert capsys.readouterr().out == "{a, b}\n"

    @pytest.mark.parametrize("data", [b"a :- b.\r\nb ?", b"a.\rb ?"])
    def test_carriage_returns_end_a_line_in_error_positions(self, tmp_path, capsys, data):
        path = tmp_path / "cr.lp"
        path.write_bytes(data)
        assert main(["answersets", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:2:3: unexpected character '?'\n"


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

    def test_guard_exits_3_with_one_error_line(self, tmp_path, capsys):
        p1 = write(tmp_path, "p1.lp", "a :- b.")
        p2 = write(tmp_path, "p2.lp", "a :- c.")
        assert main(["check-se", p1, p2, "--max-atoms", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: strongly_equivalent: 3 atoms exceeds the limit of 2\n"

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

    def test_out_and_trace_files_hold_exactly_the_utf8_text(self, tmp_path, capsys):
        # longer files with CRLF endings stand at both paths beforehand
        src = write(tmp_path, "p.lp", "a :- not a. a :- not b. b :- not a. c :- c.\n")
        out, trace = tmp_path / "o.lp", tmp_path / "t.jsonl"
        for path in (out, trace):
            path.write_bytes(b"stale line\r\n" * 1000)
        assert main(["simplify", src, "--out", str(out), "--trace", str(trace)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == b":- not a.\na :- not b.\n"
        assert trace.read_bytes() == (
            b'{"step": "T7-head-clean", "index": 0, "rule": ":- not a."}\n'
            b'{"step": "T5-delete", "removed": 3}\n'
            b'{"step": "T6-delete", "kept": 0, "removed": 2}\n'
        )

    @pytest.mark.parametrize("trace", ["./o.lp", "link.lp", "o.lp"])
    def test_out_and_trace_on_one_file_exit_2_before_simplifying(
            self, tmp_path, capsys, monkeypatch, trace):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "simplify", _must_not_simplify)
        src = write(tmp_path, "p.lp", "a :- a. b.")
        (tmp_path / "link.lp").symlink_to("o.lp")
        assert main(["simplify", src, "--out", "o.lp", "--trace", trace]) == 2
        assert capsys.readouterr().err == (
            f"error: --out and --trace name the same file: {trace}\n")
        assert not (tmp_path / "o.lp").exists()

    def test_failed_write_exits_2_with_one_error_line(self, tmp_path, capsys):
        # the path passes the early check, a link into a missing directory
        # fails only when it is opened
        src = write(tmp_path, "p.lp", "a :- a. b.")
        out = tmp_path / "o.lp"
        out.symlink_to(tmp_path / "missing" / "o.lp")
        assert main(["simplify", src, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: [Errno 2] No such file or directory: '{out}'\n")

    def test_json_output(self, tmp_path, capsys):
        src = write(tmp_path, "p.lp", "a :- a.")
        assert main(["simplify", src, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"rules": [], "verified": None, "steps": 1}

    def test_verify_guard_exits_3_before_simplifying(self, tmp_path, capsys, monkeypatch):
        src = write(tmp_path, "p.lp", "a :- b, c. a :- b.")
        trace_path = tmp_path / "trace.jsonl"
        monkeypatch.setattr(cli, "simplify", _must_not_simplify)
        argv = ["simplify", src, "--verify", "--max-atoms", "2", "--trace", str(trace_path)]
        assert main(argv) == 3
        assert not trace_path.exists()
        assert capsys.readouterr().err == (
            "error: strongly_equivalent: 3 atoms exceeds the limit of 2\n"
        )

    def test_verify_guard_admits_its_limit(self, tmp_path, capsys):
        src = write(tmp_path, "p.lp", "a :- b, c. a :- b.")
        assert main(["simplify", src, "--verify", "--max-atoms", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"rules": ["a :- b."], "verified": True, "steps": 1}


class TestWorldMaskBudget:
    """A raised --max-atoms that admits a world mask past the memory
    budget exits 3 with the mask's size, before allocating it."""

    def test_a_70_atom_chain_exits_3_without_allocating(self, tmp_path, capsys, monkeypatch):
        chain = [f"a{i} :- not a{i + 1}." for i in range(1, 70)]
        p = write(tmp_path, "p.lp", "\n".join(chain) + "\n")
        q = write(tmp_path, "q.lp", "\n".join(["a1."] + chain[1:]) + "\n")

        def no_mask(*_args):
            raise AssertionError("a world mask was built")

        # a missing guard fails here, not by trying to allocate 2^70 bits
        monkeypatch.setattr(oracle, "cube_worlds", no_mask)
        monkeypatch.setattr(cli, "simplify", _must_not_simplify)
        runs = [("answer_sets", ["answersets", p]),
                ("strongly_equivalent", ["check-se", p, q]),
                ("strongly_equivalent", ["simplify", p, "--verify"])]
        tracemalloc.start()
        try:
            for what, argv in runs:
                tracemalloc.reset_peak()
                assert main([*argv, "--max-atoms", "70"]) == 3, argv
                peak = tracemalloc.get_traced_memory()[1]
                assert peak < 2**20, (argv, peak)
                out, err = capsys.readouterr()
                assert out == ""
                assert err == (
                    f"error: {what}: 70 atoms need a world mask of 2^70 bits (128 EiB), "
                    "over the memory budget of 2^28 bits (32 MiB)\n")
        finally:
            tracemalloc.stop()

    def test_the_budget_admits_every_default_limit(self):
        assert max(cli.SE_ATOM_LIMIT, cli.ANSWER_SET_ATOM_LIMIT) + 4 <= oracle.WORLD_MASK_ATOMS
        oracle.check_world_mask("strongly_equivalent", oracle.WORLD_MASK_ATOMS)
        with pytest.raises(cli.TooManyAtomsError):
            oracle.check_world_mask("strongly_equivalent", oracle.WORLD_MASK_ATOMS + 1)

    def test_running_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(*_args, **_kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "answer_sets", exhausted)
        assert main(["answersets", write(tmp_path, "p.lp", "a.")]) == 3
        assert capsys.readouterr() == ("", "error: out of memory\n")


class TestScanTableBudget:
    """A scan whose rules and tables would pass the memory budget is
    refused, with exit 3, before any rule or mask is built."""

    @pytest.mark.parametrize("argv", [
        ["--shape", "0,1,0", "--atoms", "10", "--canonical", "--max-atoms", "10",
         "--condition", "cond_0_1_0"],
        ["--shape", "0,1,0", "--atoms", "7", "--condition", "cond_0_1_0"],
        ["--shape", "1,1,0", "--atoms", "6", "--modulo-iso", "--condition", "s_implies"],
        # its count is past what a float holds
        ["--shape", "0,1,0", "--atoms", "400", "--max-atoms", "400", "--allow-long",
         "--condition", "cond_0_1_0"],
    ])
    def test_refused_before_building(self, monkeypatch, capsys, argv):
        def building(*_args):
            raise AssertionError("the language was built")

        monkeypatch.setattr(discovery, "_language_masks", building)
        assert main(["verify", *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: rule-tuple scan: ") and err.count("\n") == 1
        assert "over the memory budget of 2^32 bits (512 MiB)" in err

    def test_message_gives_the_size(self, capsys):
        argv = ["verify", "--shape", "0,1,0", "--atoms", "7", "--condition", "cond_0_1_0"]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: rule-tuple scan: 7 atoms need row tables of about 2.84 GiB, "
            "over the memory budget of 2^32 bits (512 MiB)\n")

    def test_no_scan_over_more_atoms_than_a_sliced_row_takes(self, monkeypatch, capsys):
        def building(*_args):
            raise AssertionError("the language was built")

        monkeypatch.setattr(discovery, "TABLE_BITS", 1 << 64)
        monkeypatch.setattr(discovery, "_language_masks", building)
        argv = ["verify", "--shape", "0,1,0", "--atoms", "9", "--canonical", "--max-atoms", "9",
                "--condition", "cond_0_1_0"]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: rule-tuple scan: 9 atoms exceeds the limit of 8\n")

    @pytest.mark.parametrize("atoms", [10, 3_000_000])
    def test_no_exact_count_past_the_sliced_limit(self, monkeypatch, capsys, atoms):
        # past SLICED_ATOMS + 1 atoms no count of the language is made: over
        # 3,000,000 atoms its exact powers take seconds
        def counting(real, at):
            def count(*args):
                assert args[at] <= discovery.SLICED_ATOMS + 1, "counted"
                return real(*args)
            return count

        monkeypatch.setattr(cli, "rule_count", counting(discovery.rule_count, 0))
        monkeypatch.setattr(discovery, "rule_count", counting(discovery.rule_count, 0))
        monkeypatch.setattr(discovery, "_table_bits", counting(discovery._table_bits, 1))
        argv = ["verify", "--shape", "1,1,0", "--atoms", str(atoms), "--max-atoms", str(atoms),
                "--allow-long", "--condition", "cond_1_1_0"]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: rule-tuple scan: {atoms} atoms need row tables of at least 22.2 TiB, "
            "over the memory budget of 2^32 bits (512 MiB)\n")

    def test_admits_the_records_and_the_deck(self):
        budget = discovery.TABLE_BITS
        for iso in (False, True):
            for shape, atoms in (((2, 1, 0), 6), ((2, 1, 0), 7), ((0, 2, 1), 5), ((1, 1, 0), 7)):
                assert discovery._table_bits(TupleShape(*shape), atoms, True, iso) <= budget
            for shape, atoms in (((0, 1, 0), 6), ((1, 1, 0), 5), ((0, 1, 1), 6)):
                assert discovery._table_bits(TupleShape(*shape), atoms, False, iso) <= budget
        # no scan over 9 atoms passes the budget
        for length in (1, 2, 3, 4):
            for k in range(length):
                shape = TupleShape(k, length - k, 0)
                assert discovery._table_bits(shape, 9, True, False) > budget


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

    def test_report_file_holds_exactly_the_utf8_text(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_bytes(b"stale line\r\n" * 1000)
        assert main(["verify", "--shape", "1,1,0", "--atoms", "1", "--condition", "cond_1_1_0",
                     "--report", str(report), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert report.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode("utf-8")

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

    @pytest.mark.parametrize("condition", ["cond_2_1_0", "cond_0_2_1", "cond_0_2_2"])
    def test_canonical_only_condition_needs_canonical(self, capsys, condition):
        shape = cli.CONDITIONS[condition][0]
        argv = ["verify", "--shape", f"{shape.k},{shape.m},{shape.n}", "--atoms", "1",
                "--condition", condition]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: condition {condition} is stated for canonical rules only; "
            "pass --canonical\n"
        )
        assert main(argv + ["--canonical"]) == 0

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


# the standing records in docs/, each with the argv that makes it
RECORDS = {
    "cond_2_1_0-a5-canonical-iso.json": ["--shape", "2,1,0", "--atoms", "5"],
    "cond_0_2_1-a5-canonical-iso.json": ["--shape", "0,2,1", "--atoms", "5"],
}


class TestStandingRecords:
    """README's claim: a run of the current code gives the records' own
    report in every field but elapsed_ms, byte for byte."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_report_reproduces_the_record(self, tmp_path, capsys, name, jobs):
        report = tmp_path / "report.json"
        argv = ["verify", *RECORDS[name], "--canonical", "--modulo-iso",
                "--condition", name.split("-")[0], "--jobs", jobs, "--report", str(report)]
        assert main(argv) == 0
        capsys.readouterr()

        def fixed(text):
            lines = text.split("\n")
            kept = [line for line in lines if not line.startswith('  "elapsed_ms": ')]
            assert len(kept) == len(lines) - 1
            return kept

        record = (ROOT / "docs" / name).read_bytes().decode("utf-8")
        assert fixed(report.read_bytes().decode("utf-8")) == fixed(record)


class TestOutputFiles:
    """--out, --trace and --report leave exactly the new text in a file,
    whatever it held before, and write to a device as to a file."""

    ARGV = {
        "out": ["simplify", "{program}", "--out", "{file}"],
        "trace": ["simplify", "{program}", "--trace", "{file}"],
        "report": ["verify", "--shape", "0,1,0", "--atoms", "1", "--condition", "cond_0_1_0",
                   "--report", "{file}"],
    }

    @pytest.mark.parametrize("option", sorted(ARGV))
    def test_an_existing_file_holds_exactly_the_new_text(self, tmp_path, capsys, option):
        program = write(tmp_path, "p.lp", "a :- a. b.")
        fresh, longer, shorter = tmp_path / "fresh", tmp_path / "longer", tmp_path / "shorter"
        longer.write_bytes(b"x" * 100_000)
        shorter.write_bytes(b"x")
        for target in (fresh, longer, shorter):
            argv = [arg.format(program=program, file=target) for arg in self.ARGV[option]]
            assert main(argv) == 0
        capsys.readouterr()

        def fixed(path):  # a report's elapsed time differs from run to run
            return [line for line in path.read_bytes().split(b"\n") if b'"elapsed_ms"' not in line]

        assert fixed(longer) == fixed(shorter) == fixed(fresh)
        assert 1 < len(fresh.read_bytes()) < 1000
        assert b"x" not in longer.read_bytes() + shorter.read_bytes()

    @pytest.mark.parametrize("option", sorted(ARGV))
    def test_a_device_is_written_as_it_is(self, tmp_path, capsys, option):
        program = write(tmp_path, "p.lp", "a :- a. b.")
        assert main([arg.format(program=program, file=os.devnull)
                     for arg in self.ARGV[option]]) == 0
        assert capsys.readouterr().err == ""


TOP_USAGE = "usage: strongeq [-h] {answersets,check-se,simplify,verify} ...\n"

# main's exit code, stdout and stderr for argv that end in argparse or
# before any file is read, at a terminal width of 80 columns
PINNED_PARSES = [
    (["check-se", "a", "b", "--bogus"], 2, "",
     TOP_USAGE + "strongeq: error: unrecognized arguments: --bogus\n"),
    (["verify", "--shape", "1"], 2, "",
     "usage: strongeq verify [-h] --shape SHAPE --atoms ATOMS --condition CONDITION\n"
     "                       [--canonical] [--modulo-iso] [--jobs JOBS]\n"
     "                       [--report REPORT] [--json] [--max-atoms MAX_ATOMS]\n"
     "                       [--allow-long]\n"
     "strongeq verify: error: the following arguments are required: --atoms, --condition\n"),
    (["simplify"], 2, "",
     "usage: strongeq simplify [-h] [--out OUT] [--verify] [--trace TRACE] [--json]\n"
     "                         [--max-atoms MAX_ATOMS]\n"
     "                         path\n"
     "strongeq simplify: error: the following arguments are required: path\n"),
    (["answersets", "-h"], 0,
     "usage: strongeq answersets [-h] [--json] [--max-atoms MAX_ATOMS] path\n"
     "\n"
     "positional arguments:\n"
     "  path\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --json\n"
     "  --max-atoms MAX_ATOMS\n", ""),
    (["check-se", "--", "a", "b"], 2, "",
     "error: cannot read a: [Errno 2] No such file or directory: 'a'\n"),
    ([], 2, "",
     TOP_USAGE + "strongeq: error: the following arguments are required: command\n"),
    (["nosuch"], 2, "",
     TOP_USAGE + "strongeq: error: argument command: invalid choice: 'nosuch' "
     "(choose from 'answersets', 'check-se', 'simplify', 'verify')\n"),
    (["--help"], 0,
     TOP_USAGE
     + "\n"
     "Strong equivalence toolkit for ground disjunctive logic programs.\n"
     "\n"
     "positional arguments:\n"
     "  {answersets,check-se,simplify,verify}\n"
     "    answersets          print the answer sets of a program file\n"
     "    check-se            decide strong equivalence of two program files\n"
     "    simplify            simplify a program, preserving strong equivalence\n"
     "    verify              exhaustively check a condition against the oracle\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n", ""),
]


class TestUsage:
    @pytest.mark.parametrize(
        "argv, code, out, err",
        PINNED_PARSES,
        ids=["unknown-option", "missing-options", "missing-path", "subcommand-help",
             "double-dash", "empty", "unknown-command", "help"],
    )
    def test_parse_outcomes_are_pinned(self, tmp_path, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)  # "a" is a missing file
        assert main(argv) == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("argv", [argv for argv, *_ in PINNED_PARSES] + [
        ["verify", "--shape", "0,1,0", "--atoms", "1", "--condition", "cond_0_1_0", "x", "-y"],
        ["check-se", "--bogus"],
        ["simplify", "p.lp", "--out"],
        # near misses of the plain form the reader takes
        ["answersets", "p.lp", "--max-atoms", "-1"],
        ["verify", "--shape", "0,1,0", "--atoms", "1", "--condition", "cond_0_1_0", "--jobs=2"],
        ["verify", "--shape", "0,1,0", "--atoms", "1", "--condition", "cond_0_1_0", "--can"],
        ["check-se", "a", "b", "--json", "--json"],
        ["verify", "--shape", "0,1,0", "--atoms", "1", "--atoms", "2", "--condition", "c"],
        ["check-se", "a", "--json", "b"],
        ["verify", "--shape", "0,1,0", "--atoms", "1", "--condition", "cond_0_1_0", "-h"],
        ["answersets", ""],
        ["simplify", "", "--out", ""],
        ["answersets", "-"],
        ["simplify", "p.lp", "--out", "-"],
        ["verify", "--shape", "0,1,0", "--atoms", " 1", "--condition", "cond_0_1_0"],
        ["verify", "--shape", "0,1,0", "--atoms", "x", "--condition", "cond_0_1_0"],
        ["check-se", "a", "b", "c"],
    ])
    def test_direct_route_matches_the_full_parser(self, capsys, monkeypatch, argv):
        # the direct route is the reader: _parse reads plain argv itself
        monkeypatch.setenv("COLUMNS", "80")
        outcomes = []
        for parse in (cli._parse, cli.build_parser().parse_args):
            try:
                args = parse(argv)
                outcomes.append(sorted((k, v) for k, v in vars(args).items()))
            except SystemExit as exc:
                outcomes.append(exc.code)
            outcomes.append(capsys.readouterr())
        assert outcomes[:2] == outcomes[2:]

    @pytest.mark.parametrize("argv", [
        ["check-se", "a.lp", "b.lp", "--json"],
        ["answersets", "a.lp", "--json"],
        ["simplify", "a.lp", "--verify", "--json"],
        ["simplify", "a.lp", "--trace", "a.trace.jsonl", "--json"],
        ["verify", "--shape", "0,1,0", "--atoms", "2", "--condition", "cond_0_1_0", "--json",
         "--jobs", "1"],
        ["verify", "--shape", "1,1,0", "--atoms", "3", "--condition", "s_implies", "--json",
         "--canonical", "--jobs", "1"],
        ["verify", "--shape", "0,1,1", "--atoms", "2", "--condition", "cond_0_1_1", "--json",
         "--modulo-iso", "--jobs", "1"],
        ["verify", "--shape", "2,1,0", "--atoms", "3", "--condition", "cond_2_1_0", "--json",
         "--canonical", "--modulo-iso", "--jobs", "1"],
    ], ids=["check-se", "answersets", "simplify-verify", "simplify-trace", "verify",
            "verify-canonical", "verify-iso", "verify-canonical-iso"])
    def test_benchmark_argv_skip_argparse(self, monkeypatch, argv):
        # every argv shape the perfbench decks run is read without argparse
        expected = vars(cli.build_parser().parse_args(argv))

        def refuse(*_args, **_kwargs):
            raise AssertionError(f"argparse read a plain argv: {argv}")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        assert vars(cli._parse(argv)) == expected

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
    def test_bad_input_exits_2_with_one_error_line(self, tmp_path, capsys, monkeypatch, argv):
        # an unwritable --out or --trace is refused before any simplification
        monkeypatch.setattr(cli, "simplify", _must_not_simplify)
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["simplify", "{program}", "--out", "{file}"],
            ["simplify", "{program}", "--trace", "{file}"],
            ["verify", "--shape", "0,1,0", "--atoms", "1", "--condition", "cond_0_1_0",
             "--report", "{file}"],
        ],
        ids=["out", "trace", "report"],
    )
    def test_existing_writable_file_in_a_read_only_directory(
            self, tmp_path, capsys, monkeypatch, argv):
        # as for /dev/null to a user who may not write /dev: the file's own
        # permission decides, not its directory's; a new file there is refused
        out_dir = tmp_path / "ro"
        out_dir.mkdir()
        target = out_dir / "existing"
        target.write_bytes(b"stale\n")
        access = os.access
        monkeypatch.setattr(
            os, "access", lambda path, mode: Path(path) != out_dir and access(path, mode))
        program = write(tmp_path, "p.lp", "a :- a. b.")
        assert main([arg.format(program=program, file=target) for arg in argv]) == 0
        capsys.readouterr()
        written = target.read_bytes()
        assert written != b"stale\n"
        if argv[0] == "verify":
            assert json.loads(written)["total"] == 7
        elif argv[2] == "--out":
            assert written == b"b.\n"
        else:
            assert written == b'{"step": "T5-delete", "removed": 0}\n'
        new = out_dir / "new"
        assert main([arg.format(program=program, file=new) for arg in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {new}: not a writable file path\n")
        assert not new.exists()

    @pytest.mark.parametrize("command",["answersets", "check-se", "simplify", "verify"])
    def test_negative_max_atoms_exits_2_before_reading_input(self, tmp_path, capsys, command):
        # the input files do not exist: reading them first would give "cannot read"
        missing = str(tmp_path / "missing.lp")
        args = {
            "answersets": [missing],
            "check-se": [missing, missing],
            "simplify": [missing],
            "verify": ["--shape", "0,1,0", "--atoms", "1", "--condition", "cond_0_1_0"],
        }[command]
        assert main([command, *args, "--max-atoms", "-1"]) == 2
        assert capsys.readouterr().err == "error: --max-atoms must be at least 0, not -1\n"

    @pytest.mark.parametrize("module", ["multiprocessing", "dataclasses", "inspect"])
    def test_import_leaves_module_unloaded(self, module):
        # every command starts a fresh interpreter: only verify --jobs above
        # 1 needs multiprocessing (about 1 MB), and dataclasses with the
        # inspect it loads took about a quarter of the import
        code = f"import sys, strongeq.cli; print({module!r} in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout == "False\n", proc.stderr

    def test_console_script_runs(self, tmp_path):
        path = write(tmp_path, "p.lp", "a.")
        proc = subprocess.run(
            [sys.executable, "-m", "strongeq.cli", "answersets", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "{a}\n"

    @pytest.mark.parametrize(
        "second, verdict, code",
        [("a :- not b. b :- not a.", "strongly equivalent\n", 0),
         ("a :- b.", "NOT strongly equivalent\n", 1)],
        ids=["equivalent", "not-equivalent"],
    )
    def test_package_runs_as_module_from_a_checkout(self, tmp_path, second, verdict, code):
        first = write(tmp_path, "p1.lp", "a :- not b. b :- not a. a :- a.")
        other = write(tmp_path, "p2.lp", second)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "strongeq", "check-se", first, other],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.startswith(verdict)

    @staticmethod
    def _run_module(args, **kwargs):
        """`python ...` from the checkout with the package on its path,
        stdout block-buffered as it is by default, and stderr captured."""
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        kwargs.setdefault("stderr", subprocess.PIPE)
        return subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, text=True, **kwargs
        )

    @pytest.mark.parametrize(
        "text",
        ["a.", " ".join(f"a{i} :- not b{i}. b{i} :- not a{i}." for i in range(10))],
        ids=["flush-at-the-end", "print-in-the-loop"],
    )
    def test_closed_stdout_exits_2_without_a_traceback(self, tmp_path, text):
        # 1,024 answer sets overflow the stdout buffer, so print raises;
        # one answer set stays buffered until the flush
        path = write(tmp_path, "p.lp", text)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self._run_module(["-m", "strongeq", "answersets", path], stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write to stdout\n"

    @pytest.mark.parametrize(
        "second, code",
        [("a :- not b. b :- not a.", 0), ("a :- b.", 1)],
        ids=["equivalent", "not-equivalent"],
    )
    def test_stdout_closed_at_start_keeps_the_verdict(self, tmp_path, second, code):
        # with fd 1 closed at startup sys.stdout is None and print writes nothing
        first = write(tmp_path, "p1.lp", "a :- not b. b :- not a. a :- a.")
        other = write(tmp_path, "p2.lp", second)
        proc = self._run_module(
            ["-m", "strongeq", "check-se", first, other],
            preexec_fn=functools.partial(os.close, 1),
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stderr == ""

    def test_lost_stderr_keeps_what_stdout_holds(self, tmp_path):
        # a failed re-check's error line goes to a stderr whose reader is
        # gone; the simplified program already buffered for stdout survives
        path = write(tmp_path, "p.lp", "a :- b. a :- b, c.")
        script = (
            "import sys; from strongeq import cli; "
            "cli.verify_simplification = lambda *args, **kwargs: False; "
            "raise SystemExit(cli.main(sys.argv[1:]))"
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self._run_module(
                ["-c", script, "simplify", "--verify", path],
                stdout=subprocess.PIPE,
                stderr=write_end,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stdout == "a :- b.\n"


class TestRepeatedCalls:
    """main() reuses one parser per process; no call may leak into the next."""

    @staticmethod
    def valid_calls(tmp_path) -> list[list[str]]:
        p1 = write(tmp_path, "p1.lp", "a :- not b. b :- not a. a :- a.")
        p2 = write(tmp_path, "p2.lp", "a :- not b. b :- not a.")
        p3 = write(tmp_path, "p3.lp", "a :- b.")
        out, trace, report = (str(tmp_path / name) for name in ("o.lp", "t.jsonl", "r.json"))
        return [
            ["answersets", p1],
            ["answersets", p1, "--json"],
            ["check-se", p1, p2],
            ["check-se", p1, p3, "--json"],
            ["simplify", p1],
            ["simplify", p1, "--verify", "--json"],
            ["simplify", p1, "--out", out, "--trace", trace],
            ["verify", "--shape", "1,1,0", "--atoms", "2", "--condition", "s_implies", "--json"],
            ["verify", "--shape", "0,1,1", "--atoms", "2", "--condition", "cond_0_1_1", "--json",
             "--canonical", "--modulo-iso", "--jobs", "1", "--report", report, "--allow-long"],
        ]

    @staticmethod
    def run(argv, capsys) -> tuple[int, str]:
        code = main(argv)
        out = capsys.readouterr().out
        if argv[0] == "verify":  # the report carries its elapsed time
            payload = json.loads(out)
            del payload["elapsed_ms"]
            out = json.dumps(payload)
        return code, out

    def test_later_calls_match_first_calls(self, tmp_path, capsys):
        calls = self.valid_calls(tmp_path)
        cli.build_parser.cache_clear()
        first = [self.run(argv, capsys) for argv in calls]
        assert [code for code, _ in first] == [0, 0, 0, 1, 0, 0, 0, 1, 0]
        assert main(["check-se", "--bogus"]) == 2
        assert "strongeq check-se: error: " in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert "answersets" in capsys.readouterr().out
        assert [self.run(argv, capsys) for argv in calls] == first
        # built once: the cache served every call after the first
        assert cli.build_parser.cache_info().currsize == 1

    def test_defaults_do_not_carry_over(self, tmp_path, monkeypatch, capsys):
        seen = []

        def scan(shape, atom_count, _predicate, **kwargs):
            seen.append((kwargs["job_count"], kwargs["max_atoms"], kwargs["modulo_iso"]))
            return DiscoveryReport(shape, atom_count, 0, 0, 0, 0, (), 0.0)

        monkeypatch.setattr(cli, "test_conjecture", scan)
        base = ["verify", "--shape", "0,1,0", "--atoms", "1", "--condition", "cond_0_1_0"]
        assert main(base + ["--jobs", "2", "--max-atoms", "3", "--modulo-iso"]) == 0
        assert main(base) == 0
        assert seen == [(2, 3, True), (1, cli.ENUM_ATOM_LIMIT, False)]
        capsys.readouterr()

        limits = []
        decide = cli.strongly_equivalent

        def se(p1, p2, max_atoms):
            limits.append(max_atoms)
            return decide(p1, p2, max_atoms=max_atoms)

        program = write(tmp_path, "p.lp", "a.")
        monkeypatch.setattr(cli, "strongly_equivalent", se)
        assert main(["check-se", program, program, "--max-atoms", "5", "--json"]) == 0
        assert main(["check-se", program, program]) == 0
        assert limits == [5, cli.SE_ATOM_LIMIT]
        assert capsys.readouterr().out.splitlines() == [
            '{"equivalent": true, "countermodel": null}', "strongly equivalent"]

        verify_limits = []
        verify = cli.verify_simplification

        def verify_with(p1, p2, max_atoms):
            verify_limits.append(max_atoms)
            return verify(p1, p2, max_atoms=max_atoms)

        monkeypatch.setattr(cli, "verify_simplification", verify_with)
        out, trace = tmp_path / "out.lp", tmp_path / "trace.jsonl"
        assert main(["simplify", program, "--verify", "--max-atoms", "4",
                     "--out", str(out), "--trace", str(trace)]) == 0
        assert out.read_text() == "a.\n" and trace.exists()
        out.unlink()
        trace.unlink()
        assert main(["simplify", program, "--verify"]) == 0
        assert verify_limits == [4, cli.SE_ATOM_LIMIT]
        assert not out.exists() and not trace.exists()
        assert capsys.readouterr().out == "a.\n"


# --- fuzzing the exit-code contract ----------------------------------------

# "{name}" stands for a path set up per example: two input files holding
# the drawn bytes, a path in a missing directory, a directory, a fresh file
PATHS = ["{p1}", "{p2}", "{missing}/x.lp", "{dir}", "{out}"]
# at most one atom can pass verify's guard, so no run enumerates more than
# a few thousand tuples; --atoms 8 and 5000 are refused by it
MAX_ATOMS = ["-1", "0", "1", "2", "x"]
SHARED = {"--json": None, "--max-atoms": MAX_ATOMS}
FLAGS = {
    "answersets": SHARED,
    "check-se": SHARED,
    "simplify": {**SHARED, "--out": PATHS, "--trace": PATHS, "--verify": None},
    "verify": {
        **SHARED,
        "--shape": ["0,1,0", "1,1,0", "2,1,0", "0,1", "a,b,c", "-1,1,0"],
        "--atoms": ["-1", "0", "1", "8", "5000", "x"],
        "--condition": [*sorted(cli.CONDITIONS), "cond_9_9_9"],
        "--canonical": None,
        "--modulo-iso": None,
        "--jobs": ["-1", "0", "1", "2", "x"],
        "--report": PATHS,
        "--allow-long": None,
    },
}
POSITIONALS = {"answersets": 1, "check-se": 2, "simplify": 1, "verify": 0}
JUNK = ["--help", "--bogus", "extra", "-"]


@st.composite
def cli_argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(FLAGS)))
    n = POSITIONALS[command]
    inputs = ["{p1}", "{p2}"] * 3 + PATHS[2:]  # mostly readable files
    argv = [command] + [draw(st.sampled_from(inputs)) for _ in range(n)]
    if command == "verify" and draw(st.integers(0, 4)):  # mostly a well-formed run
        condition = draw(st.sampled_from(sorted(cli.CONDITIONS)))
        shape = cli.CONDITIONS[condition][0]
        argv += ["--shape", f"{shape.k},{shape.m},{shape.n}", "--condition", condition,
                 "--atoms", draw(st.sampled_from(["0", "1", "1", "8"]))]
    flags = FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=5)):
        argv.append(flag)
        if flags[flag] is not None and draw(st.integers(0, 9)):  # sometimes left bare
            argv.append(draw(st.sampled_from(flags[flag])))
    if not draw(st.integers(0, 9)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    return argv


literal = st.sampled_from(["a", "b", "c", "not a", "not b", "not c"])
rule_text = st.builds(
    lambda head, body: ";".join(head) + (" :- " + ", ".join(body) if body else "") + ".",
    st.lists(st.sampled_from(["a", "b", "c"]), max_size=2),
    st.lists(literal, max_size=3),
)
well_formed = st.lists(rule_text, max_size=5).map(lambda rules: "\n".join(rules).encode())
fragments = st.lists(
    st.sampled_from(["a", "b", "not ", ":-", ",", ";", ".", " ", "\n", "%", "A", "1"]), max_size=12
).map(lambda parts: "".join(parts).encode())
# half well-formed programs, half noise
program_bytes = st.sampled_from(
    [well_formed, well_formed, fragments, st.binary(max_size=24)]
).flatmap(lambda strategy: strategy)


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=cli_argv())
def test_reader_matches_the_full_parser(argv):
    paths = {"p1": "p1.lp", "p2": "p2.lp", "missing": "missing", "dir": "d", "out": "out"}
    argv = [arg.format(**paths) for arg in argv]
    assert _outcome(cli._parse, argv) == _outcome(cli.build_parser().parse_args, argv), argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=cli_argv(), p1=program_bytes, p2=program_bytes)
def test_fuzzed_argv_and_files_keep_the_exit_code_contract(argv, p1, p2):
    with tempfile.TemporaryDirectory() as d:
        base = Path(d)
        (base / "p1.lp").write_bytes(p1)
        (base / "p2.lp").write_bytes(p2)
        paths = {"p1": str(base / "p1.lp"), "p2": str(base / "p2.lp"),
                 "missing": str(base / "missing"), "dir": d, "out": str(base / "out")}
        argv = [arg.format(**paths) for arg in argv]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
