import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import artinpres
from artinpres.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(artinpres.__file__).parent.parent)

ICOSAHEDRAL = "artin 2\nr1 = x1^-2 x2 x1 x2\nr2 = x2^-5 x1 x2 x1 x2\n"
# <x1, x2 | x1^2, (x1 x2)^5 = x2^3>: x2^3 commutes with x2 and with x1 x2,
# so the group is a central extension of T(2,3,5), of order 480; x1 is an
# involution
INVOLUTION = "artin 2\nr1 = x1^2\nr2 = x1 x2 x1 x2 x1 x2 x1 x2 x1 x2^-2\n"
# T(2,3,5) and PSL(2,7) = <x, y | x^2, y^3, (xy)^7, [x, y]^4> take more
# relators than generators, which coset reads and the Artin commands refuse
T235 = "artin 2\nr1 = x1^2\nr2 = x2^3\nr3 = " + " ".join(["x1 x2"] * 5) + "\n"
PSL27 = (
    "artin 2\nr1 = x1^2\nr2 = x2^3\nr3 = " + " ".join(["x1 x2"] * 7)
    + "\nr4 = " + " ".join(["x1^-1 x2^-1 x1 x2"] * 4) + "\n"
)
TWIST = "artin 2\nr1 = x1 x2\nr2 = x1 x2\n"
NON_ARTIN = "artin 2\nr1 = x1\nr2 = x1\n"
# an exponent whose word is too long to index: building it overflows
HUGE = "99999999999999999999"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_true(self, capsys, write):
        code, out, _ = run(capsys, "verify", write("p.txt", TWIST))
        assert code == 0
        assert out == "artin=true defect=1\n"

    def test_false_with_defect(self, capsys, write):
        code, out, _ = run(capsys, "verify", write("p.txt", NON_ARTIN))
        assert code == 0
        assert out == "artin=false defect=x1^-1 x2^-1 x1 x2\n"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TWIST))
        code, out, _ = run(capsys, "verify", "-")
        assert code == 0 and out.startswith("artin=true")


class TestCompose:
    def test_twist_squares(self, capsys, write):
        path = write("p.txt", TWIST)
        code, out, _ = run(capsys, "compose", path, path)
        assert code == 0
        assert out == "artin 2\nr1 = x1 x2 x1 x2\nr2 = x1 x2 x1 x2\n"

    def test_run_past_exponent_cap_reads_back(self, capsys, write):
        path = write("p.txt", "artin 1\nr1 = x1^600000\n")
        code, out, err = run(capsys, "compose", path, path)
        assert (code, out, err) == (0, "artin 1\nr1 = x1^1000000 x1^200000\n", "")
        code, out, err = run(capsys, "verify", write("q.txt", out))
        assert (code, out, err) == (0, "artin=true defect=1\n", "")

    def test_stdin_twice_is_read_once(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TWIST))
        assert run(capsys, "compose", "-", "-") == run(capsys, "tuple", "build", "2,2,2")

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
    def test_stdin_under_two_names_is_read_once(self, capsys):
        # a real pipe: "-" and /dev/stdin are one file, which reads only once
        composed = subprocess.run(
            [sys.executable, "-m", "artinpres.cli", "compose", "-", "/dev/stdin"],
            input=TWIST, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert (composed.returncode, composed.stdout, composed.stderr) == run(capsys, "tuple", "build", "2,2,2")

    def test_non_artin_input_is_domain_error(self, capsys, write):
        code, _, err = run(
            capsys, "compose", write("a.txt", NON_ARTIN), write("b.txt", TWIST)
        )
        assert code == 1
        assert "Artin identity" in err


class TestMatrix:
    def test_icosahedral(self, capsys, write):
        code, out, _ = run(capsys, "matrix", write("p.txt", ICOSAHEDRAL))
        assert code == 0
        assert out == "-1 2\n2 -3\ndet=-1\nsymmetric=true\n"

    def test_non_artin_candidate_allowed(self, capsys, write):
        code, out, _ = run(capsys, "matrix", write("p.txt", NON_ARTIN))
        assert code == 0
        assert out == "1 1\n0 0\ndet=0\nsymmetric=false\n"


class TestBraidGoldenFiles:
    @pytest.mark.parametrize(
        "name", ["identity_braid", "right_twist", "left_twist"]
    )
    def test_braid2artin_matches_golden(self, capsys, name):
        code, out, _ = run(capsys, "braid2artin", str(GOLDEN / f"{name}.braid"))
        assert code == 0
        assert out == (GOLDEN / f"{name}.expected").read_text()

    def test_non_pure_braid_is_domain_error(self, capsys, write):
        code, _, err = run(
            capsys, "braid2artin", write("b.txt", "braid 2 : s1 ; framings = 0,0\n")
        )
        assert code == 1
        assert "not pure" in err

    def test_bad_braid_syntax_is_usage_error(self, capsys, write):
        code, _, _ = run(
            capsys, "braid2artin", write("b.txt", "braid 2 : t9 ; framings = 0,0\n")
        )
        assert code == 2


class TestInvert:
    def test_right_twist_inverse(self, capsys):
        code, out, _ = run(capsys, "invert", str(GOLDEN / "right_twist.braid"))
        assert code == 0
        assert out == "artin 2\nr1 = x2^-1 x1^-1\nr2 = x2^-1 x1^-1\n"


class TestTuple:
    def test_build(self, capsys):
        code, out, _ = run(capsys, "tuple", "build", "1,1,1")
        assert code == 0
        assert out == TWIST

    def test_recognize(self, capsys, write):
        code, out, _ = run(capsys, "tuple", "recognize", write("p.txt", ICOSAHEDRAL))
        assert code == 0
        assert out == "-1,-3,2\n"

    def test_add(self, capsys):
        code, out, _ = run(capsys, "tuple", "add", "1,1,1", "-1,-3,2")
        assert code == 0
        assert out == "0,-2,3\n"

    def test_neg(self, capsys):
        code, out, _ = run(capsys, "tuple", "neg", "-1,-3,2")
        assert code == 0
        assert out == "1,3,-2\n"

    @pytest.mark.parametrize(
        "argv, usage",
        [
            ([], "usage: artinpres tuple [-h] {build,recognize,add,neg} ...\n"),
            (["build"], "usage: artinpres tuple build [-h] TRIPLE\n"),
            (["recognize"], "usage: artinpres tuple recognize [-h] FILE\n"),
            (["add", "1,1,1"], "usage: artinpres tuple add [-h] TRIPLE TRIPLE\n"),
            (["neg"], "usage: artinpres tuple neg [-h] TRIPLE\n"),
            # one argument too many is argparse's top-level error, as for every subcommand
            (["build", "1,1,1", "1,1,1"], "usage: artinpres [-h]"),
            (["recognize", "a.txt", "b.txt"], "usage: artinpres [-h]"),
            (["add", "1,1,1", "1,1,1", "-1,-3,2"], "usage: artinpres [-h]"),
            (["neg", "1,1,1", "2,2,2"], "usage: artinpres [-h]"),
        ],
        ids=["bare", "build-0", "recognize-0", "add-1", "neg-0", "build-2", "recognize-2", "add-3", "neg-2"],
    )
    def test_wrong_argument_count(self, capsys, argv, usage):
        code, out, err = run(capsys, "tuple", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(usage) and err.count("error:") == 1

    def test_bad_tuple_syntax(self, capsys):
        code, _, _ = run(capsys, "tuple", "build", "1,2")
        assert code == 2

    def test_bad_tuple_after_dash_is_echoed_as_typed(self, capsys):
        code, out, err = run(capsys, "tuple", "add", "1,1,1", "-x,0,0")
        assert (code, out) == (2, "")
        assert err == "error: expected three comma-separated integers, got '-x,0,0'\n"

    @pytest.mark.parametrize(
        "argv", [("classify", "1,1,1"), ("tuple", "add", "1,1,1", "1,1,1"), ("tuple", "neg", "1,1,1")]
    )
    def test_extra_argument_after_dash_is_echoed_as_typed(self, capsys, argv):
        code, out, err = run(capsys, *argv, "-1,-3,2", "x")
        assert (code, out) == (2, "")
        assert err.endswith("\nartinpres: error: unrecognized arguments: -1,-3,2 x\n")


class TestClassify:
    def test_full_line(self, capsys):
        code, out, _ = run(capsys, "classify", "5,2,3")
        assert code == 0
        assert out == (
            "family=T3 det=1 signature=2 parity=odd X4=CP2#CP2 "
            "path=(5,2,3)->slide1->(1,2,-1)->flipc->(1,2,1)->slide2->(1,1,0)\n"
        )

    @pytest.mark.parametrize(
        "triple, line",
        [
            (
                "0,1000,1",
                "family=T4 det=-1 signature=0 parity=even X4=S2xS2 "
                "path=(0,1000,1)->swap->(1000,0,1)\n",
            ),
            (
                "3001,2999,3000",
                "family=T5 det=-1 signature=0 parity=odd X4=CP2#mCP2 "
                "path=(3001,2999,3000)->slide1->(0,2999,-1)->flipc->(0,2999,1)"
                "->swap->(2999,0,1)\n",
            ),
        ],
    )
    def test_long_families_take_a_few_moves(self, capsys, triple, line):
        code, out, err = run(capsys, "classify", triple)
        assert (code, out, err) == (0, line, "")

    @pytest.mark.parametrize("triple, code", [("1,1,0", 0), ("1_0,0,1", 2)])
    def test_package_runs_as_module(self, capsys, triple, code):
        # python -m artinpres from a source tree, with no installed script
        ran = subprocess.run(
            [sys.executable, "-m", "artinpres", "classify", triple],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert (ran.returncode, ran.stdout, ran.stderr) == run(capsys, "classify", triple)
        assert ran.returncode == code

    def test_base_case_path(self, capsys):
        code, out, _ = run(capsys, "classify", "1,1,0")
        assert code == 0
        assert "path=(1,1,0)\n" in out

    def test_negative_tuple_argument(self, capsys):
        code, out, _ = run(capsys, "classify", "-1,-1,0")
        assert code == 0
        assert "X4=mCP2#mCP2" in out

    def test_outside_family_is_domain_error(self, capsys):
        code, out, err = run(capsys, "classify", "2,3,5")
        assert (code, out) == (1, "")
        assert err == "error: 2,3,5 is outside the trivial-group families\n"
        # classify builds no word, so a huge triple is no out-of-memory error
        code, out, err = run(capsys, "classify", f"{HUGE},0,0")
        assert (code, out) == (1, "")
        assert err == f"error: {HUGE},0,0 is outside the trivial-group families\n"

    # int() takes 1_0 and non-ASCII digits; a part must be ASCII [+-]?[0-9]+.
    # A triple that starts with "-" is echoed as typed, whatever follows.
    @pytest.mark.parametrize("triple", ["1_0,0,1", "\u0665,0,1", "-\u0665,0,1"])
    def test_integer_grammar_is_parse_error(self, capsys, triple):
        code, out, err = run(capsys, "classify", triple)
        assert (code, out) == (2, "")
        assert err == f"error: expected three comma-separated integers, got {triple!r}\n"

    def test_runtime_error_is_one_line_domain_error(self, capsys, monkeypatch):
        def fail(args):
            raise RuntimeError("move normalization did not terminate")

        monkeypatch.setattr("artinpres.cli._cmd_classify", fail)
        code, out, err = run(capsys, "classify", "0,1000,1")
        assert (code, out) == (1, "")
        assert err == "error: move normalization did not terminate\n"

    def test_memory_error_is_one_line_domain_error(self, capsys, monkeypatch):
        def fail(args):
            raise MemoryError()

        monkeypatch.setattr("artinpres.cli._cmd_classify", fail)
        code, out, err = run(capsys, "classify", "0,1000,1")
        assert (code, out, err) == (1, "", "error: out of memory\n")


class TestEnumTrivial:
    def test_bound_one(self, capsys):
        code, out, _ = run(capsys, "enum-trivial", "--bound", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 14
        assert lines[0] == "-1,-1,0 family=T1 X4=mCP2#mCP2"
        assert lines[-1] == "1,1,0 family=T1 X4=CP2#CP2"
        assert lines == sorted(lines, key=lambda line: tuple(
            int(part) for part in line.split()[0].split(",")
        ))

    # the option reads integers by the ASCII rule of the text grammars
    @pytest.mark.parametrize("bound", ["1_0", "\u0661\u0660", "-1,2"])
    def test_integer_grammar_is_usage_error(self, capsys, bound):
        code, out, err = run(capsys, "enum-trivial", "--bound", bound)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --bound: invalid int value: {bound!r}\n")

    # past 4,000 digits, sign and leading zeros aside, the error names the cap
    # as a triple part's does, and does not echo the digits
    @pytest.mark.parametrize(
        "bound", ["9" * 4001, "-" + "0" * 10 + "7" * 5000], ids=["4001-nines", "negative-5000-sevens"]
    )
    def test_bound_past_digit_cap_names_the_cap(self, capsys, bound):
        code, out, err = run(capsys, "enum-trivial", "--bound", bound)
        assert (code, out) == (2, "")
        assert err.endswith("\nartinpres enum-trivial: error: argument --bound: integer of more than 4000 digits\n")
        assert "7" * 4001 not in err and "9" * 4001 not in err

    def test_bound_with_comma_after_equals(self, capsys):
        code, out, err = run(capsys, "enum-trivial", "--bound=-1,2")
        assert (code, out) == (2, "")
        assert err.endswith("\nartinpres enum-trivial: error: argument --bound: invalid int value: '-1,2'\n")

    def test_bound_below_one_is_domain_error(self, capsys):
        code, out, err = run(capsys, "enum-trivial", "--bound", "0")
        assert (code, out, err) == (1, "", "error: bound must be at least 1\n")

    def test_bound_six_matches_golden(self, capsys):
        code, out, err = run(capsys, "enum-trivial", "--bound", "6")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "enum_trivial_6.expected").read_text()

    def test_closed_stdout_exits_quietly(self):
        # a reader that stops early, as "| head -n 1" does: the next write
        # fails on a closed pipe, which is exit 141 with nothing on stderr
        proc = subprocess.Popen(
            [sys.executable, "-m", "artinpres.cli", "enum-trivial", "--bound", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": SRC},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (first, proc.wait(timeout=60), err) == (b"-3000,-2998,-2999 family=T5 X4=S2xS2\n", 141, b"")


class TestCoset:
    def test_icosahedral_order(self, capsys, write):
        code, out, _ = run(capsys, "coset", write("p.txt", ICOSAHEDRAL))
        assert code == 0
        assert out == "order=120 cosets=386\n"

    def test_involution_presentation(self, capsys, write):
        # x1 takes one self-inverse table column; with two, relator-first
        # defined 685 cosets
        code, stdout, _ = run(capsys, "coset", write("p.txt", INVOLUTION))
        assert (code, stdout) == (0, "order=480 cosets=529\n")

    # coset runs relator-first; test_coset.py pins the Felsch counts
    @pytest.mark.parametrize(
        "option", [["--strategy", "definition-first"], ["--strategy=relator-first"]]
    )
    def test_strategy_is_not_an_option(self, capsys, write, option):
        code, out, err = run(capsys, "coset", write("p.txt", ICOSAHEDRAL), *option)
        assert (code, out) == (2, "")
        assert f"error: unrecognized arguments: {' '.join(option)}\n" in err

    @pytest.mark.parametrize(
        "text, out",
        [(T235, "order=60 cosets=66\n"), (PSL27, "order=168 cosets=268\n")],
        ids=["T235-relator-first", "PSL27-relator-first"],
    )
    def test_more_relators_than_generators(self, capsys, write, text, out):
        code, stdout, err = run(capsys, "coset", write("p.txt", text))
        assert (code, stdout, err) == (0, out, "")

    @pytest.mark.parametrize("argv", [["verify"], ["matrix"], ["tuple", "recognize"]])
    def test_artin_commands_refuse_other_relator_counts(self, capsys, write, argv):
        code, out, err = run(capsys, *argv, write("p.txt", T235))
        assert (code, out, err) == (1, "", "error: expected 2 relators, got 3\n")

    def test_exceeded(self, capsys, write):
        code, out, _ = run(
            capsys, "coset", write("p.txt", ICOSAHEDRAL), "--max-cosets", "10"
        )
        assert code == 0
        assert out == "exceeded=10\n"

    @pytest.mark.parametrize("budget", ["1_0", "\u0661\u0660"])
    def test_max_cosets_integer_grammar_is_usage_error(self, capsys, write, budget):
        code, out, err = run(capsys, "coset", write("p.txt", ICOSAHEDRAL), "--max-cosets", budget)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --max-cosets: invalid int value: {budget!r}\n")

    def test_max_cosets_past_digit_cap_names_the_cap(self, capsys, write):
        code, out, err = run(capsys, "coset", write("p.txt", ICOSAHEDRAL), "--max-cosets=" + "9" * 4001)
        assert (code, out) == (2, "")
        assert err.endswith("\nartinpres coset: error: argument --max-cosets: integer of more than 4000 digits\n")

    def test_option_error_echoes_value_as_typed(self, capsys, write):
        code, out, err = run(capsys, "coset", write("p.txt", ICOSAHEDRAL), "--max-cosets", "-1,2,3")
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --max-cosets: invalid int value: '-1,2,3'\n")

    def test_option_with_comma_after_equals(self, capsys, write):
        # a comma after "=" leaves --name=value an option, whose value is then checked
        code, out, err = run(capsys, "coset", write("p.txt", ICOSAHEDRAL), "--max-cosets=-1,2")
        assert (code, out) == (2, "")
        assert err.endswith("\nartinpres coset: error: argument --max-cosets: invalid int value: '-1,2'\n")

    def test_max_cosets_below_one_is_domain_error(self, capsys, write):
        code, out, err = run(capsys, "coset", write("p.txt", ICOSAHEDRAL), "--max-cosets", "0")
        assert (code, out, err) == (1, "", "error: max_cosets must be at least 1\n")


class TestExportKirby:
    def test_torus_link(self, capsys):
        code, out, _ = run(capsys, "export-kirby", "-1,-3,2")
        assert code == 0
        assert out == "strands=2; braid=s1^4; framings=-1,-3\n"


class TestErrorHandling:
    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((), "artinpres: error: argument command: invalid choice: '-1,2,3' (choose from 'verify'"),
            (("tuple",), "artinpres tuple: error: argument action: invalid choice: '-1,2,3' (choose from 'build'"),
        ],
        ids=["command", "tuple-action"],
    )
    def test_dash_led_choice_is_echoed_as_typed(self, capsys, argv, message):
        code, out, err = run(capsys, *argv, "-1,2,3")
        assert (code, out) == (2, "")
        assert f"\n{message}" in err

    # a triple part has at most 4,000 digits, sign and leading zeros aside, so
    # that every sum, double and path triple stays below the 4,300 digits str() converts
    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "-" + "7" * 5000 + ",0,1"),
            ("classify", "1" + "0" * 4000 + ",0,1"),
            ("export-kirby", "0,0,5" + "0" * 4299),
            ("tuple", "add", "9" * 4300 + ",0,0", "1,0,0"),
        ],
        ids=["classify-5000-sevens", "classify-10^4000", "export-kirby-4300", "tuple-add-4300"],
    )
    def test_triple_part_past_digit_cap_is_parse_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: integer of more than 4000 digits\n")

    def test_triples_at_digit_cap_print(self, capsys):
        v, nines = 10**3999, 10**4000 - 1
        code, out, err = run(capsys, "classify", f"{v + 1},{v - 1},+000{v}")
        assert (code, err) == (0, "")
        assert out.startswith(f"family=T5 det=-1 signature=0 parity=odd X4=CP2#mCP2 path=({v + 1},")
        code, out, err = run(capsys, "export-kirby", f"0,0,-{nines}")
        assert (code, out, err) == (0, f"strands=2; braid=s1^{-2 * nines}; framings=0,0\n", "")
        code, out, err = run(capsys, "tuple", "add", f"{nines},-{nines},0", f"{nines},-{nines},1")
        assert (code, out, err) == (0, f"{2 * nines},-{2 * nines},1\n", "")

    def test_word_past_the_letter_cap_is_parse_error(self, capsys, write):
        path = write("p.txt", "artin 1\nr1 = " + " ".join(["x1^1000000"] * 11) + "\n")
        code, out, err = run(capsys, "matrix", path)
        assert (code, out, err) == (2, "", "error: word of more than 10000000 letters\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/path.txt")
        assert code == 2

    def test_bad_word_in_file(self, capsys, write):
        code, _, _ = run(capsys, "verify", write("p.txt", "artin 1\nr1 = q5\n"))
        assert code == 2
        code, out, err = run(capsys, "verify", write("p.txt", "\n  \n"))
        assert (code, out, err) == (2, "", "error: empty presentation text\n")

    def test_huge_tuple_build_is_out_of_memory(self, capsys):
        code, out, err = run(capsys, "tuple", "build", f"{HUGE},0,0")
        assert (code, out, err) == (1, "", "error: out of memory\n")

    @pytest.mark.parametrize("command", ["braid2artin", "invert"])
    def test_huge_framing_is_parse_error(self, capsys, write, command):
        text = f"braid 2 : s1^2 ; framings = {HUGE},1\n"
        code, out, err = run(capsys, command, write("b.txt", text))
        message = f"error: framing beyond 1000000 in framings entry '{HUGE}' at position 1\n"
        assert (code, out, err) == (2, "", message)

    def test_undecodable_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xffartin 1\nr1 = x1\n")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1

    def test_undecodable_strict_stdin_is_parse_error(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xffartin 1\nr1 = x1\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "verify", "-")
        assert (code, out) == (2, "")
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1

    def test_exponent_past_cap_in_file(self, capsys, write):
        code, out, err = run(capsys, "coset", write("p.txt", "artin 1\nr1 = x1^1000000000\n"))
        assert (code, out) == (2, "")
        assert err == "error: exponent beyond 1000000 in word token 'x1^1000000000' at position 1\n"

    @pytest.mark.parametrize(
        "relator, kind",
        [("x1^" + "7" * 5000, "exponent"), ("x" + "7" * 5000, "index")],
    )
    def test_number_too_long_for_int_in_file(self, capsys, write, relator, kind):
        # more digits than int() converts by default (4,300): a parse error,
        # not int()'s ValueError
        code, out, err = run(capsys, "coset", write("p.txt", f"artin 1\nr1 = {relator}\n"))
        assert (code, out) == (2, "")
        assert err == f"error: {kind} beyond 1000000 in word token '{relator}' at position 1\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("artin " + "7" * 5000 + "\nr1 = x1\n", "generator count beyond 1000000 in 'artin <n>' header"),
            ("artin 1\nr" + "7" * 5000 + " = x1\n", "expected 'r1 = <word>', got 'r" + "7" * 5000 + " = x1'"),
        ],
    )
    def test_huge_header_or_label_in_file(self, capsys, write, text, message):
        code, out, err = run(capsys, "coset", write("p.txt", text))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_framing_too_long_for_int_in_braid_file(self, capsys, write):
        framing = "7" * 5000
        code, out, err = run(capsys, "braid2artin", write("b.txt", f"braid 2 : ; framings = 0,{framing}\n"))
        assert (code, out) == (2, "")
        assert err == f"error: framing beyond 1000000 in framings entry '{framing}' at position 2\n"

    def test_huge_strand_count_in_braid_file(self, capsys, write):
        text = "braid " + "7" * 5000 + " : s1 ; framings = 0\n"
        code, out, err = run(capsys, "braid2artin", write("b.txt", text))
        assert (code, out) == (2, "")
        assert err == "error: strand count beyond 1000000 in 'braid <n>' header\n"

    def test_zero_padded_exponent_in_file(self, capsys, write):
        code, out, _ = run(capsys, "coset", write("p.txt", "artin 1\nr1 = x1^" + "0" * 5000 + "1\n"))
        assert (code, out) == (0, "order=1 cosets=1\n")

    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2
