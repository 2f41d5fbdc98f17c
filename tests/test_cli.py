"""Tests for the command-line front end."""
import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapnet import cli, cycles, factor, genfun, network, seqcore
from swapnet.cli import main
from swapnet.errors import SwapnetError
from swapnet.network import Circuit, build_cyclic_network, export_circuit, parse_circuit

SEQ_D4 = "1,1,1,1,2,3,4,5,7,10,14,19,26,36,50,69,95,131,181,250,345,476,657,907,1252,1728"
ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
CLI_DIGESTS = json.loads((ROOT / "bench" / "expected.json").read_text())["cli_digests"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeq:
    def test_exact_terms(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--d", "4", "--count", "26")
        assert code == 0
        assert out.strip() == SEQ_D4

    def test_modular_terms(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--d", "2", "--count", "7", "--mod", "2")
        assert code == 0
        assert out.strip() == "1,1,0,1,1,0,1"

    def test_json_terms_are_decimal_strings(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--d", "8", "--count", "26", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["terms"][-1] == "78"
        assert all(isinstance(t, str) for t in doc["terms"])

    @pytest.mark.parametrize("argv", [
        ["--d", "4", "--count", "100000"],
        ["--d", "2", "--count", "25000", "--json"],
        ["--d", "4", "--count", str(10 ** 30), "--mod", "5"],
        ["--d", "4", "--count", "5000000", "--mod", str(10 ** 15)],  # digits, not terms
        ["--d", "100", "--count", "200000"],
    ])
    def test_refused_before_any_term(self, capsys, monkeypatch, argv):
        for name in ("exact_sequence", "seq_stream"):
            monkeypatch.setattr(seqcore, name, lambda *args: pytest.fail(f"{name} ran"))
        code, out, err = run_cli(capsys, "seq", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: --count ") and "limit" in err

    def test_refusal_names_the_digit_limit(self, capsys):
        _, _, err = run_cli(capsys, "seq", "--d", "4", "--count", "100000")
        assert f"{sys.get_int_max_str_digits()}-digit" in err

    def test_late_digit_failure_gives_the_same_error(self, capsys, monkeypatch):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the smallest limit Python accepts
        try:
            refused = run_cli(capsys, "seq", "--d", "2", "--count", "3200")
            monkeypatch.setattr(cli, "_check_seq_size", lambda *args: None)
            late = [run_cli(capsys, "seq", "--d", "2", "--count", "3200", *flag) for flag in ([], ["--json"])]
        finally:
            sys.set_int_max_str_digits(old)
        assert refused[0] == 1 and refused[1] == ""
        assert late == [refused, refused]

    @pytest.mark.parametrize("flag", [[], ["--json"]])
    def test_overlong_run_refused_before_any_term_is_rendered(self, capsys, monkeypatch, flag):
        # alpha^(j-d+1) undershoots term(j), so this count passes the up-front bound
        class Unprintable(int):
            def __str__(self):
                pytest.fail("a term was rendered")

        exact = seqcore.exact_sequence
        monkeypatch.setattr(seqcore, "exact_sequence", lambda d, count: list(map(Unprintable, exact(d, count))))
        monkeypatch.setattr(cli, "_emit_json", lambda doc: pytest.fail("output was emitted"))
        cli._check_seq_size(3, 25905, None)
        code, out, err = run_cli(capsys, "seq", "--d", "3", "--count", "25905", *flag)
        assert code == 1 and out == ""
        assert err.startswith("error: --count 25905 at order 3 needs terms longer than")

    def test_bounds_leave_valid_runs_alone(self, capsys):
        cli._check_seq_size(2, 20000, None)
        cli._check_seq_size(4, cli.SEQ_LIMIT, 5)
        cli._check_seq_size(10 ** 30, 5, None)
        code, out, _ = run_cli(capsys, "seq", "--d", "100", "--count", "2000")
        assert code == 0 and out.count(",") == 1999


class TestCycle:
    def test_d6_text(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", "--d", "6")
        assert code == 0
        assert "length 6552" in out
        assert "63 (mod 2), 728 (mod 3)" in out

    def test_d6_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", "--d", "6", "--json")
        assert json.loads(out) == {
            "d": 6,
            "length": 6552,
            "factors": [{"pm": 2, "len": 63}, {"pm": 3, "len": 728}],
            "shift": 0,
            "permutation": [0, 1, 2, 3, 4, 5],
            "method": "composed",
        }

    def test_budget_exhaustion_exit_3(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", "--d", "7", "--budget", "5")
        assert code == 3
        assert "inconclusive" in out

    def test_budget_exhaustion_json(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", "--d", "7", "--budget", "5", "--json")
        assert code == 3
        doc = json.loads(out)
        assert doc["inconclusive"] is True and doc["steps"] == 5

    def test_d14_from_the_ring(self, capsys):
        code, out, err = run_cli(capsys, "cycle", "--d", "14")
        assert code == 0 and err == ""
        assert out.splitlines()[:2] == ["length 648683836488",
                                        "factors: 11811 (mod 2), 164766024 (mod 7)"]
        assert out.splitlines()[-1] == "method composed"

    def test_composite_budget_exhaustion(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", "--d", "10", "--budget", "1000")
        assert code == 3
        assert out == "inconclusive: no window return within 1000 steps (order 10, mod 5)\n"


class TestScan:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--max", "9", "--json")
        lengths = [e["length"] for e in json.loads(out)]
        assert code == 0
        assert lengths == [3, 8, 30, 24, 6552, 48, 252, 240]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--max", "4", "--csv")
        assert code == 0
        assert out == "d,length\n2,3\n3,8\n4,30\n"

    def test_every_d_up_to_33_decided(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--max", "33", "--csv")
        assert code == 0
        assert "inconclusive" not in out and len(out.splitlines()) == 33

    def test_factoring_failure_line(self, capsys, no_factoring):
        code, out, _ = run_cli(capsys, "scan", "--max", "6")
        assert code == 3 and out.splitlines()[-1] == "d=6  inconclusive after 0 steps"
        code, out, _ = run_cli(capsys, "scan", "--max", "6", "--json")
        assert code == 3 and json.loads(out)[-1] == {
            "d": 6, "inconclusive": True, "budget": 0,
            "reason": "cannot split composite 728 (order 6, mod 3)"}

    def test_csv_inconclusive_row_exit_3(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--max", "10", "--csv", "--budget", "1000")
        assert code == 3
        assert out.splitlines()[-2:] == ["9,240", "10,inconclusive"]

    def test_partial_failure_exit_3(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--max", "6", "--budget", "10")
        assert code == 3
        assert "inconclusive" in out
        assert "d=2" in out  # the feasible entries are still reported


class TestSwap:
    def test_d3_text(self, capsys):
        code, out, _ = run_cli(capsys, "swap", "--d", "3")
        assert code == 0
        assert out.strip() == "SWAP: cyclic shift by -1, 8 gates"

    def test_d6_identity(self, capsys):
        code, out, _ = run_cli(capsys, "swap", "--d", "6")
        assert out.strip() == "IDENTITY: shift 0, 6552 gates"

    def test_d8_json(self, capsys):
        code, out, _ = run_cli(capsys, "swap", "--d", "8", "--json")
        doc = json.loads(out)
        assert doc["kind"] == "grouped" and doc["shift"] == 4 and doc["gates"] == 252

    def test_d12_identity(self, capsys):
        code, out, _ = run_cli(capsys, "swap", "--d", "12")
        assert code == 0
        assert out == "IDENTITY: shift 0, 4270560 gates\n"

    @pytest.mark.parametrize("d, line", [
        ("8", "GROUPED: shift 4, 252 gates"),  # a cycle inside the limit prints the same way
        ("10", "OTHER: permutation [6, 7, 8, 9, 0, 1, 2, 3, 4, 5], 1736327236 gates"),
        ("3125", "GROUPED: shift 2500, 6103515000 gates"),
    ])
    def test_cycles_past_the_trace_limit(self, capsys, d, line):
        code, out, err = run_cli(capsys, "swap", "--d", d)
        assert code == 0 and err == ""
        assert out == line + "\n"


class TestSizeLimits:
    @pytest.mark.parametrize("argv", [
        ["trace", "--d", "10", "--steps", "1736327236"],  # one full d=10 cycle
        ["trace", "--d", "5", "--steps", "100000000"],
    ])
    def test_beyond_trace_limit_exit_1(self, child_env, argv):
        proc = subprocess.run([sys.executable, "-m", "swapnet", *argv],
                              capture_output=True, text=True, env=child_env)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "limit" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_export_beyond_gate_limit_exit_1(self, child_env):
        proc = subprocess.run([sys.executable, "-m", "swapnet", "export", "--d", "10",
                               "--gates", "1000001"],
                              capture_output=True, text=True, env=child_env)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "gate limit" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["cycle", "--d", str(cycles.RING_LIMIT + 1)],
        ["cycle", "--d", "1000000007"],  # its ring would hold 8 GB of coefficients
        ["cycle", "--d", str(10 ** 30)],
        ["swap", "--d", str(10 ** 30)],
        ["scan", "--max", str(cycles.RING_LIMIT + 1)],
        ["scan", "--max", str(10 ** 30)],
        ["closed-form", "--n", str(genfun.DEGREE_LIMIT + 1)],
        ["closed-form", "--n", str(10 ** 30)],
    ])
    def test_refused_before_any_work(self, capsys, monkeypatch, argv):
        # factoring d or seeking roots would be work already; either one fails the test fast
        for module, name in ((factor.Factorization, "of"), (genfun, "find_roots")):
            monkeypatch.setattr(module, name, lambda *args: pytest.fail(f"{name} ran"))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "limit" in err

    def test_trace_invalid_d_before_size_check(self, capsys):
        for steps in ("5", "100000000"):
            code, out, err = run_cli(capsys, "trace", "--d", "1", "--steps", steps)
            assert code == 2 and out == ""
            assert err.startswith("usage error: ")
        # a negative T is a usage error at every d, though d (T + d) passes the limit at d = 10000
        for d in ("5", "10000"):
            code, out, err = run_cli(capsys, "trace", "--d", d, "--steps", "-1")
            assert (code, out, err) == (2, "", "usage error: T must be >= 0\n")

    def test_trace_refused_before_any_row(self, capsys):
        # 5 * 2,000,001 coefficients: one column past the limit
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "trace", "--d", "5", "--steps", "1999996")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1 and out == "" and "limit" in err
        assert peak < 10 ** 6


class TestTrace:
    def test_rows(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--d", "4", "--steps", "26")
        lines = out.splitlines()
        assert lines[0] == "d=4 t=-3..26"
        assert lines[1] == "row0: 0 0 0 1 1 1 1 2 3 0 1 3 2 2 3 2 0 2 1 3 3 1 2 1 0 1 3 0 0 1"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--d", "3", "--steps", "5", "--json")
        doc = json.loads(out)
        assert doc["t_start"] == -2 and doc["t_end"] == 5
        assert len(doc["rows"]) == 3


class TestSimulate:
    def test_basis_state(self, capsys, tmp_path):
        path = tmp_path / "circuit.txt"
        path.write_text(export_circuit(build_cyclic_network(3, 8)) + "\n")
        code, out, _ = run_cli(capsys, "simulate", "--circuit", str(path), "--state", "120")
        assert code == 0
        assert out.strip() == "201 1 0"  # |abc> ends as |bca>

    @pytest.mark.parametrize("d, sep", [(10, ""), (12, ",")])
    def test_labels_name_one_basis_state_each(self, capsys, tmp_path, d, sep):
        # at d = 12, digits joined with no separator would print 110 for both (1, 10) and (11, 0)
        circuit = Circuit(d, 2, [[0, 1]])
        path = tmp_path / "circuit.txt"
        path.write_text(export_circuit(circuit))
        code, out, _ = run_cli(capsys, "simulate", "--circuit", str(path), "--state", "random --seed 1")
        want = network.simulate(circuit, network.StateVector.random(d, 2, 1)).amplitudes
        lines = out.splitlines()
        assert code == 0 and len(lines) == d * d
        labels = [line.split()[0] for line in lines]
        assert len(set(labels)) == d * d
        for line, label in zip(lines, labels):
            digits = [int(x) for x in (label.split(sep) if sep else label)]
            amp = want[digits[0] * d + digits[1]]  # big-endian over the two systems
            assert line == f"{label} {cli._fmt(amp.real)} {cli._fmt(amp.imag)}"

    def test_random_state_is_reproducible(self, capsys, tmp_path):
        path = tmp_path / "circuit.json"
        path.write_text(export_circuit(build_cyclic_network(2, 3), "json"))
        code1, out1, _ = run_cli(capsys, "simulate", "--circuit", str(path),
                                 "--state", "random --seed 5", "--json")
        code2, out2, _ = run_cli(capsys, "simulate", "--circuit", str(path),
                                 "--state", "random --seed 5", "--json")
        assert code1 == code2 == 0
        assert out1 == out2
        amps = json.loads(out1)["amplitudes"]
        assert abs(sum(re * re + im * im for re, im in amps) - 1) < 1e-12

    def test_bad_state_spec(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(export_circuit(build_cyclic_network(2, 1)))  # two qubits
        for spec in ("xyz", "9 9", "random --seed", "random --seed x", "random --seed -1",
                     "012", "02", "\u0661\u0660", "\u00b91", "random --seed \u0661",
                     "random --seed +1", "random --seed 1_0"):
            code, out, err = run_cli(capsys, "simulate", "--circuit", str(path), "--state", spec)
            assert code == 1 and out == "", spec
            assert err.startswith(f"error: bad state spec {spec!r}: ")

    @pytest.mark.parametrize("text", [
        '{"d":3,"systems":3}',
        '{"d":3,"systems":3,"gates":5}',
        '{"d":3,"systems":3,"gates":[[0,1,2]]}',
        '{"d": 3, "systems": 3, "gates": [[true, false], [0, 2]]}',
        '{"d": 3, "systems": true, "gates": []}',
    ])
    def test_bad_json_schema_exit_1(self, capsys, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "simulate", "--circuit", str(path), "--state", "000")
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("text", [
        "DIM x SYSTEMS 3",
        "DIM 1 SYSTEMS 3",
        "DIM 3 SYSTEMS 3\nCNOT 0 0",
        "DIM 3 SYSTEMS 3\nCNOT 0 7",
        '{"d":1,"systems":3,"gates":[]}',
        '{"d":3,"systems":3,"gates":[[0,0]]}',
        b"\xff\xfeDIM 3 SYSTEMS 3",  # not ASCII
        "DIM 1_1 SYSTEMS 3",
        "DIM 3 SYSTEMS 12\nCNOT 1_0 2",
        "DIM 3 SYSTEMS 3\nCNOT -0 +2",
    ])
    def test_numeric_circuit_faults_exit_1(self, capsys, tmp_path, text):
        path = tmp_path / "c.txt"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out, err = run_cli(capsys, "simulate", "--circuit", str(path), "--state", "000")
        assert code == 1 and out == ""
        assert err.startswith("error: bad circuit: ")

    def test_deeply_nested_json_exit_1(self, child_env, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"d":3,"systems":3,"gates":' + "[" * 100000)
        proc = subprocess.run([sys.executable, "-m", "swapnet", "simulate", "--circuit", str(path),
                               "--state", "000"], capture_output=True, text=True, env=child_env)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: bad circuit: ")
        assert "Traceback" not in proc.stderr

    def test_state_size_budget_exit_1(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("DIM 10 SYSTEMS 7\nCNOT 0 1\n")
        code, _, err = run_cli(capsys, "simulate", "--circuit", str(path), "--state", "0" * 7)
        assert code == 1
        assert "limit" in err

    def test_gate_limit_before_any_gate(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "circuit.txt"
        path.write_text(export_circuit(build_cyclic_network(2, 4)))
        monkeypatch.setattr(network, "GATE_LIMIT", 3)
        monkeypatch.setattr(network, "Circuit", lambda *args: pytest.fail("a Circuit was built"))
        code, out, err = run_cli(capsys, "simulate", "--circuit", str(path), "--state", "01")
        assert code == 1 and out == ""
        assert err == "error: 4 gates exceed the 3 gate limit\n"

    def test_char_limit_before_parsing(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "circuit.txt"
        text = export_circuit(build_cyclic_network(2, 4))
        path.write_text(text)
        monkeypatch.setattr(network, "CIRCUIT_CHAR_LIMIT", len(text))
        code, out, _ = run_cli(capsys, "simulate", "--circuit", str(path), "--state", "01")
        assert code == 0 and out == "10 1 0\n"
        path.write_text(text + "\n")
        monkeypatch.setattr(network, "re", None)  # nothing is parsed past the limit
        code, out, err = run_cli(capsys, "simulate", "--circuit", str(path), "--state", "01")
        assert code == 1 and out == ""
        assert err == f"error: circuit text exceeds the {len(text)} character limit\n"

    @pytest.mark.skipif(not pathlib.Path("/dev/zero").exists(), reason="no /dev/zero")
    def test_endless_file_is_read_to_the_limit_only(self, capsys, monkeypatch):
        monkeypatch.setattr(network, "CIRCUIT_CHAR_LIMIT", 1000)
        code, out, err = run_cli(capsys, "simulate", "--circuit", "/dev/zero", "--state", "0")
        assert code == 1 and out == ""
        assert err == "error: circuit text exceeds the 1000 character limit\n"

    @pytest.mark.parametrize("text", [
        '{"d":3,"systems":3,"gates":[[0,10000000000000000000000000]]}',
        "DIM 3 SYSTEMS 3\nCNOT 9223372036854775808 1",
    ])
    def test_index_past_int64_exit_1(self, capsys, tmp_path, text):
        path = tmp_path / "c.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "simulate", "--circuit", str(path), "--state", "000")
        assert code == 1 and out == ""
        assert err.startswith("error: bad circuit: ")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--circuit", "/nonexistent", "--state", "00")
        assert code == 1


class TestClosedForm:
    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form", "--n", "4", "--count", "26")
        assert code == 0
        assert "1.380277569" in out
        assert "0.547487978" in out  # printed weight agrees to ~2e-10

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form", "--n", "8", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["max_deviation"] < 1e-6
        assert doc["n"] == 8 and len(doc["alphas"]) == len(doc["betas"]) == 8
        assert all(len(pair) == 2 for pair in doc["alphas"] + doc["betas"])

    @pytest.mark.parametrize("tol, want", [("nan", 2), ("-1", 2), ("0", 1), ("1e-6", 0)])
    def test_tol_is_a_number_at_least_zero(self, capsys, tol, want):
        code, out, err = run_cli(capsys, "closed-form", "--n", "4", "--tol", tol, "--json")
        assert code == want
        if want == 2:
            assert out == "" and err.startswith("usage error: tol must be a number >= 0")

    @pytest.mark.parametrize("argv, want, msg", [
        (["--n", "150", "--tol", "nan"], 2, "usage error: tol must be a number >= 0"),
        (["--n", "150", "--tol", "-1"], 2, "usage error: tol must be a number >= 0"),
        (["--n", str(10 ** 30), "--tol", "nan"], 1, "error: order "),
        (["--n", "1", "--tol", "nan"], 2, "usage error: order must be >= 2"),
        # the last term reaches 2^53 at count 118 for n = 4
        *((["--n", "4", "--count", str(c)], 2, "usage error: --count ") for c in (118, 10 ** 6, 10 ** 30)),
        *((["--n", "3", "--tol", t, *j], 2, "usage error: tol must be finite")
          for t in ("inf", "1e400") for j in ([], ["--json"])),
        *((["--n", "150", "--count", "-1", *j], 2, "usage error: count must be >= 0")
          for j in ([], ["--json"])),
        (["--n", "150", "--count", "-1", "--tol", "-1"], 2, "usage error: tol must be a number >= 0"),
        (["--n", "1", "--count", "-1"], 2, "usage error: order must be >= 2"),
    ])
    def test_order_then_tol_before_any_root(self, capsys, monkeypatch, argv, want, msg):
        monkeypatch.setattr(genfun, "find_roots", lambda *args: pytest.fail("find_roots ran"))
        code, out, err = run_cli(capsys, "closed-form", *argv)
        assert code == want and out == "" and err.startswith(msg)

    def test_count_below_limit_still_compared(self, capsys):
        code, out, err = run_cli(capsys, "closed-form", "--n", "4", "--count", "117")
        assert code == 1 and out == ""
        assert err.startswith("error: closed form diverges from exact terms at j=64")


class TestExport:
    def test_gatelist(self, capsys):
        code, out, _ = run_cli(capsys, "export", "--d", "2", "--gates", "3")
        assert code == 0
        assert out == "DIM 2 SYSTEMS 2\nCNOT 0 1\nCNOT 1 0\nCNOT 0 1\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "export", "--d", "3", "--gates", "2", "--json")
        assert code == 0 and out == '{"d":3,"systems":3,"gates":[[0,1],[1,2]]}\n'

    def test_format_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--d", "3", "--gates", "2", "--format", "json"])
        assert exc.value.code == 2 and "--format" in capsys.readouterr().err

    def test_dimension_past_int64(self, capsys):
        d = 10 ** 30
        code, out, _ = run_cli(capsys, "export", "--d", str(d), "--gates", "3")
        assert code == 0 and out == f"DIM {d} SYSTEMS {d}\nCNOT 0 1\nCNOT 1 2\nCNOT 2 3\n"
        code, out, _ = run_cli(capsys, "export", "--d", str(d), "--gates", "3", "--json")
        assert code == 0 and out == f'{{"d":{d},"systems":{d},"gates":[[0,1],[1,2],[2,3]]}}\n'


class TestCheck:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("ok  ") == 14

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--json")
        doc = json.loads(out)
        assert doc["ok"] is True
        assert all(c["ok"] for c in doc["checks"])

    @pytest.fixture
    def one_failing(self, monkeypatch):
        def fail():
            raise ValueError("planted fault")
        checks = [(name, fail if name == "pascal-rule" else fn) for name, fn in cli.CHECKS]
        monkeypatch.setattr(cli, "CHECKS", checks)

    def test_failure_line_exit_1(self, capsys, one_failing):
        code, out, _ = run_cli(capsys, "check")
        assert code == 1
        assert [line for line in out.splitlines() if not line.startswith("ok  ")] == [
            "FAIL pascal-rule: planted fault"]
        assert out.count("ok  ") == 13

    def test_planted_fault_fails_under_python_o(self, child_env):
        # the checks raise VerificationError, which -O does not strip as it strips assert
        code = ("import sys\n"
                "from swapnet import cli, cycles\n"
                "cycles.scan = lambda *args, **kwargs: []\n"
                "sys.exit(cli.main(['check']))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=child_env)
        assert proc.returncode == 1
        assert [line for line in proc.stdout.splitlines() if not line.startswith("ok  ")] == [
            "FAIL table-values: []"]
        assert proc.stdout.count("ok  ") == 13

    def test_failure_json_exit_1(self, capsys, one_failing):
        code, out, _ = run_cli(capsys, "check", "--json")
        doc = json.loads(out)
        assert code == 1 and doc["ok"] is False
        assert [c["name"] for c in doc["checks"] if not c["ok"]] == ["pascal-rule"]


class TestHarness:
    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["cycle"])  # missing --d
        assert err.value.code == 2

    def test_bad_argument_values_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "seq", "--d", "4", "--count", "5", "--mod", "1")
        assert code == 2 and "usage error" in err
        code, _, err = run_cli(capsys, "cycle", "--d", "1")
        assert code == 2

    # each last argument is a spelling int() reads; an integer flag takes '-' and ASCII digits only
    @pytest.mark.parametrize("argv", [
        ["seq", "--count", "10", "--d", "\u0663"],
        ["seq", "--d", "3", "--count", "1_0"],
        ["seq", "--d", "3", "--count", "10", "--mod", "+5"],
        ["cycle", "--d", " 6"],
        ["cycle", "--d", "+6"],
        ["cycle", "--d", "6", "--budget", "1 000"],
        ["scan", "--max", "\u0669"],
        ["scan", "--max", "9", "--budget", "1_000"],
        ["swap", "--d", "3 "],
        ["swap", "--d", "3", "--budget", "\uff11\uff10"],
        ["trace", "--steps", "5", "--d", "\u00b3"],
        ["trace", "--d", "3", "--steps", "+5"],
        ["closed-form", "--n", "4_0"],
        ["closed-form", "--n", "4", "--count", "\u0662\u0666"],
        ["export", "--gates", "8", "--d", "+3"],
        ["export", "--d", "3", "--gates", " 8"],
    ])
    def test_integer_flags_take_ascii_digits_only(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        # the message states the grammar and names no function of the package
        assert out == "" and f"{argv[-1]!r} is not an integer in ASCII digits" in err_text
        assert "_ascii_int" not in err_text and "_int_flag" not in err_text

    @pytest.mark.parametrize("verb", ["cycle", "swap"])
    @pytest.mark.parametrize("d", ["1", "0", "-3"])
    def test_order_below_two_names_the_order(self, capsys, monkeypatch, verb, d):
        # the order is checked before d is factored, so the message names the order, not n
        monkeypatch.setattr(factor.Factorization, "of", lambda *args: pytest.fail("factored"))
        code, out, err = run_cli(capsys, verb, "--d", d)
        assert code == 2 and out == ""
        assert err == "usage error: order must be >= 2\n"
        assert "Traceback" not in err

    def test_unknown_verb_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        assert "seq" in capsys.readouterr().out
        for verb in ("cycle", "scan", "swap"):  # one budget rule, one help text
            with pytest.raises(SystemExit):
                main([verb, "--help"])
            assert "--budget BUDGET cap on each factor's period" in " ".join(capsys.readouterr().out.split())

    def test_determinism_byte_identical(self, capsys):
        runs = set()
        for _ in range(2):
            _, out, _ = run_cli(capsys, "scan", "--max", "9", "--json")
            runs.add(out)
        assert len(runs) == 1

    def test_module_entry_point(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "swapnet", "seq", "--d", "4", "--count", "26"],
            capture_output=True, text=True, env=child_env,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == SEQ_D4

    @pytest.mark.parametrize("value", ["abc", "1e3", "0", "\u0661\u0660", " 1_000 ", "+5"])
    def test_env_budget_invalid_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SWAPNET_BUDGET", value)
        for d in ("10", "9"):  # a composite and a prime power alike
            code, out, err = run_cli(capsys, "cycle", "--d", d)
            assert code == 2 and out == ""
            assert "SWAPNET_BUDGET" in err

    @pytest.mark.parametrize("line", sorted(CLI_DIGESTS))
    def test_pinned_digests(self, capsys, line):
        # the benchmark's byte-identical contract: exit code and sha256 of stdout
        code, out, _ = run_cli(capsys, *line.split())
        assert [code, hashlib.sha256(out.encode()).hexdigest()] == CLI_DIGESTS[line]

    def test_readme_examples(self, child_env):
        # each '$ swapnet ...' line in README's CLI section, with the lines up
        # to the next blank line as its exact stdout
        section = README.read_text(encoding="utf-8").split("\n## CLI\n")[1].split("\n## ")[0]
        examples, out = [], None
        for line in section.splitlines():
            if line.startswith("$ swapnet "):
                out = []
                examples.append((line.split()[2:], out))
            elif out is not None and line and not line.startswith("```"):
                out.append(line + "\n")
            else:
                out = None
        assert len(examples) >= 3
        for argv, lines in examples:
            proc = subprocess.run([sys.executable, "-m", "swapnet", *argv],
                                  capture_output=True, env=child_env)
            assert proc.returncode == 0 and proc.stderr == b"", argv
            assert proc.stdout == "".join(lines).encode("ascii"), argv

    def test_env_budget_default(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "swapnet", "cycle", "--d", "10", "--json"],
            capture_output=True, text=True,
            env={**child_env, "SWAPNET_BUDGET": "100"},
        )
        # SWAPNET_BUDGET caps each factor as --budget would; the mod-2
        # factor (period 889) is the first above 100 steps
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["inconclusive"] is True


# Integer arguments of every verb that takes one: each is drawn from -3..30
# and, where the verb refuses them, from the extremes past its bound.
SMALL = st.integers(-3, 30)
WIDE = SMALL | st.sampled_from([cycles.RING_LIMIT + 1, 2 ** 62, 10 ** 30])
FUZZ_ARGS = {  # verb: [(flag, values, required)]
    "seq": [("--d", WIDE, True), ("--count", SMALL | st.sampled_from([2 ** 62, 10 ** 30]), True),
            ("--mod", WIDE, False)],
    "cycle": [("--d", WIDE, True), ("--budget", WIDE, False)],
    "scan": [("--max", WIDE, True), ("--budget", WIDE, False)],
    "swap": [("--d", WIDE, True), ("--budget", WIDE, False)],
    # RING_LIMIT + 1 steps would fit TRACE_LIMIT for small d: valid, but slow to print
    "trace": [("--d", WIDE, True), ("--steps", SMALL | st.sampled_from([2 ** 62, 10 ** 30]), True)],
    "closed-form": [("--n", WIDE, True), ("--count", SMALL | st.sampled_from([2 ** 62, 10 ** 30]), False),
                    ("--tol", st.sampled_from(["nan", "inf", "-1", "0", "1e-6"]), False)],
    "export": [("--d", WIDE, True), ("--gates", WIDE, True)],
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
ANY_INT = st.integers(-3, 12) | st.sampled_from([True, 2 ** 62, 10 ** 30]) | JSON_VALUES
CIRCUIT_TEXTS = (
    st.text()
    | JSON_VALUES.map(json.dumps)
    | st.fixed_dictionaries({"d": ANY_INT, "systems": ANY_INT,
                             "gates": st.lists(st.lists(ANY_INT, max_size=3), max_size=4)}).map(json.dumps)
    | st.builds(lambda d, n, gates: f"DIM {d} SYSTEMS {n}\n"
                + "".join(f"CNOT {c} {t}\n" for c, t in gates),
                SMALL, SMALL, st.lists(st.tuples(SMALL, SMALL), max_size=4))
)


class TestFuzz:
    """Hypothesis over the CLI's integer arguments and circuit files: exit 0-3, never a traceback.

    Valid values that would only run long are left out: ``seq --count``
    between a few hundred and ``SEQ_LIMIT``, ``closed-form --n`` in the
    hundreds (its root finder is pure Python), ``trace`` near
    ``TRACE_LIMIT``.  ``check`` and
    ``simulate`` take no integer argument; ``simulate``'s circuit text is
    the second property.
    """

    @pytest.mark.parametrize("verb", sorted(FUZZ_ARGS))
    @settings(max_examples=100)
    @given(data=st.data())
    def test_integer_arguments(self, verb, data):
        argv = [verb]
        for flag, values, required in FUZZ_ARGS[verb]:
            if required or data.draw(st.booleans(), label=f"{flag} given"):
                argv += [flag, str(data.draw(values, label=flag))]
        if data.draw(st.booleans(), label="--json"):
            argv.append("--json")
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        # RFC 8259 has no NaN or Infinity
        if "--json" in argv and code in (0, 3):
            json.loads(out.getvalue(), parse_constant=lambda c: pytest.fail(f"{c} in {argv}"))

    @settings(max_examples=300)
    @given(CIRCUIT_TEXTS)
    def test_parse_circuit(self, text):
        try:
            circuit = parse_circuit(text)
        except SwapnetError:
            return
        assert isinstance(circuit, Circuit)
