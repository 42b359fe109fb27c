"""End-to-end tests of the command-line interface and its exit codes."""

import json
from fractions import Fraction

import pytest

from seqdec.cli import main
from seqdec.core import Alphabet
from seqdec.heuristics import Comparator, ConfigRuleSpec, CsrSpec, OsrSpec, rule_to_json
from seqdec.automaton import to_json as automaton_to_json
from seqdec.machines import to_json as tm_to_json, to_json_dict as tm_to_json_dict
from tests.conftest import build_twosym_threshold2
from tests.test_machines import echo_machine, spinner_machine

ABC = Alphabet(("a", "b", "c"))
XY = Alphabet(("x", "y"))


@pytest.fixture
def csr3_file(tmp_path):
    spec = CsrSpec(ABC, {s: Fraction(1) for s in ABC}, Fraction(3))
    path = tmp_path / "csr3.json"
    path.write_text(rule_to_json(spec))
    return str(path)


@pytest.fixture
def fig_file(tmp_path):
    spec = CsrSpec(XY, {s: Fraction(1) for s in XY}, Fraction(2))
    path = tmp_path / "fig.json"
    path.write_text(rule_to_json(spec))
    return str(path)


@pytest.fixture
def osr_file(tmp_path):
    spec = OsrSpec(ABC, ("a", "b", "c"), "b", 2)
    path = tmp_path / "osr.json"
    path.write_text(rule_to_json(spec))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload


class TestEval:
    def test_threshold_rule_on_cycle(self, capsys, csr3_file):
        code, payload = run_json(capsys, ["eval", csr3_file, "|a b c"])
        assert code == 0
        assert payload["decision"] == "a"
        assert payload["stop_position"] == 7
        assert payload["minimal_sufficient_prefix"] == "a b c a b c a"

    def test_ranked_rule(self, capsys, osr_file):
        code, payload = run_json(capsys, ["eval", osr_file, "b c|a"])
        assert code == 0 and payload["decision"] == "b"
        code, payload = run_json(capsys, ["eval", osr_file, "a b|c"])
        assert code == 0 and payload["decision"] == "a"

    def test_constant_sequence(self, capsys, csr3_file):
        code, payload = run_json(capsys, ["eval", csr3_file, "|a"])
        assert code == 0
        assert payload["decision"] == "a" and payload["stop_position"] == 3

    def test_text_format(self, capsys, csr3_file):
        code = main(["eval", csr3_file, "|a b c", "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0 and "decision a, stop 7" in out

    def test_bad_sequence_literal_exits_2(self, capsys, csr3_file):
        assert main(["eval", csr3_file, "a b c"]) == 2

    def test_unknown_symbol_exits_2(self, capsys, csr3_file):
        assert main(["eval", csr3_file, "|z"]) == 2

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["eval", str(tmp_path / "nope.json"), "|a"]) == 2


class TestCompile:
    def test_figure_rule_minimized(self, capsys, fig_file):
        code, payload = run_json(capsys, ["compile", fig_file, "--minimize"])
        assert code == 0
        assert payload["state_count"] == 6
        assert payload["uniform_bound"] == 3

    def test_text_summary(self, capsys, fig_file):
        code = main(["compile", fig_file, "--minimize", "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0 and "6 states, bound 3" in out

    def test_threshold_three_bound(self, capsys, csr3_file):
        code, payload = run_json(capsys, ["compile", csr3_file])
        assert code == 0 and payload["uniform_bound"] == 7

    def test_span_one_rule(self, capsys, tmp_path):
        spec = OsrSpec(ABC, ("a", "b", "c"), "c", 1)
        path = tmp_path / "osr1.json"
        path.write_text(rule_to_json(spec))
        code, payload = run_json(capsys, ["compile", str(path)])
        assert code == 0
        assert payload["state_count"] == 1 + len(ABC)
        assert payload["uniform_bound"] == 1

    def test_out_and_dot_files(self, capsys, fig_file, tmp_path):
        out = tmp_path / "aut.json"
        dot = tmp_path / "aut.dot"
        code, payload = run_json(
            capsys,
            ["compile", fig_file, "--minimize", "--out", str(out), "--dot", str(dot)],
        )
        assert code == 0 and "automaton" not in payload
        doc = json.loads(out.read_text())
        assert len(doc["states"]) == 6
        assert "digraph" in dot.read_text()

    def test_config_rule_compiles(self, capsys, tmp_path):
        spec = ConfigRuleSpec(XY, 2, Comparator(2, builtin="numeric-value"))
        path = tmp_path / "cfg.json"
        path.write_text(rule_to_json(spec))
        code, payload = run_json(capsys, ["compile", str(path)])
        assert code == 0 and payload["uniform_bound"] == 2
        # this comparator always favors the earliest occurrence, so the
        # minimized machine commits on the first symbol
        code, payload = run_json(capsys, ["compile", str(path), "--minimize"])
        assert code == 0 and payload["uniform_bound"] == 1

    def test_long_chain_exits_0(self, capsys, tmp_path):
        spec = CsrSpec(XY, {"x": Fraction(1, 1500), "y": Fraction(1)}, Fraction(1))
        path = tmp_path / "chain1500.json"
        path.write_text(rule_to_json(spec))
        code, payload = run_json(capsys, ["compile", str(path)])
        assert code == 0
        assert payload["uniform_bound"] == 1500 and payload["state_count"] == 1502


class TestWindowCap:
    """Bound 40 over two symbols: 2^40 windows, far past the table cap."""

    @pytest.fixture
    def chain40_file(self, tmp_path):
        path = tmp_path / "chain40.json"
        path.write_text(json.dumps({
            "kind": "csr", "alphabet": ["a", "b"],
            "weights": {"a": "1/40", "b": "1"}, "threshold": "1",
        }))
        return str(path)

    def test_eval_walks_states(self, capsys, chain40_file):
        code, payload = run_json(capsys, ["eval", chain40_file, "a a|b"])
        assert code == 0
        assert payload == {
            "decision": "b", "stop_position": 3, "minimal_sufficient_prefix": "a a b",
        }

    def test_analyze_walks_states(self, capsys, chain40_file):
        code, payload = run_json(capsys, ["analyze", chain40_file, "--seq", "|a"])
        assert code == 0
        assert payload["uniform_bound"] == 40 and payload["stopping_time"] == 40
        assert len(payload["minimal_sufficient"]) == 41

    def test_axioms_exit_3_without_traceback(self, capsys, chain40_file):
        assert main(["axioms", chain40_file, "--suite", "csr"]) == 3
        err = capsys.readouterr().err
        assert "2^40" in err and str(1 << 20) in err
        assert "Traceback" not in err


class TestMinimizeAndDot:
    def test_minimize_automaton_file(self, capsys, tmp_path):
        path = tmp_path / "aut.json"
        path.write_text(automaton_to_json(build_twosym_threshold2()))
        code, payload = run_json(capsys, ["minimize", str(path)])
        assert code == 0 and payload["state_count"] == 6

    def test_dot_from_automaton(self, capsys, tmp_path):
        path = tmp_path / "aut.json"
        path.write_text(automaton_to_json(build_twosym_threshold2()))
        code = main(["dot", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("doublecircle") == 2

    def test_dot_from_rule(self, capsys, fig_file):
        code = main(["dot", fig_file])
        assert code == 0 and "digraph" in capsys.readouterr().out

    def test_minimize_rejects_rule_file(self, capsys, fig_file):
        assert main(["minimize", fig_file]) == 2


class TestAnalyze:
    def test_bound_and_minimal_segments(self, capsys, fig_file):
        code, payload = run_json(capsys, ["analyze", fig_file])
        assert code == 0
        assert payload["uniform_bound"] == 3
        segs = {(m["segment"], m["decision"]) for m in payload["minimal_sufficient"]}
        assert ("x x", "x") in segs and ("x y x", "x") in segs
        assert payload["decisive"] == []

    def test_with_sequence(self, capsys, csr3_file):
        code, payload = run_json(capsys, ["analyze", csr3_file, "--seq", "|a b c"])
        assert code == 0
        assert payload["stopping_time"] == 7 and payload["decision"] == "a"

    def test_decisive_listing(self, capsys, osr_file):
        code, payload = run_json(capsys, ["analyze", osr_file])
        assert code == 0
        assert payload["decisive"] == ["a"]
        assert payload["non_decisive"] == ["b", "c"]


class TestAxioms:
    def test_csr_suite_passes(self, capsys, csr3_file):
        code, payload = run_json(capsys, ["axioms", csr3_file, "--suite", "csr"])
        assert code == 0
        assert [r["axiom"] for r in payload] == ["monotonicity", "informational-dominance"]
        assert all(r["verdict"] == "pass" for r in payload)

    def test_osr_suite_passes(self, capsys, osr_file):
        code, payload = run_json(capsys, ["axioms", osr_file, "--suite", "osr"])
        assert code == 0 and len(payload) == 3

    def test_neutrality_failure_exits_1(self, capsys, tmp_path):
        spec = CsrSpec(XY, {"x": Fraction(3), "y": Fraction(1)}, Fraction(3))
        path = tmp_path / "uneq.json"
        path.write_text(rule_to_json(spec))
        code, payload = run_json(capsys, ["axioms", str(path), "--suite", "config"])
        assert code == 1
        by_axiom = {r["axiom"]: r for r in payload}
        assert by_axiom["neutrality"]["verdict"] == "fail"
        assert by_axiom["neutrality"]["witness"] is not None

    def test_report_written_even_on_failure(self, capsys, tmp_path):
        spec = CsrSpec(XY, {"x": Fraction(3), "y": Fraction(1)}, Fraction(3))
        path = tmp_path / "uneq.json"
        path.write_text(rule_to_json(spec))
        out = tmp_path / "report.json"
        code = main(["axioms", str(path), "--suite", "config", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())


class TestIdentify:
    def test_figure_rule_as_csr(self, capsys, fig_file):
        code, payload = run_json(capsys, ["identify", fig_file, "--as", "csr"])
        assert code == 0
        rule = payload["rule"]
        assert rule["threshold"] == "1"
        assert rule["weights"] == {"x": "1/2", "y": "1/2"}
        assert payload["checked"] > 0

    def test_osr_round_trip(self, capsys, osr_file):
        code, payload = run_json(capsys, ["identify", osr_file, "--as", "osr"])
        assert code == 0
        assert payload["rule"]["span"] == 2
        assert payload["rule"]["threshold_alt"] == "b"

    def test_mismatch_exits_1(self, capsys, osr_file):
        code, payload = run_json(capsys, ["identify", osr_file, "--as", "csr"])
        assert code == 1
        assert "disagreeing_sequence" in payload

    def test_one_agreement_pass(self, capsys, tmp_path, monkeypatch):
        # critical counts (2, 2, 2): bound 4, so 3^4 windows times 3 closures
        from seqdec import analysis
        from seqdec.heuristics import csr_compile

        spec = CsrSpec(ABC, {s: Fraction(1, 2) for s in ABC}, Fraction(1))
        path = tmp_path / "csr222_aut.json"
        path.write_text(automaton_to_json(csr_compile(spec)))
        calls = []
        evaluate = analysis.evaluate
        monkeypatch.setattr(analysis, "evaluate", lambda *a: calls.append(1) or evaluate(*a))
        code, payload = run_json(capsys, ["identify", str(path), "--as", "csr"])
        assert code == 0
        assert payload["checked"] == 243 and len(calls) == 243

    def test_written_rule_loads(self, capsys, fig_file, tmp_path):
        out = tmp_path / "recovered.json"
        code = main(["identify", fig_file, "--as", "csr", "--out", str(out)])
        assert code == 0
        from seqdec.heuristics import rule_from_json

        assert rule_from_json(out.read_text()).threshold == 1


class TestTmRun:
    def test_echo_machine(self, capsys, tmp_path):
        path = tmp_path / "echo.json"
        doc = tm_to_json_dict(echo_machine(XY))
        doc["input_alphabet"] = ["x", "y"]
        path.write_text(json.dumps(doc))
        code, payload = run_json(capsys, ["tm-run", str(path), "y|x", "--budget", "10"])
        assert code == 0
        assert payload["decision"] == "y" and payload["halted"]

    def test_budget_exhaustion_exits_3(self, capsys, tmp_path):
        path = tmp_path / "spin.json"
        path.write_text(tm_to_json(spinner_machine(XY)))
        code = main(["tm-run", str(path), "|x", "--budget", "25", "--alphabet", "x y"])
        assert code == 3

    def test_machine_backed_eval_requires_flags(self, capsys, tmp_path):
        path = tmp_path / "echo.json"
        path.write_text(tm_to_json(echo_machine(XY)))
        assert main(["eval", str(path), "|x"]) == 2

    def test_machine_backed_eval_and_axioms(self, capsys, tmp_path):
        path = tmp_path / "echo.json"
        doc = tm_to_json_dict(echo_machine(XY))
        doc["input_alphabet"] = ["x", "y"]
        path.write_text(json.dumps(doc))
        code, payload = run_json(
            capsys,
            ["eval", str(path), "y|x", "--horizon", "1", "--budget", "10"],
        )
        assert code == 0 and payload["decision"] == "y"
        code, payload = run_json(
            capsys,
            ["axioms", str(path), "--suite", "config", "--horizon", "1", "--budget", "10"],
        )
        assert code == 0

    def test_machine_compile_synthesizes_automaton(self, capsys, tmp_path):
        # budgeted black-box run tabulated into a segment-tree automaton
        path = tmp_path / "echo.json"
        doc = tm_to_json_dict(echo_machine(XY))
        doc["input_alphabet"] = ["x", "y"]
        path.write_text(json.dumps(doc))
        code, payload = run_json(
            capsys,
            ["compile", str(path), "--minimize", "--horizon", "2", "--budget", "20"],
        )
        assert code == 0
        assert payload["uniform_bound"] == 1
        assert payload["state_count"] == 3  # one reader plus two outputs

    def test_lying_horizon_exits_3(self, capsys, tmp_path):
        spec = CsrSpec(XY, {s: Fraction(1) for s in XY}, Fraction(2))
        aut_path = tmp_path / "fig_aut.json"
        from seqdec.heuristics import csr_compile
        from seqdec.machines import automaton_to_tm

        doc = tm_to_json_dict(automaton_to_tm(csr_compile(spec)))
        doc["input_alphabet"] = ["x", "y"]
        path = tmp_path / "fig_tm.json"
        path.write_text(json.dumps(doc))
        code = main(
            ["analyze", str(path), "--horizon", "2", "--budget", "50"]
        )
        assert code == 3


class TestDeterminism:
    def test_identical_outputs_across_runs(self, capsys, csr3_file):
        code1 = main(["axioms", csr3_file, "--suite", "csr"])
        out1 = capsys.readouterr().out
        code2 = main(["axioms", csr3_file, "--suite", "csr"])
        out2 = capsys.readouterr().out
        assert (code1, out1) == (code2, out2)
