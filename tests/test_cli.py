"""End-to-end tests of the command-line interface and its exit codes."""

import json
import time
from fractions import Fraction
from itertools import product

import pytest

from seqdec.cli import main
from seqdec.core import Alphabet, ResourceLimit
from seqdec.analysis import (
    SUITES, AxiomReport, RuleHandle, enumerate_minimal_sufficient, replay_witness,
    tabulate_automaton,
)
from seqdec.heuristics import (
    Comparator, ConfigRuleSpec, CsrSpec, OsrSpec, compile_rule, rule_from_dict, rule_to_dict,
    rule_to_json,
)
from seqdec.automaton import to_json as automaton_to_json
from seqdec.machines import (
    RULE_FIELDS, TwoTapeTm, automaton_to_tm, to_json as tm_to_json,
    to_json_dict as tm_to_json_dict,
)
from tests.conftest import build_twosym_threshold2
from tests.mutants import MUTANTS
from tests.test_acceptance import build_corpus
from tests.test_machines import (
    copier_machine, echo_machine, peek_back_machine, scanner_machine, spinner_machine,
    zigzag_machine,
)

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
        # this comparator always favors the earliest occurrence, so the first
        # symbol decides, though the unminimized machine absorbs only at 2
        code, payload = run_json(capsys, ["compile", str(path)])
        assert code == 0 and payload["uniform_bound"] == 1
        code, payload = run_json(capsys, ["compile", str(path), "--minimize"])
        assert code == 0 and payload["uniform_bound"] == 1

    def test_long_chain_exits_0(self, capsys, tmp_path):
        spec = CsrSpec(XY, {"x": Fraction(1, 1500), "y": Fraction(1)}, Fraction(1))
        path = tmp_path / "chain1500.json"
        path.write_text(rule_to_json(spec))
        code, payload = run_json(capsys, ["compile", str(path)])
        assert code == 0
        assert payload["uniform_bound"] == 1500 and payload["state_count"] == 1502

    def test_long_chain_minimizes_in_linear_time(self, capsys, tmp_path):
        # one refinement round per chain link took seconds here
        spec = CsrSpec(XY, {"x": Fraction(1, 1500), "y": Fraction(1)}, Fraction(1))
        path = tmp_path / "chain1500.json"
        path.write_text(rule_to_json(spec))
        start = time.perf_counter()
        code, payload = run_json(capsys, ["compile", str(path), "--minimize"])
        assert time.perf_counter() - start < 1.0
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
        # the csr suite searches state pairs; the config suite reads the table
        code, payload = run_json(capsys, ["axioms", chain40_file, "--suite", "csr"])
        assert code == 0 and [r["horizon"] for r in payload] == [40, 40]
        assert main(["axioms", chain40_file, "--suite", "config"]) == 3
        err = capsys.readouterr().err
        assert "2^40" in err and str(1 << 20) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["csr", "osr"])
    def test_identify_walks_states(self, capsys, chain40_file, target):
        begin = time.perf_counter()
        code, payload = run_json(capsys, ["identify", chain40_file, "--as", target])
        assert time.perf_counter() - begin < 1.0
        assert code == 0 and payload["checked"] > 0
        if target == "csr":
            assert payload["rule"]["weights"] == {"a": "1/40", "b": "1"}
        assert "Traceback" not in capsys.readouterr().err


OVERSIZED_RULES = {
    # critical counts (3000, 3000, 3000): 2.7e10 count-vector states
    "csr": {
        "kind": "csr", "alphabet": ["a", "b", "c"],
        "weights": {"a": "1/3000", "b": "1/3000", "c": "1/3000"}, "threshold": "1",
    },
    "osr": {
        "kind": "osr", "alphabet": ["a", "b"], "order": ["a", "b"],
        "threshold_alt": "a", "span": 10 ** 9,
    },
    "config": {
        "kind": "config", "alphabet": ["a", "b"], "window": 40,
        "comparator": {"builtin": "numeric-value"},
    },
}


@pytest.mark.parametrize("command", [["eval", "|a"], ["compile"]])
@pytest.mark.parametrize("kind", sorted(OVERSIZED_RULES))
def test_compile_past_the_state_cap_exits_3(capsys, tmp_path, kind, command):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(OVERSIZED_RULES[kind]))
    begin = time.perf_counter()
    assert main([command[0], str(path), *command[1:]]) == 3
    assert time.perf_counter() - begin < 1.0
    err = capsys.readouterr().err
    assert err.startswith("seqdec: ") and "states exceed the cap" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["eval", "|s0"], ["compile"]])
def test_config_rule_past_the_window_cap_exits_3(capsys, tmp_path, monkeypatch, command):
    # 2,001 states, 4,002,000 transitions, under their caps, and 2000^2 windows
    path = tmp_path / "config2000_2.json"
    path.write_text(json.dumps({
        "kind": "config", "alphabet": [f"s{i}" for i in range(2000)], "window": 2,
        "comparator": {"builtin": "numeric-value"},
    }))
    ranks, rank = [], Comparator.rank
    monkeypatch.setattr(Comparator, "rank", lambda *a: ranks.append(1) or rank(*a))
    begin = time.perf_counter()
    assert main([command[0], str(path), *command[1:]]) == 3
    assert time.perf_counter() - begin < 1.0
    assert capsys.readouterr() == ("", "seqdec: 2000^2 windows of length 2 exceed the cap of 1048576\n")
    assert ranks == []


UNLISTED_ROW = {
    "alphabet": ["x", "y"], "states": ["q", "t"], "initial": "q",
    "transitions": {"q": {"x": "t", "y": "t"}, "t": {"x": "t", "y": "t"}, "zz": {"x": 5}},
    "terminal": {"t": "x"},
}
MALFORMED_DOCUMENTS = {
    "csr-weights-list": {
        "kind": "csr", "alphabet": ["a", "b"], "weights": ["1"], "threshold": "1",
    },
    "terminal-list": {
        "alphabet": ["x", "y"], "states": ["q", "t"], "initial": "q",
        "transitions": {"q": {"x": "t", "y": "t"}, "t": {"x": "t", "y": "t"}},
        "terminal": ["t"],
    },
    "transition-row-list": {
        "alphabet": ["x", "y"], "states": ["q", "t"], "initial": "q",
        "transitions": {"q": ["t", "t"], "t": {"x": "t", "y": "t"}},
        "terminal": {"t": "x"},
    },
    # the constructor would coerce each of these into another, well-formed automaton
    "terminal-pair-list": {
        "alphabet": ["x", "y"], "states": ["q", "t"], "initial": "q",
        "transitions": {"q": {"x": "t", "y": "t"}, "t": {"x": "t", "y": "t"}},
        "terminal": ["tx"],
    },
    "alphabet-string": {
        "alphabet": "xy", "states": ["q", "t"], "initial": "q",
        "transitions": {"q": {"x": "t", "y": "t"}, "t": {"x": "t", "y": "t"}},
        "terminal": {"t": "x"},
    },
    "states-string": {
        "alphabet": ["x", "y"], "states": "qt", "initial": "q",
        "transitions": {"q": {"x": "t", "y": "t"}, "t": {"x": "t", "y": "t"}},
        "terminal": {"t": "x"},
    },
    # read character by character, these would describe another machine
    "machine-fields-strings": {
        **tm_to_json_dict(TwoTapeTm(
            ["q", "h"], "q", ["h"], ["◁", "_", "x", "y"], [("q", "*", "*", "h", "x", "S", "S")]
        )),
        "states": "qh", "terminal": "h", "tape_alphabet": "◁_xy",
    },
    "machine-input-alphabet-number": {
        **tm_to_json_dict(echo_machine(XY)), "input_alphabet": 5,
    },
    "machine-input-alphabet-string": {
        **tm_to_json_dict(echo_machine(XY)), "input_alphabet": "xy",
    },
    "machine-transitions-object": {
        **tm_to_json_dict(echo_machine(XY)), "transitions": {},
    },
    # rules the bucket search never looked up, and a tape symbol listed twice
    "machine-rule-unknown-state": {
        **tm_to_json_dict(echo_machine(XY)),
        "transitions": tm_to_json_dict(echo_machine(XY))["transitions"] + [
            {"state": "nosuch", "read": "*", "peek": "*", "next": "halt", "write": "*",
             "move_in": "S", "move_out": "S"},
        ],
    },
    "machine-rule-unknown-symbol": {
        **tm_to_json_dict(echo_machine(XY)),
        "transitions": tm_to_json_dict(echo_machine(XY))["transitions"] + [
            {"state": "q0", "read": "z", "peek": "*", "next": "halt", "write": "*",
             "move_in": "S", "move_out": "S"},
        ],
    },
    "machine-tape-symbol-repeated": {
        **tm_to_json_dict(echo_machine(XY)), "tape_alphabet": ["x", "y", "◁", "_", "x"],
        "input_alphabet": ["x", "y"],
    },
    # a default whose every cell a read rule overrides, refused all the same
    "machine-rule-overridden-everywhere": {
        "kind": "tm", "states": ["q0", "halt"], "initial": "q0", "terminal": ["halt"],
        "tape_alphabet": ["x", "◁", "_"],
        "transitions": [
            dict(zip(RULE_FIELDS, rule))
            for rule in [("q0", "*", "*", "nosuch", "zz", "X", "Y")]
            + [("q0", a, "*", "halt", "*", "S", "S") for a in ("x", "◁", "_")]
        ],
    },
    # a row for a name outside "states", rejected, not carried along unread
    "automaton-unlisted-row": UNLISTED_ROW,
    # one entry where 2^40 are due, rejected before any bit-word is listed
    "comparator-table-short": {
        "kind": "config", "alphabet": ["a", "b"], "window": 40,
        "comparator": {"table": {"0": 1}},
    },
}


@pytest.mark.parametrize("argv", [["minimize", "--format", "text"], ["eval", "|x"]])
def test_rows_for_unlisted_states_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(UNLISTED_ROW))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "seqdec: transitions row 'zz' not in state set\n"


def test_tm_run_refuses_a_rule_before_compiling_it(capsys, tmp_path):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(OVERSIZED_RULES["csr"]))
    assert main(["tm-run", str(path), "|a", "--budget", "5"]) == 2
    assert capsys.readouterr().err == "seqdec: tm-run expects a machine document\n"


@pytest.mark.parametrize("kind", ["rule", "automaton"])
@pytest.mark.parametrize("flags, named", [
    (["--horizon", "1", "--budget", "0", "--alphabet", "zz"], "--horizon, --budget, --alphabet"),
    (["--budget", "5"], "--budget"),
    (["--horizon", "9"], "--horizon"),
])
@pytest.mark.parametrize("command", [["eval", "|x"], ["compile"], ["analyze"], ["axioms"]])
def test_machine_flags_on_other_documents_exit_2(capsys, tmp_path, fig_file, kind, flags, named,
                                                command):
    # the asserted horizon would otherwise go unchecked, and eval would exit 0
    path = fig_file
    if kind == "automaton":
        path = tmp_path / "aut.json"
        path.write_text(automaton_to_json(build_twosym_threshold2()))
    assert main([command[0], str(path), *command[1:], *flags]) == 2
    assert capsys.readouterr() == ("", f"seqdec: only machine documents take {named}\n")


@pytest.mark.parametrize("name", ["machine-input-alphabet-number", "machine-input-alphabet-string"])
def test_malformed_input_alphabet_exits_2_under_a_given_alphabet(capsys, tmp_path, name):
    path = tmp_path / "tm.json"
    path.write_text(json.dumps(MALFORMED_DOCUMENTS[name]))
    for command in (["eval", "|x"], ["analyze"], ["tm-run", "|x"]):
        assert main([*command[:1], str(path), *command[1:], "--budget", "5", "--alphabet", "x y"]) == 2
        assert capsys.readouterr().err == "seqdec: input_alphabet must be a list of strings\n"


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
def test_malformed_document_exit_2_without_traceback(capsys, tmp_path, name):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(MALFORMED_DOCUMENTS[name]))
    begin = time.perf_counter()
    assert main(["analyze", str(path)]) == 2
    assert time.perf_counter() - begin < 1.0
    err = capsys.readouterr().err
    assert err.startswith("seqdec: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [["analyze"], ["eval", "|c"], ["compile"]])
def test_symbol_names_no_literal_can_spell_exit_2(capsys, tmp_path, command):
    # the witness of this loop, '|a b', could not be read back
    path = tmp_path / "aut.json"
    path.write_text(json.dumps({
        "alphabet": ["a b", "c"], "states": ["q", "t"], "initial": "q",
        "transitions": {"q": {"a b": "q", "c": "t"}, "t": {"a b": "t", "c": "t"}},
        "terminal": {"t": "c"},
    }))
    assert main([command[0], str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "seqdec: symbol name 'a b' is empty or contains whitespace or '|'\n"


@pytest.mark.parametrize(
    "command",
    [["tm-run", "|x", "--budget", "5"], ["eval", "|x", "--horizon", "1", "--budget", "5"]],
)
@pytest.mark.parametrize("name", sorted(n for n in MALFORMED_DOCUMENTS if n.startswith("machine")))
def test_malformed_machine_exits_2_without_traceback(capsys, tmp_path, name, command):
    path = tmp_path / "tm.json"
    path.write_text(json.dumps(MALFORMED_DOCUMENTS[name]))
    begin = time.perf_counter()
    assert main([command[0], str(path), *command[1:]]) == 2
    assert time.perf_counter() - begin < 1.0
    err = capsys.readouterr().err
    assert err.startswith("seqdec: ") and "Traceback" not in err


CSR3_8 = {
    "kind": "csr", "alphabet": ["a", "b", "c"],
    "weights": {"a": "1/8", "b": "1/8", "c": "1/8"}, "threshold": "1",
}


@pytest.mark.parametrize("command", [["analyze"]])
def test_minimal_segments_past_the_cap_exit_3(capsys, tmp_path, command):
    # csr3/8: 515 states, bound 22, 2,602,452,993 minimal sufficient segments
    path = tmp_path / "csr3_8.json"
    path.write_text(json.dumps(CSR3_8))
    begin = time.perf_counter()
    assert main([command[0], str(path), *command[1:]]) == 3
    assert time.perf_counter() - begin < 1.0
    # counted before any segment is listed: nothing reaches stdout
    assert capsys.readouterr() == (
        "", "seqdec: 2602452993 minimal sufficient segments exceed the cap of 1048576\n"
    )


def test_osr_suite_past_the_segment_cap_exits_1(capsys, tmp_path):
    # the OSR axioms read symbol sets and decisions, never the segment list
    path = tmp_path / "csr3_8.json"
    path.write_text(json.dumps(CSR3_8))
    begin = time.perf_counter()
    code, payload = run_json(capsys, ["axioms", str(path), "--suite", "osr"])
    assert time.perf_counter() - begin < 1.0
    assert code == 1 and [r["horizon"] for r in payload] == [22, 22, 22]
    rule = RuleHandle.from_rule(rule_from_dict(CSR3_8))
    failed = [r for r in payload if r["verdict"] == "fail"]
    assert failed
    for r in failed:
        report = AxiomReport(r["axiom"], False, r["witness"], r["checked"], r["horizon"])
        assert replay_witness(rule, report), r



def wide_osr_file(tmp_path, size: int) -> str:
    # span 6, ranked in alphabet order, the first symbol the default: every
    # symbol is non-decisive, so the symbol sets read grow like size^5
    alphabet = Alphabet(tuple(f"s{i:02d}" for i in range(size)))
    path = tmp_path / f"osr{size}_6.json"
    path.write_text(rule_to_json(OsrSpec(alphabet, alphabet.symbols, "s00", 6)))
    return str(path)


@pytest.mark.parametrize(
    "size, command, code, what",
    [
        (24, ["axioms", "--suite", "osr"], 3, "43694 (state, symbol set) nodes times 24 symbols"),
        (24, ["identify", "--as", "osr"], 3, "43694 (state, symbol set) nodes times 24 symbols"),
        (16, ["axioms", "--suite", "osr"], 3, "9948^2 pairs of (symbol set, decision) classes"),
        (16, ["identify", "--as", "osr"], 0, ""),
    ],
)
def test_wide_osr_past_the_class_caps_exits_3(capsys, tmp_path, size, command, code, what):
    path = wide_osr_file(tmp_path, size)
    begin = time.perf_counter()
    assert main([command[0], path, *command[1:]]) == code
    assert time.perf_counter() - begin < 1.0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 3:
        assert err == f"seqdec: {what} exceed the cap of {1 << 20}\n"

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

    def test_minimize_text_summary(self, capsys, tmp_path):
        path = tmp_path / "aut.json"
        path.write_text(automaton_to_json(build_twosym_threshold2()))
        out = tmp_path / "small.json"
        code = main(["minimize", str(path), "--format", "text", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "6 states, bound 3\n"
        assert len(json.loads(out.read_text())["states"]) == 6

    @pytest.mark.parametrize("command", ["analyze", "axioms", "identify", "dot"])
    def test_format_is_refused_where_it_does_nothing(self, capsys, fig_file, command):
        extra = ["--as", "csr"] if command == "identify" else []
        with pytest.raises(SystemExit) as exc:
            main([command, fig_file, *extra, "--format", "text"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format text" in capsys.readouterr().err

    def test_minimize_prints_as_compile_minimize(self, capsys, fig_file, tmp_path):
        aut_path, tm_path = tmp_path / "aut.json", tmp_path / "tm.json"
        aut_path.write_text(automaton_to_json(build_twosym_threshold2()))
        doc = tm_to_json_dict(echo_machine(XY))
        doc["input_alphabet"] = ["x", "y"]
        tm_path.write_text(json.dumps(doc))
        for path, flags in ((fig_file, []), (aut_path, []), (tm_path, ["--budget", "10"])):
            for extra in ([], ["--format", "text"]):
                assert main(["minimize", str(path), *flags, *extra]) == 0
                want = capsys.readouterr()
                assert main(["compile", str(path), "--minimize", *flags, *extra]) == 0
                assert capsys.readouterr() == want and want.out


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

    def test_segments_render_as_segment_text(self, capsys, tmp_path):
        # (document, the handle it loads as, extra flags): the corpus, the
        # mutants' tabulated automata and one machine document
        cases = [(rule_to_json(spec), RuleHandle.from_rule(spec), []) for spec in build_corpus()]
        for make in MUTANTS.values():
            rule = make()
            cases.append((automaton_to_json(tabulate_automaton(rule)), rule, []))
        tm = automaton_to_tm(compile_rule(CsrSpec(ABC, {s: Fraction(1) for s in ABC}, Fraction(2))))
        flags = ["--horizon", "4", "--budget", "100", "--alphabet", "a b c"]
        cases.append((tm_to_json(tm), RuleHandle.from_machine(tm, ABC, 100, 4), flags))
        path = tmp_path / "doc.json"
        for text, rule, flags in cases:
            path.write_text(text)
            code, payload = run_json(capsys, ["analyze", str(path), *flags])
            assert code == 0
            got = [(m["segment"], m["decision"]) for m in payload["minimal_sufficient"]]
            assert got == [(seg.text(), d) for seg, d in enumerate_minimal_sufficient(rule)]


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
        # one search over state pairs that never probes the rule again: no
        # handle is asked to decide a sequence, and the machine runs only
        # while it is tabulated, by one walk that runs each distinct
        # configuration once
        import itertools

        from seqdec import analysis, machines
        from seqdec.heuristics import csr_compile
        from seqdec.machines import automaton_to_tm, tm_run

        # critical counts (2, 2, 2): bound 4, so 3^4 windows times 3 closures
        spec = CsrSpec(ABC, {s: Fraction(1, 2) for s in ABC}, Fraction(1))
        aut = csr_compile(spec)
        aut_path = tmp_path / "csr222_aut.json"
        aut_path.write_text(automaton_to_json(aut))
        tm = automaton_to_tm(aut)
        doc = tm_to_json_dict(tm)
        doc["input_alphabet"] = ["a", "b", "c"]
        tm_path = tmp_path / "csr222_tm.json"
        tm_path.write_text(json.dumps(doc))
        decisions, transitions = [], []
        decide, run = RuleHandle.decide, machines.TmRuns.run

        def counted(self, config, input_at):
            new, decision = run(self, config, input_at)
            transitions.append(new[-1] - (config[-1] if config else 0))
            return new, decision

        monkeypatch.setattr(RuleHandle, "decide", lambda *a: decisions.append(1) or decide(*a))
        monkeypatch.setattr(machines.TmRuns, "run", counted)
        code, payload = run_json(capsys, ["identify", str(aut_path), "--as", "csr"])
        assert code == 0 and payload["checked"] > 0 and len(decisions) == 0
        code, payload = run_json(
            capsys,
            ["identify", str(tm_path), "--as", "csr", "--horizon", "4", "--budget", "100"],
        )
        walked = sum(transitions)
        assert code == 0 and payload["checked"] > 0 and walked == 37 and len(decisions) == 0
        transitions.clear()
        RuleHandle.from_machine(tm, ABC, 100).runs.tabulate()
        assert sum(transitions) == walked
        assert RuleHandle.from_automaton(aut).decide(ABC.sequence("|a")) == "a"
        assert len(decisions) == 1  # the count sees a decision when one is asked for
        # the 243 runs from the start marker that the walks replaced, and
        # the 82 transitions of a walk that shares only common prefixes
        per_closure = sum(
            tm_run(tm, analysis._closure(ABC, word, c), 100).steps
            for word in itertools.product(range(3), repeat=4)
            for c in range(3)
        )
        assert walked < 82 < per_closure == 1188

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

    def test_out_writes_the_payload(self, capsys, tmp_path):
        path = tmp_path / "echo.json"
        path.write_text(tm_to_json(echo_machine(XY)))
        out = tmp_path / "run.json"
        argv = ["tm-run", str(path), "y|x", "--budget", "10", "--alphabet", "x y"]
        assert main([*argv, "--out", str(out)]) == 0 and capsys.readouterr().out == ""
        assert json.loads(out.read_text()) == {"decision": "y", "halted": True, "steps": 3}

    @pytest.mark.parametrize(
        "machine, horizon, budget, code",
        [
            pytest.param(echo_machine, "-1", "50", 2, id="-1-2"),
            # the walk goes until every run halts, so the echo machine
            # answers at any horizon, one-way or two-way
            pytest.param(echo_machine, "1000000000", "50", 0, id="1000000000-0"),
            pytest.param(echo_machine, "10000000000", "50", 0, id="10000000000-0"),
            pytest.param(peek_back_machine, "1000000000", "50", 0, id="peek-back-1000000000-0"),
            pytest.param(peek_back_machine, "10000000000", "50", 0, id="peek-back-10000000000-0"),
            # a two-way machine that reads right forever: one state per word,
            # until the state cap (about 2 s on a 2-core x86-64 box), or with
            # a growing output tape, until the cap on the cells it holds
            pytest.param(zigzag_machine, "1000000000", "10000000000", 3, id="two-way-1000000000-3"),
            pytest.param(
                lambda xy: zigzag_machine(xy, move_out="R"), "10000000000", "10000000000", 3,
                id="two-way-10000000000-3",
            ),
            # ever longer output tapes, until the cap on the cells they hold
            pytest.param(copier_machine, "10000000000", "10000000000", 3, id="copier-10000000000-3"),
        ],
    )
    def test_hostile_horizon_exits_at_once(
        self, capsys, tmp_path, monkeypatch, machine, horizon, budget, code
    ):
        from seqdec import machines

        path = tmp_path / "machine.json"
        path.write_text(tm_to_json(machine(XY)))
        argv = ["analyze", str(path), "--horizon", horizon, "--budget", budget, "--alphabet", "x y"]
        runs, run = [], machines.TmRuns.run
        monkeypatch.setattr(machines.TmRuns, "run", lambda *a: runs.append(1) or run(*a))
        begin = time.perf_counter()
        assert main(argv) == code
        # the walk to the state cap takes the 10 s of the scanner test below
        assert time.perf_counter() - begin < (10.0 if machine is zigzag_machine else 1.0)
        err = capsys.readouterr().err
        assert "Traceback" not in err and (err.startswith("seqdec: ") if code else err == "")
        if code == 3:
            assert "exceed the cap" in err and runs
        if machine is zigzag_machine:
            assert err == "seqdec: 262145 states exceed the cap of 262144\n"

    def test_never_halting_scanner_stops_at_the_state_cap(self, capsys, tmp_path):
        # one configuration per cell read, so 2^18 resumes, one step each, reach
        # the state cap; about 2 s on a 2-core x86-64 box, where the 1 s bound
        # above cannot hold, and far from the hours a walk quadratic in depth takes
        path = tmp_path / "scanner.json"
        path.write_text(tm_to_json(scanner_machine(XY)))
        limits = ["--horizon", "10000000000", "--budget", "10000000000", "--alphabet", "x y"]
        begin = time.perf_counter()
        assert main(["analyze", str(path), *limits]) == 3
        assert time.perf_counter() - begin < 10.0
        assert capsys.readouterr().err == "seqdec: 262145 states exceed the cap of 262144\n"

    def test_copier_stops_at_the_output_cell_cap(self, capsys, tmp_path):
        # the walk goes down x x x ...; the configuration after k symbols holds
        # k cells, so the 1,448th passes the cap long before the state cap
        tm, cells = copier_machine(XY), 1448 * 1449 // 2
        message = f"{cells} output cells of machine configurations exceed the cap of {1 << 20}"
        with pytest.raises(ResourceLimit, match=message):
            RuleHandle.from_machine(tm, XY, 10**10).runs.tabulate()
        path = tmp_path / "copier.json"
        path.write_text(tm_to_json(tm))
        begin = time.perf_counter()
        assert main(["analyze", str(path), "--budget", "10000000000", "--alphabet", "x y"]) == 3
        assert time.perf_counter() - begin < 1.0
        assert capsys.readouterr() == ("", f"seqdec: {message}\n")

    def test_machine_flags_given_as_zero(self, capsys, tmp_path):
        path = tmp_path / "echo.json"
        path.write_text(tm_to_json(echo_machine(XY)))
        for flags, message in (
            (["--horizon", "0", "--budget", "10"], "horizon must be >= 1, got 0"),
            (["--horizon", "1", "--budget", "0"], "budget must be >= 1, got 0"),
        ):
            assert main(["analyze", str(path), *flags, "--alphabet", "x y"]) == 2
            assert capsys.readouterr().err == f"seqdec: {message}\n"

    def test_budget_exhaustion_exits_3(self, capsys, tmp_path):
        path = tmp_path / "spin.json"
        path.write_text(tm_to_json(spinner_machine(XY)))
        code = main(["tm-run", str(path), "|x", "--budget", "25", "--alphabet", "x y"])
        assert code == 3

    def test_machine_backed_eval_requires_flags(self, capsys, tmp_path):
        path = tmp_path / "echo.json"
        path.write_text(tm_to_json(echo_machine(XY)))
        assert main(["eval", str(path), "|x"]) == 2
        assert capsys.readouterr().err == "seqdec: machine-backed rules need --budget\n"
        # the budget bounds the walk, so no horizon is needed
        assert main(["eval", str(path), "|x", "--budget", "10", "--alphabet", "x y"]) == 0

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
        # a budgeted machine tabulated into the automaton of its configurations
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


def test_machines_answer_alike_with_and_without_a_horizon(capsys, tmp_path):
    # every corpus rule and mutant embedded as a machine with budget 2K + 4:
    # a horizon of K changes no byte of stdout, and one of K - 1 names the
    # first window of that length that leaves the decision open
    cases = [(compile_rule(spec), rule_to_dict(spec)["kind"]) for spec in build_corpus()]
    for axiom, make in MUTANTS.items():
        suite = next(name for name, axioms in SUITES.items() if axiom in axioms)
        cases.append((tabulate_automaton(make()), suite))
    path = tmp_path / "machine.json"
    violations = 0
    for aut, suite in cases:
        names = aut.alphabet.symbols
        doc = tm_to_json_dict(automaton_to_tm(aut))
        doc["input_alphabet"] = list(names)
        path.write_text(json.dumps(doc))
        facts = RuleHandle.from_automaton(aut).facts
        bound = facts.bound
        budget = ["--budget", str(2 * bound + 4)]
        for command in (
            ["eval", f"{names[-1]}|{names[0]}"],
            ["analyze"],
            ["axioms", "--suite", suite],
            ["identify", "--as", "osr" if suite == "osr" else "csr"],
        ):
            argv = [command[0], str(path), *command[1:], *budget]
            code, without = main(argv), capsys.readouterr()
            assert (main([*argv, "--horizon", str(bound)]), capsys.readouterr()) == (code, without)
            assert code in (0, 1) and without.err == ""
        if bound >= 2:
            words = product(range(len(names)), repeat=bound - 1)
            text = " ".join(names[i] for i in next(w for w in words if facts.decided(w) is None))
            assert main(["analyze", str(path), *budget, "--horizon", str(bound - 1)]) == 3
            assert capsys.readouterr().err == (
                f"seqdec: the decision after window {text!r} is still open; "
                f"the rule reads past the declared horizon {bound - 1}\n"
            )
            violations += 1
    assert violations > 40


class TestDeterminism:
    def test_identical_outputs_across_runs(self, capsys, csr3_file):
        code1 = main(["axioms", csr3_file, "--suite", "csr"])
        out1 = capsys.readouterr().out
        code2 = main(["axioms", csr3_file, "--suite", "csr"])
        out2 = capsys.readouterr().out
        assert (code1, out1) == (code2, out2)
