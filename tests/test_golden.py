"""Recorded command-line outputs, replayed byte for byte.

Every subcommand runs on a small fixed corpus in ``tests/golden/docs``: a
CSR, an OSR and a config rule, each rule's compiled automaton and its
embedded machine, and an automaton with a reachable undecided loop.  A
second set of documents is at the scale the benchmark compiles: the CSR
over three symbols with weights 1/8, the chain ``{a: 1/300, b: 1}``, the
16-symbol span-6 OSR ranked in reverse, a window-6 table rule over three
symbols, the machine of the CSR with weights 1/4, and a 40-state tail into
a two-state undecided loop.  Each recording in ``tests/golden`` holds one
command line, its exit code and its stdout and stderr, split into lines so
that a change to the contract shows as a line in the diff; a stdout over
64 KB is kept as its SHA-256, its byte count and its first 20 lines.
Paths are relative to ``tests/golden``.

Record the corpus and its outputs again, from the repository root::

    PYTHONPATH=src python -m tests.test_golden

With ``--check`` it writes nothing: it lists the documents and recordings
that differ from a fresh run, or are missing or stale, and exits 1 if any
does.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from seqdec.automaton import DecisionAutomaton, to_json as automaton_to_json
from seqdec.cli import main
from seqdec.core import Alphabet
from seqdec.heuristics import (
    Comparator, ConfigRuleSpec, CsrSpec, OsrSpec, compile_rule, rule_to_json,
)
from seqdec.machines import automaton_to_tm, to_json_dict as tm_to_json_dict
from tests.test_automaton import tail_into_loop

GOLDEN = Path(__file__).parent / "golden"
AB, ABC, XY = Alphabet(("a", "b")), Alphabet(("a", "b", "c")), Alphabet(("x", "y"))
RULES = {
    "csr": CsrSpec(AB, {"a": Fraction(1), "b": Fraction(1, 2)}, Fraction(2)),
    "osr": OsrSpec(ABC, ("c", "a", "b"), "a", 2),
    "config": ConfigRuleSpec(AB, 2, Comparator(2, builtin="first-position-priority")),
}
# two literals per document: the first also runs with --format text and --seq
LITERALS = {"csr": ("|a b", "b|a"), "osr": ("|b c a", "c b|a"), "config": ("a|b", "|b a")}
MACHINE_FLAGS = ["--budget", "40"]
LARGE_STDOUT = 64 * 1024
SIXTEEN = Alphabet(tuple("abcdefghijklmnop"))
WORDS6 = ["".join(bits) for bits in itertools.product("01", repeat=6)]
# at the benchmark's scale, each with one literal and its extra command lines
SCALE = {
    "csr3-8": (CsrSpec(ABC, dict.fromkeys(ABC, Fraction(1, 8)), Fraction(1)), "|a b c",
               {"axioms-csr": ["axioms", "--suite", "csr"]}),
    "chain300": (CsrSpec(AB, {"a": Fraction(1, 300), "b": Fraction(1)}, Fraction(1)), "|a",
                 {"axioms-csr": ["axioms", "--suite", "csr"]}),
    "osr16-6": (OsrSpec(SIXTEEN, SIXTEEN.symbols[::-1], "j", 6), "|p o n",
                {"axioms-osr": ["axioms", "--suite", "osr"]}),
    # a table ranking each word by 37 times its value, modulo 64
    "config6": (ConfigRuleSpec(ABC, 6, Comparator(
        6, table={w: 37 * int(w, 2) % 64 for w in WORDS6})), "a b|c", {}),
}
CSR3_4 = CsrSpec(ABC, dict.fromkeys(ABC, Fraction(1, 4)), Fraction(1))


def looping_automaton() -> DecisionAutomaton:
    """``x`` decides x; ``y`` moves to a state where ``x`` decides y and ``y``
    moves back, so ``|y`` never decides."""
    transitions = {
        "q0": {"x": "tx", "y": "q1"},
        "q1": {"x": "ty", "y": "q0"},
        "tx": {"x": "tx", "y": "tx"},
        "ty": {"x": "ty", "y": "ty"},
    }
    return DecisionAutomaton(XY, list(transitions), "q0", transitions, {"tx": "x", "ty": "y"})


def corpus() -> dict[str, str]:
    """Document text by file name."""
    docs = {}
    for name, spec in RULES.items():
        aut = compile_rule(spec)
        machine = tm_to_json_dict(automaton_to_tm(aut))
        machine["input_alphabet"] = list(spec.alphabet.symbols)
        docs[f"{name}.json"] = rule_to_json(spec)
        docs[f"{name}.aut.json"] = automaton_to_json(aut)
        docs[f"{name}.tm.json"] = json.dumps(machine, indent=2, sort_keys=True)
    docs["loop.aut.json"] = automaton_to_json(looping_automaton())
    for name, (spec, _, _) in SCALE.items():
        docs[f"{name}.json"] = rule_to_json(spec)
    machine = tm_to_json_dict(automaton_to_tm(compile_rule(CSR3_4)))
    machine["input_alphabet"] = list(ABC.symbols)
    docs["csr3-4.tm.json"] = json.dumps(machine, indent=2, sort_keys=True)
    docs["tail40.aut.json"] = automaton_to_json(tail_into_loop(40, 2))
    return docs


def scale_command_lines() -> dict[str, list[str]]:
    """Every subcommand once on each document at the benchmark's scale."""
    documents = [(name, literal, extra) for name, (_, literal, extra) in SCALE.items()]
    documents += [("csr3-4.tm", "|a b c", {}), ("tail40.aut", "|a", {})]
    lines = {}
    for doc, literal, extra in documents:
        path = f"docs/{doc}.json"
        flags = MACHINE_FLAGS if doc.endswith(".tm") else []
        commands = {
            "eval": ["eval", path, literal],
            "eval-text": ["eval", path, literal, "--format", "text"],
            "compile": ["compile", path],
            "compile-minimize": ["compile", path, "--minimize"],
            "minimize-text": ["minimize", path, "--format", "text"],
            "dot": ["dot", path],
            "analyze": ["analyze", path],
            "analyze-seq": ["analyze", path, "--seq", literal],
            "axioms": ["axioms", path],
            "identify-csr": ["identify", path, "--as", "csr"],
            "identify-osr": ["identify", path, "--as", "osr"],
        }
        for case, (command, *rest) in extra.items():
            commands[case] = [command, path, *rest]
        for case, argv in commands.items():
            lines[f"{doc}.{case}"] = argv + flags
        lines[f"{doc}.tm-run"] = ["tm-run", path, literal, *MACHINE_FLAGS]
    return lines


def command_lines() -> dict[str, list[str]]:
    """Every recorded command line by recording name."""
    documents = [
        (f"{name}{kind}", LITERALS[name]) for name in RULES for kind in ("", ".aut", ".tm")
    ]
    documents.append(("loop.aut", ("|x", "|y")))
    lines = {}
    for doc, (first, second) in documents:
        path = f"docs/{doc}.json"
        flags = MACHINE_FLAGS if doc.endswith(".tm") else []
        commands = {
            "eval": ["eval", path, first],
            "eval-text": ["eval", path, first, "--format", "text"],
            "eval-second": ["eval", path, second],
            "compile": ["compile", path],
            "compile-minimize": ["compile", path, "--minimize"],
            "compile-minimize-text": ["compile", path, "--minimize", "--format", "text"],
            "minimize": ["minimize", path],
            "minimize-text": ["minimize", path, "--format", "text"],
            "dot": ["dot", path],
            "analyze": ["analyze", path],
            "analyze-seq": ["analyze", path, "--seq", first],
            "axioms": ["axioms", path],
            "identify-csr": ["identify", path, "--as", "csr"],
            "identify-osr": ["identify", path, "--as", "osr"],
        }
        for case, argv in commands.items():
            lines[f"{doc}.{case}"] = argv + flags
        lines[f"{doc}.tm-run"] = ["tm-run", path, first, *MACHINE_FLAGS]
    # a budget too small for the embedded machine's longest run
    lines["csr.tm.eval-small-budget"] = ["eval", "docs/csr.tm.json", "|a b", "--budget", "3"]
    lines["csr.tm.eval-no-budget"] = ["eval", "docs/csr.tm.json", "|a b"]
    lines["csr.tm.eval-alphabet"] = ["eval", "docs/csr.tm.json", "|a b", "--alphabet", "a b"]
    lines["csr.tm.eval-alphabet"] += MACHINE_FLAGS
    return {**lines, **scale_command_lines()}


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing an option
            code = exc.code
    stdout = out.getvalue()
    if len(data := stdout.encode()) > LARGE_STDOUT:
        stdout = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "head": stdout.split("\n")[:20],
        }
    else:
        stdout = stdout.split("\n")
    return {"argv": argv, "exit": code, "stdout": stdout, "stderr": err.getvalue().split("\n")}


def recording_text(record: dict) -> str:
    return json.dumps(record, indent=2, ensure_ascii=False) + "\n"


@pytest.fixture
def in_golden(monkeypatch):
    monkeypatch.chdir(GOLDEN)


def test_corpus_is_recorded():
    docs = corpus()
    assert {p.name for p in (GOLDEN / "docs").iterdir()} == set(docs)
    for name, text in docs.items():
        assert (GOLDEN / "docs" / name).read_text(encoding="utf-8") == text, name
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(command_lines())


@pytest.mark.parametrize("name", sorted(command_lines()))
def test_recorded_output(in_golden, name):
    want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert recording_text(run_cli(command_lines()[name])) == want


def test_check_lists_what_drifted_and_writes_nothing(tmp_path, monkeypatch):
    lines = {name: argv for name, argv in command_lines().items() if name.startswith("csr.eval")}
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN / "docs", golden / "docs")
    for name in lines:
        shutil.copy(GOLDEN / f"{name}.json", golden)
    monkeypatch.setitem(globals(), "GOLDEN", golden)
    monkeypatch.setitem(globals(), "command_lines", lambda: lines)
    monkeypatch.chdir(tmp_path)
    assert len(lines) == 3 and drifted() == []
    (golden / "csr.eval.json").write_text("{}\n")
    (golden / "csr.eval-text.json").unlink()
    (golden / "stale.json").write_text("{}\n")
    assert drifted() == ["csr.eval-text.json", "csr.eval.json", "stale.json"]
    assert (golden / "csr.eval.json").read_text() == "{}\n"
    assert not (golden / "csr.eval-text.json").exists()


def record() -> None:
    """Write the corpus and every recording afresh."""
    docs_dir = GOLDEN / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)
    for stale in [*GOLDEN.glob("*.json"), *docs_dir.glob("*.json")]:
        stale.unlink()
    for name, text in corpus().items():
        (docs_dir / name).write_text(text, encoding="utf-8")
    os.chdir(GOLDEN)
    for name, argv in command_lines().items():
        Path(f"{name}.json").write_text(recording_text(run_cli(argv)), encoding="utf-8")


def drifted() -> list[str]:
    """Every document and recording, by its path in ``tests/golden``, that a
    fresh run would write otherwise, add or remove."""
    os.chdir(GOLDEN)
    fresh = {f"docs/{name}": text for name, text in corpus().items()}
    for name, argv in command_lines().items():
        fresh[f"{name}.json"] = recording_text(run_cli(argv))
    held = {p.relative_to(GOLDEN).as_posix() for p in [*GOLDEN.glob("*.json"), *GOLDEN.glob("docs/*.json")]}
    changed = {path for path in held & fresh.keys() if Path(path).read_text(encoding="utf-8") != fresh[path]}
    return sorted(changed | (held ^ fresh.keys()))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record the golden corpus and outputs.")
    parser.add_argument("--check", action="store_true", help="list drifted recordings, write nothing")
    if parser.parse_args().check:
        changed = drifted()
        print("\n".join(changed) if changed else "no recording drifted")
        sys.exit(1 if changed else 0)
    record()
