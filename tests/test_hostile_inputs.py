"""Hostile documents under a memory cap: the exit-code contract holds.

One child interpreter caps its own address space at 512 MiB and its own
CPU time, then runs ``seqdec.cli.main`` in-process on each document with
each command and prints one JSON line per command.  Every command must
exit with the code recorded below, print exactly one stderr line when it
exits 2 or 3, and print no traceback.  The rule documents are ones that
once took a traceback, an unbounded build or most of a gigabyte.  The
machine documents run every command, and ``tm-run``, within a budget deep
enough that the walk of their run tree stops at a cap or at the budget a
thousand symbols down or more.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from seqdec.core import Alphabet
from seqdec.machines import START, BLANK, TwoTapeTm, to_json_dict as machine_json_dict
from tests.test_machines import copier_machine, scanner_machine, zigzag_machine

ROOT = Path(__file__).resolve().parent.parent
MEMORY_CAP = 512 << 20
CPU_SECONDS = 60

CHILD = """
import contextlib, io, json, resource, sys, traceback
memory, cpu, path = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))
from seqdec.cli import main
for name, argv in json.load(open(path)):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    print(json.dumps([name, code, err.getvalue()]), flush=True)
"""


def names(prefix: str, size: int) -> list[str]:
    return [f"{prefix}{i:02d}" for i in range(size)]


def osr(alphabet: list[str], order: list[str], threshold: str, span: int) -> dict:
    return {"kind": "osr", "alphabet": alphabet, "order": order, "threshold_alt": threshold,
            "span": span}


def csr(weights: dict[str, str]) -> dict:
    return {"kind": "csr", "alphabet": list(weights), "weights": weights, "threshold": "1"}


AB = Alphabet(("a", "b"))
# two rules over 1,500 tape symbols, each an input symbol: one state per depth,
# each with 1,500 transitions
WIDE_TAPE = TwoTapeTm(("q0", "halt"), "q0", ("halt",), (*names("s", 1500), START, BLANK), [
    ("q0", "*", "*", "q0", "*", "R", "S"), ("q0", "s00", "*", "halt", "s00", "S", "S"),
])

DOCUMENTS = {
    "chain-1/40": csr({"a": "1/40", "b": "1"}),
    "csr3/8": csr(dict.fromkeys("abc", "1/8")),
    # one table entry where 2^40 are due
    "config-table-40": {"kind": "config", "alphabet": ["a", "b"], "window": 40,
                        "comparator": {"table": {"0": 1}}},
    "config-builtin-22": {"kind": "config", "alphabet": ["a", "b"], "window": 22,
                          "comparator": {"builtin": "numeric-value"}},
    # 2^18 windows over 512 symbols, each holding at most two: a compile that spent
    # |alphabet| on each window would need 2^27 entries
    "config-wide-512/2": {"kind": "config", "alphabet": names("s", 512), "window": 2,
                          "comparator": {"builtin": "numeric-value"}},
    "csr-unit-4000": csr(dict.fromkeys(names("s", 4000), "1")),
    "osr40/5": osr(names("s", 40), names("s", 40), "s00", 5),
    "osr24/6-reversed": osr(names("s", 24), names("s", 24)[::-1], "s05", 6),
    "scanner": machine_json_dict(scanner_machine(AB)),
    # an output tape as long as the input read
    "copier": machine_json_dict(copier_machine(AB)),
    # two-way: one state per word
    "zigzag": machine_json_dict(zigzag_machine(AB)),
    "wide-tape": machine_json_dict(WIDE_TAPE),
}

# the flags of each command on a machine document, which only machine documents take
MACHINE_FLAGS = {
    "scanner": ["--budget", "3000", "--alphabet", "b a"],
    "copier": ["--budget", "3000"],
    "zigzag": ["--budget", "3000"],
    "wide-tape": ["--budget", "3000"],
}


def first_symbol(doc: dict) -> str:
    return (doc.get("alphabet") or doc["tape_alphabet"])[0]


COMMANDS = {
    "eval": lambda doc: ["eval", f"|{first_symbol(doc)}"],
    "compile": lambda doc: ["compile"],
    "analyze": lambda doc: ["analyze"],
    "axioms": lambda doc: ["axioms"],
    "identify-csr": lambda doc: ["identify", "--as", "csr"],
    "identify-osr": lambda doc: ["identify", "--as", "osr"],
    "tm-run": lambda doc: ["tm-run", f"|{first_symbol(doc)}"],
}

# exit codes, one per command in COMMANDS' order; rule documents stop before tm-run
EXPECTED = {
    "chain-1/40": (0, 0, 0, 3, 0, 0),
    "csr3/8": (0, 0, 3, 3, 0, 1),
    "config-table-40": (2, 2, 2, 2, 2, 2),
    "config-builtin-22": (3, 3, 3, 3, 3, 3),
    "config-wide-512/2": (0, 0, 0, 0, 0, 0),
    "csr-unit-4000": (3, 3, 3, 3, 3, 3),
    "osr40/5": (0, 0, 3, 3, 3, 3),
    "osr24/6-reversed": (0, 0, 0, 3, 1, 0),
    "scanner": (3, 3, 3, 3, 3, 3, 3),
    "copier": (3, 3, 3, 3, 3, 3, 3),
    "zigzag": (3, 3, 3, 3, 3, 3, 3),
    "wide-tape": (3, 3, 3, 3, 3, 3, 0),
}


def test_hostile_documents_keep_the_exit_code_contract(tmp_path):
    runs = []
    for name, doc in DOCUMENTS.items():
        path = tmp_path / f"doc{len(runs)}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command, _ in zip(COMMANDS, EXPECTED[name]):
            words = COMMANDS[command](doc) + MACHINE_FLAGS.get(name, [])
            runs.append([f"{name} {command}", [words[0], str(path), *words[1:]]])
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(runs), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                     os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(MEMORY_CAP), str(CPU_SECONDS), str(plan)],
        capture_output=True, text=True, env=env, timeout=4 * CPU_SECONDS,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(lines) == len(runs)
    want = {f"{name} {command}": code
            for name, codes in EXPECTED.items() for command, code in zip(COMMANDS, codes)}
    for case, code, err in lines:
        assert "Traceback" not in err, (case, err)
        assert code == want[case], (case, code, err)
        if code in (2, 3):
            assert err.count("\n") == 1 and err.endswith("\n"), (case, err)
