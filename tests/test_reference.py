"""The compilers against ``bench/reference.py``, which imports nothing of seqdec.

The reference decides a rule document from a fixed-length window and finds
stop positions, uniform bounds and minimal sufficient segments by brute
force over window completions (a closed form for score-threshold rules).
Seeded random CSR, OSR and table-comparator config documents go through
``seqdec eval`` and ``seqdec analyze --seq``, and every answer must be its.
"""

import contextlib
import io
import json
import random
import types
from fractions import Fraction
from pathlib import Path

from seqdec.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.py"


def random_doc(rng: random.Random, i: int) -> dict:
    alphabet = list("abc"[: rng.randint(1, 3)])
    doc = {"kind": ("csr", "osr", "config")[i % 3], "alphabet": alphabet}
    if doc["kind"] == "csr":
        # critical counts of 1-3, some weights exactly on the threshold's fraction
        t = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        counts = {s: rng.randint(1, 3) for s in alphabet}
        doc["threshold"] = str(t)
        doc["weights"] = {
            s: str(t / rng.choice((n, n - Fraction(1, 2)))) for s, n in counts.items()
        }
    elif doc["kind"] == "osr":
        doc.update(order=rng.sample(alphabet, len(alphabet)), threshold_alt=rng.choice(alphabet),
                   span=rng.randint(1, 3))
    else:
        w = rng.randint(1, 4)
        table = dict(zip((format(k, f"0{w}b") for k in range(2**w)), rng.sample(range(2**w), 2**w)))
        doc.update(window=w, comparator={"table": table})
    return doc


def run_json(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return json.loads(out.getvalue())


def test_eval_and_analyze_match_the_reference(tmp_path):
    # executed from its source, so no bytecode is cached beside it
    ref = types.ModuleType("reference")
    exec(compile(REFERENCE.read_text(encoding="utf-8"), str(REFERENCE), "exec"), ref.__dict__)
    rng = random.Random(2022)
    for i in range(150):
        doc = random_doc(rng, i)
        path = tmp_path / f"rule{i}.json"
        path.write_text(json.dumps(doc))
        rule = ref.rule_from_doc(doc)
        bound, minimal = ref.minimal_sufficient(rule)
        for _ in range(2):
            prefix, cycle = ([rng.choice(doc["alphabet"]) for _ in range(rng.randint(lo, 3))]
                             for lo in (0, 1))
            literal = ref.seq_text(prefix, cycle)
            seq = ref.parse_seq(literal)
            stop, decision = ref.stop_position(rule, seq), rule.decide(seq)
            assert run_json(["eval", str(path), literal]) == {
                "decision": decision, "stop_position": stop,
                "minimal_sufficient_prefix": " ".join(ref.window(seq, stop)),
            }, (doc, literal)
            got = run_json(["analyze", str(path), "--seq", literal])
            assert (got["uniform_bound"], got["stopping_time"], got["decision"]) == (
                bound, stop, decision), (doc, literal)
            segments = [(m["segment"], m["decision"]) for m in got["minimal_sufficient"]]
            assert len(segments) == len(minimal), doc
            assert set(segments) == {(" ".join(word), d) for word, d in minimal}, doc
