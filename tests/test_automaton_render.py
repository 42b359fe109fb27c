"""The peel, the compilers and the automaton JSON that ``compile`` and
``minimize`` print and write.

``to_json`` renders an automaton from one template per state's row, names
escaped once, and ``compile``/``minimize`` splice it into their payload.
The oracles are what they replaced: the peel that looked every successor
up by symbol at each step, the CSR and OSR compilers that named a state
at every transition into it and ranked symbols through ``OsrSpec``, and
``json.dumps(to_json_dict(aut), indent=2, sort_keys=True)`` of the whole
payload, with the bound the least K over all windows (``conftest``'s
``oracle_least_bound``).  Peel items and their order (depths as open
depths), compiled automata down to state and row order, the stopping
verdict, and stdout and ``--out`` bytes must equal the oracles' on the
acceptance corpus, the mutants' tabulated automata,
compiled OSR rules, a machine document and random automata, cyclic and
acyclic, whose state and symbol names need escaping.  SHA-256 prefixes of
stdout and ``--out`` bytes are pinned for fixed documents.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqdec.analysis import tabulate_automaton
from seqdec.automaton import (
    DecisionAutomaton,
    NonStoppingRuleError,
    _escaping_states,
    absorbing_terminal_row,
    minimize,
    stopping_bound,
    to_json,
    to_json_dict,
)
from seqdec.cli import _load, build_parser, main
from seqdec.core import Alphabet, SeqSpec
from seqdec.heuristics import (
    CsrSpec, OsrSpec, _vector_name, compile_rule, csr_compile, csr_critical_counts, osr_compile,
    rule_to_json,
)
from tests.conftest import (
    oracle_decidedness, oracle_least_bound, oracle_peel, oracle_verify_stopping,
)
from tests.mutants import MUTANTS
from tests.test_acceptance import build_corpus
from tests.test_analyze_render import (
    ESCAPED_NAMES, MACHINE_FLAGS, escaped_alphabets, golden_document, machine_text,
)
from tests.test_automaton import tail_into_loop
from tests.test_facts import rule_specs

# names JSON escapes, and ones a %-template or a format string would misread
NAMES = ESCAPED_NAMES + ["%", "%s", "%%", "{}", "{0}", "q", "t"]


def with_terminals(alphabet, states, initial, transitions) -> DecisionAutomaton:
    """The compilers' shared tail: one absorbing state per symbol, listed last."""
    terminal = {f"dec:{name}": name for name in alphabet}
    for t in terminal:
        transitions[t] = absorbing_terminal_row(alphabet, t)
    return DecisionAutomaton(alphabet, states + tuple(sorted(terminal)), initial, transitions, terminal)


def oracle_csr_compile(spec: CsrSpec) -> DecisionAutomaton:
    """The CSR compiler as it was, naming a vector at every transition into it."""
    counts, aut = csr_critical_counts(spec), spec.alphabet
    zero = tuple(0 for _ in aut)
    todo, seen, transitions = [zero], {zero}, {}
    while todo:
        vec = todo.pop()
        row = {}
        for i, name in enumerate(aut):
            if vec[i] + 1 == counts[name]:
                row[name] = f"dec:{name}"
            else:
                nxt = vec[:i] + (vec[i] + 1,) + vec[i + 1 :]
                row[name] = _vector_name(aut, nxt)
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        transitions[_vector_name(aut, vec)] = row
    states = tuple(sorted(_vector_name(aut, v) for v in seen))
    return with_terminals(aut, states, _vector_name(aut, zero), transitions)


def oracle_osr_compile(spec: OsrSpec) -> DecisionAutomaton:
    """The OSR compiler as it was, ranking by a search of ``order`` at every transition."""
    rank = spec.order.index

    def name_of(pos, best):
        return f"p{pos}:{best or '-'}"

    todo, seen, transitions = [(0, None)], {(0, None)}, {}
    while todo:
        pos, best = todo.pop()
        row = {}
        for sym in spec.alphabet:
            if rank(sym) < rank(spec.threshold_alt):
                row[sym] = f"dec:{sym}"
                continue
            new_best = sym if best is None else min(best, sym, key=rank)
            if pos + 1 == spec.span:
                row[sym] = f"dec:{new_best}"
            else:
                row[sym] = name_of(pos + 1, new_best)
                if (pos + 1, new_best) not in seen:
                    seen.add((pos + 1, new_best))
                    todo.append((pos + 1, new_best))
        transitions[name_of(pos, best)] = row
    states = tuple(sorted(name_of(p, b) for p, b in seen))
    return with_terminals(spec.alphabet, states, name_of(0, None), transitions)


def oracle_text(aut: DecisionAutomaton) -> str:
    return json.dumps(to_json_dict(aut), indent=2, sort_keys=True)


def oracle_report(aut: DecisionAutomaton, written: bool) -> str:
    """What ``compile`` and ``minimize`` printed when the automaton was a dict."""
    payload = {"state_count": len(aut.states), "uniform_bound": oracle_least_bound(aut)}
    if not written:
        payload["automaton"] = to_json_dict(aut)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def same_automaton(got: DecisionAutomaton, want: DecisionAutomaton) -> bool:
    """Equal down to the order of states, rows and row entries."""
    return (got.alphabet, got.states, got.initial, got.terminal) == (
        want.alphabet, want.states, want.initial, want.terminal
    ) and [(q, list(row.items())) for q, row in got.transitions.items()] == [
        (q, list(row.items())) for q, row in want.transitions.items()
    ]


def oracle_open_depths(aut: DecisionAutomaton) -> dict[str, int]:
    """Each escaping state's longest run through states the sweep leaves open."""
    decided, memo = oracle_decidedness(aut), {}

    def depth(q: str) -> int:
        if q not in memo:
            succ = [aut.transitions[q][sym] for sym in aut.alphabet]
            memo[q] = max((1 + depth(t) for t in succ if decided[t] is None), default=0)
        return memo[q]

    return {q: depth(q) for q in oracle_peel(aut)}


def assert_model_matches_oracles(aut: DecisionAutomaton) -> None:
    """Peel items in order, stopping verdict, and the text at top level and nested.

    The peel's states and forced decisions are the absorption peel's, in its
    order, and its depths are open depths.  The verdict is the least bound,
    or, where the absorption pass found a loop, an input that enters the
    same loop by the same shortest word."""
    peel, oracle = _escaping_states(aut), oracle_peel(aut)
    outputs = [(q, out) for q, (_, out) in oracle.items()]
    assert [(q, out) for q, (_, out) in peel.items()] == outputs
    assert {q: depth for q, (depth, _) in peel.items()} == oracle_open_depths(aut)
    verdict = oracle_verify_stopping(aut)
    try:
        assert stopping_bound(aut) == oracle_least_bound(aut)
        assert verdict.stops
    except NonStoppingRuleError as exc:
        cycle = aut.alphabet.segment(verdict.cycle_symbols)
        assert exc.sequence == SeqSpec(aut.alphabet, verdict.reach, cycle)
        assert exc.sequence.text() == f"{verdict.reach.text()}|{cycle.text()}"
    want = oracle_text(aut)
    assert to_json(aut) == want
    nested = json.dumps({"automaton": to_json_dict(aut), "k": 0}, indent=2, sort_keys=True)
    assert nested == '{\n  "automaton": ' + to_json(aut, "  ") + ',\n  "k": 0\n}'


def assert_compiler_matches_oracle(spec) -> None:
    if isinstance(spec, CsrSpec):
        assert same_automaton(csr_compile(spec), oracle_csr_compile(spec))
    elif isinstance(spec, OsrSpec):
        assert same_automaton(osr_compile(spec), oracle_osr_compile(spec))


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def assert_reports_as_oracle(tmp_path, text: str, flags=()) -> None:
    """``compile`` stdout and ``--out`` bytes, both ways, equal the oracle's; ``minimize``
    is ``compile --minimize``."""
    path, out_file = tmp_path / "doc.json", tmp_path / "out.json"
    path.write_text(text, encoding="utf-8")
    argv = ["compile", str(path), *flags]
    aut = tabulate_automaton(_load(str(path), build_parser().parse_args(argv)))
    cases = [(argv, aut), (argv + ["--minimize"], minimize(aut))]
    for argv, aut in cases:
        assert run(argv) == (0, oracle_report(aut, written=False))
        assert run(argv + ["--out", str(out_file)]) == (0, oracle_report(aut, written=True))
        assert out_file.read_bytes() == (oracle_text(aut) + "\n").encode()


def osr_specs() -> list[OsrSpec]:
    """Compiled OSR rules beyond the corpus: wide, deep and escaped."""
    specs = []
    for size, span, above in ((6, 4, 2), (12, 3, 0), (9, 5, 8)):
        names = tuple(f"s{i}" for i in range(size))
        specs.append(OsrSpec(Alphabet(names), names[::-1], names[size - 1 - above], span))
    names = tuple(NAMES[:8])
    specs.append(OsrSpec(Alphabet(names), names, names[3], 3))
    return specs


def test_corpus_mutants_osr_and_a_machine_match_the_oracles(tmp_path):
    for spec in build_corpus() + osr_specs():
        assert_compiler_matches_oracle(spec)
        assert_model_matches_oracles(compile_rule(spec))
        assert_reports_as_oracle(tmp_path, rule_to_json(spec))
    for make in MUTANTS.values():
        aut = tabulate_automaton(make())
        assert_model_matches_oracles(aut)
        assert_reports_as_oracle(tmp_path, to_json(aut))
    assert_reports_as_oracle(tmp_path, machine_text(), MACHINE_FLAGS)
    for length, period in ((12, 2), (9, 3)):
        aut = tail_into_loop(length, period)
        assert_model_matches_oracles(aut)
        assert_reports_as_oracle(tmp_path, to_json(aut))


@st.composite
def named_automata(draw):
    """Up to eight states and three symbols, all named from ``NAMES`` or ``s0``...

    Acyclic draws point only at later open states or at terminals; cyclic
    ones point anywhere.  The states and the rows are listed in two
    independent orders, so a peel that follows the rows shows.
    """
    symbols = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    pool = st.sampled_from(NAMES + [f"s{i}" for i in range(8)])
    names = draw(st.lists(pool, min_size=2, max_size=8, unique=True))
    acyclic = draw(st.booleans())
    n_terminal = draw(st.integers(1 if acyclic else 0, len(names) - 1))
    opened, terminals = names[: len(names) - n_terminal], names[len(names) - n_terminal :]
    rows = {t: {s: t for s in symbols} for t in terminals}
    for i, q in enumerate(opened):
        targets = opened[i + 1 :] + terminals if acyclic else names
        rows[q] = {s: draw(st.sampled_from(targets)) for s in symbols}
    outputs = st.sampled_from(symbols + ["none", '"x"'])
    terminal = {t: draw(outputs) for t in terminals}
    states = tuple(draw(st.permutations(names)))
    transitions = {q: rows[q] for q in draw(st.permutations(names))}
    return DecisionAutomaton(Alphabet(tuple(symbols)), states, opened[0], transitions, terminal)


@settings(max_examples=200, deadline=None)
@given(aut=named_automata())
def test_random_automata_match_the_oracles(tmp_path_factory, aut):
    assert_model_matches_oracles(aut)
    assert_model_matches_oracles(minimize(aut))
    assert_reports_as_oracle(tmp_path_factory.mktemp("doc"), to_json(aut))


@settings(max_examples=60, deadline=None)
@given(spec=rule_specs(escaped_alphabets | st.sampled_from([Alphabet(tuple("abc"))])))
def test_random_rules_match_the_oracles(tmp_path_factory, spec):
    assert_compiler_matches_oracle(spec)
    assert_model_matches_oracles(compile_rule(spec))
    assert_reports_as_oracle(tmp_path_factory.mktemp("doc"), rule_to_json(spec))


def test_counts_past_ten_sort_as_strings():
    spec = CsrSpec(Alphabet(("a", "b")), {"a": Fraction(1, 11), "b": Fraction(1)}, Fraction(1))
    aut = csr_compile(spec)
    assert aut.states.index("a:10,b:0") < aut.states.index("a:2,b:0")
    assert same_automaton(aut, oracle_csr_compile(spec))
    assert to_json(aut) == oracle_text(aut)


def pinned_document(case: str) -> tuple[str, list[str]]:
    kind, _, shape = case.partition(":")
    if kind == "loop":
        length, period = map(int, shape.split())
        return to_json(tail_into_loop(length, period)), []
    return golden_document(case)


# SHA-256 prefixes of stdout, then of ``--out`` bytes: ``compile`` plain and
# with ``--minimize``, or ``minimize`` once, as written when the automaton
# went through ``json.dumps(indent=2, sort_keys=True)``
GOLDEN = {
    "csr:abc 1,1,1 3": ["ae038de41f4e7952", "3e14306da7f2a49d", "1c8a34113c4a531a", "f58dfe59d4d6eaaf"],
    "csr:xy 1/2,1 2": ["29b72b1c14348f55", "a0ed466f3ec6536b", "2c22926ff91be71c", "6605f03e8a242f3b"],
    "csr:ab 1/11,1 1": ["de98628b43bd787c", "3ba9628b9c208126", "b173daa61a77d394", "28faab8e08b89684"],
    "csr:abc 1/12,1/12,1/12 1": ["feb84cf335dfdc99", "b93a390f9d35204d", "5802977dc6dfd4df", "709515a0e1ef249a"],
    "csr:ab 1/40,1 1": ["2eed8c6a950a48b0", "574c734dd27c9d97", "c90604ca3cc109f9", "fd496a8787d84239"],
    "csr:abc 1/2,1,3/2 2": ["bef18e1d5307a3e9", "e0482c7a28bfe2ab", "235eadc2f2cd09ee", "85b0e4477a5e5834"],
    "csr-escaped:low": ["1cd903af5dce9b67", "b483f73f19577a2e", "415493fc84f6ff9e", "47c5457b4609072c"],
    "csr-escaped:high": ["de91f8b324e04362", "9f5b0c48ae151a4f", "a9bfd1217412b88d", "5630d077e7cc76be"],
    "osr:abc b 2": ["07e80156abe68cf0", "7494099d453934bf", "7cb4ed0398fc70f5", "83dda5ee986aafb4"],
    "osr:abcd c 3": ["437ba73e9a37cb43", "752f3486c44376b8", "bc2ef406bdfffea5", "ad139cb3157b18c8"],
    "osr:xy y 1": ["0ab9cba594161480", "19b43354611a11f4", "01e10da88ff49011", "793f7480d89ee8f8"],
    "osr-escaped:": ["6c02108cf6b7a8b6", "c82890ffc8c9f71e", "8638c4dd453dc64b", "53ababe2a831dab1"],
    "config:xy 3 table": ["70592a01d30fd31b", "a2755c3e0685fdab", "23e717a8df0f828e", "15e55afb9d420ac2"],
    "config:escaped 3 table": ["078fdab88a6ae9ff", "8a16fce6fa55c4e0", "d48ede072bd15846", "92f4f21aabb69c40"],
    "machine:budget": ["a6cdb0cfc4867aca", "f7452a242aac255c", "b5f640384e2ec232", "612bc4334026fa32"],
    "automaton:threshold2": ["d050d7bce454ed3b", "f49c678fcf05cc29"],
    # decided before any symbol: "uniform_bound" is 0, where the absorption bound printed 1
    "automaton:constant": ["9b7803d6d14463a3", "1505922fb088d503"],
    "automaton:sequential-nbc": ["41e69a8a79c57d41", "82a1b7d9b28b517e"],
    "loop:12 2": ["95b8296c3a22d4d4", "cf3779344fd9c7e3"],
    "loop:9 3": ["1020be377b4653c0", "c41ebb3998725bcd"],
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_compile_and_minimize_output_is_unchanged(tmp_path, case):
    assert digests(tmp_path, case) == GOLDEN[case]


def digests(tmp_path, case: str) -> list[str]:
    text, flags = pinned_document(case)
    path, out_file = tmp_path / "doc.json", tmp_path / "out.json"
    path.write_text(text, encoding="utf-8")
    automaton = case.startswith(("automaton:", "loop:"))
    variants = [["minimize", str(path)]] if automaton else [
        ["compile", str(path), *flags], ["compile", str(path), *flags, "--minimize"]
    ]
    stdout, written = [], []
    for argv in variants:
        code, out = run(argv)
        assert code == 0
        stdout.append(hashlib.sha256(out.encode()).hexdigest()[:16])
        assert run(argv + ["--out", str(out_file)])[0] == 0
        written.append(hashlib.sha256(out_file.read_bytes()).hexdigest()[:16])
    return stdout + written
