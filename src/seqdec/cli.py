"""Command-line front end.

Every command reads one rule, automaton or machine JSON document as one
rule: ``eval``, ``compile`` (``minimize`` is ``compile --minimize``),
``dot``, ``analyze``, ``axioms`` and ``identify`` take any kind, a machine
with ``--budget``; ``tm-run`` simulates machines only.  Payloads go to
stdout as JSON (DOT for graphs); diagnostics go to stderr.  Exit codes are
a stable scripting contract:

* 0: success, or every axiom passed
* 1: an axiom failed, or identification found a disagreeing input
* 2: input could not be parsed or validated
* 3: a resource or assumption gave out (exhausted budget, violated
  horizon, an input ``u|v`` that never decides, named, window table or
  automaton over its cap)

Sequence literals use ``prefix|cycle`` notation, e.g. ``"a b|c"``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import Alphabet, ResourceLimit, ValidationError, prefix_of
from . import automaton as automaton_mod
from .automaton import NonStoppingRuleError, minimize, to_dot
from . import machines as machines_mod
from .machines import BLANK, START, BudgetExhausted, TapeBoundsError, tm_run
from . import heuristics
from .analysis import (
    SUITES, HorizonViolation, NotAChoiceRule, NotCsr, NotOsr, RuleHandle, decisive_set,
    identify_csr, identify_osr, run_suite, tabulate_automaton, uniform_bound_search,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _emit(payload, out_path=None, end="\n") -> None:
    """Write a payload, pretty-printed unless it is text already, to stdout or ``out_path``."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + end)
    else:
        print(text, end=end)


def _load(path: str, args) -> RuleHandle:
    """The rule a document states: a rule compiled, an automaton as it is, a
    machine run within ``--budget`` on ``--alphabet``, its ``input_alphabet``
    or its tape's symbols.  ``tm-run`` and the machine flags refuse all but machines."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    kind = doc.get("kind")
    if kind == "tm":
        machine, alphabet = machines_mod.from_json_dict(doc), None
        if "input_alphabet" in doc:
            alphabet = Alphabet(machines_mod.string_list(doc, "input_alphabet"))
        if args.budget is None:
            raise ValidationError("machine-backed rules need --budget")
        if args.alphabet:
            alphabet = Alphabet(tuple(args.alphabet.replace(",", " ").split()))
        elif alphabet is None:
            alphabet = Alphabet(tuple(s for s in machine.tape_alphabet if s not in (START, BLANK)))
        return RuleHandle.from_machine(machine, alphabet, args.budget, getattr(args, "horizon", None))
    if kind in ("csr", "osr", "config"):
        parsed, handle = heuristics.rule_from_dict(doc), RuleHandle.from_rule
    elif {"states", "initial", "transitions", "terminal"} <= set(doc):
        parsed, handle = automaton_mod.from_json_dict(doc), RuleHandle.from_automaton
    else:
        raise ValidationError("unrecognized document: need a rule, automaton, or machine")
    if args.command == "tm-run":
        raise ValidationError("tm-run expects a machine document")
    if flags := [f"--{k}" for k in ("horizon", "budget", "alphabet") if getattr(args, k) is not None]:
        raise ValidationError(f"only machine documents take {', '.join(flags)}")
    return handle(parsed)


def _dumps_with(payload: dict, key: str, text: str) -> str:
    """``payload`` dumped with the JSON ``text`` as the value of ``key``, spliced in
    where a null stood, which only the key matches (strings escape their quotes)."""
    key_text, dumped = f'"{key}": ', json.dumps({**payload, key: None}, indent=2, sort_keys=True)
    return dumped.replace(key_text + "null", key_text + text, 1)


def cmd_eval(args) -> int:
    rule = _load(args.rule_file, args)
    seq = rule.alphabet.sequence(args.sequence)
    stop, decision = rule.facts.stop(seq)
    payload = {
        "decision": decision,
        "stop_position": stop,
        "minimal_sufficient_prefix": prefix_of(seq, stop).text(),
    }
    if args.format == "text":
        print(f"decision {decision}, stop {stop}, prefix '{payload['minimal_sufficient_prefix']}'")
    else:
        _emit(payload, args.out)
    return EXIT_OK


def cmd_compile(args) -> int:
    aut = tabulate_automaton(_load(args.rule_file, args))
    return _report_automaton(minimize(aut) if args.minimize else aut, args)


def _report_automaton(aut: automaton_mod.DecisionAutomaton, args) -> int:
    """Summary (text) or payload (JSON) of an automaton, its DOT and JSON files;
    the bound is None when some input never decides."""
    try:
        bound = aut.bound
    except NonStoppingRuleError:
        bound = None
    if args.dot:
        _emit(to_dot(aut), args.dot, end="")
    if args.out:
        _emit(automaton_mod.to_json(aut), args.out)
    if args.format == "text":
        print(f"{len(aut.states)} states, bound {bound}")
    else:
        payload = {"state_count": len(aut.states), "uniform_bound": bound}
        if args.out:
            _emit(payload)
        else:
            _emit(_dumps_with(payload, "automaton", automaton_mod.to_json(aut, "  ")))
    return EXIT_OK


def cmd_dot(args) -> int:
    _emit(to_dot(tabulate_automaton(_load(args.file, args))), args.out, end="")
    return EXIT_OK


def cmd_analyze(args) -> int:
    """Uniform bound, minimal sufficient segments and decisive set.

    Segments are rendered per open word of ``Facts.open_words``, labelled by
    its segment text and a space: an open state's plan is its decided
    children's JSON records, split where "\\0" holds the label's place (no
    escaped text holds one).  The list is spliced into the dumped payload."""
    rule = _load(args.rule_file, args)
    escape, facts = json.encoder.encode_basestring_ascii, rule.facts
    names = [escape(name)[1:-1] for name in rule.alphabet]
    record = '    {{\n      "decision": {},\n      "segment": "\0{}"\n    }}'.format
    payload = {"uniform_bound": uniform_bound_search(rule)}
    if (got := facts.decision(facts.start)) is not None:
        segments = record(escape(got), "").replace("\0", "")
    else:
        walk = facts.open_words("", [name + " " for name in names], lambda decided: ",\n".join(
            record(escape(dec), names[i]) for i, dec in decided).split("\0"))
        segments = ",\n".join([label.join(parts) for label, parts in walk])
    dset = decisive_set(rule)
    payload["decisive"] = list(dset.decisive)
    payload["non_decisive"] = list(dset.complement)
    if args.sequence:
        seq = rule.alphabet.sequence(args.sequence)
        payload["sequence"] = seq.text()
        payload["stopping_time"], payload["decision"] = rule.facts.stop(seq)
    _emit(_dumps_with(payload, "minimal_sufficient", f"[\n{segments}\n  ]"), args.out)
    return EXIT_OK


def cmd_axioms(args) -> int:
    rule = _load(args.rule_file, args)
    reports = run_suite(rule, args.suite)
    _emit([r.to_json_dict() for r in reports], args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def cmd_identify(args) -> int:
    rule = _load(args.rule_file, args)
    try:
        spec, checked = identify_csr(rule) if args.target == "csr" else identify_osr(rule)
    except (NotCsr, NotOsr) as exc:
        _emit({"error": str(exc), "disagreeing_sequence": exc.sequence.text()})
        return EXIT_FAIL
    payload = {"rule": heuristics.rule_to_dict(spec), "checked": checked}
    if args.out:
        _emit(heuristics.rule_to_dict(spec), args.out)
        payload = {"checked": payload["checked"], "written": args.out}
    _emit(payload)
    return EXIT_OK


def cmd_tm_run(args) -> int:
    rule = _load(args.machine_file, args)
    result = tm_run(rule.runs.tm, rule.alphabet.sequence(args.sequence), args.budget)
    _emit({"decision": result.decision, "steps": result.steps, "halted": result.halted}, args.out)
    return EXIT_OK


@functools.cache  # built once per process: building takes longer than most commands
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqdec",
        description="Decision rules over infinite symbol sequences: evaluate, "
        "compile, analyze, check axioms, identify parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, text=False):
        p.add_argument("--out", help="write the main payload to this file")
        if text:
            p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--horizon", type=int, help="optional: asserted uniform bound of a machine")
        p.add_argument("--budget", type=int, help="step budget for machine-backed rules")
        p.add_argument("--alphabet", help="input alphabet for machine-backed rules, e.g. 'a b c'")

    p = sub.add_parser("eval", help="decision, stop position, and minimal sufficient prefix")
    p.add_argument("rule_file")
    p.add_argument("sequence", help="sequence literal, e.g. '|a b c'")
    common(p, text=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compile", help="compile a document to a decision automaton")
    p.add_argument("rule_file")
    p.add_argument("--minimize", action="store_true")
    p.add_argument("--dot", help="also write a DOT rendering to this file")
    common(p, text=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("minimize", help="compile --minimize: a document's minimal automaton")
    p.add_argument("rule_file")
    p.add_argument("--dot", help="also write a DOT rendering to this file")
    common(p, text=True)
    p.set_defaults(func=cmd_compile, minimize=True)

    p = sub.add_parser("dot", help="DOT rendering of a document's automaton")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("analyze", help="uniform bound, minimal sufficient segments, decisive set")
    p.add_argument("rule_file")
    p.add_argument("--seq", dest="sequence", help="also report this sequence's stopping time")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("axioms", help="run an axiom checker suite")
    p.add_argument("rule_file")
    p.add_argument("--suite", choices=sorted(SUITES), default="all")
    common(p)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("identify", help="recover rule parameters from behavior")
    p.add_argument("rule_file")
    p.add_argument("--as", dest="target", choices=("csr", "osr"), required=True)
    common(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("tm-run", help="run a two-tape machine on a sequence")
    p.add_argument("machine_file")
    p.add_argument("sequence")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--alphabet", help="input alphabet, e.g. 'a b c'")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tm_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, NotAChoiceRule, json.JSONDecodeError, OSError) as exc:
        print(f"seqdec: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExhausted, HorizonViolation, NonStoppingRuleError, ResourceLimit, TapeBoundsError) as exc:
        print(f"seqdec: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
