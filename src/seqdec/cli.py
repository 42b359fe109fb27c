"""Command-line front end.

Loads rule, automaton, or machine JSON files and runs evaluation,
compilation, stopping analysis, axiom suites, identification, and machine
simulation.  Payloads go to stdout as JSON (DOT for graphs); diagnostics go
to stderr.  Exit codes are a stable scripting contract:

* 0: success, or every axiom passed
* 1: an axiom failed, or identification found a disagreeing input
* 2: input could not be parsed or validated
* 3: a resource or assumption gave out (diverging run, exhausted budget,
  violated horizon, non-stopping automaton, window table or automaton
  over its cap)

Sequence literals use ``prefix|cycle`` notation, e.g. ``"a b|c"``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import Alphabet, ResourceLimit, ValidationError, prefix_of
from . import automaton as automaton_mod
from .automaton import DivergenceError, minimize, to_dot, verify_stopping
from . import machines as machines_mod
from .machines import BLANK, START, BudgetExhausted, TapeBoundsError, tm_run
from . import heuristics
from .analysis import (
    SUITES,
    HorizonViolation,
    NonStoppingRuleError,
    NotAChoiceRule,
    NotCsr,
    NotOsr,
    RuleHandle,
    _word_text,
    decisive_set,
    identify_csr,
    identify_osr,
    run_suite,
    stopping_time,
    tabulate_automaton,
    uniform_bound_search,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _emit(payload, out_path=None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return doc


class _Loaded:
    """A parsed input file: exactly one of rule spec, automaton, machine."""

    def __init__(self, doc: dict):
        self.rule = self.automaton = self.machine = None
        self.machine_alphabet = None
        kind = doc.get("kind")
        if kind in ("csr", "osr", "config"):
            self.rule = heuristics.rule_from_dict(doc)
        elif kind == "tm":
            self.machine = machines_mod.from_json_dict(doc)
            if "input_alphabet" in doc:
                self.machine_alphabet = Alphabet(machines_mod.string_list(doc, "input_alphabet"))
        elif {"states", "initial", "transitions", "terminal"} <= set(doc):
            self.automaton = automaton_mod.from_json_dict(doc)
        else:
            raise ValidationError("unrecognized document: need a rule, automaton, or machine")

    def alphabet(self, args) -> Alphabet:
        """A machine's input alphabet: ``--alphabet``, its ``input_alphabet`` or its tape's."""
        if getattr(args, "alphabet", None):
            return Alphabet(tuple(args.alphabet.replace(",", " ").split()))
        if self.machine_alphabet is not None:
            return self.machine_alphabet
        specials = {START, BLANK}
        return Alphabet(tuple(s for s in self.machine.tape_alphabet if s not in specials))

    def handle(self, args) -> RuleHandle:
        if self.rule is not None:
            return RuleHandle.from_rule(self.rule)
        if self.automaton is not None:
            return RuleHandle.from_automaton(self.automaton)
        if getattr(args, "budget", None) is None:
            raise ValidationError("machine-backed rules need --budget")
        return RuleHandle.from_machine(self.machine, self.alphabet(args), args.budget, args.horizon)


def cmd_eval(args) -> int:
    rule = _Loaded(_load_document(args.rule_file)).handle(args)
    seq = rule.alphabet.sequence(args.sequence)
    decision = rule.decide(seq)
    stop = stopping_time(rule, seq)
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


def _compiled_automaton(loaded: _Loaded, args):
    if loaded.rule is not None:
        return heuristics.compile_rule(loaded.rule)
    if loaded.machine is not None:
        return tabulate_automaton(loaded.handle(args))
    raise ValidationError("input is already an automaton; use the minimize command")


def cmd_compile(args) -> int:
    aut = _compiled_automaton(_Loaded(_load_document(args.rule_file)), args)
    return _report_automaton(minimize(aut) if args.minimize else aut, args)


def cmd_minimize(args) -> int:
    loaded = _Loaded(_load_document(args.automaton_file))
    if loaded.automaton is None:
        raise ValidationError("minimize expects an automaton document")
    return _report_automaton(minimize(loaded.automaton), args)


def _report_automaton(aut: automaton_mod.DecisionAutomaton, args) -> int:
    """Summary (text) or payload (JSON) of an automaton, its DOT and JSON files."""
    bound = verify_stopping(aut).bound
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(aut))
    if args.out:
        _emit(automaton_mod.to_json_dict(aut), args.out)
    if args.format == "text":
        print(f"{len(aut.states)} states, bound {bound}")
    else:
        payload = {"state_count": len(aut.states), "uniform_bound": bound}
        if not args.out:
            payload["automaton"] = automaton_mod.to_json_dict(aut)
        _emit(payload)
    return EXIT_OK


def cmd_dot(args) -> int:
    loaded = _Loaded(_load_document(args.file))
    text = to_dot(loaded.automaton or _compiled_automaton(loaded, args))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_analyze(args) -> int:
    rule = _Loaded(_load_document(args.rule_file)).handle(args)
    payload = {
        "uniform_bound": uniform_bound_search(rule),
        "minimal_sufficient": [
            {"segment": _word_text(rule.alphabet, word), "decision": dec}
            for word, dec in rule.facts.minimal
        ],
    }
    dset = decisive_set(rule)
    payload["decisive"] = list(dset.decisive)
    payload["non_decisive"] = list(dset.complement)
    if args.sequence:
        seq = rule.alphabet.sequence(args.sequence)
        payload["sequence"] = seq.text()
        payload["stopping_time"] = stopping_time(rule, seq)
        payload["decision"] = rule.decide(seq)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_axioms(args) -> int:
    rule = _Loaded(_load_document(args.rule_file)).handle(args)
    reports = run_suite(rule, args.suite)
    _emit([r.to_json_dict() for r in reports], args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def cmd_identify(args) -> int:
    rule = _Loaded(_load_document(args.rule_file)).handle(args)
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
    loaded = _Loaded(_load_document(args.machine_file))
    if loaded.machine is None:
        raise ValidationError("tm-run expects a machine document")
    seq = loaded.alphabet(args).sequence(args.sequence)
    result = tm_run(loaded.machine, seq, args.budget)
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

    def common(p, horizon=True, text=False):
        p.add_argument("--out", help="write the main payload to this file")
        if text:
            p.add_argument("--format", choices=("json", "text"), default="json")
        if horizon:
            p.add_argument("--horizon", type=int, help="optional: asserted uniform bound of a machine")
            p.add_argument("--budget", type=int, help="step budget for machine-backed rules")
            p.add_argument("--alphabet", help="input alphabet for machine-backed rules, e.g. 'a b c'")

    p = sub.add_parser("eval", help="decision, stop position, and minimal sufficient prefix")
    p.add_argument("rule_file")
    p.add_argument("sequence", help="sequence literal, e.g. '|a b c'")
    common(p, text=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compile", help="compile a rule to a decision automaton")
    p.add_argument("rule_file")
    p.add_argument("--minimize", action="store_true")
    p.add_argument("--dot", help="also write a DOT rendering to this file")
    common(p, text=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("minimize", help="minimize an automaton")
    p.add_argument("automaton_file")
    p.add_argument("--dot", help="also write a DOT rendering to this file")
    common(p, horizon=False, text=True)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("dot", help="DOT rendering of an automaton or compiled rule")
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
    except (
        DivergenceError,
        BudgetExhausted,
        HorizonViolation,
        NonStoppingRuleError,
        ResourceLimit,
        TapeBoundsError,
    ) as exc:
        print(f"seqdec: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
