"""From finite machine to Turing machine and back.

Any stopping automaton embeds into a two-tape machine that replays it while
sweeping the input tape, at a couple of steps of overhead.  The reverse
bridge is per instance: walk a budgeted machine's runs until each halts,
one state per configuration it reaches on first reading a cell, and
minimize the result.  No horizon is declared: the budget bounds how far a
run reads, and the walk finds the uniform bound.
"""

from fractions import Fraction

from seqdec import (
    Alphabet,
    CsrSpec,
    RuleHandle,
    automaton_to_tm,
    csr_compile,
    evaluate,
    minimize,
    tabulate_automaton,
    tm_run,
    uniform_bound_search,
)

abc = Alphabet(("a", "b", "c"))
rule = CsrSpec(abc, {s: Fraction(1) for s in abc}, Fraction(3))
aut = csr_compile(rule)
machine = automaton_to_tm(aut)
print(f"automaton: {len(aut.states)} states -> machine: {len(machine.states)} states")

for text in ("|a b c", "b b|a", "|c"):
    seq = abc.sequence(text)
    decision, stop = evaluate(aut, seq)
    run = tm_run(machine, seq, budget=100)
    print(f"  {text:<8} automaton: {decision}@{stop}   machine: {run.decision} in {run.steps} steps")

print("\nresynthesis from budgeted machine runs:")
box = RuleHandle.from_machine(machine, abc, budget=100)
rebuilt = minimize(tabulate_automaton(box))
print(f"  bound found by the walk, with no horizon declared: {uniform_bound_search(box)}")
rebuilt_bound = RuleHandle.from_automaton(rebuilt).facts.bound
print(f"  observed automaton: {len(rebuilt.states)} states, bound {rebuilt_bound}")
for text in ("|a b c", "b b|a"):
    seq = abc.sequence(text)
    print(f"  {text:<8} original {evaluate(aut, seq)[0]!r}, rebuilt {evaluate(rebuilt, seq)[0]!r}")
