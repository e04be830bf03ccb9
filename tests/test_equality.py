"""Sequent equality modulo expansion has one definition (``syntax``), and
every place on the proof path that compares formulas must agree with it."""

import pytest
from click.testing import CliRunner

from orthoproof.cli import main
from orthoproof.kernel import check_inference
from orthoproof.script import check_file
from orthoproof.syntax import Sequent, formula_eq, parse_formula, sequent_eq
from orthoproof.tactics import TacticError, derive

# two spellings of a formula, and whether they are equal modulo expansion
# and the names of bound variables
PAIRS = [
    ("p \\/ q", "~(~p /\\ ~q)", True),
    ("p >< q", "(p -> (q -> p)) /\\ (q -> (p -> q))", True),
    ("exists x. R(x)", "~forall x. ~R(x)", True),
    ("forall x. R(x)", "forall y. R(y)", True),
    ("p \\/ q", "q \\/ p", False),      # control: a pair every caller rejects
]


@pytest.mark.parametrize("a, b, equal", PAIRS)
def test_every_caller_agrees_with_the_shared_equality(a, b, equal):
    fa, fb = parse_formula(a), parse_formula(b)
    assert formula_eq(fa, fb) is equal
    assert sequent_eq(Sequent((fa,), fb), Sequent((fb,), fa)) is equal

    # the kernel: assume needs its last antecedent to equal the succedent
    assert (check_inference("assume", [], Sequent((fa,), fb), "NOM") is None) is equal

    # a script line restating a hypothesis in the other spelling
    script = f"theorem t mode=NOM\nhyp h: |- {a}\ngoal: |- {b}\n1: |- {b} by hyp h\nqed\n"
    assert check_file(script)[0].accepted is equal

    # the premise check of tactics.derive (P2.4.dni: G |- phi gives G |- ~~phi)
    if equal:
        derive("P2.4.dni", {"gamma": (), "phi": fa}, (Sequent((), fb),))
    else:
        with pytest.raises(TacticError, match="does not match"):
            derive("P2.4.dni", {"gamma": (), "phi": fa}, (Sequent((), fb),))

    # the REPL's goal notice
    session = f"hyp h: |- {a}\ngoal: |- {b}\n|- {a} by hyp h\nquit\n"
    out = CliRunner().invoke(main, ["repl"], input=session).output
    assert "1: |- " in out
    assert ("goal reached." in out) is equal
