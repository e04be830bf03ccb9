"""Formula equality modulo expansion has one definition, ``Formula.__eq__``
(and its ``__hash__``): two formulas are equal when their expansions are
alpha-equal.  Tuples of formulas and ``Sequent`` compare through it, and
every place on the proof path that compares formulas must agree with it."""

import pytest
from click.testing import CliRunner

from orthoproof.cli import main
from orthoproof.kernel import check_derivation, check_inference, hyp
from orthoproof.script import check_file
from orthoproof.syntax import Neg, Sequent, parse_formula
from orthoproof.tactics import TacticError, derive, match_and_build

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
    assert (fa == fb) is equal and (fa != fb) is not equal
    assert (hash(fa) == hash(fb)) is equal
    assert len({fa, fb}) == (1 if equal else 2)
    sa, sb = Sequent((fa,), fb), Sequent((fb,), fa)
    assert (sa == sb) is equal and ((fa,) == (fb,)) is equal
    assert (hash(sa) == hash(sb)) is equal

    # the kernel: assume needs its last antecedent to equal the succedent
    assert (check_inference("assume", [], Sequent((fa,), fb), "NOM") is None) is equal

    # a hyp leaf standing on a hypothesis in the other spelling
    leaf = hyp(Sequent((), fb))
    assert (check_derivation(leaf, "NOM", (Sequent((), fa),)) is None) is equal

    # a script line restating a hypothesis in the other spelling
    script = f"theorem t mode=NOM\nhyp h: |- {a}\ngoal: |- {b}\n1: |- {b} by hyp h\nqed\n"
    assert check_file(script)[0].accepted is equal

    # a derived line whose premise is written in the other spelling
    # (P2.4.dni: G |- phi gives G |- ~~phi), through match_and_build
    script = (f"theorem t mode=NOM\nhyp h: |- {b}\ngoal: |- ~~({a})\n"
              f"1: |- {b} by hyp h\n2: |- ~~({a}) by derived P2.4.dni from 1\nqed\n")
    assert check_file(script)[0].accepted is equal
    concl = Sequent((), Neg(Neg(fa)))
    if equal:
        d = match_and_build("P2.4.dni", (hyp(Sequent((), fb)),), concl, "NOM")
        assert check_derivation(d, "NOM", (Sequent((), fb),)) is None
    else:
        with pytest.raises(TacticError, match="bound inconsistently"):
            match_and_build("P2.4.dni", (hyp(Sequent((), fb)),), concl, "NOM")

    # the premise check of tactics.derive
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
