import copy
import dataclasses
import textwrap

import pytest

from orthoproof import script
from orthoproof.script import (
    ProofScript, ScriptError, ScriptLine, check_file, check_script, parse_script_file,
)
from orthoproof.syntax import Sequent, Var, parse_sequent

S = parse_sequent


def parse_one(src):
    scripts = parse_script_file(textwrap.dedent(src))
    assert len(scripts) == 1
    return scripts[0]


def run_one(src):
    reports = check_file(textwrap.dedent(src))
    assert len(reports) == 1
    return reports[0]


GOOD = """\
    theorem double_negation mode=NOM
      hyp H: g |- p
      goal: g |- ~~p
      # introduce the double negation via the catalog
      1: g |- p by hyp H
      2: g |- ~~p by derived P2.4.dni from 1
    qed
"""


class TestParsing:
    def test_fields(self):
        s = parse_one(GOOD)
        assert s.name == "double_negation"
        assert s.mode == "NOM"
        assert s.goal == S("g |- ~~p")
        assert s.hypotheses == (("H", S("g |- p")),)
        assert [ln.number for ln in s.lines] == [1, 2]
        assert s.lines[0].rule == "hyp" and s.lines[0].hyp_name == "H"
        assert s.lines[1].rule == "derived"
        assert s.lines[1].catalog_id == "P2.4.dni"
        assert s.lines[1].refs == (1,)

    def test_comments_and_blank_lines(self):
        s = parse_one("""\
            # leading banner

            theorem t mode=NOM   # trailing note
              goal: p |- p
              1: p |- p by assume  # closes immediately
            qed
        """)
        assert len(s.lines) == 1

    def test_multiple_theorems(self):
        scripts = parse_script_file(textwrap.dedent("""\
            theorem a mode=NOM
              goal: p |- p
              1: p |- p by assume
            qed
            theorem b mode=NOM_E
              goal: q |- q
              1: q |- q by assume
            qed
        """))
        assert [s.name for s in scripts] == ["a", "b"]
        assert [s.mode for s in scripts] == ["NOM", "NOM_E"]

    def test_last_by_is_the_pivot(self):
        # 'by' may occur as a letter inside the sequent text
        s = parse_one("""\
            theorem t mode=NOM
              goal: by |- by
              1: by |- by by assume
            qed
        """)
        assert s.lines[0].sequent == S("by |- by")
        assert s.lines[0].rule == "assume"

    def test_quantifier_arguments(self):
        s = parse_one("""\
            theorem t mode=NOM_Q
              goal: forall x. R(x) |- R(c)
              1: forall x. R(x) |- forall x. R(x) by assume
              2: forall x. R(x) |- R(c) by all_e t=c from 1
            qed
        """)
        (key, term), = s.lines[1].args
        assert key == "t"
        assert s.lines[1].refs == (1,)

    @pytest.mark.parametrize("src,frag", [
        ("theorem t mode=NOPE\n  goal: p |- p\nqed", "unknown mode"),
        ("theorem t mode=NOM\n  goal: p |- p\n  1: p |- p by shazam\nqed",
         "unknown rule"),
        ("theorem t mode=NOM\n  hyp H: p |- p\n  hyp H: q |- q\n"
         "  goal: p |- p\nqed", "duplicate hypothesis"),
        ("theorem t mode=NOM\n  goal: p |- p\n  hyp H: p |- p\nqed",
         "precede the goal"),
        ("theorem t mode=NOM\n  goal: p |- p\n  goal: q |- q\nqed",
         "duplicate goal"),
        ("theorem t mode=NOM\n  goal: p |- p\n  2: p |- p by assume\n"
         "  1: p |- p by assume\nqed", "must increase"),
        ("theorem t mode=NOM\n  goal: p |- p\n  1: p |- p by assume\n",
         "missing 'qed'"),
        ("theorem t mode=NOM\n  1: p |- p by assume\nqed",
         "follow the goal"),
        ("theorem t mode=NOM\nqed", "without a goal"),
        ("1: p |- p by assume\n", "expected 'theorem"),
        ("theorem t mode=NOM\n  goal: p |- p\n  1: p |- p by assume oops\nqed",
         "unexpected token"),
        ("theorem t mode=NOM\n  goal: p |- p\n  1: p |- p by assume from\nqed",
         "at least one line number"),
        ("theorem t mode=NOM\n  goal: p |- p\n  1: p |- p by cut from one\nqed",
         "line numbers"),
        ("theorem t mode=NOM_Q\n  goal: p |- p\n"
         "  1: p |- p by all_e t=( from 1\nqed", "bad t="),
        ("theorem t mode=NOM\n  goal: p |- p\n  1: p |- by assume\nqed",
         ". formula"),
        # a primitive rule takes exactly the instantiation argument it reads
        ("theorem t mode=NOM\n  goal: p |- p\n  1: p |- p by assume t=c\nqed",
         "line 3: assume takes no instantiation arguments"),
        ("theorem t mode=NOM\n  goal: |- p -> p\n  1: p |- p by assume\n"
         "  2: |- p -> p by imp_i x=y from 1\nqed", "imp_i takes no instantiation arguments"),
        ("theorem t mode=NOM_Q\n  hyp H: |- R(y)\n  goal: |- forall x. R(x)\n"
         "  1: |- R(y) by hyp H\n  2: |- forall x. R(x) by all_i from 1\nqed",
         "all_i takes one x= argument"),
        ("theorem t mode=NOM_Q\n  goal: forall x. R(x) |- R(c)\n"
         "  1: forall x. R(x) |- R(c) by all_e t=c x=y from 1\nqed",
         "all_e takes one t= argument"),
        ("theorem t mode=NOM_Q\n  goal: forall x. R(x) |- R(c)\n"
         "  1: forall x. R(x) |- R(c) by all_e t=c t=d from 1\nqed",
         "all_e takes one t= argument"),
        ("theorem t mode=NOM_Q\n  goal: forall x. R(x) |- R(c)\n"
         "  1: forall x. R(x) |- R(c) by all_i t=c from 1\nqed",
         "all_i takes one x= argument"),
        # a derived line takes exactly the arguments its catalog entry reads
        ("theorem t mode=NOM_E\n  goal: |- p -> (q -> p)\n"
         "  1: |- p -> (q -> p) by derived T3.2.AX1 t=c x=y\nqed",
         "line 3: T3.2.AX1 takes no instantiation arguments"),
        ("theorem t mode=NOM\n  goal: p |- ~~p\n  1: p |- p by assume\n"
         "  2: p |- ~~p by derived P2.4.dni t=c from 1\nqed",
         "P2.4.dni takes no instantiation arguments"),
        ("theorem t mode=NOM_Q\n  goal: |- (forall x. R(x)) >< R(c)\n"
         "  1: |- (forall x. R(x)) >< R(c) by derived L5.6 t=d t=c\nqed",
         "L5.6 takes one t= argument"),
        ("theorem t mode=NOM_Q\n  goal: |- (forall x. R(x)) >< R(c)\n"
         "  1: |- (forall x. R(x)) >< R(c) by derived L5.6\nqed",
         "L5.6 takes one t= argument"),
        ("theorem t mode=NOM_Q\n  goal: |- (forall x. R(x)) >< R(c)\n"
         "  1: |- (forall x. R(x)) >< R(c) by derived L5.6 x=x\nqed",
         "L5.6 takes one t= argument"),
        ("theorem t mode=NOM_Q\n  hyp h: |- R(c)\n  goal: |- exists x. R(x)\n"
         "  1: |- R(c) by hyp h\n  2: |- exists x. R(x) by derived P5.7.EI t=c t=c from 1\nqed",
         "P5.7.EI takes one t= argument"),
    ])
    def test_rejects(self, src, frag):
        with pytest.raises(ScriptError, match=frag):
            parse_script_file(src)

    def test_error_carries_line_number(self):
        try:
            parse_script_file("theorem t mode=NOM\n  goal: p |- p\n  oops\nqed")
        except ScriptError as exc:
            assert exc.lineno == 3
        else:
            pytest.fail("no error raised")


    @pytest.mark.parametrize("body,lineno,frag", [
        # each kind of line inside a theorem, wrong where it stands
        ("  1: p |- p by assume\n  goal: p |- p", 2, "proof lines must follow the goal"),
        ("  goal: p |- p\n  hyp H: p |- p", 3, "hypotheses must precede the goal"),
        ("  goal: p |- p\n  goal p |- p", 3, "expected 'goal: SEQUENT'"),
        ("  goal: p |- p\n  1: p |- p by assume\n  1: p |- p by assume", 4,
         "line numbers must increase"),
        ("  goal: p |- p\n  hyp: p |- p", 3, "expected a numbered proof line"),
        ("  goal: p |- p\n  1 p |- p by assume", 3, "expected a numbered proof line"),
        ("  goal: p |- p\n  1: p |- p", 3, "expected 'SEQUENT by RULE ...'"),
        ("  goal: p |- p\n  theorem u mode=NOM", 3, "expected a numbered proof line"),
    ])
    def test_each_line_kind_reports_its_error_and_line(self, body, lineno, frag):
        with pytest.raises(ScriptError) as exc:
            parse_script_file(f"theorem t mode=NOM\n{body}\nqed\n")
        assert exc.value.lineno == lineno
        assert str(exc.value) == f"line {lineno}: {frag}"


class TestScriptLineRecord:
    def line(self):
        return parse_one("""\
            theorem t mode=NOM_Q
              goal: forall x. R(x) |- R(c)
              1: forall x. R(x) |- forall x. R(x) by assume
              2: forall x. R(x) |- R(c) by all_e t=c from 1
            qed
        """).lines[1]

    def test_fields_and_defaults(self):
        ln = self.line()
        assert (ln.number, ln.rule, ln.refs, ln.source_line) == (2, "all_e", (1,), 4)
        assert ln.catalog_id is None and ln.hyp_name is None
        bare = ScriptLine(1, S("p |- p"), "assume")
        assert (bare.catalog_id, bare.args, bare.refs, bare.hyp_name, bare.source_line) \
            == (None, (), (), None, 0)
        assert ScriptLine(number=1, sequent=S("p |- p"), rule="assume") == bare

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ScriptLine)])
    def test_fields_cannot_be_assigned(self, name):
        ln = self.line()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ln, name, None)

    def test_copy_and_replace_give_an_equal_record(self):
        ln = self.line()
        for c in (copy.copy(ln), dataclasses.replace(ln)):
            assert c == ln and hash(c) == hash(ln)
        assert dataclasses.replace(ln, number=3).number == 3


class TestChecking:
    def test_primitive_proof_accepted(self):
        r = run_one("""\
            theorem arrow mode=NOM
              goal: |- p -> p
              1: p |- p by assume
              2: |- p -> p by imp_i from 1
            qed
        """)
        assert r.accepted, str(r)
        assert r.derivation is not None
        assert str(r).startswith("arrow [NOM]: accepted")

    def test_leading_weakening_line(self):
        r = run_one("""\
            theorem weak mode=NOM
              goal: q, p |- p
              1: p |- p by assume
              2: q, p |- p by wk from 1
            qed
        """)
        assert r.accepted, str(r)
        assert r.derivation.rule == "wk"
        # the paper's non-theorem: weakening at the end of the context
        r = run_one("""\
            theorem trailing mode=NOM
              goal: q, p |- q
              1: q |- q by assume
              2: q, p |- q by wk from 1
            qed
        """)
        assert not r.accepted
        assert "premise antecedent must be a suffix of the conclusion's" in str(r)

    def test_report_repr_does_not_unfold_the_derivation(self):
        r = run_one(GOOD)
        assert len(repr(r)) < 1000

    def test_derived_line_without_premises(self):
        r = run_one("""\
            theorem boom mode=NOM
              goal: r, ~p, p |- q
              1: r, ~p, p |- q by derived L2.3.1
            qed
        """)
        assert r.accepted, str(r)

    def test_open_proof_uses_hypotheses(self):
        r = run_one(GOOD)
        assert r.accepted, str(r)
        assert r.derivation.premises[0].rule == "hyp"

    def test_unknown_hypothesis_name(self):
        r = run_one("""\
            theorem t mode=NOM
              hyp H: g |- p
              goal: g |- p
              1: g |- p by hyp G
            qed
        """)
        assert not r.accepted
        assert "no hypothesis named 'G'" in str(r)

    def test_hyp_line_must_restate_exactly(self):
        r = run_one("""\
            theorem t mode=NOM
              hyp H: g |- p
              goal: g |- q
              1: g |- q by hyp H
            qed
        """)
        assert not r.accepted
        assert "differs from hypothesis" in str(r)

    def test_forward_reference_rejected(self):
        r = run_one("""\
            theorem t mode=NOM
              goal: |- p -> p
              1: |- p -> p by imp_i from 2
              2: p |- p by assume
            qed
        """)
        assert not r.accepted
        assert "not proven yet" in str(r)

    def test_bad_rule_application_reported_per_line(self):
        r = run_one("""\
            theorem t mode=NOM
              goal: |- q -> p
              1: q, p |- p by assume
              2: |- q -> p by imp_i from 1
            qed
        """)
        assert not r.accepted
        assert [ls.ok for ls in r.lines] == [True, False]

    def test_final_line_must_match_goal(self):
        r = run_one("""\
            theorem t mode=NOM
              goal: |- q -> q
              1: p |- p by assume
              2: |- p -> p by imp_i from 1
            qed
        """)
        assert not r.accepted
        assert "does not match the goal" in r.message

    def test_goal_matches_modulo_expansion(self):
        # the goal is written expanded, the proof line sugared
        r = run_one("""\
            theorem t mode=NOM
              goal: p |- ~(~p /\\ ~q)
              1: p |- p by assume
              2: p |- p \\/ q by derived C4.6.intro1 from 1
            qed
        """)
        assert r.accepted, str(r)

    def test_exchange_needs_the_classical_mode(self):
        src = """\
            theorem swap mode={mode}
              goal: q, p |- q
              1: p, q |- q by assume
              2: q, p |- q by exch from 1
            qed
        """
        assert run_one(src.format(mode="NOM_E")).accepted
        r = run_one(src.format(mode="NOM"))
        assert not r.accepted
        assert not r.lines[1].ok

    def test_derived_entry_mode_gate(self):
        src = """\
            theorem ax mode={mode}
              goal: |- p -> (q -> p)
              1: |- p -> (q -> p) by derived T3.2.AX1
            qed
        """
        assert run_one(src.format(mode="NOM_E")).accepted
        r = run_one(src.format(mode="NOM"))
        assert not r.accepted
        assert "mode" in str(r)

    def test_quantifier_rules_inline(self):
        r = run_one("""\
            theorem inst mode=NOM_Q
              goal: forall x. R(x) |- R(c)
              1: forall x. R(x) |- forall x. R(x) by assume
              2: forall x. R(x) |- R(c) by all_e t=c from 1
            qed
        """)
        assert r.accepted, str(r)

    def test_generalization_records_the_eigenvariable(self):
        r = run_one("""\
            theorem gen mode=NOM_Q
              hyp H: |- R(y)
              goal: |- forall x. R(x)
              1: |- R(y) by hyp H
              2: |- forall x. R(x) by all_i x=y from 1
            qed
        """)
        assert r.accepted, str(r)
        assert r.derivation.instantiation == Var("y")

    def test_an_unknown_catalog_id_is_a_rejected_line(self):
        # the argument check leaves an unknown id to the line's check
        r = run_one("""\
            theorem t mode=NOM
              goal: p |- p
              1: p |- p by derived NO.SUCH t=c
            qed
        """)
        assert not r.accepted and "unknown catalog id 'NO.SUCH'" in str(r)

    def test_derived_quantifier_entry(self):
        r = run_one("""\
            theorem compat mode=NOM_Q
              goal: |- (forall x. R(x)) >< R(c)
              1: |- (forall x. R(x)) >< R(c) by derived L5.6 t=c
            qed
        """)
        assert r.accepted, str(r)

    @pytest.mark.parametrize("goal, rule", [
        # check_line checked the derived line's tree; a final check would repeat it
        ("g |- ~~p", "derived P2.4.dni from 1"),
        # check_line judged a primitive line as one inference; its tree is checked last
        ("g |- p /\\ p", "and_i from 1 1"),
    ])
    def test_the_final_tree_is_checked_once(self, monkeypatch, goal, rule):
        roots, real = [], script.check_derivation
        monkeypatch.setattr(script, "check_derivation",
                            lambda d, *args: roots.append(d) or real(d, *args))
        r = run_one(f"""\
            theorem t mode=NOM
              hyp H: g |- p
              goal: {goal}
              1: g |- p by hyp H
              2: {goal} by {rule}
            qed
        """)
        assert r.accepted, str(r)
        assert roots == [r.derivation]

    def test_empty_theorem_rejected(self):
        r = check_script(ProofScript("t", "NOM", S("|- p")))
        assert not r.accepted
        assert "no proof lines" in r.message
