import os
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

from orthoproof.cli import main
from orthoproof.kernel import PREMISE_COUNTS
from orthoproof.syntax import parse_sequent, render_sequent

GOOD_SCRIPT = """\
theorem arrow mode=NOM
goal: |- p -> p
1: p |- p by assume
2: |- p -> p by imp_i from 1
qed
"""

BAD_SCRIPT = """\
theorem wrong mode=NOM
goal: |- p
1: p |- p by assume
2: |- p by imp_i from 1
qed
"""

TWO_CHAIN = "oml 2\nleq 0 1\nneg 0 1\n"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, **kw)


# --- check -------------------------------------------------------------------

def test_check_accepted_script(runner, tmp_path):
    p = tmp_path / "arrow.nom"
    p.write_text(GOOD_SCRIPT)
    res = invoke(runner, ["check", str(p)])
    assert res.exit_code == 0
    assert "arrow [NOM]: accepted" in res.output


def test_check_rejected_script(runner, tmp_path):
    p = tmp_path / "bad.nom"
    p.write_text(BAD_SCRIPT)
    res = invoke(runner, ["check", str(p)])
    assert res.exit_code == 1
    assert "rejected" in res.output


def test_check_parse_error_is_an_input_error(runner, tmp_path):
    p = tmp_path / "broken.nom"
    p.write_text("theorem t mode=NOM\ngoal: p |-\nqed\n")
    res = invoke(runner, ["check", str(p)])
    assert res.exit_code == 2
    assert "error:" in res.output


def test_check_multiple_files_tsv(runner, tmp_path):
    a = tmp_path / "a.nom"
    b = tmp_path / "b.nom"
    a.write_text(GOOD_SCRIPT)
    b.write_text(BAD_SCRIPT)
    res = invoke(runner, ["check", str(a), str(b), "--format", "tsv"])
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert lines[0].split("\t") == [str(a), "arrow", "NOM", "accepted"]
    assert lines[1].split("\t") == [str(b), "wrong", "NOM", "rejected"]


def test_check_missing_file_is_a_usage_error(runner):
    res = invoke(runner, ["check", "/nonexistent.nom"])
    assert res.exit_code == 2


@pytest.mark.parametrize("text", ["", "# only a comment\n\n   # and another\n"])
def test_check_file_without_theorems_is_an_input_error(runner, tmp_path, text):
    p = tmp_path / "empty.nom"
    p.write_text(text)
    res = invoke(runner, ["check", str(p)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [f"error: {p}: no theorems"]


# --- validate / decide2 / countermodel / classical ---------------------------

def test_validate_valid(runner):
    res = invoke(runner, ["validate", "q, p |- q", "--lattice", "2^2"])
    assert res.exit_code == 0
    assert "VALID on 2^2" in res.output


def test_validate_countermodel_default_lattice(runner):
    res = invoke(runner, ["validate", "q, p |- q"])
    assert res.exit_code == 1
    assert res.output.startswith("MO2:")


def test_validate_unknown_lattice(runner):
    res = invoke(runner, ["validate", "p |- p", "--lattice", "MO3"])
    assert res.exit_code == 2
    assert "unknown lattice" in res.output


def test_validate_lattice_file(runner, tmp_path):
    f = tmp_path / "two.oml"
    f.write_text(TWO_CHAIN)
    res = invoke(runner, ["validate", "p |- p", "--lattice-file", str(f)])
    assert res.exit_code == 0
    assert "VALID on two" in res.output


@pytest.mark.parametrize("n", [257, 100_000])
def test_validate_refuses_a_lattice_file_past_the_element_limit(n, tmp_path):
    f = tmp_path / "big.oml"
    f.write_text(f"oml {n}\nleq 0 1\nneg 0 1\n")
    res = CliRunner().invoke(main, ["validate", "p |- p", "--lattice-file", str(f)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert "more than the limit of 256" in res.stderr
    assert "Traceback" not in res.output


def test_validate_bad_sequent(runner):
    res = invoke(runner, ["validate", "p |-"])
    assert res.exit_code == 2


@pytest.mark.parametrize("sequent", [
    "(" * 200 + "p" + ")" * 200 + " |- p",   # deep parser recursion
    "~" * 3000 + "p |- p",                   # deep parser recursion
    "~" * 600 + "p |- p",                    # parses without a limit, then expand recursed too deep
], ids=["parens200", "neg3000", "neg600"])
def test_validate_too_deep_is_a_one_line_input_error(runner, sequent):
    res = invoke(runner, ["validate", sequent])
    assert res.exit_code == 2
    lines = res.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: nested deeper than")


def test_decide2_orthomodular_law_sequent(runner):
    res = invoke(runner, ["decide2", "q |- p \\/ (~p /\\ (p \\/ q))"])
    assert res.exit_code == 0
    assert res.output == "VALID (complete for 2 letters)\n"


def test_decide2_invalid_sequent(runner):
    res = invoke(runner, ["decide2", "p |- q"])
    assert res.exit_code == 1


def test_decide2_three_letters_rejected(runner):
    res = invoke(runner, ["decide2", "p, q, r |- p"])
    assert res.exit_code == 2
    assert "letters" in res.output


def test_countermodel_order_sensitivity_witness(runner):
    res = invoke(runner, ["countermodel", "q, p |- q"])
    assert res.exit_code == 1
    assert res.output == "MO2: p=1 q=3 fold=1 succ=3\n"


def test_countermodel_none_found(runner):
    res = invoke(runner, ["countermodel", "p |- p"])
    assert res.exit_code == 0
    assert "no countermodel found in battery" in res.output


def test_classical_validity(runner):
    res = invoke(runner, ["classical", "q, p |- q"])
    assert res.exit_code == 0
    assert "two-valued" in res.output
    res = invoke(runner, ["classical", "p |- q"])
    assert res.exit_code == 1
    assert res.output.startswith("2:")


def test_classical_refuses_more_letters_than_the_truth_table_budget():
    res = CliRunner().invoke(main, ["classical", ", ".join(f"p{i}" for i in range(25)) + " |- p0"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: 2^25 = 33,554,432 truth-table rows, more than the budget of 16,777,216"]



_CM = "MO2: p=1 q=3 fold=1 succ=3"


@pytest.mark.parametrize("command, sequent, fmt, code, out", [
    ("validate", "q, p |- q", "plain", 1, _CM),
    ("validate", "q, p |- q", "tsv", 1, f"countermodel\t{_CM}"),
    ("validate", "p |- p", "plain", 0, "VALID on MO2"),
    ("validate", "p |- p", "tsv", 0, "valid\tMO2"),
    ("decide2", "q, p |- q", "tsv", 1, f"countermodel\t{_CM}"),
    ("decide2", "p |- p", "plain", 0, "VALID (complete for 2 letters)"),
    ("decide2", "p |- p", "tsv", 0, "valid"),
    ("countermodel", "q, p |- q", "tsv", 1, f"countermodel\t{_CM}"),
    ("countermodel", "p |- p", "tsv", 0, "none"),
    ("classical", "p |- q", "plain", 1, "2: p=1 q=0 fold=1 succ=0"),
    ("classical", "p |- q", "tsv", 1, "countermodel\t2: p=1 q=0 fold=1 succ=0"),
    ("classical", "q, p |- q", "plain", 0, "VALID (two-valued)"),
    ("classical", "q, p |- q", "tsv", 0, "valid"),
])
def test_verdict_commands_print_one_line_and_exit_by_the_verdict(runner, command, sequent,
                                                                  fmt, code, out):
    res = invoke(runner, [command, sequent, "--format", fmt])
    assert (res.exit_code, res.output) == (code, out + "\n")


# --- hilbert-verify -----------------------------------------------------------

def test_hilbert_verify_passes(runner):
    res = invoke(runner, ["hilbert-verify", "--dim", "2", "--trials", "25",
                          "--seed", "3"])
    assert res.exit_code == 0
    assert res.output.rstrip().endswith("PASS")
    for name in ("sasaki-closure-agreement", "fold-criterion-agreement",
                 "measurement-consistency"):
        assert name in res.output


def test_hilbert_verify_deterministic(runner):
    args = ["hilbert-verify", "--dim", "3", "--trials", "10", "--seed", "42"]
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.output == second.output


def test_hilbert_verify_seed_from_environment(runner):
    by_flag = invoke(runner, ["hilbert-verify", "--dim", "2", "--trials", "8",
                              "--seed", "9"])
    by_env = invoke(runner, ["hilbert-verify", "--dim", "2", "--trials", "8"],
                    env={"ORTHOPROOF_SEED": "9"})
    assert by_flag.output == by_env.output


def test_hilbert_verify_tsv(runner):
    res = invoke(runner, ["hilbert-verify", "--dim", "2", "--trials", "5",
                          "--format", "tsv"])
    assert res.exit_code == 0
    rows = [line.split("\t") for line in res.output.strip().splitlines()]
    assert len(rows) == 3
    assert all(r[4] == "pass" for r in rows)


@pytest.mark.parametrize("dim", ["65", "100000"])
def test_hilbert_verify_dimension_above_the_limit_is_an_input_error(runner, dim, monkeypatch):
    def no_draws(*args, **kw):
        raise AssertionError("a random generator was created")

    monkeypatch.setattr("numpy.random.default_rng", no_draws)
    res = invoke(runner, ["hilbert-verify", "--dim", dim, "--trials", "100"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        f"error: --dim {dim} is above the limit of 64 (hilbert.MAX_DIM)"]


# --- catalog -------------------------------------------------------------------

def test_catalog_lists_every_entry(runner):
    res = invoke(runner, ["catalog", "--format", "tsv"])
    assert res.exit_code == 0
    rows = [line.split("\t") for line in res.output.strip().splitlines()]
    assert len(rows) >= 45
    assert rows[0][0] == "P2.1"
    ids = [r[0] for r in rows]
    assert "T3.8.OM1" in ids and "P5.7.EE" in ids


def test_catalog_plain_mentions_modes(runner):
    res = invoke(runner, ["catalog"])
    assert "T3.2.AX1" in res.output
    line = next(l for l in res.output.splitlines() if l.startswith("T3.2.AX1"))
    assert "[NOM_E]" in line


# --- repl ----------------------------------------------------------------------

def repl(runner, text, mode=None):
    args = ["repl"] if mode is None else ["repl", "--mode", mode]
    return invoke(runner, args, input=text)


def test_repl_assume_then_imp_i(runner):
    res = repl(runner, "assume p\nimp_i\nquit\n")
    assert res.exit_code == 0
    assert "1: p |- p" in res.output
    assert "2: |- p -> p" in res.output


def test_repl_exch_rejected_in_nom(runner):
    res = repl(runner, "assume a, b\nexch\nquit\n")
    assert "rejected: exch: not available in mode NOM" in res.output


def test_repl_exch_allowed_with_exchange(runner):
    res = repl(runner, "assume a, b\nexch\nquit\n", mode="NOM_E")
    assert "2: b, a |- b" in res.output


def test_repl_derived_forward_adds_a_line(runner):
    text = ("hyp h1: g |- p\nhyp h2: g |- p -> q\n"
            "g |- p by hyp h1\ng |- p -> q by hyp h2\n"
            "derived P2.1 from 1 2\nquit\n")
    res = repl(runner, text)
    assert "3: g |- q" in res.output


def test_repl_goal_reached_notice(runner):
    res = repl(runner, "goal: |- p -> p\nassume p\nimp_i\nquit\n")
    assert "goal reached." in res.output


def test_repl_export_recheck_roundtrip(runner, tmp_path):
    out = tmp_path / "session.nom"
    res = repl(runner, f"goal: |- p -> p\nassume p\nimp_i\nexport {out}\nquit\n")
    assert f"exported to {out}: accepted" in res.output
    res2 = invoke(runner, ["check", str(out)])
    assert res2.exit_code == 0
    assert "repl [NOM]: accepted" in res2.output


def test_repl_export_with_unreached_goal_is_rejected(runner, tmp_path):
    out = tmp_path / "stub.nom"
    res = repl(runner, f"goal: |- q -> q\nassume p\nexport {out}\nquit\n")
    assert f"exported to {out}: rejected" in res.output
    res2 = invoke(runner, ["check", str(out)])
    assert res2.exit_code == 1


def test_repl_quantifier_forward_steps(runner):
    text = ("R(y) |- R(y) by assume\n"
            "all_i x=y\n"
            "all_e t=c\n"
            "quit\n")
    res = repl(runner, text, mode="NOM_Q")
    assert "2: R(y) |- forall y. R(y)" not in res.output  # eigenvariable in context
    assert "rejected:" in res.output
    text2 = ("goal: |- forall y. R(y) -> R(y)\n"
             "R(y) |- R(y) by assume\n"
             "imp_i\n"
             "all_i x=y\n"
             "all_e t=c\n"
             "quit\n")
    res2 = repl(runner, text2, mode="NOM_Q")
    assert "2: |- R(y) -> R(y)" in res2.output
    assert "3: |- forall y. R(y) -> R(y)" in res2.output
    assert "goal reached." in res2.output
    assert "4: |- R(c) -> R(c)" in res2.output


def test_repl_forward_underdetermined_entry_asks_for_full_form(runner):
    res = repl(runner, "assume p\nderived C4.6.intro1\nquit\n")
    assert "state the target sequent" in res.output


def test_repl_forward_default_refs_need_enough_lines(runner):
    res = repl(runner, "imp_i\nquit\n")
    assert "rejected:" in res.output and "only 0 available" in res.output


def test_repl_full_form_line_rejected_with_kernel_message(runner):
    res = repl(runner, "|- p by assume\nquit\n")
    assert "rejected:" in res.output


def test_repl_show_and_help_and_hyp_validation(runner):
    res = repl(runner, "help\nhyp broken\nhyp h1: p |- p\nshow\nquit\n")
    assert "commands:" in res.output
    assert "usage: hyp NAME: SEQ" in res.output
    assert "mode: NOM" in res.output
    assert "goal: (unset)" in res.output


def test_repl_export_nothing(runner):
    res = repl(runner, "export /tmp/ignored.nom\nquit\n")
    assert "nothing to export" in res.output


def test_repl_bad_formula_is_reported_not_fatal(runner):
    res = repl(runner, "goal: p |-\nassume p\nquit\n")
    assert "rejected:" in res.output
    assert "1: p |- p" in res.output


# one forward step per rule, with explicit premise lines; a trailing filler
# line makes the default (most recent lines) choose differently
_FORWARD_CASES = {
    "cut": ("NOM", ["g |- p", "g, p |- q"], "cut from 1 2", "g |- q"),
    "paste": ("NOM", ["g |- p", "g |- q"], "paste from 1 2", "g, p |- q"),
    "cexch": ("NOM", ["a, b |- a", "a, b |- c", "b, a |- b"], "cexch from 1 2 3",
              "b, a |- c"),
    "and_i": ("NOM", ["g |- p", "g |- q"], "and_i from 1 2", "g |- p /\\ q"),
    "and_e1": ("NOM", ["g |- p /\\ q"], "and_e1 from 1", "g |- p"),
    "and_e2": ("NOM", ["g |- p /\\ q"], "and_e2 from 1", "g |- q"),
    "imp_i": ("NOM", ["g, p |- q"], "imp_i from 1", "g |- p -> q"),
    "imp_e": ("NOM", ["g |- p -> q"], "imp_e from 1", "g, p |- q"),
    "lem": ("NOM", ["p |- q", "~p |- q"], "lem from 1 2", "|- q"),
    "explode": ("NOM", ["g |- ~p"], "explode from 1",
                "rejected: explode's succedent is unconstrained; state the target sequent"),
    "wk": ("NOM", ["g |- p"], "wk from 1",
           "rejected: wk's added context is unconstrained; state the target sequent"),
    "exch": ("NOM_E", ["a, b |- c"], "exch from 1", "b, a |- c"),
    "qexch": ("NOM_q", ["a, b |- c"], "qexch from 1", "b, a |- c"),
    "all_i": ("NOM_Q", ["|- R(y)"], "all_i x=y from 1", "|- forall y. R(y)"),
    "all_e": ("NOM_Q", ["|- forall x. R(x)"], "all_e t=c from 1", "|- R(c)"),
}


@pytest.mark.parametrize("rule", [r for r in PREMISE_COUNTS if PREMISE_COUNTS[r]])
def test_repl_forward_step_with_explicit_premises(runner, rule):
    mode, premises, step, expected = _FORWARD_CASES[rule]
    text = "".join(f"hyp h{i}: {s}\n{s} by hyp h{i}\n" for i, s in enumerate(premises))
    res = repl(runner, text + "assume z\n" + step + "\nquit\n", mode=mode)
    assert res.exit_code == 0
    assert f"{len(premises) + 1}: z |- z" in res.output
    if not expected.startswith("rejected:"):
        expected = f"{len(premises) + 2}: {expected}"
    assert expected in res.output


def test_repl_forward_wk_over_a_forall_premise_is_one_rejected_line(runner):
    # the premise's succedent is a forall, which the all_e branch would read
    text = "hyp h: |- forall x. R(x)\n|- forall x. R(x) by hyp h\nwk from 1\n" \
        "p |- forall x. R(x) by wk from 1\nquit\n"
    res = repl(runner, text, mode="NOM_Q")
    assert res.exit_code == 0 and "Traceback" not in res.output
    assert "rejected: wk's added context is unconstrained; state the target sequent" \
        in res.output
    assert "2: p |- forall x. R(x)" in res.output


def _chain(depth, atom):
    text = atom
    for _ in range(depth):
        text = f"{atom} >< ({text})"
    return text


def _printed(text):
    return render_sequent(parse_sequent(text))


def test_repl_forward_lines_print_the_formulas_as_written(runner, tmp_path):
    # >< nested 12 and 8 deep: printed through their expansions, the catalog,
    # all_e, imp_e and and_e lines ran to megabytes
    chain = _chain(12, "p")
    out = tmp_path / "dni.nom"
    res = repl(runner, f"assume {chain}\nderived P2.4.dni\nexport {out}\nquit\n")
    dni = _printed(f"{chain} |- ~~({chain})")
    assert f"2: {dni}\n" in res.output
    assert f"exported to {out}: accepted" in res.output
    assert len(out.read_text()) < 1024
    body, instance = f"forall x. ({_chain(8, 'R(x)')})", _printed("|- " + _chain(8, "R(c)"))
    text = f"hyp h: |- {body}\n|- {body} by hyp h\nall_e t=c\nquit\n"
    res2 = repl(runner, text, mode="NOM_Q")
    assert f"2: {instance}\n" in res2.output
    imp, conj = f"({chain}) -> q", f"q /\\ ({chain})"
    res3 = repl(runner, f"assume {imp}\nimp_e\nassume {conj}\nand_e2\nquit\n")
    detached, conjunct = _printed(f"{imp}, {chain} |- q"), _printed(f"{conj} |- {chain}")
    assert f"2: {detached}\n" in res3.output and f"4: {conjunct}\n" in res3.output
    for line in (res.output + res2.output + res3.output).splitlines():
        assert len(line) < 1024


def test_repl_and_e_on_a_compatibility_prints_its_operands_as_written(runner):
    # read through its expansion, and_e1 on a 10-deep chain printed 285,691 characters
    chain = _chain(10, "p")
    res = repl(runner, f"assume {chain}\nand_e1\nquit\n")
    conjunct = _printed(f"{chain} |- p -> ({_chain(9, 'p')}) -> p")
    assert f"2: {conjunct}\n" in res.output
    assert len(res.output) <= 10240


def test_existential_introduction_reads_a_deep_goal_as_written(runner, tmp_path):
    # read through its expansion, this 12-deep goal took over a minute to match
    instance, body = _chain(12, "R(c)"), _chain(12, "R(x)")
    p = tmp_path / "ei.nom"
    p.write_text(f"theorem ei mode=NOM_q\nhyp h: |- {instance}\n"
                 f"goal: |- ~forall x. ~({body})\n1: |- {instance} by hyp h\n"
                 f"2: |- ~forall x. ~({body}) by derived P5.7.EI t=c from 1\nqed\n")
    start = time.perf_counter()
    res = invoke(runner, ["check", str(p)])
    assert res.exit_code == 0 and "ei [NOM_q]: accepted" in res.output
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("mode, goal, just", [
    ("NOM_E", "|- p -> (q -> p)", "derived T3.2.AX1 t=c x=y"),
    ("NOM_Q", "|- (forall x. R(x)) >< R(c)", "derived L5.6 t=d t=c"),
])
def test_a_derived_line_with_arguments_its_entry_does_not_read_is_bad_input(
        runner, tmp_path, mode, goal, just):
    p = tmp_path / "args.nom"
    p.write_text(f"theorem t mode={mode}\ngoal: {goal}\n1: {goal} by {just}\nqed\n")
    res = invoke(runner, ["check", str(p)])
    assert res.exit_code == 2 and "takes" in res.output
    assert len(res.output.strip().splitlines()) == 1


# a derived line with a premise too few or too many: (goal, justification, message)
MISCOUNTED = [
    ("|- exists x. R(x)", "derived P5.7.EI t=c", "P5.7.EI takes 1 premises, got 0"),
    ("|- (forall x. R(x)) >< R(c)", "derived L5.6 t=c from 1", "L5.6 takes 0 premises, got 1"),
]


@pytest.mark.parametrize("goal, just, message", MISCOUNTED)
def test_a_derived_line_with_the_wrong_premise_count_is_a_rejected_line(
        runner, tmp_path, goal, just, message):
    p = tmp_path / "count.nom"
    p.write_text(f"theorem t mode=NOM_Q\nhyp h: |- R(c)\ngoal: {goal}\n"
                 f"1: |- R(c) by hyp h\n2: {goal} by {just}\nqed\n")
    res = invoke(runner, ["check", str(p)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert [ln.strip() for ln in res.output.splitlines() if ln.strip().startswith("line ")] \
        == [f"line 2: {message}"]


@pytest.mark.parametrize("goal, just, message", MISCOUNTED)
def test_repl_derived_line_with_the_wrong_premise_count_is_one_rejected_line(
        runner, goal, just, message):
    res = repl(runner, f"hyp h: |- R(c)\n|- R(c) by hyp h\n{goal} by {just}\nshow\nquit\n",
               mode="NOM_Q")
    assert res.exit_code == 0 and res.exception is None
    assert res.output.count("rejected:") == 1 and f"rejected: {message}" in res.output
    assert "mode: NOM_Q" in res.output  # the next command is answered


def test_repl_reads_goal_lines_by_the_script_grammar(runner):
    # a script accepts whitespace before the goal's colon; so does the session
    res = repl(runner, "goal : |- p -> p\nassume p\nimp_i\nquit\n")
    assert "goal: |- p -> p" in res.output and "rejected" not in res.output
    assert "goal reached." in res.output


def test_repl_forward_qexch_keeps_the_free_variable_condition(runner):
    text = "assume R(x), S(x)\nqexch from 1\nquit\n"
    res = repl(runner, text, mode="NOM_q")
    assert "rejected: qexch: swapped formulas share a free variable" in res.output


_NOT_INFERRED = "conclusion cannot be inferred from premises alone; state the target sequent"


@pytest.mark.parametrize("line, message", [
    ("frob from 1", "unrecognized input; 'help' lists commands"),
    ("hyp", "usage: hyp NAME: SEQ"),
    ("assume", "assume needs its context"),
    ("imp_i from x", "'from' takes line numbers"),
    ("imp_i t=c from 1", "imp_i takes no instantiation arguments"),
    ("all_e from 1", "all_e takes one t= argument"),
    # a quantifier entry, with or without its t=, gets infer_conclusion's answer
    ("derived P5.7.EI", f"P5.7.EI: {_NOT_INFERRED}"),
    ("derived P5.7.EI t=c", f"P5.7.EI: {_NOT_INFERRED}"),
    ("derived L5.6", f"L5.6: {_NOT_INFERRED}"),
    ("derived L5.6 t=c", f"L5.6: {_NOT_INFERRED}"),
])
def test_repl_forward_rejections(runner, line, message):
    res = repl(runner, f"assume p\n{line}\nquit\n", mode="NOM_Q")
    assert f"rejected: {message}" in res.output


@pytest.mark.parametrize("line, message", [
    ("p |- p by assume t=c", "assume takes no instantiation arguments"),
    ("|- p -> p by imp_i x=y from 1", "imp_i takes no instantiation arguments"),
    ("p |- forall x. p by all_i from 1", "all_i takes one x= argument"),
    ("all_i x=y t=c from 1", "all_i takes one x= argument"),
    ("p |- ~~p by derived P2.4.dni t=c from 1", "P2.4.dni takes no instantiation arguments"),
    ("derived P2.4.dni t=c from 1", "P2.4.dni takes no instantiation arguments"),
])
def test_repl_steps_take_only_the_arguments_their_rule_reads(runner, line, message):
    # the SEQ by JUST form and the forward form share the script's grammar
    res = repl(runner, f"assume p\n{line}\nshow\nquit\n", mode="NOM_Q")
    assert f"rejected: {message}" in res.output
    assert "\n2:" not in res.output


def test_repl_duplicate_hyp_is_rejected_when_declared(runner):
    res = repl(runner, "hyp h1: p |- p\nhyp h1: q |- q\nassume p\nshow\nquit\n")
    assert "rejected: duplicate hypothesis 'h1'" in res.output
    assert "1: p |- p" in res.output
    assert "hyp h1: q |- q" not in res.output


def test_repl_export_to_a_bad_path_keeps_the_session(runner, tmp_path):
    text = f"assume p\nexport {tmp_path}\nexport {tmp_path}/missing/s.nom\nassume q\nquit\n"
    res = repl(runner, text)
    assert res.exit_code == 0
    assert res.output.count("rejected: cannot write") == 2
    assert "2: q |- q" in res.output


def test_repl_step_is_parsed_with_the_session_signature(runner, tmp_path):
    out = tmp_path / "r.nom"
    res = repl(runner, f"goal: R(x) |- R(x)\nassume R\nassume R(x)\nexport {out}\nquit\n")
    assert "rejected: relation R used without arguments" in res.output
    assert "1: R(x) |- R(x)" in res.output
    assert f"exported to {out}: accepted" in res.output


def test_repl_rejected_step_leaves_no_symbols_behind(runner):
    # the rejected line would have made p a relation
    res = repl(runner, "|- p(a) by assume\nassume p\nquit\n")
    assert "rejected:" in res.output
    assert "1: p |- p" in res.output


def test_repl_rejected_step_leaves_no_memoised_parse_behind(runner):
    # the rejected first line parses S(x) with S of one argument; the copy of
    # the signature that line used, memo included, is dropped with it
    res = repl(runner, "R(x) |- S(x) by assume\nS(x, y) |- S(x, y) by assume\n"
                       "R(x) |- S(x) by assume\nquit\n")
    out = res.output.splitlines()
    assert "rejected: assume:" in out[1]
    assert "1: S(x,y) |- S(x,y)" in out[2]
    assert "rejected: relation S takes 2 arguments" in out[3]


def test_repl_session_keeps_the_interned_letter_nodes(capsys):
    # each step parses with a copy of the session signature; the copy must
    # hand out the shared nodes, not deep copies of them
    from orthoproof.cli import _Session
    from orthoproof.syntax import Letter
    session = _Session("NOM")
    for step in ("assume p", "p |- p by assume", "imp_i"):
        assert session.handle(step)
    assert session.sig.letters["p"] is Letter("p")
    assert all(ln.sequent.succedent.left is Letter("p") for ln in session.lines[2:])
    assert "rejected" not in capsys.readouterr().out


def test_repl_export_of_every_kind_of_step_checks(runner, tmp_path):
    out = tmp_path / "kinds.nom"
    text = ("hyp h1: g |- p\nhyp h2: g |- p -> q\n"
            "g |- p by hyp h1\n"             # SEQ by JUST
            "g |- p -> q by hyp h2\n"
            "derived P2.1 from 1 2\n"        # derived forward step
            "imp_i from 3\n"                 # primitive forward step
            "g |- p /\\ q by and_i from 1 3\n"
            f"export {out}\nquit\n")
    res = repl(runner, text)
    assert "5: g |- p /\\ q" in res.output
    assert f"exported to {out}: accepted" in res.output
    res2 = invoke(runner, ["check", str(out)])
    assert res2.exit_code == 0
    assert "repl [NOM]: accepted" in res2.output


def test_repl_checks_each_step_once_and_never_rechecks_the_session(monkeypatch, tmp_path, capsys):
    from orthoproof import cli, script
    from orthoproof.cli import _Session
    calls = {"check_file": 0, "check_inference": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "check_file", counted("check_file", cli.check_file))
    monkeypatch.setattr(script, "check_inference",
                        counted("check_inference", script.check_inference))
    session = _Session("NOM")
    # (input, script.check_inference calls it may make)
    steps = [("hyp h: |- p", 0), ("|- p by hyp h", 0), ("derived P2.4.dni from 1", 0)]
    for n in range(2, 34, 4):               # lines n+1 .. n+4, all primitive
        steps += [("assume p", 1), ("imp_i", 1), ("p |- p by assume", 1),
                  (f"|- p -> p by imp_i from {n + 3}", 1)]
    for step, expected in steps:
        before = calls["check_inference"]
        assert session.handle(step)
        assert calls["check_inference"] - before == expected
    assert len(session.lines) == 34
    assert "rejected" not in capsys.readouterr().out
    assert calls["check_file"] == 0
    session.handle(f"export {tmp_path / 's.nom'}")
    assert calls["check_file"] == 1
    assert "accepted" in capsys.readouterr().out


_NOT_PROPOSITIONAL = ("forall x. R(x) |- R(c)", "R(c) |- R(c)")


@pytest.mark.parametrize("command", ["validate", "countermodel", "classical", "decide2"])
@pytest.mark.parametrize("sequent", _NOT_PROPOSITIONAL)
def test_semantics_commands_refuse_a_predicate_sequent(command, sequent):
    res = CliRunner().invoke(main, [command, sequent])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert "not propositional" in res.stderr
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args", [["check"], ["validate", "p |- p", "--lattice-file"]])
def test_undecodable_input_file_is_an_input_error(args, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    res = CliRunner().invoke(main, args + [str(bad)])
    assert res.exit_code == 2
    assert len(res.stderr.splitlines()) == 1
    assert "can't decode" in res.stderr
    assert "Traceback" not in res.output


def test_importing_the_cli_does_not_import_numpy():
    code = "import sys, orthoproof.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                         check=True)
    assert out.stdout == "False\n"


def test_validate_four_letters_on_f2_valid_through_the_factors():
    res = CliRunner().invoke(main, ["validate", "p /\\ q, r, s |- s", "--lattice", "F2"])
    assert res.exit_code == 0
    assert res.stdout == "VALID on F2\n"


def test_countermodel_seven_letters_valid_through_two():
    # F2's factor 2^4 alone would need 16^7 cells; 2^4 is valid through 2
    res = CliRunner().invoke(main, ["countermodel", "p /\\ q, r, s, t, u |- v \\/ ~v"])
    assert res.exit_code == 0
    assert "no countermodel found in battery" in res.stdout


def test_validate_four_letters_on_f2_past_the_sweep_budget():
    res = CliRunner().invoke(main, ["validate", "p, q, r |- s", "--lattice", "F2"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert "more than the sweep budget" in res.stderr
    assert "Traceback" not in res.output


def _run_module(args, cwd):
    return subprocess.run([sys.executable, "-m", *args], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


@pytest.mark.parametrize("module", ["orthoproof.cli", "orthoproof"])
def test_python_dash_m_runs_the_command_line(module, tmp_path):
    (tmp_path / "empty.nom").write_text("")
    (tmp_path / "bad.nom").write_text(BAD_SCRIPT)
    res = _run_module([module, "check", "empty.nom"], tmp_path)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.splitlines() == ["error: empty.nom: no theorems"]
    res = _run_module([module, "check", "bad.nom"], tmp_path)
    assert res.returncode == 1 and "wrong [NOM]: rejected" in res.stdout
    demo = os.path.join(os.path.dirname(__file__), os.pardir, "proofs", "demo.nom")
    res = _run_module([module, "check", demo], tmp_path)
    assert res.returncode == 0 and "accepted" in res.stdout
