"""Command-line front end.

One executable, eight subcommands: batch proof checking, per-lattice
validation, the two-letter decision procedure, battery countermodel
search, a two-valued classicality check, the numerical subspace sweeps,
a catalog listing, and an interactive forward-proof session that can
export what it built as a re-checkable script.

Exit codes: 0 success / valid / accepted, 1 rejected / countermodel
found, 2 usage or input errors.  Reports are deterministic for a fixed
seed (ORTHOPROOF_SEED, default 0, for the subspace sweeps).
"""

from __future__ import annotations

import pathlib
import re
import sys

import click

from .hilbert import verify as hilbert_verify_rows
from .kernel import MODES, PREMISE_COUNTS
from .lattice import LatticeFileError, by_name, parse_lattice
from .script import ScriptError, check_file, parse_justification, split_by
from .semantics import (
    Valid, classical_valid, countermodel_search, decide_two_var,
    validate_sequent,
)
from .syntax import (  # parse_term is unused here; the benchmark's tracer wraps it
    And, Forall, Imp, ParseError, Sequent, Signature, SignatureError, expand,
    parse_sequent, parse_term, render_sequent, render_term, sequent_eq, substitute,
)
from .tactics import TacticError, infer_conclusion
from .tactics import catalog as catalog_entries
from .tactics import lookup as catalog_lookup

_FORMAT = click.option("--format", "fmt", type=click.Choice(["plain", "tsv"]),
                       default="plain", show_default=True,
                       help="report layout")


def _input_error(msg) -> "None":
    click.echo(f"error: {msg}", err=True)
    sys.exit(2)


def _parse_cli_sequent(text: str) -> Sequent:
    try:
        return parse_sequent(text)
    except (ParseError, SignatureError) as err:
        _input_error(err)


@click.group()
def main():
    """Sequent proof checking and finite-model validation tools.

    Sequents on the command line use the same grammar as proof scripts:
    comma-separated antecedent, `|-`, succedent; connectives ~ /\\ \\/
    -> ><; quantifiers `forall x. ...` and `exists x. ...`.
    """


@main.command()
@click.argument("paths", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@_FORMAT
def check(paths, fmt):
    """Check proof script files; exit 0 only if every theorem is accepted."""
    all_ok = True
    for path in paths:
        try:
            reports = check_file(pathlib.Path(path).read_text())
        except (ParseError, SignatureError, ScriptError) as err:
            _input_error(f"{path}: {err}")
        for r in reports:
            all_ok = all_ok and r.accepted
            verdict = "accepted" if r.accepted else "rejected"
            if fmt == "tsv":
                click.echo(f"{path}\t{r.name}\t{r.mode}\t{verdict}")
            else:
                click.echo(f"{path}: {r}")
    sys.exit(0 if all_ok else 1)


@main.command()
@click.argument("sequent")
@click.option("--lattice", "name", default="MO2", show_default=True,
              help="built-in lattice: 2, 2^2, MO2, 2xMO2, F2")
@click.option("--lattice-file", type=click.Path(exists=True, dir_okay=False),
              help="load a lattice description instead")
@_FORMAT
def validate(sequent, name, lattice_file, fmt):
    """Check one sequent against one finite lattice, all assignments."""
    s = _parse_cli_sequent(sequent)
    try:
        if lattice_file:
            L = parse_lattice(pathlib.Path(lattice_file).read_text(),
                              name=pathlib.Path(lattice_file).stem)
        else:
            L = by_name(name)
    except (LatticeFileError, KeyError) as err:
        _input_error(err.args[0])
    v = validate_sequent(s, L)
    if isinstance(v, Valid):
        click.echo(f"valid\t{L.name}" if fmt == "tsv" else f"VALID on {L.name}")
        sys.exit(0)
    click.echo(f"countermodel\t{v}" if fmt == "tsv" else str(v))
    sys.exit(1)


@main.command()
@click.argument("sequent")
@_FORMAT
def decide2(sequent, fmt):
    """Decide a two-letter sequent (complete for two letters)."""
    s = _parse_cli_sequent(sequent)
    try:
        v = decide_two_var(s)
    except ValueError as err:
        _input_error(err)
    if isinstance(v, Valid):
        click.echo("valid" if fmt == "tsv" else "VALID (complete for 2 letters)")
        sys.exit(0)
    click.echo(f"countermodel\t{v}" if fmt == "tsv" else str(v))
    sys.exit(1)


@main.command()
@click.argument("sequent")
@_FORMAT
def countermodel(sequent, fmt):
    """Search the lattice battery for a falsifying assignment."""
    s = _parse_cli_sequent(sequent)
    v = countermodel_search(s)
    if isinstance(v, Valid):
        click.echo("none" if fmt == "tsv" else "no countermodel found in battery")
        sys.exit(0)
    click.echo(f"countermodel\t{v}" if fmt == "tsv" else str(v))
    sys.exit(1)


@main.command()
@click.argument("sequent")
@_FORMAT
def classical(sequent, fmt):
    """Check two-valued validity of a sequent."""
    s = _parse_cli_sequent(sequent)
    if classical_valid(s):
        click.echo("valid" if fmt == "tsv" else "VALID (two-valued)")
        sys.exit(0)
    v = validate_sequent(s, by_name("2"))
    click.echo(f"countermodel\t{v}" if fmt == "tsv" else str(v))
    sys.exit(1)


@main.command("hilbert-verify")
@click.option("--dim", default=3, show_default=True,
              type=click.IntRange(min=1), help="ambient dimension")
@click.option("--trials", default=100, show_default=True,
              type=click.IntRange(min=1), help="instances per sweep")
@click.option("--seed", default=0, show_default=True,
              envvar="ORTHOPROOF_SEED", type=int)
@_FORMAT
def hilbert_verify(dim, trials, seed, fmt):
    """Run the seeded subspace-model sweeps; exit 0 only if all pass."""
    rows = hilbert_verify_rows(dim, trials, seed)
    if fmt == "tsv":
        for r in rows:
            click.echo(f"{r.name}\t{r.instances}\t{r.failures}"
                       f"\t{r.worst:.3e}\t{'pass' if r.passed else 'FAIL'}")
    else:
        width = max(len(r.name) for r in rows)
        click.echo(f"{'check':<{width}}  instances  failures      worst")
        for r in rows:
            click.echo(f"{r.name:<{width}}  {r.instances:>9}  {r.failures:>8}"
                       f"  {r.worst:>9.3e}")
        click.echo("PASS" if all(r.passed for r in rows) else "FAIL")
    sys.exit(0 if all(r.passed for r in rows) else 1)


@main.command()
@_FORMAT
def catalog(fmt):
    """List the derived-rule catalog."""
    for e in catalog_entries():
        modes = ",".join(e.modes)
        if fmt == "tsv":
            click.echo(f"{e.id}\t{len(e.premises)}\t{modes}\t{e.locus}")
        else:
            click.echo(f"{e.id:<14} {len(e.premises)} premises"
                       f"  [{modes}]  {e.locus}")
    sys.exit(0)


# ---------------------------------------------------------------------------
# interactive session

_LINE_PREFIX = re.compile(r"^line \d+: ")

_HELP = """\
commands:
  hyp NAME: SEQ               declare a hypothesis
  goal: SEQ                   set (or replace) the goal
  SEQ by JUSTIFICATION        add a line in proof-script syntax
  RULE [t=|x=] [from N ...]   apply a primitive rule forward
  derived ID [from N ...]     apply a catalog entry forward
  assume F1, F2, ...          start a line: context, last formula repeated
  show                        print hypotheses, goal, and accepted lines
  export PATH                 write the session as a script and re-check it
  help | quit
forward applications take the most recent lines when `from` is omitted;
t=/x= values are written without spaces; `exch` and `qexch` swap the last
two antecedent formulas (use the full form for other positions)."""


class _Forward(Exception):
    """Forward application could not produce a conclusion."""


def _forward_primitive(rule, args, prems):
    """Conclusion of a forward rule application; the kernel re-checks it."""
    wanted = {"all_i": ["x"], "all_e": ["t"]}.get(rule, [])
    if list(args) != wanted:
        raise _Forward(f"{rule} takes " + (f"one {wanted[0]}= argument" if wanted
                                           else "no instantiation arguments"))
    (p1, *rest) = prems
    ante, succ, e = p1.antecedent, p1.succedent, expand(p1.succedent)
    if rule == "cut":
        return Sequent(ante, rest[0].succedent)
    if rule == "paste":
        return Sequent(ante + (succ,), rest[0].succedent)
    if rule == "cexch":
        return Sequent(prems[2].antecedent, prems[1].succedent)
    if rule == "and_i":
        return Sequent(ante, And(succ, rest[0].succedent))
    if rule in ("and_e1", "and_e2"):
        if not isinstance(e, And):
            raise _Forward("the premise succedent is not a conjunction")
        return Sequent(ante, e.left if rule == "and_e1" else e.right)
    if rule == "imp_i":
        if not ante:
            raise _Forward("imp_i needs a premise with an antecedent")
        return Sequent(ante[:-1], Imp(ante[-1], succ))
    if rule == "imp_e":
        if not isinstance(e, Imp):
            raise _Forward("the premise succedent is not an arrow")
        return Sequent(ante + (e.left,), e.right)
    if rule == "lem":
        if not ante:
            raise _Forward("lem premises need a final assumption to discharge")
        return Sequent(ante[:-1], succ)
    if rule == "explode":
        raise _Forward("explode's succedent is unconstrained; "
                       "state the target sequent")
    if rule in ("exch", "qexch"):
        if len(ante) < 2:
            raise _Forward(f"{rule} needs at least two antecedent formulas")
        return Sequent(ante[:-2] + (ante[-1], ante[-2]), succ)
    if rule == "all_i":
        return Sequent(ante, Forall(args["x"], succ))
    if not isinstance(e, Forall):
        raise _Forward("the premise succedent is not universally quantified")
    return Sequent(ante, substitute(e.body, e.var, args["t"]))


class _Session:
    def __init__(self, mode):
        self.mode = mode
        self.hyps = []          # (name, sequent text)
        self.goal = None        # sequent text
        self.steps = []         # (sequent text, justification text)

    # -- script assembly ----------------------------------------------------

    def _script_text(self, goal_text):
        lines = [f"theorem repl mode={self.mode}"]
        lines.extend(f"hyp {n}: {t}" for n, t in self.hyps)
        lines.append(f"goal: {goal_text}")
        lines.extend(f"{i}: {s} by {j}"
                     for i, (s, j) in enumerate(self.steps, 1))
        lines.append("qed")
        return "\n".join(lines) + "\n"

    def _try_step(self, seq_text, just):
        self.steps.append((seq_text, just))
        try:
            report = check_file(self._script_text(goal_text=seq_text))[0]
            msg = None if report.accepted else next(
                (st.message for st in report.lines if not st.ok), report.message)
        except (ScriptError, ParseError, SignatureError) as err:
            msg = _LINE_PREFIX.sub("", str(err))
        if msg is not None:
            self.steps.pop()
            click.echo(f"rejected: {msg}")
            return
        click.echo(f"{len(self.steps)}: {seq_text}")
        if self.goal is not None and sequent_eq(parse_sequent(seq_text),
                                                parse_sequent(self.goal)):
            click.echo("goal reached.")

    # -- forward application -------------------------------------------------

    def _resolve_refs(self, refs, arity):
        n = len(self.steps)
        if not refs and n < arity:
            raise _Forward(f"needs {arity} premise line(s); only {n} available")
        refs = refs or range(n - arity + 1, n + 1)
        if len(refs) != arity:
            raise _Forward(f"needs {arity} premise line(s), got {len(refs)}")
        bad = [r for r in refs if not 1 <= r <= n]
        if bad:
            raise _Forward(f"no line {bad[0]}")
        return list(refs)

    def _forward(self, line):
        head, _, remainder = line.partition(" ")
        remainder = remainder.strip()
        if head == "assume":
            if not remainder:
                raise _Forward("assume needs its context: assume g, p")
            s = parse_sequent(f"{remainder} |- p")   # succedent is discarded
            concl = Sequent(s.antecedent, s.antecedent[-1])
            self._try_step(render_sequent(concl), "assume")
            return
        if head != "derived" and head not in PREMISE_COUNTS:
            raise _Forward("unrecognized input; 'help' lists commands")
        # the script justification grammar: RULE [t=|x=] [from N ...]
        rule, eid, args, refs, _ = parse_justification(line, Signature())
        if eid is not None and args:
            raise _Forward("forward derived lines take no arguments; "
                           "state the target sequent")
        arity = PREMISE_COUNTS[rule] if eid is None else len(catalog_lookup(eid).premises)
        refs = self._resolve_refs(refs, arity)
        prems = [parse_sequent(self.steps[r - 1][0]) for r in refs]
        if eid is None:
            concl = _forward_primitive(rule, dict(args), prems)
        else:
            concl = infer_conclusion(eid, prems)
            rule = f"derived {eid}"
        just = rule + "".join(f" {k}={render_term(v)}" for k, v in args)
        if refs:
            just += f" from {' '.join(map(str, refs))}"
        self._try_step(render_sequent(concl), just)

    # -- commands -------------------------------------------------------------

    def _show(self):
        click.echo(f"mode: {self.mode}")
        for n, t in self.hyps:
            click.echo(f"hyp {n}: {t}")
        click.echo(f"goal: {self.goal if self.goal else '(unset)'}")
        for i, (s, j) in enumerate(self.steps, 1):
            click.echo(f"{i}: {s}  by {j}")

    def _export(self, path):
        if not self.steps:
            click.echo("nothing to export")
            return
        goal_text = self.goal if self.goal else self.steps[-1][0]
        text = self._script_text(goal_text)
        pathlib.Path(path).write_text(text)
        report = check_file(text)[0]
        verdict = "accepted" if report.accepted else "rejected"
        click.echo(f"exported to {path}: {verdict}")
        if not report.accepted:
            click.echo(report.message)

    def handle(self, raw) -> bool:
        line = raw.strip()
        if not line or line.startswith("#"):
            return True
        if line in ("quit", "exit"):
            return False
        if line == "help":
            click.echo(_HELP)
            return True
        if line == "show":
            self._show()
            return True
        try:
            if line.partition(" ")[0] == "hyp":
                decl, _, seq_text = line[4:].partition(":")
                name, seq_text = decl.strip(), seq_text.strip()
                if not name or " " in name or not seq_text:
                    raise _Forward("usage: hyp NAME: SEQ")
                parse_sequent(seq_text)
                self.hyps.append((name, seq_text))
                click.echo(f"hyp {name}: {seq_text}")
            elif line.startswith("goal:"):
                seq_text = line[5:].strip()
                parse_sequent(seq_text)
                self.goal = seq_text
                click.echo(f"goal: {seq_text}")
            elif line.startswith("export "):
                self._export(line[7:].strip())
            else:
                parts = split_by(line)
                if parts:
                    self._try_step(parts[0].strip(), parts[1].strip())
                else:
                    self._forward(line)
        except (_Forward, TacticError, ScriptError, ParseError, SignatureError) as err:
            click.echo(f"rejected: {err}")
        return True


@main.command()
@click.option("--mode", default="NOM", show_default=True,
              type=click.Choice(MODES))
def repl(mode):
    """Interactive forward-proof session; type 'help' for commands."""
    session = _Session(mode)
    click.echo(f"interactive session, mode {mode}; 'help' lists commands")
    while True:
        click.echo(f"{mode}> ", nl=False)
        raw = sys.stdin.readline()
        if not raw:
            click.echo("")
            break
        if not session.handle(raw):
            break
    sys.exit(0)
