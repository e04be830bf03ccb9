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
import sys

import click

from .kernel import MODES, PREMISE_COUNTS
from .script import (
    GOAL_RE, HYP_RE, ScriptError, ScriptLine, check_file, check_line, parse_justification,
    parse_step, split_by, strip_comment,
)
from .syntax import (  # parse_term is unused here; the benchmark's tracer wraps it
    ParseError, Sequent, Signature, SignatureError, parse_sequent, parse_term,
    render_sequent, render_term,
)
from .tactics import TacticError, forward, infer_conclusion
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


def _read_input(path) -> str:
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        _input_error(f"{path}: {err}")


def _evaluate(fn, *args):
    """Run a semantics function; a sequent that is not propositional is an input error."""
    try:
        return fn(*args)
    except ValueError as err:
        _input_error(err)


def _verdict(v, fmt, valid_tsv, valid_plain):
    """Print a semantics verdict and exit: 0 when valid, 1 with the countermodel."""
    from .semantics import Valid
    if isinstance(v, Valid):
        click.echo(valid_tsv if fmt == "tsv" else valid_plain)
        sys.exit(0)
    click.echo(f"countermodel\t{v}" if fmt == "tsv" else str(v))
    sys.exit(1)


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
            reports = check_file(_read_input(path))
        except (ParseError, SignatureError, ScriptError) as err:
            _input_error(f"{path}: {err}")
        if not reports:
            _input_error(f"{path}: no theorems")
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
    from .lattice import LatticeFileError, by_name, parse_lattice
    from .semantics import validate_sequent
    s = _parse_cli_sequent(sequent)
    try:
        if lattice_file:
            L = parse_lattice(_read_input(lattice_file),
                              name=pathlib.Path(lattice_file).stem)
        else:
            L = by_name(name)
    except (LatticeFileError, KeyError) as err:
        _input_error(err.args[0])
    _verdict(_evaluate(validate_sequent, s, L), fmt, f"valid\t{L.name}", f"VALID on {L.name}")


@main.command()
@click.argument("sequent")
@_FORMAT
def decide2(sequent, fmt):
    """Decide a two-letter sequent (complete for two letters)."""
    from .semantics import decide_two_var
    v = _evaluate(decide_two_var, _parse_cli_sequent(sequent))
    _verdict(v, fmt, "valid", "VALID (complete for 2 letters)")


@main.command()
@click.argument("sequent")
@_FORMAT
def countermodel(sequent, fmt):
    """Search the lattice battery for a falsifying assignment."""
    from .semantics import countermodel_search
    v = _evaluate(countermodel_search, _parse_cli_sequent(sequent))
    _verdict(v, fmt, "none", "no countermodel found in battery")


@main.command()
@click.argument("sequent")
@_FORMAT
def classical(sequent, fmt):
    """Check two-valued validity of a sequent."""
    from .lattice import by_name
    from .semantics import Valid, classical_valid, validate_sequent
    s = _parse_cli_sequent(sequent)
    # the truth table decides; 2 is swept only to report a countermodel
    v = Valid() if _evaluate(classical_valid, s) else validate_sequent(s, by_name("2"))
    _verdict(v, fmt, "valid", "VALID (two-valued)")


@main.command("hilbert-verify")
@click.option("--dim", default=3, show_default=True,
              type=click.IntRange(min=1), help="ambient dimension")
@click.option("--trials", default=100, show_default=True,
              type=click.IntRange(min=1), help="instances per sweep")
@click.option("--seed", default=0, show_default=True,
              envvar="ORTHOPROOF_SEED", type=int)
@_FORMAT
def hilbert_verify(dim, trials, seed, fmt):
    """Run the seeded subspace-model sweeps; exit 0 only if all pass.
    --dim is at most hilbert.MAX_DIM."""
    from .hilbert import MAX_DIM, verify as hilbert_verify_rows
    if dim > MAX_DIM:
        _input_error(f"--dim {dim} is above the limit of {MAX_DIM} (hilbert.MAX_DIM)")
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


class _Rejected(Exception):
    """An input the session answers with one 'rejected: ...' line."""


def _say(text):
    """The REPL's one write to stdout, unflushed: its loop flushes once per answer."""
    sys.stdout.write(text)


def _justification(ln):
    """The text after ``by`` that parses back into the justification of ``ln``."""
    if ln.rule == "hyp":
        return f"hyp {ln.hyp_name}"
    words = [ln.rule] if ln.catalog_id is None else ["derived", ln.catalog_id]
    words += [f"{k}={render_term(v)}" for k, v in ln.args]
    return " ".join(words + (["from", *map(str, ln.refs)] if ln.refs else []))


class _Session:
    """Hypotheses, goal and lines parsed with one signature; each line is
    checked once, by the script's line checker, when it is entered, and
    answered in one write that ends with the prompt."""

    def __init__(self, mode):
        self.mode = mode
        self.prompt = f"{mode}> "
        self.sig = Signature()
        self.hyps = {}          # name -> Sequent
        self.goal = None        # Sequent
        self.lines = []         # accepted ScriptLines, numbered from 1
        self.derivations = {}   # line number -> checked Derivation

    def _script(self, goal):
        return ([f"hyp {n}: {render_sequent(s)}" for n, s in self.hyps.items()]
                + [f"goal: {goal}"]
                + [f"{ln.number}: {render_sequent(ln.sequent)} by {_justification(ln)}"
                   for ln in self.lines])

    def _add(self, ln):
        result = check_line(ln, self.derivations, self.hyps, self.mode)
        if isinstance(result, str):
            raise _Rejected(result)
        self.lines.append(ln)
        self.derivations[ln.number] = result
        reached = "\ngoal reached." if ln.sequent == self.goal else ""
        return f"{ln.number}: {render_sequent(ln.sequent)}{reached}"

    # -- forward application -------------------------------------------------

    def _resolve_refs(self, refs, arity):
        n = len(self.lines)
        if not refs and n < arity:
            raise _Rejected(f"needs {arity} premise line(s); only {n} available")
        refs = refs or tuple(range(n - arity + 1, n + 1))
        if len(refs) != arity:
            raise _Rejected(f"needs {arity} premise line(s), got {len(refs)}")
        bad = [r for r in refs if not 1 <= r <= n]
        if bad:
            raise _Rejected(f"no line {bad[0]}")
        return refs

    def _forward(self, line):
        number = len(self.lines) + 1
        head, _, remainder = line.partition(" ")
        remainder = remainder.strip()
        if head == "assume":
            if not remainder:
                raise _Rejected("assume needs its context: assume g, p")
            depth, cut = 0, -1          # the last formula follows the last top-level comma
            for i, ch in enumerate(remainder):
                depth += (ch == "(") - (ch == ")")
                if ch == "," and not depth:
                    cut = i
            text = f"{remainder} |- {remainder[cut + 1:]} by assume"
            return self._add(parse_step(number, text, self.sig))
        if head != "derived" and head not in PREMISE_COUNTS:
            raise _Rejected("unrecognized input; 'help' lists commands")
        if head == "derived" and remainder:
            # no quantifier entry's conclusion is inferred: say so before asking for its t=
            eid = remainder.split()[0]
            if catalog_lookup(eid).matcher is not None:
                infer_conclusion(eid, ())  # raises, asking for the target sequent
        # the script justification grammar: RULE [t=|x=] [from N ...]
        rule, eid, args, refs, _ = parse_justification(line, self.sig)
        arity = PREMISE_COUNTS[rule] if eid is None else len(catalog_lookup(eid).premises)
        refs = self._resolve_refs(refs, arity)
        prems = [self.lines[r - 1].sequent for r in refs]
        concl = (forward(rule, prems, dict(args)).conclusion if eid is None
                 else infer_conclusion(eid, prems))
        return self._add(ScriptLine(number, concl, rule, eid, args, refs))

    # -- commands -------------------------------------------------------------

    def _export(self, path):
        if not self.lines:
            return "nothing to export"
        goal = self.goal if self.goal is not None else self.lines[-1].sequent
        text = "\n".join([f"theorem repl mode={self.mode}",
                          *self._script(render_sequent(goal)), "qed\n"])
        try:
            pathlib.Path(path).write_text(text)
        except OSError as err:
            raise _Rejected(f"cannot write {path}: {err.strerror or err}")
        report = check_file(text)[0]
        return (f"exported to {path}: accepted" if report.accepted
                else f"exported to {path}: rejected\n{report.message}")

    def handle(self, raw) -> bool:
        line = strip_comment(raw)
        if line in ("quit", "exit"):
            return False
        # parsing only adds to the signature: a rejected line's entries are each table's last
        sizes = [len(t) for t in vars(self.sig).values()]
        try:
            if not line:
                answer = None
            elif line == "help":
                answer = _HELP
            elif line == "show":
                goal = "(unset)" if self.goal is None else render_sequent(self.goal)
                answer = "\n".join([f"mode: {self.mode}", *self._script(goal)])
            elif line.partition(" ")[0] == "hyp":
                m = HYP_RE.match(line)
                if not m or not m.group(2):
                    raise _Rejected("usage: hyp NAME: SEQ")
                if m.group(1) in self.hyps:
                    raise _Rejected(f"duplicate hypothesis '{m.group(1)}'")
                self.hyps[m.group(1)] = parse_sequent(m.group(2), self.sig)
                answer = f"hyp {m.group(1)}: {m.group(2)}"
            elif m := GOAL_RE.match(line):
                self.goal = parse_sequent(m.group(1), self.sig)
                answer = f"goal: {m.group(1).strip()}"
            elif line.startswith("export "):
                answer = self._export(line[7:].strip())
            elif split_by(line):
                answer = self._add(parse_step(len(self.lines) + 1, line, self.sig))
            else:
                answer = self._forward(line)
        except (_Rejected, TacticError, ScriptError, ParseError, SignatureError) as err:
            for table, size in zip(vars(self.sig).values(), sizes):
                while len(table) > size:  # dicts keep insertion order
                    table.popitem()
            answer = f"rejected: {err}"
        _say(self.prompt if answer is None else f"{answer}\n{self.prompt}")
        return True


@main.command()
@click.option("--mode", default="NOM", show_default=True,
              type=click.Choice(MODES))
def repl(mode):
    """Interactive forward-proof session; type 'help' for commands."""
    session = _Session(mode)
    for stream in sys.stdin, sys.stdout:  # an undecodable byte is read, and written back, as is
        stream.reconfigure(errors="surrogateescape")
    _say(f"interactive session, mode {mode}; 'help' lists commands\n{session.prompt}")
    while True:
        sys.stdout.flush()  # once per answer, before blocking on the next read
        raw = sys.stdin.readline()
        if not raw or not session.handle(raw):
            break
    if not raw:
        _say("\n")  # end of input ends the prompt's line
    sys.stdout.flush()
    sys.exit(0)


if __name__ == "__main__":
    main()
