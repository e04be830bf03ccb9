"""Textual proof scripts: parsing and checking.

A script file holds one or more theorem blocks::

    theorem NAME mode=NOM_E
      hyp H1: p |- q
      goal: |- p -> q
      1: p |- q by hyp H1
      2: |- p -> q by imp_i from 1
    qed

Each numbered line is justified either by a primitive rule, by a catalog
entry (``by derived ID``), or by restating a declared hypothesis
(``by hyp NAME``).  Premise references (``from N1 N2``) must point at
earlier lines.  Quantifier rules carry their instantiation inline as
``t=TERM`` or ``x=VAR``.  ``#`` starts a comment anywhere on a line.

Checking never trusts the justification text: every line is rebuilt as a
kernel derivation and re-validated with ``check_derivation``, including
the fully expanded output of catalog entries.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .kernel import MODES, RULES, Derivation, check_derivation, check_inference
from .syntax import ParseError, Sequent, Signature, Var, parse_sequent, parse_term


class ScriptError(Exception):
    """Raised when a script file cannot be parsed."""

    def __init__(self, message: str, lineno: int = 0):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}" if lineno else message)


@dataclass(frozen=True, init=False)
class ScriptLine:
    number: int
    sequent: Sequent
    rule: str                       # RuleId, "derived", or "hyp"
    catalog_id: Optional[str] = None
    args: tuple = ()                # (("t", Term) | ("x", Var)) pairs
    refs: tuple = ()                # earlier line numbers
    hyp_name: Optional[str] = None
    source_line: int = 0

    def __init__(self, number, sequent, rule, catalog_id=None, args=(), refs=(),
                 hyp_name=None, source_line=0):  # one write; lines are few, so are their dicts
        object.__setattr__(self, "__dict__", {
            "number": number, "sequent": sequent, "rule": rule, "catalog_id": catalog_id,
            "args": args, "refs": refs, "hyp_name": hyp_name, "source_line": source_line})


@dataclass(frozen=True)
class ProofScript:
    name: str
    mode: str
    goal: Sequent
    hypotheses: tuple = ()          # (name, Sequent) pairs
    lines: tuple = ()


@dataclass
class LineStatus:
    number: int
    ok: bool
    message: str = "ok"


@dataclass
class ScriptReport:
    name: str
    mode: str
    accepted: bool
    lines: list = field(default_factory=list)
    message: str = ""
    derivation: Optional[Derivation] = None

    def __str__(self):
        verdict = "accepted" if self.accepted else "rejected"
        out = [f"{self.name} [{self.mode}]: {verdict}"]
        for ls in self.lines:
            if not ls.ok:
                out.append(f"  line {ls.number}: {ls.message}")
        if self.message and not self.accepted:
            out.append(f"  {self.message}")
        return "\n".join(out)


_THEOREM_RE = re.compile(r"theorem\s+(\S+)\s+mode=(\S+)\s*$")
HYP_RE = re.compile(r"hyp\s+([A-Za-z_][A-Za-z0-9_']*)\s*:\s*(.*)$")
GOAL_RE = re.compile(r"goal\s*:(.*)$")
_STEP_RE = re.compile(r"(\d+)\s*:\s*(.*)$")
# the greedy prefix splits at the last 'by', also in runs like "... by by RULE"
_BY_RE = re.compile(r"(.*)\s\bby\b(?=\s)(.*)")
_ARG_RE = re.compile(r"([tx])=(\S+)$")
# the one instantiation argument a primitive rule takes; the others take none,
# and a derived line takes those of its catalog entry
_WANTED = {"all_i": ["x"], "all_e": ["t"]}


def strip_comment(raw: str) -> str:
    """A line without its ``#`` comment and surrounding whitespace."""
    cut = raw.find("#")
    if cut >= 0:
        raw = raw[:cut]
    return raw.strip()


def split_by(text):
    """Split ``SEQUENT by JUSTIFICATION`` at its last ``by``; None without one."""
    m = _BY_RE.match(" " + text)
    return m.groups() if m else None


def _catalog_arguments(entry_id):
    """The keys a ``derived`` line of the entry gives (see CatalogEntry); None
    for an unknown id, which checking the line reports."""
    from .tactics import TacticError, lookup
    try:
        return lookup(entry_id).arguments
    except TacticError:
        return None


def parse_justification(text, sig, lineno=0):
    """Split the part after ``by`` into (rule, catalog_id, args, refs, hyp).

    The REPL's forward steps use the same grammar without the sequent."""
    tokens = text.split()
    if not tokens:
        raise ScriptError("missing justification after 'by'", lineno)
    if tokens[0] == "hyp":
        if len(tokens) != 2:
            raise ScriptError("'by hyp' takes exactly one hypothesis name", lineno)
        return "hyp", None, (), (), tokens[1]
    catalog_id = None
    if tokens[0] == "derived":
        if len(tokens) < 2:
            raise ScriptError("'derived' needs a catalog id", lineno)
        rule, catalog_id = "derived", tokens[1]
        tokens = tokens[2:]
    else:
        rule = tokens[0]
        if rule not in RULES:
            raise ScriptError(f"unknown rule '{rule}'", lineno)
        tokens = tokens[1:]
    args = []
    while tokens:
        m = _ARG_RE.match(tokens[0])
        if not m:
            break
        key, src = m.group(1), m.group(2)
        try:
            term = parse_term(src, sig)
        except ParseError as exc:
            raise ScriptError(f"bad {key}= argument: {exc}", lineno)
        if key == "x" and not isinstance(term, Var):
            raise ScriptError("x= must name a variable", lineno)
        args.append((key, term))
        tokens = tokens[1:]
    name, wanted = (rule, _WANTED.get(rule, [])) if catalog_id is None \
        else (catalog_id, _catalog_arguments(catalog_id))
    if wanted is not None and [k for k, _ in args] != list(wanted):
        raise ScriptError(f"{name} takes " + (f"one {wanted[0]}= argument" if wanted
                                              else "no instantiation arguments"), lineno)
    refs = ()
    if tokens:
        if tokens[0] != "from":
            raise ScriptError(f"unexpected token '{tokens[0]}'", lineno)
        try:
            refs = tuple(int(t) for t in tokens[1:])
        except ValueError:
            raise ScriptError("'from' takes line numbers", lineno)
        if not refs:
            raise ScriptError("'from' needs at least one line number", lineno)
    return rule, catalog_id, tuple(args), refs, None


def _sequent(src, sig, lineno):
    try:
        return parse_sequent(src, sig)
    except ParseError as exc:
        raise ScriptError(str(exc), lineno)


def parse_step(number: int, text: str, sig: Signature, lineno: int = 0) -> ScriptLine:
    """Parse one proof line, ``SEQUENT by JUSTIFICATION``, with ``sig``.

    Scripts and the REPL read their steps through this one function."""
    parts = split_by(text)
    if parts is None:
        raise ScriptError("expected 'SEQUENT by RULE ...'", lineno)
    seq_src, just = parts
    rule, cid, args, refs, hyp_name = parse_justification(just, sig, lineno)
    return ScriptLine(number, _sequent(seq_src, sig, lineno), rule, cid,
                      args, refs, hyp_name, lineno)


def parse_script_file(text: str, signature: Optional[Signature] = None):
    """Parse a file into a tuple of ProofScripts.

    All theorems share one signature, so relation arities and letter/atom
    distinctions stay consistent across the file.
    """
    sig = signature if signature is not None else Signature()
    scripts = []
    name = mode = goal = None
    hyps: list = []
    steps: list = []
    in_theorem = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if not line:
            continue
        if not in_theorem:
            m = _THEOREM_RE.match(line)
            if not m:
                raise ScriptError("expected 'theorem NAME mode=...'", lineno)
            name, mode = m.group(1), m.group(2)
            if mode not in MODES:
                raise ScriptError(f"unknown mode '{mode}'", lineno)
            goal, hyps, steps = None, [], []
            in_theorem = True
        elif m := _STEP_RE.match(line):  # the most frequent line first
            if goal is None:
                raise ScriptError("proof lines must follow the goal", lineno)
            number = int(m.group(1))
            if steps and number <= steps[-1].number:
                raise ScriptError("line numbers must increase", lineno)
            steps.append(parse_step(number, m.group(2), sig, lineno))
        elif line == "qed":
            if goal is None:
                raise ScriptError("theorem ended without a goal", lineno)
            scripts.append(ProofScript(name, mode, goal, tuple(hyps), tuple(steps)))
            in_theorem = False
        elif m := HYP_RE.match(line):
            if goal is not None:
                raise ScriptError("hypotheses must precede the goal", lineno)
            hname = m.group(1)
            if any(h[0] == hname for h in hyps):
                raise ScriptError(f"duplicate hypothesis '{hname}'", lineno)
            hyps.append((hname, _sequent(m.group(2), sig, lineno)))
        elif line.startswith("goal"):
            if not (m := GOAL_RE.match(line)):
                raise ScriptError("expected 'goal: SEQUENT'", lineno)
            if goal is not None:
                raise ScriptError("duplicate goal", lineno)
            goal = _sequent(m.group(1), sig, lineno)
        else:
            raise ScriptError("expected a numbered proof line", lineno)
    if in_theorem:
        raise ScriptError("missing 'qed' at end of file", len(text.splitlines()))
    return tuple(scripts)


def check_line(ln: ScriptLine, derivations: dict, hypotheses: dict, mode: str):
    """Check one line against the derivations of the earlier lines (by line
    number) and the declared hypotheses (by name).

    Returns the line's derivation, or the message saying why it fails.
    Scripts and the REPL check their lines through this one function."""
    missing = [r for r in ln.refs if r not in derivations]
    if missing:
        return f"reference to line {missing[0]}, which is not proven yet"
    premises = [derivations[r] for r in ln.refs]
    if ln.rule == "hyp":
        declared = hypotheses.get(ln.hyp_name)
        if declared is None:
            return f"no hypothesis named '{ln.hyp_name}'"
        if ln.sequent != declared:
            return f"sequent differs from hypothesis {ln.hyp_name}"
        return Derivation(ln.sequent, "hyp")
    if ln.rule == "derived":
        from .tactics import TacticError, match_and_build
        try:
            d = match_and_build(ln.catalog_id, premises, ln.sequent, mode, dict(ln.args))
        except TacticError as exc:
            return str(exc)
        fail = check_derivation(d, mode, tuple(hypotheses.values()))
        return d if fail is None else str(fail)
    instantiation = ln.args[0][1] if ln.args else None  # see _WANTED
    violation = check_inference(ln.rule, [p.conclusion for p in premises],
                                ln.sequent, mode, instantiation)
    if violation is not None:
        return str(violation)
    return Derivation(ln.sequent, ln.rule, tuple(premises), instantiation)


def check_script(script: ProofScript) -> ScriptReport:
    """Re-derive every line through the kernel and report per-line status."""
    report = ScriptReport(script.name, script.mode, accepted=False)
    hyps = dict(script.hypotheses)
    derivations = {}
    for ln in script.lines:
        result = check_line(ln, derivations, hyps, script.mode)
        ok = isinstance(result, Derivation)
        report.lines.append(LineStatus(ln.number, ok, "ok" if ok else result))
        if ok:
            derivations[ln.number] = result
        elif all(r in derivations for r in ln.refs):
            # keep downstream lines checkable; acceptance is already lost
            derivations[ln.number] = Derivation(ln.sequent, "hyp")

    if not script.lines:
        report.message = "no proof lines"
        return report
    last = script.lines[-1]
    if all(ls.ok for ls in report.lines):
        if last.sequent == script.goal:
            final = derivations[last.number]
            # check_line judged a derived line's whole tree by this same call
            fail = None if last.rule == "derived" else check_derivation(
                final, script.mode, tuple(hyps.values()))
            if fail is None:
                report.accepted = True
                report.derivation = final
            else:
                report.message = str(fail)
        else:
            report.message = "final line does not match the goal"
    return report


def check_file(text: str, signature: Optional[Signature] = None):
    """Parse and check every theorem in a file; returns the reports."""
    return [check_script(s) for s in parse_script_file(text, signature)]
