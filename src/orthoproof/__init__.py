"""Proof kernel, derived-rule catalog, and model checkers for
noncommutative orthomodular natural deduction (NOM and friends)."""

from .syntax import (
    Formula, Letter, Atom, Neg, And, Imp, Or, Compat, Forall, Exists,
    Var, Const, App, Sequent, Signature, ParseError, SignatureError,
    parse_formula, parse_sequent, unfold, expand, substitute, is_nonduplicating,
    render, render_sequent,
)

__version__ = "0.1.0"
