r"""Formulas, terms, and sequents for orthomodular natural deduction.

Core connectives are ~ (orthocomplement), /\ (meet), -> (Sasaki arrow)
and the quantifier forall; \/ , >< (compatibility) and exists are kept
as derived nodes until `expand` rewrites them away.  All syntax values
are immutable, and formulas compare equal up to renaming of bound
variables.  Formula nodes are hash-consed: building a node with the
class and fields of a live one returns that node.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field

DEFAULT_SORT = "_"

__all__ = [
    "DEFAULT_SORT",
    "Var", "Const", "App",
    "Formula", "Letter", "Atom", "Neg", "And", "Imp", "Or", "Compat",
    "Forall", "Exists",
    "Sequent", "Signature", "ParseError", "SignatureError",
    "parse_formula", "parse_sequent", "parse_term",
    "expand", "formula_eq", "context_eq", "sequent_eq", "children",
    "substitute", "free_variables", "is_nonduplicating",
    "render", "render_term", "render_sequent", "letters", "alpha_key",
]


class ParseError(Exception):
    """Raised on malformed input; carries a character offset."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class SignatureError(Exception):
    """Raised on undeclared or inconsistently used symbols."""


# ---------------------------------------------------------------------------
# terms
#
# every term and formula node knows its height: the nodes on the longest path
# down its tree, terms included, computed once from its children's heights


@dataclass(frozen=True)
class Var:
    name: str
    sort: str = DEFAULT_SORT
    height = 1


@dataclass(frozen=True)
class Const:
    name: str
    sort: str = DEFAULT_SORT
    height = 1


@dataclass(frozen=True)
class App:
    name: str
    args: tuple
    sort: str = DEFAULT_SORT

    def __post_init__(self):
        object.__setattr__(self, "height", 1 + max((t.height for t in self.args), default=0))


def term_free_vars(t) -> frozenset:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Const):
        return frozenset()
    out = frozenset()
    for a in t.args:
        out |= term_free_vars(a)
    return out


def substitute_term(t, name: str, r):
    if isinstance(t, Var):
        return r if t.name == name else t
    if isinstance(t, Const):
        return t
    return App(t.name, tuple(substitute_term(a, name, r) for a in t.args), t.sort)


def render_term(t) -> str:
    """Print a term; no internal whitespace, so terms survive any tokenizer."""
    if isinstance(t, (Var, Const)):
        return t.name
    return t.name + "(" + ",".join(render_term(a) for a in t.args) + ")"


def _term_key(t, env, depth):
    if isinstance(t, Var):
        if env and t.name in env:
            return ("b", depth - env[t.name], t.sort)
        return ("v", t.name, t.sort)
    if isinstance(t, Const):
        return ("c", t.name, t.sort)
    return ("f", t.name, t.sort) + tuple(_term_key(a, env, depth) for a in t.args)


# ---------------------------------------------------------------------------
# formulas


# one node per formula structure, after Filliatre & Conchon, "Type-Safe Modular
# Hash-Consing" (2006): formula fields are keyed by identity, since they are
# interned already, strings, variables and term tuples by value.  The table
# holds its nodes weakly, so it never keeps a formula alive.
_INTERNED = weakref.WeakValueDictionary()


class _Interned(type):
    def __call__(cls, *fields):
        key = (cls, *[id(x) if isinstance(x, Formula) else x for x in fields])
        f = _INTERNED.get(key)
        if f is None:
            f = _INTERNED[key] = super().__call__(*fields)
        return f


class Formula(metaclass=_Interned):
    """Base class.  Equality and hashing are alpha-equivalence; identity
    implies equality, but alpha-variants (and copies made without the
    constructor, such as ``deepcopy``) are equal distinct objects."""

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Formula) and _key_eq(alpha_key(self), alpha_key(other), set()))

    def __hash__(self):
        return hash(alpha_key(self))


@dataclass(frozen=True, eq=False)
class Letter(Formula):
    name: str
    height = 1

    def __post_init__(self):
        object.__setattr__(self, "free", frozenset())


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    name: str
    args: tuple

    def __post_init__(self):
        fv = frozenset()
        for t in self.args:
            fv |= term_free_vars(t)
        object.__setattr__(self, "free", fv)
        object.__setattr__(self, "height", 1 + max((t.height for t in self.args), default=0))


@dataclass(frozen=True, eq=False)
class Neg(Formula):
    sub: Formula

    def __post_init__(self):
        object.__setattr__(self, "free", self.sub.free)
        object.__setattr__(self, "height", 1 + self.sub.height)


class _Binary(Formula):
    def __post_init__(self):
        object.__setattr__(self, "free", self.left.free | self.right.free)
        object.__setattr__(self, "height", 1 + max(self.left.height, self.right.height))


@dataclass(frozen=True, eq=False)
class And(_Binary):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Imp(_Binary):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(_Binary):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Compat(_Binary):
    left: Formula
    right: Formula


class _Quant(Formula):
    def __post_init__(self):
        object.__setattr__(self, "free", self.body.free - {self.var.name})
        object.__setattr__(self, "height", 1 + self.body.height)


@dataclass(frozen=True, eq=False)
class Forall(_Quant):
    var: Var
    body: Formula


@dataclass(frozen=True, eq=False)
class Exists(_Quant):
    var: Var
    body: Formula


_QTAG = {Forall: "Q*", Exists: "Q?"}
_BTAG = {And: "&", Imp: ">", Or: "|", Compat: "#"}


def alpha_key(f: Formula):
    """Canonical key: equal keys iff formulas differ only in bound names."""
    return _fkey(f, None, 0)


def _fkey(f, env, depth):
    if env and not (f.free & env.keys()):
        env = None
    # expand reuses the operands of ><, so a sub-formula is keyed once: with no
    # captured references its key is position-independent and cached on the
    # node, else memoised in the binder environment (env[None]), whose depth
    # is fixed
    k = getattr(f, "_akey", None) if env is None else env[None].get(id(f))
    if k is not None:
        return k
    if isinstance(f, Letter):
        k = ("L", f.name)
    elif isinstance(f, Atom):
        k = ("A", f.name) + tuple(_term_key(t, env, depth) for t in f.args)
    elif isinstance(f, Neg):
        k = ("~", _fkey(f.sub, env, depth))
    elif isinstance(f, _Binary):
        k = (_BTAG[type(f)], _fkey(f.left, env, depth), _fkey(f.right, env, depth))
    else:
        inner = dict(env) if env else {}
        inner[f.var.name], inner[None] = depth, {}
        k = (_QTAG[type(f)], f.var.sort, _fkey(f.body, inner, depth + 1))
    if env is None:
        object.__setattr__(f, "_akey", k)
    else:
        env[None][id(f)] = k
    return k


def _key_eq(a, b, met):
    # key equality meeting each pair of sub-keys once: an expanded formula's key
    # shares its sub-keys as the formula shares its nodes, and two alpha-variants
    # share none, so tuple == would compare them as trees
    if a is b or (id(a), id(b)) in met:
        return True
    if type(a) is not tuple or type(b) is not tuple or len(a) != len(b):
        return a == b
    met.add((id(a), id(b)))
    for x, y in zip(a, b):
        if not _key_eq(x, y, met):
            return False
    return True


def free_variables(f: Formula) -> frozenset:
    """Names of the variables occurring free in ``f``."""
    return f.free


def children(x) -> tuple:
    """The immediate sub-formulas of a formula, or the arguments of an atom or term."""
    if isinstance(x, Neg):
        return (x.sub,)
    if isinstance(x, _Binary):
        return (x.left, x.right)
    if isinstance(x, _Quant):
        return (x.body,)
    return getattr(x, "args", ())


def letters(f: Formula) -> frozenset:
    """Names of the propositional letters occurring in ``f``."""
    if isinstance(f, Letter):
        return frozenset((f.name,))
    if isinstance(f, Atom):
        return frozenset()
    if isinstance(f, Neg):
        return letters(f.sub)
    if isinstance(f, _Binary):
        return letters(f.left) | letters(f.right)
    return letters(f.body)


def expand(f: Formula) -> Formula:
    """Rewrite derived nodes: a\\/b, a><b and exists disappear.

    The result uses only Letter/Atom, Neg, And, Imp and Forall nodes and
    is a fixed point of ``expand``.
    """
    e = getattr(f, "_ex", None)
    if e is None:
        e = _expand(f)
        object.__setattr__(f, "_ex", e)
        if e is not f:
            object.__setattr__(e, "_ex", e)
    return e


def _expand(f):
    if isinstance(f, (Letter, Atom)):
        return f
    if isinstance(f, Neg):
        s = expand(f.sub)
        return f if s is f.sub else Neg(s)
    if isinstance(f, Or):
        a, b = expand(f.left), expand(f.right)
        return Neg(And(Neg(a), Neg(b)))
    if isinstance(f, Compat):
        a, b = expand(f.left), expand(f.right)
        return And(Imp(a, Imp(b, a)), Imp(b, Imp(a, b)))
    if isinstance(f, Exists):
        return Neg(Forall(f.var, Neg(expand(f.body))))
    if isinstance(f, _Binary):
        a, b = expand(f.left), expand(f.right)
        return f if (a is f.left and b is f.right) else type(f)(a, b)
    b = expand(f.body)
    return f if b is f.body else Forall(f.var, b)


def formula_eq(a: Formula, b: Formula) -> bool:
    """Alpha-equality after ``expand``: the one equality of the proof path."""
    return a is b or expand(a) == expand(b)


def context_eq(xs, ys) -> bool:
    """Position-wise ``formula_eq`` of two antecedent sequences.  Tuple
    equality answers first: it tests identity, then alpha-equality, and
    either implies ``formula_eq``; only a mismatch compares expansions."""
    return xs == ys or len(xs) == len(ys) and all(
        a is b or expand(a) == expand(b) for a, b in zip(xs, ys))


def sequent_eq(a: Sequent, b: Sequent) -> bool:
    """``formula_eq`` on the succedents and ``context_eq`` on the antecedents."""
    return context_eq(a.antecedent, b.antecedent) and formula_eq(a.succedent, b.succedent)


def _variant(name, avoid):
    while name in avoid:
        name += "'"
    return name


def substitute(f: Formula, x, t) -> Formula:
    """Capture-avoiding substitution of term ``t`` for variable ``x``.

    ``x`` may be a name or a Var; bound variables are renamed (with
    primes) whenever they would capture a variable of ``t``.
    """
    if isinstance(x, Var):
        if x.sort != t.sort:
            raise SignatureError(
                f"cannot substitute {t.sort}-sorted term for {x.sort}-sorted {x.name}")
        x = x.name
    return _subst(f, x, t)


def _subst(f, x, t):
    if x not in f.free:
        return f
    if isinstance(f, Atom):
        return Atom(f.name, tuple(substitute_term(a, x, t) for a in f.args))
    if isinstance(f, Neg):
        return Neg(_subst(f.sub, x, t))
    if isinstance(f, _Binary):
        return type(f)(_subst(f.left, x, t), _subst(f.right, x, t))
    v, body = f.var, f.body
    tfree = term_free_vars(t)
    if v.name in tfree:
        fresh = _variant(v.name, body.free | tfree | {x})
        body = _subst(body, v.name, Var(fresh, v.sort))
        v = Var(fresh, v.sort)
    return type(f)(v, _subst(body, x, t))


def is_nonduplicating(f: Formula) -> bool:
    """True when no variable occurs twice inside any single atom; computed
    once per node and cached on it."""
    nd = getattr(f, "_nd", None)
    if nd is None:
        if isinstance(f, Atom):
            names, stack = [], list(f.args)
            while stack:
                t = stack.pop()
                if isinstance(t, Var):
                    names.append(t.name)
                else:
                    stack.extend(children(t))
            nd = len(names) == len(set(names))
        else:
            nd = all(is_nonduplicating(g) for g in children(f))
        object.__setattr__(f, "_nd", nd)
    return nd


# ---------------------------------------------------------------------------
# sequents


@dataclass(frozen=True)
class Sequent:
    antecedent: tuple
    succedent: Formula

    def __post_init__(self):  # a tuple, so that a sequent cannot change
        if type(self.antecedent) is not tuple:
            object.__setattr__(self, "antecedent", tuple(self.antecedent))

    def __str__(self):
        return render_sequent(self)


# ---------------------------------------------------------------------------
# signatures


@dataclass
class Signature:
    """Symbol table for predicate formulas.

    By default the parser is permissive: the first use of a symbol
    declares it (with wildcard sorts), and later uses must stay
    consistent.  Building a Signature with ``permissive=False`` turns
    undeclared symbols into errors instead.  The wildcard sort "_"
    matches every sort.  ``letters`` maps each letter used to its node.
    """

    sorts: set = field(default_factory=set)
    relations: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    permissive: bool = True
    letters: dict = field(default_factory=dict)

    def declare_sort(self, name):
        self.sorts.add(name)

    def declare_relation(self, name, arg_sorts):
        arg_sorts = tuple(arg_sorts)
        old = self.relations.get(name)
        if old is not None and old != arg_sorts:
            raise SignatureError(f"relation {name} redeclared with different profile")
        self.relations[name] = arg_sorts
        self.sorts.update(arg_sorts)

    def declare_function(self, name, arg_sorts, result_sort=DEFAULT_SORT):
        profile = (tuple(arg_sorts), result_sort)
        old = self.functions.get(name)
        if old is not None and old != profile:
            raise SignatureError(f"function {name} redeclared with different profile")
        self.functions[name] = profile
        self.sorts.update(profile[0])
        self.sorts.add(result_sort)

    def declare_constant(self, name, sort=DEFAULT_SORT):
        old = self.constants.get(name)
        if old is not None and old != sort:
            raise SignatureError(f"constant {name} redeclared with different sort")
        self.constants[name] = sort
        self.sorts.add(sort)

    def _relation(self, name, nargs):
        prof = self.relations.get(name)
        if prof is None:
            if name in self.letters:
                raise SignatureError(f"{name} already used as a propositional letter")
            if not self.permissive:
                raise SignatureError(f"undeclared relation {name}")
            prof = (DEFAULT_SORT,) * nargs
            self.relations[name] = prof
        if len(prof) != nargs:
            raise SignatureError(f"relation {name} takes {len(prof)} arguments, got {nargs}")
        return prof

    def _function(self, name, nargs):
        prof = self.functions.get(name)
        if prof is None:
            if not self.permissive:
                raise SignatureError(f"undeclared function {name}")
            prof = ((DEFAULT_SORT,) * nargs, DEFAULT_SORT)
            self.functions[name] = prof
        if len(prof[0]) != nargs:
            raise SignatureError(f"function {name} takes {len(prof[0])} arguments, got {nargs}")
        return prof

    def _letter(self, name):
        if name in self.relations:
            raise SignatureError(f"relation {name} used without arguments")
        return self.letters.get(name) or self.letters.setdefault(name, Letter(name))


def _sorts_fit(declared, actual):
    return declared == DEFAULT_SORT or actual == DEFAULT_SORT or declared == actual


# ---------------------------------------------------------------------------
# parsing

# every token, and "" for a character that starts none
_TOKEN_RE = re.compile(r"(\|-|->|/\\|\\/|><|[~(),.]|[A-Za-z_][A-Za-z0-9_']*)|\S")
_COMMENT_RE = re.compile(r"#[^\n]*")
_KEYWORDS = {"forall", "exists"}
# the left-associative connectives, climbed in one loop: (precedence, node)
_CLIMB = {"\\/": (1, Or), "/\\": (2, And)}


class _Parser:
    """Recursive descent with precedence climbing (Pratt, POPL 1973) over the
    token strings of one ``findall``; positions are found only for errors."""

    # deeper input is refused: the parser and the later walks (expand, alpha_key,
    # render, the evaluators) recurse per level, within Python's default limit
    MAX_NESTING = 100
    TOO_DEEP = f"nested deeper than {MAX_NESTING} levels"

    def __init__(self, text, sig):
        if "#" in text:  # blank comments out, keeping every offset
            text = _COMMENT_RE.sub(lambda m: " " * len(m[0]), text)
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        if "" in self.toks:
            at = self.pos(self.toks.index(""))
            raise ParseError(f"unexpected character {text[at]!r}", at)
        self.toks.append(None)
        self.i, self.sig, self.bound, self.level = 0, sig, [], 0

    def pos(self, i=None):
        """The character offset of token ``i``, the current one by default."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)] + [len(self.text)]
        return starts[self.i if i is None else i]

    def expect(self, tok):
        found = self.toks[self.i]
        if found != tok:
            raise ParseError(f"expected {tok!r}, found {found or 'end of input'!r}", self.pos())
        self.i += 1

    def nested(self, parse):
        """Run one recursive grammar step a level deeper, within MAX_NESTING."""
        if self.level == self.MAX_NESTING:
            raise ParseError(self.TOO_DEEP, self.pos())
        self.level += 1
        value = parse()
        self.level -= 1
        return value

    def ident(self, what="identifier"):
        tok = self.toks[self.i]
        if tok is None or not tok[0].isalpha() and tok[0] != "_" or tok in _KEYWORDS:
            raise ParseError(f"expected {what}", self.pos())
        self.i += 1
        return tok

    # grammar: -> (right-associative), then one non-associative ><, then
    # \/ and /\ by climbing, then prefix ~

    def formula(self):
        f = self.climb(1)
        if self.toks[self.i] == "><":
            self.i += 1
            f = Compat(f, self.climb(1))
        if self.toks[self.i] == "->":
            self.i += 1
            return Imp(f, self.nested(self.formula))
        return f

    def climb(self, least):
        f = self.unary()
        while True:
            op = _CLIMB.get(self.toks[self.i])
            if op is None or op[0] < least:
                return f
            self.i += 1
            f = op[1](f, self.climb(op[0] + 1))

    def unary(self):
        # each ~ takes one level, as a recursive step would
        n = 0
        while self.toks[self.i] == "~":
            self.i += 1
            if self.level == self.MAX_NESTING:
                raise ParseError(self.TOO_DEEP, self.pos())
            self.level += 1
            n += 1
        start, tok = self.i, self.toks[self.i]
        if tok == "(":
            self.i += 1
            f = self.nested(self.formula)
            self.expect(")")
        elif tok in _KEYWORDS:
            self.i += 1
            v = Var(self.ident("variable"))
            self.expect(".")
            self.bound.append(v.name)
            f = (Forall if tok == "forall" else Exists)(v, self.nested(self.formula))
            self.bound.pop()
        else:
            name = self.ident("formula")
            try:
                if self.toks[self.i] != "(":
                    f = self.sig._letter(name)
                else:
                    args = self.term_args()
                    self._check_sorts(self.sig._relation(name, len(args)), args, name, start)
                    f = Atom(name, args)
            except SignatureError as e:
                raise ParseError(str(e), self.pos(start)) from None
        self.level -= n
        for _ in range(n):
            f = Neg(f)
        return f

    def term_args(self):
        self.expect("(")
        args = [self.term()]
        while self.toks[self.i] == ",":
            self.i += 1
            args.append(self.term())
        self.expect(")")
        return tuple(args)

    def term(self):
        start = self.i
        name = self.ident("term")
        if self.toks[self.i] == "(":
            args = self.nested(self.term_args)
            try:
                prof = self.sig._function(name, len(args))
            except SignatureError as e:
                raise ParseError(str(e), self.pos(start)) from None
            self._check_sorts(prof[0], args, name, start)
            return App(name, args, prof[1])
        if name not in self.bound and name in self.sig.constants:
            return Const(name, self.sig.constants[name])
        return Var(name)

    def _check_sorts(self, declared, args, name, start):
        for want, arg in zip(declared, args):
            if not _sorts_fit(want, arg.sort):
                raise ParseError(
                    f"{arg.sort}-sorted argument where {name} wants {want}", self.pos(start))

    def sequent(self):
        ante = []
        if self.toks[self.i] != "|-":
            ante.append(self.formula())
            while self.toks[self.i] == ",":
                self.i += 1
                ante.append(self.formula())
        self.expect("|-")
        return Sequent(tuple(ante), self.formula())

    def finish(self, value):
        if self.toks[self.i] is not None:
            raise ParseError(f"unexpected {self.toks[self.i]!r}", self.pos())
        # chains like p /\ q /\ ... nest without recursion; each node knows its height
        roots = (*value.antecedent, value.succedent) if isinstance(value, Sequent) else (value,)
        if max(x.height for x in roots) > self.MAX_NESTING:
            raise ParseError(self.TOO_DEEP, self.pos())
        return value


def parse_formula(text: str, sig: Signature | None = None) -> Formula:
    """Parse a formula; precedence ~ > /\\ > \\/ > >< > -> with -> right-associative."""
    p = _Parser(text, sig if sig is not None else Signature())
    return p.finish(p.formula())


def parse_sequent(text: str, sig: Signature | None = None) -> Sequent:
    """Parse ``phi1, ..., phin |- psi`` keeping antecedent order (n = 0 allowed)."""
    p = _Parser(text, sig if sig is not None else Signature())
    return p.finish(p.sequent())


def parse_term(text: str, sig: Signature | None = None):
    p = _Parser(text, sig if sig is not None else Signature())
    return p.finish(p.term())


# ---------------------------------------------------------------------------
# printing

_LEVEL = {Imp: 0, Compat: 1, Or: 2, And: 3, Neg: 4}
_OPTXT = {Imp: "->", Compat: "><", Or: "\\/", And: "/\\"}


def render(f: Formula) -> str:
    """Print with minimal parentheses; ``parse_formula(render(f)) == f``."""
    return _render(f, 0, True)


def _render(f, need, tail):
    # tail: nothing that could extend a formula follows in the output, so a
    # quantifier body may run to the end without being bracketed
    if isinstance(f, Letter):
        return f.name
    if isinstance(f, Atom):
        return f.name + "(" + ",".join(render_term(t) for t in f.args) + ")"
    if isinstance(f, Neg):
        return "~" + _render(f.sub, 4, tail)
    if isinstance(f, _Quant):
        word = "forall" if isinstance(f, Forall) else "exists"
        s = f"{word} {f.var.name}. " + _render(f.body, 0, True)
        return s if tail else "(" + s + ")"
    lvl = _LEVEL[type(f)]
    wrap = lvl < need
    if isinstance(f, Imp):
        lneed, rneed = 1, 0
    elif isinstance(f, Compat):
        lneed, rneed = 2, 2
    else:
        lneed, rneed = lvl, lvl + 1
    right_tail = True if wrap else tail
    s = (_render(f.left, lneed, False) + f" {_OPTXT[type(f)]} "
         + _render(f.right, rneed, right_tail))
    return "(" + s + ")" if wrap else s


def render_sequent(s: Sequent) -> str:
    succ = _render(s.succedent, 0, True)
    if not s.antecedent:
        return "|- " + succ
    return ", ".join(_render(f, 0, True) for f in s.antecedent) + " |- " + succ
