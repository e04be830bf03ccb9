r"""Formulas, terms, and sequents for orthomodular natural deduction.

Core connectives are ~ (orthocomplement), /\ (meet), -> (Sasaki arrow)
and the quantifier forall; \/ , >< (compatibility) and exists are kept
as derived nodes, defined once by `unfold` and rewritten away by
`expand`.  All syntax values are immutable, and formulas compare equal
up to expansion and renaming of bound variables.  Formula nodes are
hash-consed: building a node with the class and fields of a live one
returns that node.
"""

from __future__ import annotations

import inspect
import re
import weakref
from dataclasses import dataclass, field, fields

DEFAULT_SORT = "_"

__all__ = [
    "DEFAULT_SORT",
    "Var", "Const", "App",
    "Formula", "Letter", "Atom", "Neg", "And", "Imp", "Or", "Compat",
    "Forall", "Exists",
    "Sequent", "Signature", "ParseError", "SignatureError",
    "parse_formula", "parse_sequent", "parse_term",
    "unfold", "expand", "children",
    "substitute", "is_nonduplicating",
    "render", "render_term", "render_sequent", "alpha_key",
]


class ParseError(Exception):
    """Raised on malformed input; carries a character offset."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class SignatureError(Exception):
    """Raised on inconsistently used symbols."""


# ---------------------------------------------------------------------------
# terms
#
# every node knows its facts from birth, computed once from its children's:
# ``free`` and ``height`` (the nodes on its longest path down, terms included),
# and on a formula ``letters`` and ``nonduplicating`` (see `is_nonduplicating`),
# each set by ``object.__setattr__``, which builds no instance dictionary
_set = object.__setattr__


@dataclass(frozen=True)
class Var:
    name: str
    sort: str = DEFAULT_SORT
    height = 1
    free = property(lambda self: frozenset((self.name,)))


@dataclass(frozen=True)
class Const:
    name: str
    sort: str = DEFAULT_SORT
    height = 1
    free = frozenset()


@dataclass(frozen=True)
class App:
    name: str
    args: tuple
    sort: str = DEFAULT_SORT

    def __post_init__(self):
        _set(self, "free", frozenset().union(*[t.free for t in self.args]))
        _set(self, "height", 1 + max((t.height for t in self.args), default=0))


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


@dataclass(frozen=True)
class _Bound(Const):
    """A bound occurrence in a canonical node (see `alpha_key`): its name is its
    index, the number of binders between it and its own.  Every walk of terms
    takes it for a constant, and no parsed or built term equals one."""


def _canon_term(t, env, depth):
    if isinstance(t, Var) and env and t.name in env:
        return _Bound(depth - env[t.name] - 1, t.sort)
    if isinstance(t, App):
        return App(t.name, tuple(_canon_term(a, env, depth) for a in t.args), t.sort)
    return t


# ---------------------------------------------------------------------------
# formulas


# one node per formula structure, after Filliatre & Conchon, "Type-Safe Modular
# Hash-Consing" (2006): each class keys a node (``_key``) by its class and fields,
# formula fields by identity, as they are interned already, others by value.  A hit
# is one ``dict.get`` and one call of a weak reference; the table keeps no node alive.
_INTERNED = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)

    def drop(self, table=_INTERNED):  # the callback; by then the key may hold a new node
        if table.get(self.key) is self:
            del table[self.key]


class _Interned(type):
    def __call__(cls, *fields, **named):
        if named:  # in field order, as the dataclass's __init__ binds them
            bound = inspect.signature(cls.__init__).bind(cls, *fields, **named).arguments
            fields = tuple(bound.values())[1:]
        key = cls._key(cls, *fields)
        r = _INTERNED.get(key)
        f = r and r()
        if f is None:
            f = super().__call__(*fields)
            r = _INTERNED[key] = _Ref(f, _Ref.drop)
            r.key = key
        return f


class Formula(metaclass=_Interned):
    """Base class.  Equality and hashing are the proof path's one equality:
    two formulas are equal when their expansions share one canonical node
    (see `expand` and `alpha_key`), so alpha-variants, and an abbreviation
    beside its expansion, are equal distinct objects.  Copies and unpickled
    nodes are built by the constructor, so a copy is the node itself."""

    _key = staticmethod(lambda *key: key)  # every field by value: Letter, Atom

    def __eq__(self, other):
        return self is other or (isinstance(other, Formula)
                                 and alpha_key(expand(self)) is alpha_key(expand(other)))

    def __hash__(self):
        return object.__hash__(alpha_key(expand(self)))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class Letter(Formula):
    name: str
    height = 1
    free = frozenset()
    nonduplicating = True

    def __post_init__(self):
        _set(self, "letters", frozenset((self.name,)))


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    name: str
    args: tuple
    letters = frozenset()

    def __post_init__(self):
        # one walk collects every variable occurrence, repeats included
        names, stack = [], list(self.args)
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                names.append(t.name)
            elif isinstance(t, App):
                stack.extend(t.args)
        free = frozenset(names)
        _set(self, "free", free)
        _set(self, "height", 1 + max((t.height for t in self.args), default=0))
        _set(self, "nonduplicating", len(free) == len(names))


@dataclass(frozen=True, eq=False)
class Neg(Formula):
    sub: Formula
    _key = staticmethod(lambda cls, sub: (cls, id(sub)))

    def __post_init__(self):
        s = self.sub
        _set(self, "free", s.free)
        _set(self, "height", 1 + s.height)
        _set(self, "letters", s.letters)
        _set(self, "nonduplicating", s.nonduplicating)


class _Binary(Formula):
    _key = staticmethod(lambda cls, left, right: (cls, id(left), id(right)))

    def __post_init__(self):
        a, b = self.left, self.right
        fa, fb, la, lb = a.free, b.free, a.letters, b.letters  # shared where a union adds nothing
        _set(self, "free", fa if fb <= fa else fb if fa <= fb else fa | fb)
        _set(self, "height", 1 + max(a.height, b.height))
        _set(self, "letters", la if lb <= la else lb if la <= lb else la | lb)
        _set(self, "nonduplicating", a.nonduplicating and b.nonduplicating)


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
    _key = staticmethod(lambda cls, var, body: (cls, var, id(body)))

    def __post_init__(self):
        b = self.body
        _set(self, "free", b.free - {self.var.name})
        _set(self, "height", 1 + b.height)
        _set(self, "letters", b.letters)
        _set(self, "nonduplicating", b.nonduplicating)


@dataclass(frozen=True, eq=False)
class Forall(_Quant):
    var: Var
    body: Formula


@dataclass(frozen=True, eq=False)
class Exists(_Quant):
    var: Var
    body: Formula


def alpha_key(f: Formula) -> Formula:
    """The canonical node of ``f``: the same formula built by the interning
    constructors, with each binder's variable renamed to one that is not free
    in its body (``""`` unless that is free) and each bound occurrence
    replaced by a `_Bound` term.  Alpha-variants, and only they, share it."""
    return _canon(f, None, 0)


def _canon(f, env, depth):
    if env and not (f.free & env.keys()):
        env = None
    # expand reuses the operands of ><, so a sub-formula is canonicalized once:
    # with no captured references its canonical node is position-independent
    # (bound occurrences count binders up from themselves) and cached on the
    # node, else memoised in the binder environment (env[None]), whose depth is
    # fixed
    c = getattr(f, "_canon", None) if env is None else env[None].get(id(f))
    if c is not None:
        return c
    if isinstance(f, Letter):
        c = f
    elif isinstance(f, Atom):
        c = Atom(f.name, tuple(_canon_term(t, env, depth) for t in f.args))
    elif isinstance(f, Neg):
        c = Neg(_canon(f.sub, env, depth))
    elif isinstance(f, _Binary):
        c = type(f)(_canon(f.left, env, depth), _canon(f.right, env, depth))
    else:
        inner = dict(env) if env else {}
        inner[f.var.name], inner[None] = depth, {}
        body = _canon(f.body, inner, depth + 1)
        c = type(f)(Var(_variant("", body.free), f.var.sort), body)
    # its binders capture no free variable, so c is its own canonical node
    object.__setattr__(c, "_canon", c)
    if env is None:
        object.__setattr__(f, "_canon", c)
    else:
        env[None][id(f)] = c
    return c


def children(x) -> tuple:
    """The immediate sub-formulas of a formula, or the arguments of an atom or term."""
    if isinstance(x, Neg):
        return (x.sub,)
    if isinstance(x, _Binary):
        return (x.left, x.right)
    if isinstance(x, _Quant):
        return (x.body,)
    return getattr(x, "args", ())


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


def unfold(f: Formula) -> Formula:
    """One step of expansion, the one definition of \\/, >< and exists: such a
    node becomes core connectives over its operands as written; others stay."""
    if isinstance(f, Or):
        return Neg(And(Neg(f.left), Neg(f.right)))
    if isinstance(f, Compat):
        a, b = f.left, f.right
        return And(Imp(a, Imp(b, a)), Imp(b, Imp(a, b)))
    if isinstance(f, Exists):
        return Neg(Forall(f.var, Neg(f.body)))
    return f


def _expand(f):
    u = unfold(f)
    if u is not f:
        return expand(u)
    if isinstance(f, (Letter, Atom)):
        return f
    if isinstance(f, Neg):
        s = expand(f.sub)
        return f if s is f.sub else Neg(s)
    if isinstance(f, _Binary):
        a, b = expand(f.left), expand(f.right)
        return f if (a is f.left and b is f.right) else type(f)(a, b)
    b = expand(f.body)
    return f if b is f.body else Forall(f.var, b)


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
    if v.name in t.free:
        fresh = _variant(v.name, body.free | t.free | {x})
        body = _subst(body, v.name, Var(fresh, v.sort))
        v = Var(fresh, v.sort)
    return type(f)(v, _subst(body, x, t))


def is_nonduplicating(f: Formula) -> bool:
    """True when no variable occurs twice inside any single atom (NOM_q)."""
    return f.nonduplicating


# ---------------------------------------------------------------------------
# sequents


@dataclass(frozen=True, init=False)
class Sequent:
    antecedent: tuple
    succedent: Formula

    def __init__(self, antecedent, succedent):  # a tuple, so that a sequent cannot change
        _set(self, "antecedent", tuple(antecedent))
        _set(self, "succedent", succedent)

    def __str__(self):
        return render_sequent(self)


# ---------------------------------------------------------------------------
# signatures


@dataclass
class Signature:
    """Symbol table for predicate formulas: the parser declares a symbol at
    its first use, with wildcard sorts, and later uses must stay consistent;
    ``declare_*`` add constants and sorted symbols.  The wildcard sort "_"
    matches every sort.  ``letters`` maps each letter used to its node.

    ``parsed`` memoises the successful parses made under the signature: each
    sequent by its text, and each top-level formula of one by its tokens.
    Parsing only grows the tables (a used letter never becomes a relation, a
    profile is fixed at first use, no constant is added), so a text parses
    to the same nodes again.  Each ``declare_*`` clears the memo, since a new
    constant or relation can change what a text means; only the parser and
    ``declare_*`` may change the tables, and a direct write to them is
    unsupported."""

    relations: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    letters: dict = field(default_factory=dict)
    parsed: dict = field(default_factory=dict, compare=False, repr=False)

    def declare_relation(self, name, arg_sorts):
        arg_sorts = tuple(arg_sorts)
        old = self.relations.get(name)
        if old is not None and old != arg_sorts:
            raise SignatureError(f"relation {name} redeclared with different profile")
        self.relations[name] = arg_sorts
        self.parsed.clear()

    def declare_function(self, name, arg_sorts, result_sort=DEFAULT_SORT):
        profile = (tuple(arg_sorts), result_sort)
        old = self.functions.get(name)
        if old is not None and old != profile:
            raise SignatureError(f"function {name} redeclared with different profile")
        self.functions[name] = profile
        self.parsed.clear()

    def declare_constant(self, name, sort=DEFAULT_SORT):
        old = self.constants.get(name)
        if old is not None and old != sort:
            raise SignatureError(f"constant {name} redeclared with different sort")
        self.constants[name] = sort
        self.parsed.clear()

    def _relation(self, name, nargs):
        prof = self.relations.get(name)
        if prof is None:
            if name in self.letters:
                raise SignatureError(f"{name} already used as a propositional letter")
            prof = (DEFAULT_SORT,) * nargs
            self.relations[name] = prof
        if len(prof) != nargs:
            raise SignatureError(f"relation {name} takes {len(prof)} arguments, got {nargs}")
        return prof

    def _function(self, name, nargs):
        prof = self.functions.get(name)
        if prof is None:
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
        self.fresh = {}  # the formula parses to memoise once the whole text parses
        ante = []
        if self.toks[self.i] != "|-":
            ante.append(self.top())
            while self.toks[self.i] == ",":
                self.i += 1
                ante.append(self.top())
        self.expect("|-")
        return Sequent(tuple(ante), self.top())

    def top(self):
        """A top-level formula of a sequent, looked up in the signature's memo by
        its tokens: those before the first ``,``, ``|-`` or end of input outside
        parentheses.  The formula reads the same whichever of the three follows."""
        toks, i = self.toks, self.i
        j, depth = i, 0
        while (t := toks[j]) is not None and (depth or t != "," and t != "|-"):
            depth += (t == "(") - (t == ")")
            j += 1
        key = tuple(toks[i:j])
        f = self.sig.parsed.get(key)
        if f is not None:
            self.i = j
            return f
        f = self.formula()
        if self.i == j:
            self.fresh[key] = f
        return f

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
    """Parse ``phi1, ..., phin |- psi`` keeping antecedent order (n = 0 allowed).
    A text already parsed under ``sig`` is not read again (see `Signature`)."""
    sig = sig if sig is not None else Signature()
    s = sig.parsed.get(text)
    if s is None:
        p = _Parser(text, sig)
        s = p.finish(p.sequent())
        sig.parsed.update(p.fresh)
        sig.parsed[text] = s
    return s


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
