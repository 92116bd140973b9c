"""Reader for the scc program text format.

Layout is free-form; `//` starts a line comment.  A program is:

    semiring NAME ;
    domain { atom, atom, ... } ;
    var x, y, ... ;
    constraint NAME ( vars ) { (atoms) = VALUE ; ...  default = VALUE ; }
    proc NAME ( vars ) :: AGENT ;
    agent = AGENT ;
    interest { vars } ;

Agents: stop | tell(c) ARROW A | ask(c) ARROW A | branches joined with +
(ask-guarded) | ( A || A ) | exists x . A | name(args).  ARROW is `->`
(eventual), `->^VALUE` (level) or `->[name]` (cut by a named constraint).
`+` binds looser than arrows, so an arrow body never contains a bare
choice; `exists` extends as far right as possible.

Constraint expressions: a template name with arguments, a bare template
name (shorthand for the template applied to its own parameters), or the
built-ins diag(x, y) and const(VALUE).
"""

from __future__ import annotations

import math
from decimal import Decimal
from typing import Dict, List, NamedTuple, Optional, Tuple

from .constraints import _by_rank
from .lang import (
    Agent,
    Ask,
    Call,
    ConstRef,
    Cut,
    Decl,
    DiagRef,
    Eventual,
    Exists,
    Level,
    Par,
    Program,
    ProgramError,
    Ref,
    Stop,
    Sum,
    Tell,
    Template,
    format_value,
    free_vars,
    pretty,
    rebuild,
    with_children,
)
from .semiring import CarrierError, by_name

KEYWORDS = {
    "semiring", "domain", "var", "constraint", "default", "proc",
    "agent", "interest", "stop", "tell", "ask", "exists", "diag", "const",
}


class ParseError(ProgramError):
    pass


class Token(NamedTuple):
    kind: str  # IDENT, INT, FLOAT, or the punctuation itself
    value: object  # a FLOAT's is its literal text
    line: int
    col: int

    @property
    def pos(self) -> Tuple[int, int]:
        return (self.line, self.col)

    @property
    def shown(self) -> str:
        """The token as a ``found …`` message names it; a number as written."""
        if self.kind == "FLOAT":
            return self.value
        return "end of input" if self.kind == "EOF" else repr(self.value)


_PUNCT2 = ("::", "->", "||")
_PUNCT1 = ";,{}()=+.^[]"


def tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i, col = i + 1, col + 1
            continue
        start_line, start_col = line, col
        two = text[i : i + 2]
        if two in _PUNCT2:
            toks.append(Token(two, two, start_line, start_col))
            i, col = i + 2, col + 2
            continue
        if ch in _PUNCT1:
            toks.append(Token(ch, ch, start_line, start_col))
            i, col = i + 1, col + 1
            continue
        if ch.isdecimal():  # exactly the digits int() and float() accept
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            isfloat = False
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdecimal():
                isfloat = True
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdecimal():
                    isfloat = True
                    j = k
                    while j < n and text[j].isdecimal():
                        j += 1
            lit = text[i:j]
            if isfloat:  # kept as written; value() reads it exactly
                if math.isinf(float(lit)):  # a finite literal past the largest float
                    raise ParseError(f"number {lit} does not fit a float", (start_line, start_col))
                toks.append(Token("FLOAT", lit, start_line, start_col))
            else:
                try:
                    toks.append(Token("INT", int(lit), start_line, start_col))
                except ValueError:  # longer than the interpreter's digit limit
                    pos = (start_line, start_col)
                    raise ParseError(f"integer of {len(lit)} digits is too long", pos) from None
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("IDENT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", (line, col))
    toks.append(Token("EOF", None, line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        # each node's first position in the text, for error messages
        self.where: Dict[object, Tuple[int, int]] = {}

    def placed(self, node, tok: Token):
        self.where.setdefault(node, tok.pos)
        return node

    # -- token plumbing -------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def at(self, kind: str, value=None) -> bool:
        t = self.peek()
        return t.kind == kind and (value is None or t.value == value)

    def at_kw(self, word: str) -> bool:
        return self.at("IDENT", word)

    def expect(self, kind: str) -> Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.shown}", t.pos)
        return t

    def expect_kw(self, word: str) -> Token:
        t = self.next()
        if t.kind != "IDENT" or t.value != word:
            raise ParseError(f"expected {word!r}, found {t.shown}", t.pos)
        return t

    def ident(self, what: str = "name") -> Token:
        t = self.next()
        if t.kind != "IDENT":
            raise ParseError(f"expected {what}, found {t.shown}", t.pos)
        if t.value in KEYWORDS:
            raise ParseError(f"{t.value!r} is a keyword and cannot be a {what}", t.pos)
        return t

    # -- literals -------------------------------------------------------

    def value(self):
        t = self.next()
        if t.kind == "INT":
            return t.value
        if t.kind == "FLOAT":
            return Decimal(t.value)
        if t.kind == "IDENT":
            if t.value == "true":
                return True
            if t.value == "false":
                return False
            if t.value == "inf":
                return math.inf
        raise ParseError(f"expected a value, found {t.shown}", t.pos)

    def atom(self):
        t = self.next()
        if t.kind == "INT":
            return t.value
        if t.kind == "IDENT" and t.value not in KEYWORDS:
            return t.value
        raise ParseError(f"expected a domain atom, found {t.shown}", t.pos)

    def varlist(self, allow_empty: bool, close: str, distinct: bool = False) -> Tuple[str, ...]:
        out = []
        if self.at(close):
            if not allow_empty:
                t = self.peek()
                raise ParseError("expected at least one variable", t.pos)
            return ()
        while True:
            t = self.ident("variable")
            if distinct and t.value in out:
                raise ParseError(f"duplicate variable {t.value!r}", t.pos)
            out.append(t.value)
            if not self.at(","):
                return tuple(out)
            self.next()

    # -- program structure ----------------------------------------------

    def program(self) -> Program:
        self.expect_kw("semiring")
        t = self.next()
        if t.kind != "IDENT":
            raise ParseError("expected a semiring name", t.pos)
        try:
            semiring = by_name(t.value)
        except CarrierError as e:
            raise ParseError(str(e), t.pos) from None
        self.expect(";")

        self.expect_kw("domain")
        self.expect("{")
        atoms = []
        while True:
            t = self.peek()
            a = self.atom()
            if a in atoms:
                raise ParseError(f"duplicate domain atom {a!r}", t.pos)
            atoms.append(a)
            if not self.at(","):
                break
            self.next()
        self.expect("}")
        self.expect(";")

        self.expect_kw("var")
        variables = self.varlist(allow_empty=False, close=";", distinct=True)
        self.expect(";")

        templates = {}
        decls = {}
        while self.at_kw("constraint") or self.at_kw("proc"):
            if self.at_kw("constraint"):
                got, kind, own, other = self.constraintdef(), "constraint", templates, decls
            else:
                got, kind, own, other = self.procdef(), "procedure", decls, templates
            if got.name in own:
                raise ParseError(f"{kind} defined twice: {got.name}", got.pos)
            if got.name in other:
                raise ParseError(f"{got.name!r} names both a constraint and a proc", got.pos)
            own[got.name] = got

        main = None
        if self.at_kw("agent"):
            self.next()
            self.expect("=")
            main = self.agent()
            self.expect(";")

        interest = None
        if self.at_kw("interest"):
            self.next()
            self.expect("{")
            interest = self.varlist(allow_empty=True, close="}")
            self.expect("}")
            self.expect(";")

        t = self.peek()
        if t.kind != "EOF":
            raise ParseError(f"unexpected trailing input {t.value!r}", t.pos)

        raw = Program(
            semiring=semiring,
            domain=tuple(atoms),
            variables=variables,
            templates=templates,
            decls=decls,
            main=main,
            interest=interest,
        )
        return _validate(raw, self.where)

    def constraintdef(self) -> Template:
        kw = self.expect_kw("constraint")
        name = self.ident("constraint name")
        self.expect("(")
        params = self.varlist(allow_empty=True, close=")")
        self.expect(")")
        self.expect("{")
        table = {}
        default = None
        while not self.at("}"):
            if self.at_kw("default"):
                dt = self.next()
                if default is not None:
                    raise ParseError("duplicate default", dt.pos)
                self.expect("=")
                default = self.value()
                self.expect(";")
                continue
            lp = self.expect("(")
            key = []
            if not self.at(")"):
                key.append(self.atom())
                while self.at(","):
                    self.next()
                    key.append(self.atom())
            self.expect(")")
            if len(key) != len(params):
                raise ParseError(
                    f"row has {len(key)} atoms but {name.value!r} takes {len(params)}",
                    lp.pos,
                )
            if tuple(key) in table:
                raise ParseError(f"duplicate row {tuple(key)}", lp.pos)
            self.expect("=")
            table[tuple(key)] = self.value()
            self.expect(";")
        self.expect("}")
        return Template(name.value, params, table, default, kw.pos)

    def procdef(self) -> Decl:
        kw = self.expect_kw("proc")
        name = self.ident("proc name")
        self.expect("(")
        params = self.varlist(allow_empty=True, close=")")
        self.expect(")")
        self.expect("::")
        body = self.agent()
        self.expect(";")
        return Decl(name.value, params, body, kw.pos)

    # -- agents ---------------------------------------------------------

    def agent(self) -> Agent:
        # Read with an explicit stack of the frames open left of the next
        # atom, so nesting depth is not bounded by the recursion limit:
        #   ["+", branches, pos of the first +]   a choice
        #   ["||", left side once read]           a ( … || … )
        #   (Exists, var, token), (Tell or Ask, con, arrow, token)   a binder
        #       or an arrow-chain link, waiting for its body
        frames: list = [["+", [], None]]
        while True:
            t = self.next()
            word = t.value if t.kind == "IDENT" else None
            if t.kind == "(":
                frames += [["||", None], ["+", [], None]]
                continue
            if word == "exists":
                frames.append((Exists, self.ident("variable").value, t))
                self.expect(".")
                frames.append(["+", [], None])
                continue
            if word in ("tell", "ask"):
                self.expect("(")
                con = self.cexpr()
                self.expect(")")
                frames.append((Tell if word == "tell" else Ask, con, self.arrow(), t))
                continue
            if word == "stop":
                a = Stop()
            elif word is not None and word not in KEYWORDS:
                self.expect("(")
                args = self.varlist(allow_empty=True, close=")")
                self.expect(")")
                a = self.placed(Call(word, args), t)
            elif word is not None:
                raise ParseError(f"unexpected {word!r} in agent", t.pos)
            else:
                raise ParseError(f"expected an agent, found {t.shown}", t.pos)
            while True:  # close every frame the atom completes, up to one that reads on
                f = frames.pop()
                if f[0] == "+":
                    f[1].append(a)
                    if self.at("+"):
                        f[2] = f[2] or self.peek().pos
                        frames.append(f)
                        self.next()
                        break
                    if len(f[1]) > 1:
                        try:
                            a = Sum(tuple(f[1]))
                        except ProgramError as e:  # reported at the first +
                            raise ParseError(str(e), f[2]) from None
                    if not frames:
                        return a
                elif f[0] == "||":
                    if f[1] is None:
                        self.expect("||")
                        frames += [["||", a], ["+", [], None]]
                        break
                    self.expect(")")
                    a = Par(f[1], a)
                else:
                    a = self.placed(f[0](*f[1:-1], a), f[-1])

    def arrow(self):
        self.expect("->")
        if self.at("^"):
            self.next()
            return Level(self.value())
        if self.at("["):
            self.next()
            name = self.ident("constraint name")
            self.expect("]")
            return Cut(None, name.value, False)
        return Eventual()

    def cexpr(self):
        t = self.peek()
        if t.kind != "IDENT":
            raise ParseError(f"expected a constraint, found {t.shown}", t.pos)
        if t.value == "diag":
            self.next()
            self.expect("(")
            x = self.ident("variable").value
            self.expect(",")
            y = self.ident("variable").value
            self.expect(")")
            return DiagRef(x, y)
        if t.value == "const":
            self.next()
            self.expect("(")
            v = self.value()
            self.expect(")")
            return self.placed(ConstRef(v), t)
        if t.value in KEYWORDS:
            raise ParseError(f"unexpected {t.value!r} in constraint position", t.pos)
        name = self.next()
        if self.at("("):
            self.next()
            args = self.varlist(allow_empty=True, close=")")
            self.expect(")")
            return self.placed(Ref(name.value, args), name)
        return self.placed(Ref(name.value, None), name)


# -- validation and resolution ------------------------------------------


def _validate(p: Program, where: Dict[object, Tuple[int, int]]) -> Program:
    # building the base constraint checks arities, atoms, values, density;
    # resolve reuses the checked table
    for tpl in p.templates.values():
        if len(set(tpl.params)) != len(tpl.params):
            raise ProgramError(f"constraint {tpl.name!r} repeats a parameter", tpl.pos)
        try:
            p._bases[tpl.name] = tpl.base_constraint(p.system)
        except ValueError as e:
            raise ProgramError(f"constraint {tpl.name!r}: {e}", tpl.pos) from None

    def located(pos, fn, *args):  # fn's own errors, reported at pos
        try:
            return fn(*args)
        except (ProgramError, CarrierError) as err:
            raise ProgramError(str(err), pos) from None

    def fix_cexpr(e):
        if isinstance(e, ConstRef):
            return ConstRef(located(where.get(e), p.semiring.check, e.value))
        if isinstance(e, Ref):
            return Ref(e.name, located(where.get(e), p.ref_args, e))
        return e

    def fix_threshold(t, pos):
        if isinstance(t, Level):
            return Level(located(pos, p.semiring.check, t.value))
        if isinstance(t, Cut) and t.constraint is None:
            tpl = p.templates.get(t.name)
            if tpl is None:
                raise ProgramError(f"unknown cut constraint {t.name!r}", pos)
            con = p.resolve(Ref(t.name, tpl.params))
            extra = set(con.vars) - set(p.variables)
            if extra:
                raise ProgramError(
                    f"cut constraint {t.name!r} mentions undeclared {sorted(extra)}", pos
                )
            return Cut(con, t.name, False)
        return t

    def check(a, _):
        # pre-order, so the text's first error is reported; returns a tell's or ask's fixed parts
        pos = where.get(a)
        if isinstance(a, (Tell, Ask)):
            return fix_cexpr(a.con), fix_threshold(a.threshold, pos)
        if isinstance(a, Call):
            d = p.decls.get(a.name)
            if d is None:
                raise ProgramError(f"unknown proc {a.name!r}", pos)
            if len(a.args) != len(d.params):
                raise ProgramError(
                    f"proc {a.name!r} takes {len(d.params)} arguments, got {len(a.args)}", pos
                )
        return ()

    def fix(a, fixed, kids):
        if isinstance(a, (Tell, Ask)):
            return type(a)(*fixed, *kids)
        return with_children(a, kids)

    for d in p.decls.values():
        if len(set(d.params)) != len(d.params):
            raise ProgramError(f"proc {d.name!r} repeats a parameter", d.pos)
        d.body = rebuild(d.body, fix, check)
        loose = free_vars(d.body) - set(d.params)
        if loose:
            raise ProgramError(
                f"proc {d.name!r} body mentions non-parameter variables {sorted(loose)}",
                d.pos,
            )

    if p.main is not None:
        p.main = rebuild(p.main, fix, check)
        loose = free_vars(p.main) - set(p.variables)
        if loose:
            raise ProgramError(f"agent mentions undeclared variables {sorted(loose)}")

    if p.interest is not None:
        extra = set(p.interest) - set(p.variables)
        if extra:
            raise ProgramError(f"interest mentions undeclared variables {sorted(extra)}")
        if len(set(p.interest)) != len(p.interest):
            raise ProgramError("interest repeats a variable")

    return p


def parse_program(text: str) -> Program:
    """Parse, validate and resolve one program text."""
    return _Parser(text).program()


# -- printing -----------------------------------------------------------


def pretty_program(p: Program) -> str:
    """Canonical text for a program; parsing it back gives an equal program."""
    out = [f"semiring {p.semiring.kind};"]
    out.append("domain {" + ", ".join(str(a) for a in p.domain) + "};")
    out.append("var " + ", ".join(p.variables) + ";")
    for tpl in p.templates.values():
        head = f"constraint {tpl.name}(" + ", ".join(tpl.params) + ") {"
        rows = [
            f"  ({', '.join(str(a) for a in key)}) = {format_value(v)};"
            for key, v in sorted(tpl.table.items(), key=_by_rank(p.system))
        ]
        if tpl.default is not None:
            rows.append(f"  default = {format_value(tpl.default)};")
        out.append("\n".join([head] + rows + ["}"]))
    for d in p.decls.values():
        out.append(f"proc {d.name}(" + ", ".join(d.params) + f") :: {pretty(d.body)};")
    if p.main is not None:
        out.append(f"agent = {pretty(p.main)};")
    if p.interest is not None:
        out.append("interest {" + ", ".join(p.interest) + "};")
    return "\n".join(out) + "\n"
