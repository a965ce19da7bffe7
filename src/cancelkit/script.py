"""The small script language driving the CLI.

A script declares one ring, binds polynomials and ideals, and issues
commands; the interpreter produces a canonical JSON-able report.

    ring R = zp(32003)[x,y,z] grevlex;
    ideal P = kernel(t3,t4,t5);
    dim P;

Variables may carry weights (``[x:3,y:4,z:5]``).  Inside expressions,
an identifier made of a known variable name followed by digits is
exponent shorthand (``t3`` = ``t^3``); inside ``kernel(...)`` unknown
names implicitly declare target variables.  Commands may be written
call-style (``dim(P);``) or space-style (``dim P;``); arguments that
are lists of polynomials use brackets (``[y^2-x*z, x^3-y*z]``).
"""

import json

from . import cancellation, fixtures, reductions, rees, resolutions
from .errors import ScriptSyntaxError
from .fields import field_from_spec
from .ideals import Ideal, kernel_of_map, radical_contains
from .orders import Grevlex, Lex
from .ring import Polynomial, Ring

# -- tokenizer ---------------------------------------------------------------

_PUNCT = set("()[]{},;=^*+-/:")


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and \
                    text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(Token("number", text[i:j], line, start_col))
            else:
                tokens.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_" or ch == "@":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_@"):
                j += 1
            tokens.append(Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ScriptSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# -- AST ---------------------------------------------------------------------

class Script:
    """Parsed script: one ring declaration plus bindings and commands."""

    def __init__(self, statements):
        self.statements = statements


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ScriptSyntaxError(
                f"expected {kind!r}, found {tok.value!r}", tok.line, tok.col)
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ScriptSyntaxError(message, tok.line, tok.col)

    # statements

    def parse_script(self):
        statements = []
        while self.peek().kind != "eof":
            statements.append(self.parse_statement())
        return Script(statements)

    def parse_statement(self):
        tok = self.peek()
        if tok.kind != "name":
            self.error(f"expected a statement, found {tok.value!r}")
        if tok.value == "ring":
            return self.parse_ring_decl()
        if tok.value == "poly":
            return self.parse_poly_decl()
        if tok.value == "ideal":
            return self.parse_ideal_decl()
        return self.parse_command()

    def parse_ring_decl(self):
        first = self.expect("name")
        name = self.expect("name").value
        self.expect("=")
        field_spec = None
        if self.peek().kind == "name" and self.peek(1).kind != "eof" \
                and self.peek().value != "[":
            tok = self.next()
            if tok.value.lower() == "zp":
                self.expect("(")
                p = int(self.expect("int").value)
                self.expect(")")
                field_spec = f"zp:{p}"
            elif tok.value.lower() == "q":
                field_spec = "q"
            else:
                self.error(f"unknown field {tok.value!r}", tok)
        self.expect("[")
        names, weights = [], []
        while True:
            names.append(self.expect("name").value)
            if self.peek().kind == ":":
                self.next()
                weights.append(int(self.expect("int").value))
            else:
                weights.append(1)
            if self.peek().kind == ",":
                self.next()
                continue
            break
        self.expect("]")
        order = "grevlex"
        if self.peek().kind == "name" and self.peek().value in (
                "lex", "grevlex"):
            order = self.next().value
        self.expect(";")
        if all(w == 1 for w in weights):
            weights = None
        return ("ring", name, field_spec, names, weights, order, first.line)

    def parse_poly_decl(self):
        self.expect("name")
        name = self.expect("name").value
        self.expect("=")
        expr = self.parse_expr_tokens(stop={";"})
        self.expect(";")
        return ("poly", name, expr)

    def parse_ideal_decl(self):
        self.expect("name")
        name = self.expect("name").value
        self.expect("=")
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            exprs = self.parse_expr_list(stop=")")
            self.expect(")")
            self.expect(";")
            return ("ideal", name, ("gens", exprs))
        if tok.kind == "name" and self.peek(1).kind == "(":
            op = self.next().value
            self.expect("(")
            args = self.parse_call_args()
            self.expect(")")
            self.expect(";")
            return ("ideal", name, ("op", op, args, tok.line, tok.col))
        self.error("expected '(' or an operation call after '='")

    def parse_command(self):
        tok = self.next()
        cmd = tok.value
        args = []
        if self.peek().kind == "(":
            self.next()
            args = self.parse_call_args()
            self.expect(")")
        else:
            while self.peek().kind != ";":
                nxt = self.peek()
                if nxt.kind == "[":
                    args.append(self.parse_bracket_list())
                elif nxt.kind in ("name", "int", "number"):
                    args.append(("atom", self.next()))
                else:
                    self.error(f"unexpected {nxt.value!r} in command")
        self.expect(";")
        return ("command", cmd, args, tok.line, tok.col)

    def parse_call_args(self):
        args = []
        if self.peek().kind == ")":
            return args
        while True:
            if self.peek().kind == "[":
                args.append(self.parse_bracket_list())
            else:
                args.append(self.parse_expr_tokens(stop={",", ")"}))
            if self.peek().kind == ",":
                self.next()
                continue
            break
        return args

    def parse_bracket_list(self):
        self.expect("[")
        exprs = self.parse_expr_list(stop="]")
        self.expect("]")
        return ("list", exprs)

    def parse_expr_list(self, stop):
        exprs = []
        if self.peek().kind == stop:
            return exprs
        while True:
            exprs.append(self.parse_expr_tokens(stop={",", stop}))
            if self.peek().kind == ",":
                self.next()
                continue
            break
        return exprs

    def parse_expr_tokens(self, stop):
        """Collect the raw tokens of one expression, respecting nested
        parentheses; evaluation happens later against an environment."""
        collected = []
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                self.error("unterminated expression")
            if depth == 0 and tok.kind in stop:
                break
            if tok.kind == "(":
                depth += 1
            elif tok.kind == ")":
                if depth == 0:
                    break
                depth -= 1
            collected.append(self.next())
        if not collected:
            self.error("empty expression")
        return ("expr", collected)


def parse_script(text):
    return _Parser(tokenize(text)).parse_script()


# -- expression evaluation ---------------------------------------------------

class _ExprEval:
    """Recursive-descent evaluation of an expression token list in a
    ring, with bindings and optional implicit variable creation (for
    kernel images)."""

    def __init__(self, ring, lookup, implicit=None):
        self.ring = ring
        self.lookup = lookup
        self.implicit = implicit
        self.tokens = None
        self.pos = 0

    def run(self, tokens):
        self.tokens = tokens
        self.pos = 0
        value = self.expr()
        if self.pos != len(self.tokens):
            tok = self.tokens[self.pos]
            raise ScriptSyntaxError(
                f"unexpected {tok.value!r} in expression", tok.line, tok.col)
        return value

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1]
            raise ScriptSyntaxError("unexpected end of expression",
                                    last.line, last.col)
        self.pos += 1
        return tok

    def expr(self):
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.next()
            value = self.term().scale(self.ring.field.neg(
                self.ring.field.one))
        else:
            value = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in ("+", "-"):
                return value
            self.next()
            rhs = self.term()
            value = value + rhs if tok.kind == "+" else value - rhs

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in ("*", "/"):
                return value
            op = self.next()
            rhs = self.factor()
            if op.kind == "*":
                value = value * rhs
            else:
                if rhs.degree() != 0 or rhs.is_zero():
                    raise ScriptSyntaxError(
                        "division only by nonzero constants",
                        op.line, op.col)
                value = value.scale(self.ring.field.inv(rhs.lc()))

    def factor(self):
        value = self.base()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.next()
            e = self.next()
            if e.kind != "int":
                raise ScriptSyntaxError("exponent must be an integer",
                                        e.line, e.col)
            value = value ** int(e.value)
        return value

    def base(self):
        tok = self.next()
        if tok.kind == "int":
            return self.ring.constant(
                self.ring.field.normalize(int(tok.value)))
        if tok.kind == "(":
            value = self.expr()
            close = self.next()
            if close.kind != ")":
                raise ScriptSyntaxError("expected ')'",
                                        close.line, close.col)
            return value
        if tok.kind == "name":
            if tok.value == "gen" and self.peek() is not None \
                    and self.peek().kind == "(":
                return self.gen_accessor(tok)
            return self.resolve_name(tok)
        raise ScriptSyntaxError(f"unexpected {tok.value!r} in expression",
                                tok.line, tok.col)

    def gen_accessor(self, tok):
        self.next()  # '('
        name = self.next()
        comma = self.next()
        idx = self.next()
        close = self.next()
        if name.kind != "name" or comma.kind != "," or \
                idx.kind != "int" or close.kind != ")":
            raise ScriptSyntaxError("expected gen(IDEAL, index)",
                                    tok.line, tok.col)
        obj = self.lookup(name.value)
        if not isinstance(obj, Ideal):
            raise ScriptSyntaxError(f"{name.value!r} is not an ideal",
                                    name.line, name.col)
        i = int(idx.value)
        if i >= len(obj.generators):
            raise ScriptSyntaxError(
                f"{name.value} has only {len(obj.generators)} generators",
                idx.line, idx.col)
        if obj.ring != self.ring:
            raise ScriptSyntaxError(
                f"{name.value} lives in a different ring",
                name.line, name.col)
        return obj.generators[i]

    def resolve_name(self, tok):
        text = tok.value
        obj = self.lookup(text)
        if isinstance(obj, Polynomial):
            if obj.ring != self.ring:
                raise ScriptSyntaxError(
                    f"{text!r} lives in a different ring",
                    tok.line, tok.col)
            return obj
        if obj is not None and not isinstance(obj, Polynomial):
            raise ScriptSyntaxError(f"{text!r} is not a polynomial",
                                    tok.line, tok.col)
        # exponent shorthand: known variable followed by digits
        base = text.rstrip("0123456789")
        digits = text[len(base):]
        if base and base != text:
            f = self._variable(base)
            if f is not None:
                return f ** int(digits)
        f = self._variable(text)
        if f is not None:
            return f
        raise ScriptSyntaxError(f"unknown name {text!r}",
                                tok.line, tok.col)

    def _variable(self, name):
        if name in self.ring._index:
            return self.ring.var(self.ring._index[name])
        if self.implicit is not None:
            if name not in self.implicit:
                self.implicit[name] = None
                return None  # caller rebuilds the ring and re-evaluates
            return None
        return None


def parse_polynomial(ring, text, lookup=None):
    """Parse one polynomial expression in the given ring."""
    tokens = tokenize(text)[:-1]
    if not tokens:
        raise ScriptSyntaxError("empty polynomial", 1, 1)
    lookup = lookup or (lambda name: None)
    return _ExprEval(ring, lookup).run(tokens)


# -- interpreter -------------------------------------------------------------

class RunFlags:
    def __init__(self, field=None, seed=0, n_cap=10, attempts=50,
                 allow_long=False):
        self.field = field
        self.seed = seed
        self.n_cap = n_cap
        self.attempts = attempts
        self.allow_long = allow_long


def _ideal_payload(ideal):
    return {"generators": [str(g) for g in ideal.groebner().generators]}


def _gens_payload(ideal):
    return {"generators": [str(g) for g in ideal.generators]}


class Interpreter:
    def __init__(self, flags=None):
        self.flags = flags or RunFlags()
        self.ring = None
        self.ring_name = None
        self.bindings = {}
        self.entries = []

    def lookup(self, name):
        return self.bindings.get(name)

    def eval_expr(self, expr_node):
        _, tokens = expr_node
        return _ExprEval(self.ring, self.lookup).run(list(tokens))

    def eval_list(self, node):
        kind = node[0]
        if kind != "list":
            raise ScriptSyntaxError("expected a bracketed list", 1, 1)
        return [self.eval_expr(("expr", toks)) for (_, toks) in node[1]]

    def need_ring(self, line=1, col=1):
        if self.ring is None:
            raise ScriptSyntaxError("no ring declared yet", line, col)

    def run(self, script):
        for index, stmt in enumerate(script.statements):
            self.execute(stmt, index)
        return self.entries

    # -- statement dispatch --

    def execute(self, stmt, index):
        kind = stmt[0]
        if kind == "ring":
            self.exec_ring(stmt)
        elif kind == "poly":
            self.exec_poly(stmt)
        elif kind == "ideal":
            self.exec_ideal(stmt)
        else:
            self.exec_command(stmt, index)

    def exec_ring(self, stmt):
        _, name, field_spec, names, weights, order, line = stmt
        if self.ring is not None:
            raise ScriptSyntaxError("only one ring per script", line, 1)
        spec = field_spec or self.flags.field or "zp:32003"
        field = field_from_spec(spec) if isinstance(spec, str) else spec
        order_obj = Lex() if order == "lex" else Grevlex()
        self.ring = Ring(field, names, order_obj, weights)
        self.ring_name = name

    def exec_poly(self, stmt):
        _, name, expr = stmt
        self.need_ring()
        self.bindings[name] = self.eval_expr(expr)

    def exec_ideal(self, stmt):
        _, name, rhs = stmt
        self.need_ring()
        if rhs[0] == "gens":
            gens = [self.eval_expr(e) for e in rhs[1]]
            self.bindings[name] = Ideal(self.ring, gens)
            return
        _, op, args, line, col = rhs
        self.bindings[name] = self.eval_ideal_op(op, args, line, col)

    def arg_ideal(self, arg, line, col):
        if arg[0] == "expr":
            tokens = list(arg[1])
            if len(tokens) == 1 and tokens[0].kind == "name":
                obj = self.lookup(tokens[0].value)
                if isinstance(obj, Ideal):
                    return obj
            # inline generator tuple: (f, g, ...)
            if (tokens and tokens[0].value == "("
                    and tokens[-1].value == ")"):
                parts, depth, cur = [], 0, []
                for t in tokens[1:-1]:
                    if t.value == "(":
                        depth += 1
                    elif t.value == ")":
                        depth -= 1
                    if t.value == "," and depth == 0:
                        parts.append(cur)
                        cur = []
                    else:
                        cur.append(t)
                if cur:
                    parts.append(cur)
                if parts:
                    gens = [self.eval_expr(("expr", p)) for p in parts]
                    return Ideal(self.ring, gens)
        raise ScriptSyntaxError(
            "expected an ideal name or an inline (generators) tuple",
            line, col)

    def arg_int(self, arg, line, col):
        if arg[0] == "expr" and len(arg[1]) == 1 and arg[1][0].kind == "int":
            return int(arg[1][0].value)
        raise ScriptSyntaxError("expected an integer", line, col)

    def eval_ideal_op(self, op, args, line, col):
        if op == "kernel":
            return self.eval_kernel(args, line, col)
        if op in ("colon", "intersect", "saturate", "sum", "product"):
            A = self.arg_ideal(args[0], line, col)
            B = self.arg_ideal(args[1], line, col)
            if op == "colon":
                return A.colon(B)
            if op == "intersect":
                return A.intersect(B)
            if op == "saturate":
                return A.saturate(B)
            if op == "sum":
                return A + B
            return A * B
        if op == "power":
            A = self.arg_ideal(args[0], line, col)
            return A ** self.arg_int(args[1], line, col)
        if op == "eliminate":
            A = self.arg_ideal(args[0], line, col)
            names = []
            for arg in args[1:]:
                if arg[0] == "expr" and len(arg[1]) == 1 and \
                        arg[1][0].kind == "name":
                    names.append(arg[1][0].value)
                else:
                    raise ScriptSyntaxError("expected a variable name",
                                            line, col)
            return A.eliminate(names)
        if op == "linkideal":
            A = self.arg_ideal(args[0], line, col)
            a = self.eval_list(args[1])
            return cancellation.link_ideal(A, a).K
        if op == "minreduction":
            A = self.arg_ideal(args[0], line, col)
            search = reductions.find_minimal_reduction(
                A, seed=self.flags.seed, attempts=self.flags.attempts,
                n_cap=self.flags.n_cap)
            return search.result
        raise ScriptSyntaxError(f"unknown ideal operation {op!r}",
                                line, col)

    def eval_kernel(self, args, line, col):
        # collect target variable names: identifiers that are not ring
        # variables or bindings, with exponent shorthand stripped
        target_names = []
        for arg in args:
            if arg[0] != "expr":
                raise ScriptSyntaxError("kernel takes polynomial images",
                                        line, col)
            for tok in arg[1]:
                if tok.kind != "name":
                    continue
                text = tok.value
                if text in self.ring._index or text in self.bindings:
                    continue
                base = text.rstrip("0123456789")
                if base and base not in self.ring._index \
                        and base not in self.bindings:
                    if base not in target_names:
                        target_names.append(base)
                elif text not in target_names and \
                        text not in self.ring._index and \
                        text not in self.bindings:
                    target_names.append(text)
        if not target_names:
            raise ScriptSyntaxError("kernel images use no new variables",
                                    line, col)
        target = Ring(self.ring.field, target_names)

        def lookup(name):
            return self.bindings.get(name)

        images = [_ExprEval(target, lookup).run(list(arg[1]))
                  for arg in args]
        return kernel_of_map(self.ring, images)

    # -- commands --

    def exec_command(self, stmt, index):
        _, cmd, args, line, col = stmt
        self.need_ring(line, col)
        handler = getattr(self, f"cmd_{cmd.replace('-', '_')}", None)
        if handler is None:
            raise ScriptSyntaxError(f"unknown command {cmd!r}", line, col)
        result = handler(args, line, col)
        echo_parts = [cmd]
        for arg in args:
            if arg[0] == "atom":
                echo_parts.append(arg[1].value)
            elif arg[0] == "expr":
                echo_parts.append(" ".join(t.value for t in arg[1]))
            else:
                echo_parts.append("[...]")
        self.entries.append({
            "index": index,
            "command": " ".join(echo_parts),
            "result": result,
        })

    def _one_ideal(self, args, line, col):
        if len(args) != 1:
            raise ScriptSyntaxError("expected one ideal argument",
                                    line, col)
        return self._as_ideal(args[0], line, col)

    def _as_ideal(self, arg, line, col):
        if arg[0] == "atom" and arg[1].kind == "name":
            obj = self.lookup(arg[1].value)
            if isinstance(obj, Ideal):
                return obj
            raise ScriptSyntaxError(f"{arg[1].value!r} is not an ideal",
                                    arg[1].line, arg[1].col)
        if arg[0] == "expr":
            return self.arg_ideal(arg, line, col)
        raise ScriptSyntaxError("expected an ideal name", line, col)

    def _as_poly(self, arg, line, col):
        if arg[0] == "atom":
            return _ExprEval(self.ring, self.lookup).run([arg[1]])
        if arg[0] == "expr":
            return self.eval_expr(arg)
        raise ScriptSyntaxError("expected a polynomial", line, col)

    def _as_int(self, arg, line, col):
        if arg[0] == "atom" and arg[1].kind == "int":
            return int(arg[1].value)
        if arg[0] == "expr":
            return self.arg_int(arg, line, col)
        raise ScriptSyntaxError("expected an integer", line, col)

    def _as_list(self, arg, line, col):
        if arg[0] == "list":
            return self.eval_list(arg)
        # an ideal name stands for its generator list
        if arg[0] in ("atom", "expr"):
            try:
                return list(self._as_ideal(arg, line, col).generators)
            except ScriptSyntaxError:
                pass
        raise ScriptSyntaxError(
            "expected a bracketed list or an ideal name", line, col)

    def cmd_gb(self, args, line, col):
        return _ideal_payload(self._one_ideal(args, line, col))

    def cmd_print(self, args, line, col):
        return _gens_payload(self._one_ideal(args, line, col))

    def cmd_dim(self, args, line, col):
        rep = self._one_ideal(args, line, col).dimension()
        return {"dim": rep.dim, "height": rep.height,
                "witness": list(rep.max_independent_set)}

    def cmd_height(self, args, line, col):
        return {"height": self._one_ideal(args, line, col).height}

    def cmd_mingens(self, args, line, col):
        return {"min_gens": self._one_ideal(args, line, col).min_gens()}

    def cmd_contains(self, args, line, col):
        A = self._as_ideal(args[0], line, col)
        B = self._as_ideal(args[1], line, col)
        return {"contains": A.contains(B)}

    def cmd_equal(self, args, line, col):
        A = self._as_ideal(args[0], line, col)
        B = self._as_ideal(args[1], line, col)
        return {"equal": A == B}

    def cmd_member(self, args, line, col):
        A = self._as_ideal(args[0], line, col)
        f = self._as_poly(args[1], line, col)
        return {"member": A.contains_poly(f)}

    def cmd_radicalmember(self, args, line, col):
        A = self._as_ideal(args[0], line, col)
        f = self._as_poly(args[1], line, col)
        return {"radical_member": radical_contains(A, f)}

    def cmd_resolution(self, args, line, col):
        res = resolutions.free_resolution(self._one_ideal(args, line, col))
        return {"betti": list(res.betti_numbers()), "length": res.length}

    def cmd_cohomology(self, args, line, col):
        s = resolutions.cohomology_summary(self._one_ideal(args, line, col))
        return {"g": s.g, "d": s.d, "depth": s.depth, "is_CM": s.is_CM,
                "ext_vanishes": s.ext_vanishes}

    def cmd_rees(self, args, line, col):
        pres = rees.rees_presentation(self._one_ideal(args, line, col))
        return {
            "analytic_spread": pres.analytic_spread,
            "analytic_deviation": pres.analytic_deviation,
            "fiber_generators": [
                str(g) for g in pres.fiber_ideal.groebner().generators],
        }

    def cmd_syzygetic(self, args, line, col):
        rep = rees.is_syzygetic(self._one_ideal(args, line, col))
        return {"is_syzygetic": rep.is_syzygetic,
                "offenders": [str(o) for o in rep.offenders]}

    def cmd_reduction(self, args, line, col):
        I = self._as_ideal(args[0], line, col)
        J = self._as_ideal(args[1], line, col)
        rep = reductions.reduction_number(I, J, n_cap=self.flags.n_cap)
        return {"is_reduction": rep.is_reduction, "r": rep.r}

    def cmd_minreduction(self, args, line, col):
        I = self._one_ideal(args, line, col)
        search = reductions.find_minimal_reduction(
            I, seed=self.flags.seed, attempts=self.flags.attempts,
            n_cap=self.flags.n_cap)
        return {
            "seed": str(search.seed),
            "attempts": search.attempts,
            "analytic_spread": search.spread,
            "r": search.report.r,
            "generators": [str(g) for g in search.result.generators],
        }

    def _hypotheses_args(self, args, line, col):
        I = self._as_ideal(args[0], line, col)
        a = self._as_list(args[1], line, col)
        extra = self._as_poly(args[2], line, col)
        return I, a, extra

    def cmd_hypotheses(self, args, line, col):
        I, a, extra = self._hypotheses_args(args, line, col)
        H = cancellation.check_hypotheses(I, a, extra)
        return {"g": H.g, "d": H.d, "checks": H.checks,
                "certified": H.certified}

    def cmd_cancelcheck(self, args, line, col):
        I, a, extra = self._hypotheses_args(args, line, col)
        K = self._as_ideal(args[3], line, col)
        H = cancellation.check_hypotheses(I, a, extra)
        return {"holds": cancellation.cancel_check(H, K)}

    def cmd_witness(self, args, line, col):
        I, a, extra = self._hypotheses_args(args, line, col)
        H = cancellation.check_hypotheses(I, a, extra)
        trace = cancellation.construct_witness(H, seed=self.flags.seed)
        return {
            "s": str(trace.s),
            "b": str(trace.b),
            "q": [str(g) for g in trace.q.groebner().generators],
            "steps": [[name, ok] for name, ok in trace.steps],
        }

    def cmd_link(self, args, line, col):
        I = self._as_ideal(args[0], line, col)
        a = self._as_list(args[1], line, col)
        rep = cancellation.link_ideal(I, a)
        out = {"degenerate": rep.degenerate,
               "K": [str(g) for g in rep.K.groebner().generators]}
        if not rep.degenerate:
            out.update({"height": rep.height_K, "unmixed": rep.unmixed_K,
                        "gci": rep.gci_K})
        return out

    def cmd_cor213(self, args, line, col):
        I, a, extra = self._hypotheses_args(args, line, col)
        n = self._as_int(args[3], line, col)
        H = cancellation.check_hypotheses(I, a, extra)
        holds = cancellation.corollary213_check(H, n)
        return {"equivalent": True, "power_in_reduction": holds, "n": n}

    def cmd_powerscan(self, args, line, col):
        I = self._as_ideal(args[0], line, col)
        J = self._as_ideal(args[1], line, col)
        n_max = self._as_int(args[2], line, col) if len(args) > 2 \
            else self.flags.n_cap
        n = cancellation.power_containment_scan(I, J, n_max=n_max)
        return {"n": n, "n_max": n_max}

    def cmd_example(self, args, line, col):
        if len(args) != 1 or args[0][0] != "atom":
            raise ScriptSyntaxError("expected: example 2.5;", line, col)
        tag = args[0][1].value
        return fixtures.run_example(
            tag, seed=self.flags.seed, attempts=self.flags.attempts,
            n_cap=self.flags.n_cap, allow_long=self.flags.allow_long,
            field=self.ring.field if self.ring else None)


def run(script, flags=None):
    """Execute a parsed script, returning the canonical report dict."""
    flags = flags or RunFlags()
    interp = Interpreter(flags)
    entries = interp.run(script)
    report = {
        "schema": 1,
        "field": interp.ring.field.describe() if interp.ring else None,
        "ring": {
            "variables": list(interp.ring.names),
            "weights": list(interp.ring.weights)
            if interp.ring.weights else None,
            "order": interp.ring.order.describe(),
        } if interp.ring else None,
        "seed": flags.seed,
        "commands": entries,
    }
    # Cache statistics are deliberately NOT part of the JSON report: the
    # report must be byte-identical across cold, warm, and evicted-cache
    # reruns.  The CLI's text mode prints them separately.
    return report


def canonical_json(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
