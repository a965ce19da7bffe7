"""The small script language driving the CLI.

A script declares one ring, binds polynomials and ideals, and issues
commands; the interpreter produces a canonical JSON-able report.

    ring R = zp(32003)[x,y,z] grevlex;
    ideal P = kernel(t3,t4,t5);
    dim P;

Variables may carry weights (``[x:3,y:4,z:5]``).  Inside expressions,
an identifier made of a known variable name followed by digits is
exponent shorthand (``t3`` = ``t^3``); inside ``kernel(...)`` unknown
names implicitly declare target variables.

Commands are written call-style (``member(P, x*y - z2);``) or
space-style (``member P x2;``, each argument one token or a bracketed
list).  Both styles give the same argument nodes, and every command and
ideal operation converts them in one place (``Interpreter.convert_args``)
by the kinds it declares with ``_takes``: an ideal is a name or an
inline tuple ``(f, g)``; a polynomial list is ``[f, g]`` or an ideal
name standing for its generators.  A wrong argument count is a
``ScriptSyntaxError``, like any other malformed statement.
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
            args = self.parse_expr_list(stop=")", lists=True)
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
            args = self.parse_expr_list(stop=")", lists=True)
            self.expect(")")
        else:
            while self.peek().kind != ";":
                nxt = self.peek()
                if nxt.kind == "[":
                    args.append(self.parse_bracket_list())
                elif nxt.kind in ("name", "int", "number"):
                    args.append(("expr", [self.next()]))
                else:
                    self.error(f"unexpected {nxt.value!r} in command")
        self.expect(";")
        return ("command", cmd, args, tok.line, tok.col)

    def parse_bracket_list(self):
        self.expect("[")
        exprs = self.parse_expr_list(stop="]")
        self.expect("]")
        return ("list", exprs)

    def parse_expr_list(self, stop, lists=False):
        """Comma-separated expressions up to `stop`; with `lists`, an
        item may also be a bracketed list (the arguments of a call)."""
        exprs = []
        if self.peek().kind == stop:
            return exprs
        while True:
            if lists and self.peek().kind == "[":
                exprs.append(self.parse_bracket_list())
            else:
                exprs.append(self.parse_expr_tokens(stop={",", stop}))
            if self.peek().kind != ",":
                return exprs
            self.next()

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
    ring, with bindings."""

    def __init__(self, ring, lookup):
        self.ring = ring
        self.lookup = lookup
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
        index = self.ring._index
        base = text.rstrip("0123456789")
        if base != text and base in index:
            return self.ring.var(index[base]) ** int(text[len(base):])
        if text in index:
            return self.ring.var(index[text])
        raise ScriptSyntaxError(f"unknown name {text!r}",
                                tok.line, tok.col)


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


def _takes(spec):
    """Declare the kinds of a command's or ideal operation's arguments
    (see Interpreter.convert_args)."""
    def mark(method):
        method.spec = spec
        return method
    return mark


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
        self.bindings[name] = self.call("op", op, args, line, col)

    def exec_command(self, stmt, index):
        _, cmd, args, line, col = stmt
        self.need_ring(line, col)
        result = self.call("cmd", cmd, args, line, col)
        echo = [" ".join(t.value for t in arg[1]) if arg[0] == "expr"
                else "[...]" for arg in args]
        self.entries.append({
            "index": index,
            "command": " ".join([cmd] + echo),
            "result": result,
        })

    def call(self, kind, name, args, line, col):
        """Run the command (kind "cmd") or ideal operation (kind "op")
        `name` on its converted arguments."""
        handler = getattr(self, f"{kind}_{name}", None)
        if handler is None:
            noun = "command" if kind == "cmd" else "ideal operation"
            raise ScriptSyntaxError(f"unknown {noun} {name!r}", line, col)
        return handler(*self.convert_args(args, handler.spec, line, col))

    # -- arguments --

    def convert_args(self, args, spec, line, col):
        """The arguments converted by `spec`, one letter per argument: I
        ideal, P polynomial, L polynomial list, N integer, W one-token
        word (a variable name or a tag), E expression tokens.  A final
        '?' makes the last argument optional (None when left out); a
        final '*' repeats the last letter for any further arguments.  A
        wrong argument count is a syntax error."""
        kinds = spec.rstrip("?*")
        repeat = spec.endswith("*")
        need = len(kinds) - (kinds != spec)
        most = len(args) if repeat else len(kinds)
        if not need <= len(args) <= most:
            expected = (f"at least {need}" if repeat else str(need)
                        if need == most else f"{need} to {most}")
            raise ScriptSyntaxError(
                f"wrong number of arguments: expected {expected}, "
                f"found {len(args)}", line, col)
        values = [self._CONVERTERS[kinds[min(i, len(kinds) - 1)]](
            self, arg, line, col) for i, arg in enumerate(args)]
        return values + [None] * (len(kinds) - len(values) - repeat)

    def _ideal(self, arg, line, col):
        """An ideal name or an inline generator tuple (f, g, ...)."""
        kind, tokens = arg
        if kind == "expr" and len(tokens) == 1 and tokens[0].kind == "name":
            tok = tokens[0]
            obj = self.lookup(tok.value)
            if isinstance(obj, Ideal):
                return obj
            raise ScriptSyntaxError(f"{tok.value!r} is not an ideal",
                                    tok.line, tok.col)
        if kind == "expr" and tokens[0].kind == "(":
            last = tokens[-1]
            parser = _Parser(tokens + [Token("eof", "", last.line,
                                             last.col)])
            parser.next()
            exprs = parser.parse_expr_list(stop=")")
            if exprs and parser.next().kind == ")" and \
                    parser.peek().kind == "eof":
                return Ideal(self.ring, [self.eval_expr(e) for e in exprs])
        raise ScriptSyntaxError(
            "expected an ideal name or an inline (generators) tuple",
            line, col)

    def _poly(self, arg, line, col):
        if arg[0] != "expr":
            raise ScriptSyntaxError("expected a polynomial", line, col)
        return self.eval_expr(arg)

    def _polys(self, arg, line, col):
        """A bracketed list [f, g, ...], or the generators of an ideal."""
        if arg[0] == "list":
            return [self.eval_expr(e) for e in arg[1]]
        return list(self._ideal(arg, line, col).generators)

    def _token(self, arg, kinds, what, line, col):
        if arg[0] == "expr" and len(arg[1]) == 1 and arg[1][0].kind in kinds:
            return arg[1][0].value
        raise ScriptSyntaxError(f"expected {what}", line, col)

    def _int(self, arg, line, col):
        return int(self._token(arg, ("int",), "an integer", line, col))

    def _word(self, arg, line, col):
        return self._token(arg, ("name", "number"), "a name", line, col)

    def _tokens(self, arg, line, col):
        if arg[0] != "expr":
            raise ScriptSyntaxError("expected an expression", line, col)
        return arg[1]

    _CONVERTERS = {"I": _ideal, "P": _poly, "L": _polys, "N": _int,
                   "W": _word, "E": _tokens}

    # -- ideal operations --

    op_sum = _takes("II")(lambda self, A, B: A + B)
    op_product = _takes("II")(lambda self, A, B: A * B)
    op_intersect = _takes("II")(lambda self, A, B: A.intersect(B))
    op_colon = _takes("II")(lambda self, A, B: A.colon(B))
    op_saturate = _takes("II")(lambda self, A, B: A.saturate(B))
    op_power = _takes("IN")(lambda self, A, n: A ** n)

    @_takes("IW*")
    def op_eliminate(self, A, *names):
        return A.eliminate(names)

    @_takes("IL")
    def op_linkideal(self, A, a):
        return cancellation.link_ideal(A, a).K

    @_takes("I")
    def op_minreduction(self, A):
        return self._min_reduction(A).result

    @_takes("EE*")
    def op_kernel(self, *images):
        # target variables: identifiers that are not ring variables or
        # bindings, with exponent shorthand stripped (x2 names x)
        target_names = []
        for tokens in images:
            for tok in tokens:
                if (tok.kind != "name" or tok.value in self.ring._index
                        or tok.value in self.bindings):
                    continue
                name = tok.value.rstrip("0123456789")
                if name not in target_names:
                    target_names.append(name)
        if not target_names:
            first = images[0][0]
            raise ScriptSyntaxError("kernel images use no new variables",
                                    first.line, first.col)
        target = Ring(self.ring.field, target_names)
        return kernel_of_map(self.ring, [
            _ExprEval(target, self.lookup).run(list(tokens))
            for tokens in images])

    def _min_reduction(self, I):
        return reductions.find_minimal_reduction(
            I, seed=self.flags.seed, attempts=self.flags.attempts,
            n_cap=self.flags.n_cap)

    # -- commands --

    @_takes("I")
    def cmd_gb(self, I):
        return {"generators": [str(g) for g in I.groebner().generators]}

    @_takes("I")
    def cmd_print(self, I):
        return {"generators": [str(g) for g in I.generators]}

    @_takes("I")
    def cmd_dim(self, I):
        rep = I.dimension()
        return {"dim": rep.dim, "height": rep.height,
                "witness": list(rep.max_independent_set)}

    @_takes("I")
    def cmd_height(self, I):
        return {"height": I.height}

    @_takes("I")
    def cmd_mingens(self, I):
        return {"min_gens": I.min_gens()}

    @_takes("II")
    def cmd_contains(self, A, B):
        return {"contains": A.contains(B)}

    @_takes("II")
    def cmd_equal(self, A, B):
        return {"equal": A == B}

    @_takes("IP")
    def cmd_member(self, A, f):
        return {"member": A.contains_poly(f)}

    @_takes("IP")
    def cmd_radicalmember(self, A, f):
        return {"radical_member": radical_contains(A, f)}

    @_takes("I")
    def cmd_resolution(self, I):
        res = resolutions.free_resolution(I)
        return {"betti": list(res.betti_numbers()), "length": res.length}

    @_takes("I")
    def cmd_cohomology(self, I):
        s = resolutions.cohomology_summary(I)
        return {"g": s.g, "d": s.d, "depth": s.depth, "is_CM": s.is_CM,
                "ext_vanishes": s.ext_vanishes}

    @_takes("I")
    def cmd_rees(self, I):
        pres = rees.rees_presentation(I)
        return {
            "analytic_spread": pres.analytic_spread,
            "analytic_deviation": pres.analytic_deviation,
            "fiber_generators": [
                str(g) for g in pres.fiber_ideal.groebner().generators],
        }

    @_takes("I")
    def cmd_syzygetic(self, I):
        rep = rees.is_syzygetic(I)
        return {"is_syzygetic": rep.is_syzygetic,
                "offenders": [str(o) for o in rep.offenders]}

    @_takes("II")
    def cmd_reduction(self, I, J):
        rep = reductions.reduction_number(I, J, n_cap=self.flags.n_cap)
        return {"is_reduction": rep.is_reduction, "r": rep.r}

    @_takes("I")
    def cmd_minreduction(self, I):
        search = self._min_reduction(I)
        return {
            "seed": str(search.seed),
            "attempts": search.attempts,
            "analytic_spread": search.spread,
            "r": search.report.r,
            "generators": [str(g) for g in search.result.generators],
        }

    @_takes("ILP")
    def cmd_hypotheses(self, I, a, extra):
        H = cancellation.check_hypotheses(I, a, extra)
        return {"g": H.g, "d": H.d, "checks": H.checks,
                "certified": H.certified}

    @_takes("ILPI")
    def cmd_cancelcheck(self, I, a, extra, K):
        H = cancellation.check_hypotheses(I, a, extra)
        return {"holds": cancellation.cancel_check(H, K)}

    @_takes("ILP")
    def cmd_witness(self, I, a, extra):
        H = cancellation.check_hypotheses(I, a, extra)
        trace = cancellation.construct_witness(H, seed=self.flags.seed)
        return {
            "s": str(trace.s),
            "b": str(trace.b),
            "q": [str(g) for g in trace.q.groebner().generators],
            "steps": [[name, ok] for name, ok in trace.steps],
        }

    @_takes("IL")
    def cmd_link(self, I, a):
        rep = cancellation.link_ideal(I, a)
        out = {"degenerate": rep.degenerate,
               "K": [str(g) for g in rep.K.groebner().generators]}
        if not rep.degenerate:
            out.update({"height": rep.height_K, "unmixed": rep.unmixed_K,
                        "gci": rep.gci_K})
        return out

    @_takes("ILPN")
    def cmd_cor213(self, I, a, extra, n):
        H = cancellation.check_hypotheses(I, a, extra)
        holds = cancellation.corollary213_check(H, n)
        return {"equivalent": True, "power_in_reduction": holds, "n": n}

    @_takes("IIN?")
    def cmd_powerscan(self, I, J, n_max):
        if n_max is None:
            n_max = self.flags.n_cap
        n = cancellation.power_containment_scan(I, J, n_max=n_max)
        return {"n": n, "n_max": n_max}

    @_takes("W")
    def cmd_example(self, tag):
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
