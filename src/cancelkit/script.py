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

The parser reads the whole script once, building each expression as a
tree (see ``_Parser.parse_expr``); the interpreter only evaluates
trees, and ``evaluate`` is the one evaluator of polynomial expressions.
Commands are written call-style (``member(P, x*y - z2);``) or
space-style (``member P x2;``, each argument one token or a bracketed
list).  Both styles give the same call node, and every command and
ideal operation converts its arguments in one place
(``Interpreter.convert_args``) by the kinds it declares with
``_takes``: an ideal is a name, an inline tuple ``(f, g)`` or an ideal
operation call, so operations nest; a polynomial list is ``[f, g]`` or
an ideal standing for its generators.  A wrong argument count is a
``ScriptSyntaxError``, like any other malformed statement.
"""

import json

from . import cancellation, reductions, rees, resolutions
from .errors import ScriptSyntaxError
from .fields import field_from_spec
from .ideals import Ideal, minimal_kernel, radical_contains
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


# the deepest nesting of brackets and calls an expression may have; the
# parser and the evaluator recurse once per level, never per term
MAX_NESTING = 64


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

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
        if tok.value in ("poly", "ideal"):
            return self.parse_binding()
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

    def parse_binding(self):
        kind = self.next().value
        name = self.expect("name").value
        self.expect("=")
        expr = self.parse_expr()
        self.expect(";")
        return (kind, name, expr)

    def parse_command(self):
        """A command is a call node: call style `cmd(a, b);` or space
        style `cmd a b;`, each argument one token or a bracketed list."""
        tok = self.peek()
        if self.peek(1).kind == "(":
            call = self.parse_base()
        else:
            self.next()
            args, spans = [], []
            while self.peek().kind != ";":
                start = self.pos
                nxt = self.peek()
                if nxt.kind == "[":
                    args.append(self.parse_base())
                elif nxt.kind in ("name", "int", "number"):
                    args.append((nxt.kind, self.next()))
                else:
                    self.error(f"unexpected {nxt.value!r} in command")
                spans.append(self.tokens[start:self.pos])
            call = ("call", tok, args, spans)
        self.expect(";")
        return ("command", call)

    # expressions: trees of tuples, each node keeping its token
    #   leaves    ("int" | "number" | "name", tok)
    #   operators ("neg", tok, operand), ("^", tok, base, exponent_tok),
    #             ("chain", tok, first, rest) for a run of + and - (or of
    #             * and /), rest holding (operator_tok, operand) pairs
    #   groups    ("tuple", tok, items) for (f, g, ...), ("list", tok,
    #             items) for [f, g, ...], ("call", tok, args, spans) for
    #             name(args), spans holding the tokens of each argument

    def parse_expr(self):
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            first = ("neg", tok, self.parse_term())
        else:
            first = self.parse_term()
        return self.parse_chain(first, ("+", "-"), self.parse_term)

    def parse_term(self):
        return self.parse_chain(self.parse_factor(), ("*", "/"),
                                self.parse_factor)

    def parse_chain(self, first, ops, operand):
        rest = []
        while self.peek().kind in ops:
            op = self.next()
            rest.append((op, operand()))
        # the node's token is its last operator, where errors about the
        # whole chain point
        return ("chain", rest[-1][0], first, rest) if rest else first

    def parse_factor(self):
        node = self.parse_base()
        if self.peek().kind == "^":
            op = self.next()
            exponent = self.next()
            if exponent.kind != "int":
                self.error("exponent must be an integer", exponent)
            node = ("^", op, node, exponent)
        return node

    def parse_base(self):
        tok = self.next()
        if tok.kind in ("int", "number"):
            return (tok.kind, tok)
        if tok.kind == "name":
            if self.peek().kind != "(":
                return ("name", tok)
            self.next()
            return ("call", tok) + self.parse_expr_list(")", tok)
        if tok.kind == "(":
            return ("tuple", tok, self.parse_expr_list(")", tok)[0])
        if tok.kind == "[":
            return ("list", tok, self.parse_expr_list("]", tok)[0])
        self.error(f"unexpected {tok.value!r} in expression", tok)

    def parse_expr_list(self, close, opening):
        """The comma-separated expressions up to and including `close`,
        and the tokens each one spans; `opening` is the token that
        opened this level of nesting."""
        if self.depth == MAX_NESTING:
            self.error(f"expression nested deeper than {MAX_NESTING} "
                       f"levels", opening)
        self.depth += 1
        items, spans = [], []
        if self.peek().kind != close:
            while True:
                start = self.pos
                items.append(self.parse_expr())
                spans.append(self.tokens[start:self.pos])
                if self.peek().kind != ",":
                    break
                self.next()
        self.expect(close)
        self.depth -= 1
        return items, spans


def parse_script(text):
    return _Parser(tokenize(text)).parse_script()


# -- expression evaluation ---------------------------------------------------

def evaluate(node, ring, lookup):
    """The polynomial in `ring` that an expression tree denotes; a name
    is a binding found by `lookup`, else a ring variable."""
    kind, tok = node[0], node[1]
    if kind == "int":
        return ring.constant(ring.field.normalize(int(tok.value)))
    if kind == "name":
        return _resolve_name(tok, ring, lookup)
    if kind == "neg":
        value = evaluate(node[2], ring, lookup)
        return value.scale(ring.field.neg(ring.field.one))
    if kind == "^":
        return evaluate(node[2], ring, lookup) ** int(node[3].value)
    if kind == "chain":
        value = evaluate(node[2], ring, lookup)
        for op, operand in node[3]:
            rhs = evaluate(operand, ring, lookup)
            if op.kind == "+":
                value = value + rhs
            elif op.kind == "-":
                value = value - rhs
            elif op.kind == "*":
                value = value * rhs
            elif rhs.degree() != 0 or rhs.is_zero():
                raise ScriptSyntaxError(
                    "division only by nonzero constants", op.line, op.col)
            else:
                value = value.scale(ring.field.inv(rhs.lc()))
        return value
    if kind == "tuple" and len(node[2]) == 1:
        return evaluate(node[2][0], ring, lookup)
    if kind == "call" and tok.value == "gen":
        return _generator(node, ring, lookup)
    raise ScriptSyntaxError(f"expected a polynomial, found {tok.value!r}",
                            tok.line, tok.col)


def _generator(node, ring, lookup):
    """gen(IDEAL, i): generator i of a bound ideal."""
    _, tok, args, _ = node
    if len(args) != 2 or args[0][0] != "name" or args[1][0] != "int":
        raise ScriptSyntaxError("expected gen(IDEAL, index)",
                                tok.line, tok.col)
    name, idx = args[0][1], args[1][1]
    obj = lookup(name.value)
    if not isinstance(obj, Ideal):
        raise ScriptSyntaxError(f"{name.value!r} is not an ideal",
                                name.line, name.col)
    i = int(idx.value)
    if i >= len(obj.generators):
        raise ScriptSyntaxError(
            f"{name.value} has only {len(obj.generators)} generators",
            idx.line, idx.col)
    if obj.ring != ring:
        raise ScriptSyntaxError(f"{name.value} lives in a different ring",
                                name.line, name.col)
    return obj.generators[i]


def _resolve_name(tok, ring, lookup):
    text = tok.value
    obj = lookup(text)
    if isinstance(obj, Polynomial):
        if obj.ring != ring:
            raise ScriptSyntaxError(f"{text!r} lives in a different ring",
                                    tok.line, tok.col)
        return obj
    if obj is not None:
        raise ScriptSyntaxError(f"{text!r} is not a polynomial",
                                tok.line, tok.col)
    # exponent shorthand: known variable followed by digits
    index = ring._index
    base = text.rstrip("0123456789")
    if base != text and base in index:
        return ring.var(index[base]) ** int(text[len(base):])
    if text in index:
        return ring.var(index[text])
    raise ScriptSyntaxError(f"unknown name {text!r}", tok.line, tok.col)


def _names(node):
    """The name tokens of an expression tree, in source order (a call's
    own name excluded)."""
    if node[0] == "name":
        yield node[1]
    elif node[0] in ("tuple", "list", "call"):
        for item in node[2]:
            yield from _names(item)
    elif node[0] == "chain":
        yield from _names(node[2])
        for _, operand in node[3]:
            yield from _names(operand)
    elif node[0] in ("neg", "^"):
        yield from _names(node[2])


# -- interpreter -------------------------------------------------------------

class RunFlags:
    def __init__(self, field=None, seed=0, n_cap=10, attempts=50):
        self.field = field
        self.seed = seed
        self.n_cap = n_cap
        self.attempts = attempts


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

    def eval_expr(self, node):
        return evaluate(node, self.ring, self.lookup)

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
        _, name, expr = stmt
        self.need_ring()
        self.bindings[name] = self._ideal(expr)

    def exec_command(self, stmt, index):
        _, call = stmt
        _, tok, args, spans = call
        self.need_ring(tok.line, tok.col)
        result = self.call("cmd", call)
        echo = ["[...]" if arg[0] == "list"
                else " ".join(t.value for t in span)
                for arg, span in zip(args, spans)]
        self.entries.append({
            "index": index,
            "command": " ".join([tok.value] + echo),
            "result": result,
        })

    def call(self, kind, node):
        """Run the command (kind "cmd") or ideal operation (kind "op")
        that a call node names on its converted arguments."""
        _, tok, args, _ = node
        handler = getattr(self, f"{kind}_{tok.value}", None)
        if handler is None:
            noun = "command" if kind == "cmd" else "ideal operation"
            raise ScriptSyntaxError(f"unknown {noun} {tok.value!r}",
                                    tok.line, tok.col)
        return handler(*self.convert_args(args, handler.spec,
                                          tok.line, tok.col))

    # -- arguments --

    def convert_args(self, args, spec, line, col):
        """The arguments converted by `spec`, one letter per argument: I
        ideal, P polynomial, L polynomial list, N integer, W one-token
        word (a variable name or a tag), E expression tree.  A final
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
        values = [self._CONVERTERS[kinds[min(i, len(kinds) - 1)]](self, arg)
                  for i, arg in enumerate(args)]
        return values + [None] * (len(kinds) - len(values) - repeat)

    def _ideal(self, arg):
        """An ideal name, an inline generator tuple (f, g, ...) or an
        ideal operation call."""
        kind, tok = arg[0], arg[1]
        if kind == "name":
            obj = self.lookup(tok.value)
            if isinstance(obj, Ideal):
                return obj
            raise ScriptSyntaxError(f"{tok.value!r} is not an ideal",
                                    tok.line, tok.col)
        if kind == "tuple":
            return Ideal(self.ring, [self.eval_expr(e) for e in arg[2]])
        if kind == "call":
            return self.call("op", arg)
        raise ScriptSyntaxError(
            "expected an ideal name, an inline (generators) tuple or an "
            "ideal operation", tok.line, tok.col)

    def _polys(self, arg):
        """A bracketed list [f, g, ...], or the generators of an ideal."""
        if arg[0] == "list":
            return [self.eval_expr(e) for e in arg[2]]
        return list(self._ideal(arg).generators)

    def _token(self, arg, kinds, what):
        tok = arg[1]
        if arg[0] in kinds:
            return tok.value
        raise ScriptSyntaxError(f"expected {what}", tok.line, tok.col)

    def _int(self, arg):
        return int(self._token(arg, ("int",), "an integer"))

    def _word(self, arg):
        return self._token(arg, ("name", "number"), "a name")

    _CONVERTERS = {"I": _ideal, "P": eval_expr, "L": _polys, "N": _int,
                   "W": _word, "E": lambda self, tree: tree}

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
        for tok in (tok for image in images for tok in _names(image)):
            if tok.value in self.ring._index or tok.value in self.bindings:
                continue
            name = tok.value.rstrip("0123456789")
            if name not in target_names:
                target_names.append(name)
        if not target_names:
            first = images[0][1]
            raise ScriptSyntaxError("kernel images use no new variables",
                                    first.line, first.col)
        target = Ring(self.ring.field, target_names)
        return minimal_kernel(self.ring, [
            evaluate(image, target, self.lookup) for image in images])

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
        report = reductions.reduction_number(I, J, n_cap=self.flags.n_cap)
        n = cancellation.power_containment_scan(I, J, n_max, report)
        return {"n": n, "n_max": n_max}


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
