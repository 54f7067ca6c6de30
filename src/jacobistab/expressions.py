"""Arithmetic expressions for config files, with exact partials.

Supports ``+ - * / ^``, unary ``+ -``, the functions ``sin cos exp ln``,
numeric literals, ``pi``, and chart variables ``q1..qn``.  Expressions are
parsed with Python's ``ast`` module against a strict node whitelist (``^``
is rewritten to ``**`` first).

A differentiator walks a validated tree by a rule table over the same
nodes, folding 0 and 1, so custom metrics and potentials carry exact
first and second partials and a partial that is identically zero is never
emitted.  :func:`compile_expression` compiles an expression, or every
nonzero entry of a tensor of them, into one code object that is evaluated
once per call over a whole point batch (``q1 = P[..., 0]``) with empty
builtins, so compiled expressions meet the evaluator contract of
:mod:`jacobistab.geometry` directly.  :func:`compile_point` writes the
same trees as float source, the point sources the RK4 stages inline.
"""

from __future__ import annotations

import ast
import copy
import functools
import math
import operator
import re
from typing import NamedTuple, Optional

import numpy as np

from .errors import ChartDomainError, ConfigError
from .geometry import ChartMetric, PointSource, ScalarField, _const, _finite, point_source

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log}
_CONSTANTS = {"pi": np.float64(math.pi)}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)
# a chart variable: ASCII q and a number without a leading zero
_VARIABLE = re.compile(r"q([1-9][0-9]*)")


def _finite_number(value) -> bool:
    """Whether a literal is a number (not a bool) that is a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:           # an int too large for a float
        return False


def _validate(node: ast.AST, dim: int, src: str) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body, dim, src)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ConfigError(f"operator not allowed in expression: {src!r}")
        _validate(node.left, dim, src)
        _validate(node.right, dim, src)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ConfigError(f"operator not allowed in expression: {src!r}")
        _validate(node.operand, dim, src)
    elif isinstance(node, ast.Constant):
        if not _finite_number(node.value):
            raise ConfigError(f"only finite numeric constants allowed: {src!r}")
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ConfigError(f"unknown function in expression: {src!r}")
        if node.keywords or len(node.args) != 1:
            raise ConfigError(f"functions take exactly one argument: {src!r}")
        _validate(node.args[0], dim, src)
    elif isinstance(node, ast.Name):
        name = node.id
        if name in _CONSTANTS:
            return
        index = _VARIABLE.fullmatch(name)
        if index and int(index.group(1)) <= dim:
            return
        raise ConfigError(f"unknown name {name!r} in expression {src!r} (dim={dim})")
    else:
        raise ConfigError(f"syntax not allowed in expression: {src!r}")


def _parse(src: str, dim: int) -> ast.AST:
    """The validated expression tree of ``src`` over ``q1..q{dim}``."""
    try:
        tree = ast.parse(src.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {src!r}: {exc}") from None
    _validate(tree, dim, src)
    return tree.body


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


def _literal(node):
    """The number a literal node holds, else None (``pi`` is not folded)."""
    return node.value if isinstance(node, ast.Constant) else None


def _is(node, value) -> bool:
    return _literal(node) == value


def _binop(a, op, b):
    """``a op b``, folded to a literal when both are literals and the result
    is a finite float (an undefined one is left to raise when evaluated)."""
    x, y = _literal(a), _literal(b)
    if x is not None and y is not None:
        try:
            value = _BINOPS[op](float(x), float(y))
        except (ZeroDivisionError, OverflowError):
            value = None
        if isinstance(value, float) and math.isfinite(value):
            return ast.Constant(value)
    return ast.BinOp(a, op(), b)


def _add(a, b):
    if _is(a, 0):
        return b
    return a if _is(b, 0) else _binop(a, ast.Add, b)


def _sub(a, b):
    if _is(b, 0):
        return a
    return _neg(b) if _is(a, 0) else _binop(a, ast.Sub, b)


def _mul(a, b):
    if _is(a, 0) or _is(b, 0):
        return ast.Constant(0)
    if _is(a, 1):
        return b
    return a if _is(b, 1) else _binop(a, ast.Mult, b)


def _div(a, b):
    if _is(a, 0):
        return ast.Constant(0)
    return a if _is(b, 1) else _binop(a, ast.Div, b)


def _pow(a, b):
    if _is(b, 0):
        return ast.Constant(1)
    return a if _is(b, 1) else _binop(a, ast.Pow, b)


def _neg(a):
    x = _literal(a)
    if x is not None:
        return ast.Constant(-x)
    if isinstance(a, ast.UnaryOp) and isinstance(a.op, ast.USub):
        return a.operand
    return ast.UnaryOp(ast.USub(), a)


def _call(name, a):
    return ast.Call(ast.Name(name, ast.Load()), [a], [])


# d f(a) = rule(a, f(a)) * da
_CHAIN = {
    "sin": lambda a, fa: _call("cos", a),
    "cos": lambda a, fa: _neg(_call("sin", a)),
    "exp": lambda a, fa: fa,
    "ln": lambda a, fa: _div(ast.Constant(1), a),
}


def _derivative(node: ast.AST, k: int) -> ast.AST:
    """The tree of ``d node / d q{k+1}`` for a validated expression tree.

    Zero and unit factors and terms are folded away, so a partial that is
    identically zero comes back as the literal 0.
    """
    if isinstance(node, ast.Constant):
        return ast.Constant(0)
    if isinstance(node, ast.Name):
        return ast.Constant(1 if node.id == f"q{k + 1}" else 0)
    if isinstance(node, ast.UnaryOp):
        d = _derivative(node.operand, k)
        return _neg(d) if isinstance(node.op, ast.USub) else d
    if isinstance(node, ast.Call):
        a = node.args[0]
        da = _derivative(a, k)
        return _mul(_CHAIN[node.func.id](a, node), da)
    a, b = node.left, node.right
    da, db = _derivative(a, k), _derivative(b, k)
    op = type(node.op)
    if op is ast.Add:
        return _add(da, db)
    if op is ast.Sub:
        return _sub(da, db)
    if op is ast.Mult:
        return _add(_mul(da, b), _mul(a, db))
    if op is ast.Div:
        return _sub(_div(da, b), _div(_mul(a, db), _pow(b, ast.Constant(2))))
    if _is(db, 0):                              # a^c: c a^(c-1) da
        return _mul(_mul(b, _pow(a, _sub(b, ast.Constant(1)))), da)
    # a^b (db ln a + b da / a)
    return _mul(node, _add(_mul(db, _call("ln", a)), _div(_mul(b, da), a)))


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

class Tensor(NamedTuple):
    """Expression trees for the nonzero entries of a tensor of ``shape``.

    ``entries`` pairs each tree with the index tuples of the cells it fills
    (cells related by a symmetry share one tree); every other cell is 0.
    ``label`` names the tensor in error messages.
    """

    shape: tuple
    entries: tuple
    label: str


def _map_literals(node, literal):
    """A copy of ``node`` with each numeric literal replaced by the node
    ``literal(value)``."""
    if isinstance(node, ast.Constant):
        return literal(node.value)
    node = copy.copy(node)
    for field, value in ast.iter_fields(node):
        if isinstance(value, ast.AST):
            setattr(node, field, _map_literals(value, literal))
        elif isinstance(value, list):
            setattr(node, field, [_map_literals(v, literal) for v in value])
    return node


def _bind_literals(node, env):
    """A copy of ``node`` whose numeric literals are names bound to float64
    values in ``env``, so that arithmetic on literals follows numpy's rules
    when evaluated, as arithmetic on points does (``(-2)^0.5`` raises instead
    of going complex at compile time)."""
    def bind(value):
        name = f"_c{len(env)}"
        env[name] = np.float64(value)
        return ast.Name(name, ast.Load())

    return _map_literals(node, bind)


def _undefined_raises(label: str, fn):
    """The batched evaluator ``fn``, raising :class:`ChartDomainError` where
    numpy divides by zero, overflows or meets an invalid operation, with
    ``label`` naming what is undefined."""
    def evaluate(p):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return fn(p)
        except FloatingPointError as exc:
            raise ChartDomainError(f"{label} undefined: {exc}") from None
    return evaluate


def compile_expression(src, dim: int):
    """Compile an expression string into ``points (..., dim) -> values (...)``,
    or a :class:`Tensor` into ``points -> values (..., *shape)``.

    All entries are evaluated by one code object in one call.  ``ln`` of a
    value <= 0, division by zero, overflow and an invalid operation (such as
    a fractional power of a negative value) raise :class:`ChartDomainError`
    instead of yielding NaN or inf.
    """
    if isinstance(src, str):
        src = Tensor((), ((_parse(src, dim), ((),)),), f"expression {src!r}")
    env = {"__builtins__": {}, **_FUNCTIONS, **_CONSTANTS}
    tree = ast.Expression(ast.Tuple([_bind_literals(node, env) for node, _ in src.entries],
                                    ast.Load()))
    code = compile(ast.fix_missing_locations(tree), "<expression>", "eval")
    slots = [[(Ellipsis,) + cell for cell in cells] for _, cells in src.entries]
    shape, label = tuple(src.shape), src.label

    @functools.partial(_undefined_raises, label)
    def entries(p):
        return eval(code, env, {f"q{i+1}": p[..., i] for i in range(dim)})

    def fn(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape[:-1] + shape)
        for value, cells in zip(entries(p), slots):
            for cell in cells:
                out[cell] = value
        return out[()]

    fn.entries = src.entries
    fn.tensor = src
    return fn


def compile_point(evaluators, dim: int, guard: str = "") -> PointSource:
    """The point source of tensors compiled by :func:`compile_expression`,
    a value and its first and second partials: a sequence of ``dim``
    floats to one flat row-major tuple of floats per evaluator (a float
    for a scalar), computed with Python floats and the ``math`` module.
    Each expression tree is one local, a literal tree is its literal, and
    a cell of no tree is a structural zero.  The second partials are the
    source's second block (see :class:`~jacobistab.geometry.PointSource`).
    Where ``guard``, a condition on ``q0..q{dim-1}``, is false, the point
    is outside the chart.

    It agrees with the evaluators to about 1e-15 relative: ``exp``, ``ln``
    and ``^`` round differently from numpy's in the last bit at some
    points.  Where a value of a block is undefined (an exception, or an
    entry that is complex, infinite or NaN) it evaluates that block's
    evaluators themselves at the point, which raise
    :class:`ChartDomainError` as they do.
    """
    temps, entries, check = ([], []), [], ([], [])
    for block, ev in zip((0, 0, 1), evaluators):
        cells = {}
        for tree, where in ev.tensor.entries:
            floats = _map_literals(tree, lambda value: ast.Constant(float(value)))
            text = re.sub(r"\bq(\d+)\b", lambda m: f"q{int(m.group(1)) - 1}", ast.unparse(floats))
            if _const(text) is None:
                name = f"_e{len(temps[0]) + len(temps[1])}"
                temps[block].append((name, text))
                text = name
            check[block].append(text)
            cells.update((c, text) for c in where)
        entries.append([cells.get(c) for c in np.ndindex(*ev.tensor.shape)])

    def fallback(q, lo, hi):
        p = np.array(q, dtype=float)
        values = (np.ravel(ev(p)).tolist() for ev in evaluators[lo:hi])
        return tuple(v[0] if ev.tensor.shape == () else tuple(v)
                     for ev, v in zip(evaluators[lo:hi], values))

    return point_source(dim, [ev.tensor.shape for ev in evaluators], temps, entries,
                        guard=guard, fallback=fallback, check=check)


def _derived(entries, dim: int) -> tuple:
    """Entries of the first and second partials of a tensor given by its
    ``entries`` (as in :class:`Tensor`), derivative indices first; each
    second partial is derived once per unordered pair ``k <= l``."""
    first, second = [], []
    for tree, cells in entries:
        for k in range(dim):
            dk = _derivative(tree, k)
            if _is(dk, 0):
                continue
            first.append((dk, tuple((k,) + c for c in cells)))
            for l in range(k, dim):
                dkl = _derivative(dk, l)
                if not _is(dkl, 0):
                    second.append((dkl, tuple(kl + c for kl in sorted({(k, l), (l, k)})
                                              for c in cells)))
    return tuple(first), tuple(second)


def scalar_field_from_expr(src: str, dim: int) -> ScalarField:
    """Scalar field backed by an expression, with exact first and second
    partials, each compiled as one tensor."""
    first, second = _derived(((_parse(src, dim), ((),)),), dim)
    value = compile_expression(src, dim)
    partials = compile_expression(Tensor((dim,), first, f"partials of {src!r}"), dim)
    second_partials = compile_expression(
        Tensor((dim, dim), second, f"second partials of {src!r}"), dim)
    return ScalarField(value=value, partials=partials, second_partials=second_partials,
                       point=compile_point((value, partials, second_partials), dim))


def _domain(domain: dict) -> tuple:
    """The batched domain guard and the point source's guard text of a
    chart domain that maps 1-based coordinates to open intervals
    ``(lo, hi)``; an infinite end bounds nothing."""
    ends = [(float(lo), k - 1, float(hi)) for k, (lo, hi) in sorted(domain.items())]
    text = " and ".join(" < ".join([*([repr(lo)] if lo > -math.inf else []), f"q{k}",
                                    *([repr(hi)] if hi < math.inf else [])])
                        for lo, k, hi in ends)

    def guard(p):
        return functools.reduce(operator.and_, [(lo < p[..., k]) & (p[..., k] < hi)
                                                for lo, k, hi in ends])

    return guard, text


def metric_from_exprs(entries: dict, dim: int, name: str = "custom",
                      domain: Optional[dict] = None) -> ChartMetric:
    """Chart metric from expression strings for the components ``g_ij``,
    with exact first and second partials.

    ``entries`` maps (i, j) 1-based index pairs to expression strings;
    missing symmetric partners are mirrored, missing diagonal entries
    default to 1 and off-diagonal to 0.  Equal expressions are one tree,
    evaluated once.  ``domain`` maps 1-based coordinates to the open
    interval ``(lo, hi)`` the chart takes them from, for the batched
    domain guard and the point source alike.
    """
    trees = {}
    for (i, j), src in entries.items():
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ConfigError(f"metric index ({i},{j}) out of range for dim={dim}")
        trees[(i - 1, j - 1)] = _parse(src, dim)
    # each tree fills its missing mirror entry too, and equal trees are one
    cells = {}
    for (a, b), tree in trees.items():
        mirror = ((b, a),) if (b, a) not in trees else ()
        cells.setdefault(ast.dump(tree), (tree, []))[1].extend(((a, b), *mirror))
    g_entries = tuple((tree, tuple(where)) for tree, where in cells.values())
    g_entries += tuple((ast.Constant(1.0), ((a, a),)) for a in range(dim)
                       if (a, a) not in trees)
    first, second = _derived(g_entries, dim)
    g_eval = compile_expression(Tensor((dim, dim), g_entries, "metric"), dim)
    dg_eval = compile_expression(Tensor((dim,) * 3, first, "metric partials"), dim)
    d2g_eval = compile_expression(Tensor((dim,) * 4, second, "metric second partials"), dim)
    guard, text = _domain(domain) if domain else (_finite, "")
    return ChartMetric(dim=dim, g_eval=g_eval, dg_eval=dg_eval, d2g_eval=d2g_eval,
                       domain_guard=guard, name=name,
                       point=compile_point((g_eval, dg_eval, d2g_eval), dim, text))
