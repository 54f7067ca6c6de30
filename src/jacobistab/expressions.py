"""Small arithmetic-expression evaluator for config files.

Supports ``+ - * / ^``, the functions ``sin cos exp ln``, numeric
literals, ``pi``, and chart variables ``q1..qn``.  Expressions are parsed
with Python's ``ast`` module against a strict node whitelist (``^`` is
rewritten to ``**`` first), then compiled once and evaluated with empty
builtins.  Evaluation uses numpy ufuncs on whole point batches
(``q1 = P[..., 0]``), so compiled expressions meet the evaluator contract
of :mod:`jacobistab.geometry` directly.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .errors import ChartDomainError, ConfigError
from .geometry import ChartMetric, ScalarField

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log}
_CONSTANTS = {"pi": math.pi}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


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
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"only numeric constants allowed: {src!r}")
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
        if name.startswith("q") and name[1:].isdigit() and 1 <= int(name[1:]) <= dim:
            return
        raise ConfigError(f"unknown name {name!r} in expression {src!r} (dim={dim})")
    else:
        raise ConfigError(f"syntax not allowed in expression: {src!r}")


def compile_expression(src: str, dim: int):
    """Compile an expression string into ``points (..., dim) -> values (...)``.

    ``ln`` of a value <= 0, division by zero and overflow raise
    :class:`ChartDomainError` instead of yielding NaN or inf.
    """
    text = src.replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {src!r}: {exc}") from None
    _validate(tree, dim, src)
    code = compile(tree, "<expression>", "eval")
    env = {"__builtins__": {}}
    env.update(_FUNCTIONS)
    env.update(_CONSTANTS)

    def fn(p):
        p = np.asarray(p, dtype=float)
        scope = {f"q{i+1}": p[..., i] for i in range(dim)}
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                val = np.asarray(eval(code, env, scope), dtype=float)
        except (FloatingPointError, ZeroDivisionError, OverflowError) as exc:
            raise ChartDomainError(f"expression {src!r} undefined: {exc}") from None
        return np.broadcast_to(val, p.shape[:-1])[()]

    return fn


def scalar_field_from_expr(src: str, dim: int) -> ScalarField:
    """Scalar field backed by an expression; partials by finite differences."""
    return ScalarField(value=compile_expression(src, dim))


def metric_from_exprs(entries: dict, dim: int) -> ChartMetric:
    """Chart metric from expression strings for the components ``g_ij``.

    ``entries`` maps (i, j) 1-based index pairs to expression strings;
    missing symmetric partners are mirrored, missing diagonal entries
    default to 1 and off-diagonal to 0.
    """
    compiled = {}
    for (i, j), src in entries.items():
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ConfigError(f"metric index ({i},{j}) out of range for dim={dim}")
        compiled[(i - 1, j - 1)] = compile_expression(src, dim)
    # each expression is evaluated once and fills its missing mirror entry too
    slots = [(fn, [(a, b)] + ([(b, a)] if (b, a) not in compiled else []))
             for (a, b), fn in compiled.items()]

    def g_eval(p):
        out = np.empty(p.shape[:-1] + (dim, dim))
        out[...] = np.eye(dim)
        for fn, cells in slots:
            val = fn(p)
            for a, b in cells:
                out[..., a, b] = val
        return out

    return ChartMetric(dim=dim, g_eval=g_eval, name="custom")
