"""Symbols sigma(k,x) on Z^n x T^n and diagnostics on them.

Three backends: a small expression language over k1..kn / x1..xn, builtin
families (Bessel multipliers; plain k-multipliers and jump symbols, both
expression symbols), and grid samples on a window x grid.  Sampling lays
k_j and x_j on 2n separate axes, so each expression node is computed only
on the axes it reads, and runs on a slab of k_1 rows as well as on the
whole window, so ``apply`` and the certificate never form a (P, Q) array.
Diagnostics estimate the symbol-class order from
dyadic-shell regressions and certify ellipticity from sampled lower
bounds; the class diagnostics sample sigma once, on the window grown by
the largest |alpha|, and take every Delta^alpha sigma from that sample.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    LatticeWindow,
    TorusGrid,
    MultiIndex,
    binomial_multi,
    multiindex_range,
    multiindices_leq,
    shift_coefficients,
)
from .errors import (
    DimensionMismatchError,
    OutOfWindowError,
    ParseError,
    SymbolSyntaxError,
)

TWO_PI = 2.0 * math.pi

NON_FINITE_SAMPLES = "symbol samples carry non-finite values"


# -- expression AST ----------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: complex


@dataclass(frozen=True)
class Const:
    name: str  # "i" or "twopi"


@dataclass(frozen=True)
class Var:
    kind: str  # "k" or "x"
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Func:
    name: str
    arg: object


_FUNCS = ("exp", "sin", "cos", "sqrt", "abs", "step")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[a-z]+[0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise SymbolSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*;
    term := factor (('*'|'/') factor)*; factor := ['-'] base ('^' base)?;
    base := number | 'i' | 'twopi' | ident | '(' expr ')' | func '(' expr ')'.
    """

    def __init__(self, text: str, n: int):
        self.tokens = _tokenize(text)
        self.n = n
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise SymbolSyntaxError(f"expected {op!r}, found {val!r}", at)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise SymbolSyntaxError(f"trailing input {val!r}", at)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.factor())
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.factor())
        node = self.base()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            exponent = self.base()
            if next(_variables(exponent), None) is not None:
                raise SymbolSyntaxError("exponent must be a constant", at)
            node = BinOp("^", node, exponent)
        return node

    def base(self):
        kind, val, at = self.advance()
        if kind == "num":
            if "." in val or "e" in val or "E" in val:
                return Num(complex(float(val)))
            return Num(complex(int(val)))
        if kind == "name":
            if val in ("i", "twopi"):
                return Const(val)
            if val in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Func(val, arg)
            m = re.fullmatch(r"([kx])([0-9]+)", val)
            if m:
                idx = int(m.group(2))
                if idx < 1 or (self.n is not None and idx > self.n):
                    raise SymbolSyntaxError(
                        f"variable {val!r} exceeds dimension n={self.n}", at)
                return Var(m.group(1), idx)
            raise SymbolSyntaxError(f"unknown name {val!r}", at)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise SymbolSyntaxError(f"unexpected token {val!r}", at)


def _variables(node):
    """Every k and x variable of the expression ``node``, left to right."""
    if isinstance(node, Var):
        yield node
    elif isinstance(node, Neg):
        yield from _variables(node.child)
    elif isinstance(node, BinOp):
        yield from _variables(node.left)
        yield from _variables(node.right)
    elif isinstance(node, Func):
        yield from _variables(node.arg)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide}


def _along(values: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """``values`` laid along ``axis`` of an ``ndim``-dimensional array."""
    shape = [1] * ndim
    shape[axis] = values.size
    return values.reshape(shape)


def _eval_node(node, kcols, xcols):
    """Evaluate on broadcastable per-coordinate arrays (or scalars).

    Every array a node returns is a temporary it created, except a ``Var``
    column, so a binary node writes its result into an operand temporary
    whose shape and dtype already fit it rather than allocating a new one.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return 1j if node.name == "i" else TWO_PI
    if isinstance(node, Var):
        cols = kcols if node.kind == "k" else xcols
        return cols[node.index - 1]
    if isinstance(node, Neg):
        return -_eval_node(node.child, kcols, xcols)
    if isinstance(node, BinOp):
        a = _eval_node(node.left, kcols, xcols)
        b = _eval_node(node.right, kcols, xcols)
        if node.op == "^":
            return np.power(np.asarray(a, dtype=complex), b)
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        dtype = np.result_type(a, b)
        for child, v in ((node.left, a), (node.right, b)):
            if (isinstance(v, np.ndarray) and not isinstance(child, Var)
                    and v.shape == shape and v.dtype == dtype):
                return _UFUNCS[node.op](a, b, out=v)
        try:
            return _ARITHMETIC[node.op](a, b)
        except ZeroDivisionError:  # a constant divisor of 0: inf or nan, as an array one gives
            return _UFUNCS[node.op](a, b)
    if isinstance(node, Func):
        v = _eval_node(node.arg, kcols, xcols)
        if node.name == "exp":
            return np.exp(v)
        if node.name == "sin":
            return np.sin(v)
        if node.name == "cos":
            return np.cos(v)
        if node.name == "sqrt":
            return np.sqrt(np.asarray(v, dtype=complex))
        if node.name == "abs":
            return np.abs(v) + 0j
        # step(t) = 1 for Re t >= 0 (in particular step(0) = 1), else 0
        return np.where(np.real(v) >= 0, 1.0, 0.0) + 0j
    raise TypeError(node)


# A product of sums distributes into the product of their term counts, so
# the walk needs a bound.  A section from R terms is a[rows] @ C[:, modes]
# over the modes the b_r keep, so the section stays cheap at any R: from
# smooth terms (b_r = 1/(2.5 + cos(2 pi (r x_1 + x_2)))) at R = 2, 4 and
# 8, the section took 11, 14 and 22 ms at n=2 N=16 and 3.0, 4.4 and
# 9.7 ms at n=1 N=256, against 60-66 ms and 19-29 ms streamed from the
# samples, sampling not counted (2 cores, numpy 2.4, OpenBLAS, 2 threads).
# A product A v costs R inverse FFTs: 0.14-0.25 ms at n=2 N=16 against
# 0.25-0.56 ms on the section, but at n=1 N=256 0.11-0.35 ms against
# 0.10-0.13 ms.  Past this many terms the walk gives up and sigma is
# sampled instead.
MAX_TERMS = 8


def _separate(node, kcols, xcols, kinds=None):
    """The expression ``node`` as a list of terms (a, b) with node = sum a*b,
    each a read only on the k axes and each b only on the x axes; None when
    it does not split into at most MAX_TERMS of them.

    A sub-tree that reads only k, only x or no variable is one term,
    evaluated by ``_eval_node``; + and - join term lists, * distributes,
    and / needs a one-term divisor.  The kinds each sub-tree reads come
    from one walk of the whole tree (``_kinds``) on the first call, so
    splitting visits each node a bounded number of times.  Terms are
    never written in place: distributing shares one array among several
    of them.
    """
    if kinds is None:
        kinds = {}
        _kinds(node, kinds)
    read = kinds[id(node)]
    if len(read) < 2:
        value = _eval_node(node, kcols, xcols)
        return [(1.0, value)] if read == {"x"} else [(value, 1.0)]
    if isinstance(node, Neg):
        terms = _separate(node.child, kcols, xcols, kinds)
        return None if terms is None else [(np.negative(a), b) for a, b in terms]
    if not isinstance(node, BinOp) or node.op == "^":
        return None
    left = _separate(node.left, kcols, xcols, kinds)
    right = _separate(node.right, kcols, xcols, kinds) if left is not None else None
    if right is None:
        return None
    if node.op == "+":
        terms = left + right
    elif node.op == "-":
        terms = left + [(np.negative(a), b) for a, b in right]
    elif node.op == "*" and len(left) * len(right) <= MAX_TERMS:
        terms = [(a * c, b * d) for a, b in left for c, d in right]
    elif node.op == "/" and len(right) == 1:
        (c, d), = right
        terms = [(np.true_divide(a, c), np.true_divide(b, d)) for a, b in left]
    else:
        return None
    return terms if len(terms) <= MAX_TERMS else None


def _kinds(node, out: dict) -> set:
    """The variable kinds ("k", "x") the expression ``node`` reads, each
    sub-tree's recorded in ``out`` under its id."""
    if isinstance(node, Var):
        kinds = {node.kind}
    elif isinstance(node, Neg):
        kinds = _kinds(node.child, out)
    elif isinstance(node, Func):
        kinds = _kinds(node.arg, out)
    elif isinstance(node, BinOp):
        kinds = _kinds(node.left, out) | _kinds(node.right, out)
    else:
        kinds = set()
    out[id(node)] = kinds
    return kinds


def _factors(terms, window, grid):
    """The (P, R) factor a and (R, Q) factor b of per-axis terms (a_r, b_r)."""
    n = window.n
    a = np.empty((window.size, len(terms)), dtype=complex)
    b = np.empty((len(terms), grid.size), dtype=complex)
    for r, (ar, br) in enumerate(terms):
        a[:, r] = np.broadcast_to(ar, window.shape + (1,) * n).reshape(-1)
        b[r] = np.broadcast_to(br, (1,) * n + grid.shape).reshape(-1)
    return a, b


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def pretty_print(node) -> str:
    """Canonical text form; reparsing yields a structurally identical AST."""

    def render(nd, parent_prec, right_side=False):
        if isinstance(nd, Num):
            v = nd.value
            if v.imag == 0:
                real = v.real
                s = str(int(real)) if real == int(real) else repr(real)
            else:
                raise ValueError("non-real literal cannot be printed")
            return s
        if isinstance(nd, Const):
            return nd.name
        if isinstance(nd, Var):
            return f"{nd.kind}{nd.index}"
        if isinstance(nd, Func):
            return f"{nd.name}({render(nd.arg, 0)})"
        if isinstance(nd, Neg):
            inner = render(nd.child, _PREC["*"])
            s = f"-{inner}"
            return f"({s})" if parent_prec > 1 or right_side else s
        if isinstance(nd, BinOp):
            p = _PREC[nd.op]
            left = render(nd.left, p)
            right = render(nd.right, p, right_side=True)
            s = f"{left}{nd.op}{right}"
            # '-'/'/' are left-associative; '^' binds a single base pair
            if p < parent_prec or (p == parent_prec and right_side):
                return f"({s})"
            if nd.op == "^":
                return f"({left})^({right})" if not isinstance(nd.left, (Num, Const, Var)) else f"{left}^({right})"
            return s
        raise TypeError(nd)

    return render(node, 0)


# -- symbol backends ---------------------------------------------------------

class Symbol:
    """Function sigma(k,x); immutable after construction.

    ``n`` None marks a dimension-generic symbol, which samples in every
    dimension of at least ``min_n``.
    """

    n: int
    order: float
    min_n: int = 1

    def eval(self, k, x) -> complex:
        k = np.asarray(k, dtype=int).reshape(-1, 1).astype(float)
        x = np.asarray(x, dtype=float).reshape(-1, 1)
        self._check_dims(len(k), len(x))
        # row j of k and x is the one-element column of coordinate j
        return complex(np.ravel(self._eval_cols(k, x))[0])

    def sample(self, window: LatticeWindow, grid: TorusGrid) -> np.ndarray:
        """(window.size, grid.size) array of sigma at all (k,x) pairs.

        The array is fresh on every call, so the caller may overwrite it.
        """
        return self.sample_shifted(window, grid, np.zeros(window.n, dtype=int))

    def sample_shifted(self, window, grid, shift) -> np.ndarray:
        """Sample sigma(k + shift, x); backends evaluable on all of Z^n
        accept any shift."""
        S = self._sample_axes(window, grid, shift)
        full = window.shape + grid.shape
        if S.shape != full:
            S = np.broadcast_to(S, full).copy()
        return S.reshape(window.size, grid.size)

    def _sample_axes(self, window, grid, shift, rows: slice = slice(None)) -> np.ndarray:
        """sigma(k + shift, x) on the 2n axes k_1..k_n, x_1..x_n.

        Axis j carries k_j = -N..N plus shift_j (axis 0 only the k_1 rows
        ``rows`` of that range, a slab) and axis n+j carries x_j = 0..M-1
        over M.  Each expression node is computed on the product of the
        axes it reads, so the result has length 1 on every axis sigma does
        not vary on and broadcasts to the slab times grid.shape.  It is
        fresh, so the caller may overwrite it.
        Non-finite values come back without a numpy warning: apply,
        assemble_matrix, the certificate and estimate_order refuse them.
        """
        kcols, xcols = self._columns(window, grid, shift, rows)
        with np.errstate(all="ignore"):
            out = np.asarray(self._eval_cols(kcols, xcols), dtype=complex)
        return out.reshape((1,) * (2 * window.n)) if out.ndim == 0 else out

    def _columns(self, window, grid, shift, rows: slice = slice(None)):
        """The per-axis columns k_j + shift_j on axis j (k_1 on its rows
        ``rows`` only) and x_j on axis n+j."""
        self._check_dims(window.n, grid.n)
        n = window.n
        shift = np.asarray(shift, dtype=int)
        k = [window.axis[rows]] + [window.axis] * (n - 1)
        kcols = [_along((k[j] + shift[j]).astype(float), j, 2 * n) for j in range(n)]
        xcols = [_along(grid.axis, n + j, 2 * n) for j in range(n)]
        return kcols, xcols

    def _terms(self, window, grid):
        """sigma on window x grid split exactly as a @ b: factors a (P, R) in k
        and b (R, Q) in x, or None when the backend has no such split."""
        return None

    def _check_dims(self, nk, nx):
        if nk != nx:
            raise DimensionMismatchError(f"k dimension {nk} != x dimension {nx}")
        if self.n is not None and nk != self.n:
            raise DimensionMismatchError(f"symbol dimension {self.n}, point dimension {nk}")
        if nk < self.min_n:
            raise DimensionMismatchError(
                f"symbol uses coordinate {self.min_n}, point dimension {nk}")

    def _eval_cols(self, kcols, xcols):
        raise NotImplementedError


class ExprSymbol(Symbol):
    """Symbol given by an expression over k1..kn and x1..xn (see parse_symbol)."""

    def __init__(self, n: int, text: str, order: float = None):
        if not text or not text.strip():
            raise SymbolSyntaxError("empty symbol expression", 0)
        self.n = n
        self.text = text
        self.ast = _Parser(text, n).parse()
        # the largest coordinate index the expression reads
        self.min_n = max((v.index for v in _variables(self.ast)), default=1)
        self.order = order

    def _eval_cols(self, kcols, xcols):
        return _eval_node(self.ast, kcols, xcols)

    def _terms(self, window, grid):
        kcols, xcols = self._columns(window, grid, np.zeros(window.n, dtype=int))
        with np.errstate(all="ignore"):
            terms = _separate(self.ast, kcols, xcols)
            return None if terms is None else _factors(terms, window, grid)

    def __repr__(self):
        return f"ExprSymbol({self.text!r}, n={self.n}, order={self.order})"


class BesselSymbol(Symbol):
    """sigma_s(k) = (1 + |k|^2)^(s/2); dimension-generic and x-independent."""

    def __init__(self, s: float, n: int = None):
        self.s = float(s)
        self.n = n
        self.order = float(s)

    def _eval_cols(self, kcols, xcols):
        k2 = sum(c * c for c in kcols)
        return np.power(1.0 + k2, self.s / 2.0) + 0j

    def _terms(self, window, grid):
        kcols, xcols = self._columns(window, grid, np.zeros(window.n, dtype=int))
        return _factors([(self._eval_cols(kcols, xcols), 1.0)], window, grid)

    def __repr__(self):
        return f"BesselSymbol(s={self.s})"


class MultiplierSymbol(ExprSymbol):
    """x-independent symbol a(k) given by an expression over k1..kn."""

    def __init__(self, n: int, text: str, order: float = None):
        super().__init__(n, text, order=order)
        if any(v.kind == "x" for v in _variables(self.ast)):
            raise SymbolSyntaxError("multiplier expression must not use x variables", 0)

    def __repr__(self):
        return f"MultiplierSymbol({self.text!r}, n={self.n})"


class JumpSymbol(ExprSymbol):
    """step(k1)*exp(d*i*twopi*x1) + (1-step(k1)) with d = +1 or -1.

    Order 0; the quantized operator shifts by d on k1 >= 0 and is the
    identity on k1 < 0, the basic index +/-1 construction.
    """

    def __init__(self, direction: int, n: int = 1):
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        sign = "" if direction == 1 else "-"
        super().__init__(n, f"step(k1)*exp({sign}i*twopi*x1) + (1-step(k1))", order=0.0)
        self.direction = int(direction)

    def __repr__(self):
        return f"JumpSymbol(direction={self.direction:+d})"


class GridSymbol(Symbol):
    """Symbol known by its samples on a window x grid product.

    Trigonometric in x (interpolated through the grid's Fourier modes),
    undefined outside its k-window.
    """

    def __init__(self, window: LatticeWindow, grid: TorusGrid, values,
                 order: float = None, interior_margin: int = 0):
        self.window = window
        self.grid = grid
        self.values = np.asarray(values, dtype=complex).reshape(window.size, grid.size)
        self.n = window.n
        self.order = order
        self.interior_margin = int(interior_margin)

    def _sample_axes(self, window, grid, shift, rows: slice = slice(None)):
        """The stored rows at k + shift for the k_1 rows ``rows``, laid on the 2n axes."""
        self._check_dims(window.n, grid.n)
        K = window.points.reshape(window.shape + (window.n,))[rows].reshape(-1, window.n)
        stored, inside = self._rows(K + np.asarray(shift, dtype=int))
        if not np.all(inside):
            raise OutOfWindowError(
                f"shifted evaluation leaves the backing window N={self.window.N}")
        samples = self._row_samples(stored, grid)
        return samples.reshape((len(window.axis[rows]),) + window.shape[1:] + grid.shape)

    def _rows(self, K):
        """Rows of the points K that lie in the backing window, and the mask of those points."""
        inside = np.all(np.abs(K) <= self.window.N, axis=1)
        return np.ravel_multi_index((K[inside] + self.window.N).T, self.window.shape), inside

    def _row_samples(self, rows, grid):
        """The stored rows on ``grid``: a fresh copy, resampled when M differs."""
        if grid.M == self.grid.M:
            return self.values[rows]
        return self._synthesize(rows, [grid.axis] * self.n)

    def _synthesize(self, rows, coords) -> np.ndarray:
        """The stored rows ``rows`` as trigonometric polynomials, sum over m of
        C[k, m] exp(2 pi i m.x), at the points x of the product grid
        coords[0] x ... x coords[n-1], as a (len(rows), prod len(coords[j])) array.

        A slab of the rows at a time, the shift form C of only those rows
        is taken and contracted one axis at a time against the
        (len(coords[j]), M) table exp(2 pi i m x_j), last axis first, so
        neither a table over all M^n modes nor the shift form of every
        stored row is formed.
        """
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        M = self.grid.M
        # integer frequencies via fftfreq * M
        tables = [np.exp(1j * TWO_PI * np.outer(x, np.rint(np.fft.fftfreq(M) * M)))
                  for x in coords]
        out = np.empty((len(rows), math.prod(len(x) for x in coords)), dtype=complex)
        for slab in _slabs(len(rows), max(self.grid.size, out.shape[1])):
            T = shift_coefficients(self.values[rows[slab]], self.window, self.grid)
            after = 1
            for E in reversed(tables):
                # (.., M) @ E^T on the last axis; E @ (.., M, after) on an inner one
                T = T.reshape(-1, M) @ E.T if after == 1 else E @ T.reshape(-1, M, after)
                after *= len(E)
            out[slab] = T.reshape(-1, after)
        return out

    def eval(self, k, x) -> complex:
        k = np.asarray(k, dtype=int).reshape(-1)
        x = np.asarray(x, dtype=float).reshape(-1)
        self._check_dims(k.size, x.size)
        if not self.window.contains(k):
            raise OutOfWindowError(f"point {k.tolist()} outside backing window")
        row = self.window.index_of(k)
        # the stored sample when x M is within a few ulps of a node, else the interpolant
        jx = x * self.grid.M
        if np.all(np.abs(jx - np.rint(jx)) <= 4 * np.spacing(np.maximum(1.0, np.abs(jx)))):
            col = np.ravel_multi_index(np.rint(jx).astype(int) % self.grid.M, self.grid.shape)
            return complex(self.values[row, col])
        return complex(self._synthesize([row], x[:, None])[0, 0])

    def __repr__(self):
        return (f"GridSymbol(N={self.window.N}, M={self.grid.M}, "
                f"order={self.order}, margin={self.interior_margin})")


def parse_symbol(text: str, n: int, order: float = None) -> ExprSymbol:
    """Parse an expression-backed symbol; raises SymbolSyntaxError with position.

    With ``n`` None the symbol is dimension-generic: any k_j / x_j, j >= 1,
    parses, and the symbol samples in every dimension n >= max j.
    """
    return ExprSymbol(n, text, order=order)


def eval_symbol(sigma, k, x) -> complex:
    """Value of sigma at one (k, x) pair."""
    return sigma.eval(k, x)


def bessel_symbol(s: float, n: int = None) -> BesselSymbol:
    return BesselSymbol(s, n=n)


def jump_symbol(direction: int, n: int = 1) -> JumpSymbol:
    return JumpSymbol(direction, n=n)


def multiplier_symbol(text: str, n: int, order: float = None) -> MultiplierSymbol:
    return MultiplierSymbol(n, text, order=order)


# -- order estimation --------------------------------------------------------

@dataclass
class SlopeEntry:
    alpha: tuple
    beta: tuple
    slope: float
    degenerate: bool
    shell_sups: list


@dataclass
class OrderEstimate:
    m_hat: float
    table: list
    shells: list


def _differences(sigma: Symbol, window, grid, alpha_max: int):
    """Yield (alpha, Delta^alpha sigma, valid rows) on window x grid for every
    |alpha| <= alpha_max, in the order of multiindex_range.

    sigma is sampled once, on the window grown by alpha_max, and each
    sigma(k + beta, .) is a slice of that array.  A GridSymbol's rows outside
    its backing window are zero and not valid.  Delta^alpha sigma is the
    closed-form sum over beta <= alpha; one that is not all finite raises
    ValueError.  The grown rows with k < -N are sampled but never read, so
    a pole there raises nothing.
    """
    grown = LatticeWindow(window.n, window.N + alpha_max)
    if isinstance(sigma, GridSymbol):
        rows, inside = sigma._rows(grown.points)
        S = np.zeros((grown.size, grid.size), dtype=complex)
        S[inside] = sigma._row_samples(rows, grid)
    else:
        S, inside = sigma.sample(grown, grid), np.ones(grown.size, dtype=bool)
    S = S.reshape(grown.shape + (grid.size,))
    inside = inside.reshape(grown.shape)

    def at(values, beta):
        """``values`` at k + beta for the points k of ``window``, one row each."""
        cut = tuple(slice(alpha_max + b, alpha_max + b + window.side) for b in beta)
        return values[cut].reshape((window.size,) + values.shape[window.n:])

    for alpha in multiindex_range(window.n, alpha_max):
        acc = np.zeros((window.size, grid.size), dtype=complex)
        valid = np.ones(window.size, dtype=bool)
        with np.errstate(all="ignore"):  # non-finite samples are refused below
            for beta in multiindices_leq(alpha):
                coeff = (-1) ** (alpha.order - beta.order) * binomial_multi(alpha, beta)
                acc += coeff * at(S, beta)
                valid &= at(inside, beta)
        if not np.all(np.isfinite(acc)):
            raise ValueError(NON_FINITE_SAMPLES)
        yield alpha, acc, valid


def _spectral_shifted_derivative(modes: np.ndarray, grid: TorusGrid, beta: MultiIndex):
    """The shifted-derivative product D^(beta) along the x axes, on the grid,
    from ``modes``: the rows' unnormalized FFT over the n x axes.

    On the mode exp(2 pi i m.x) the axis-j factor of order l acts as the
    falling factorial m(m-1)...(m-l+1).
    """
    M, n = grid.M, grid.n
    freqs = np.rint(np.fft.fftfreq(M) * M).astype(int)
    c = modes
    for j, l in enumerate(beta):
        if l == 0:
            continue
        fac = np.ones(M)
        for p in range(l):
            fac = fac * (freqs - p)
        shape = [1] * (n + 1)
        shape[j + 1] = M
        c = c * fac.reshape(shape)
    out = np.fft.ifftn(c, axes=tuple(range(1, n + 1)))
    return out.reshape(modes.shape[0], -1)


def _fit_slope(sups, args):
    """Slope of log sup against log(1+|k|) at the per-shell argmax.

    Consecutive-shell slopes converge geometrically in the shell index
    as the class constant settles, so when the last two agree the
    extrapolated value 2*d_last - d_prev is used; otherwise a plain
    least-squares fit.  None with fewer than three usable shells.
    """
    pts = [(a, s) for a, s in zip(args, sups) if s > 0 and a > 1.0]
    if len(pts) < 3:
        return None
    lx = np.log([a for a, _ in pts])
    ly = np.log([s for _, s in pts])
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope = float(coef[0])
    diffs = []
    for i in range(len(pts) - 1):
        if lx[i + 1] > lx[i] + 1e-9:
            diffs.append((ly[i + 1] - ly[i]) / (lx[i + 1] - lx[i]))
    if len(diffs) >= 2 and abs(diffs[-1] - diffs[-2]) <= 0.75:
        slope = float(2.0 * diffs[-1] - diffs[-2])
    return slope


def _shell_slope(rowmax: np.ndarray, valid: np.ndarray, window: LatticeWindow, scale: float):
    """(slope, degenerate, shell sups) of one ``estimate_order`` entry from the row
    sups ``rowmax`` over the ``valid`` rows and the entry's magnitude ``scale``."""
    if window.N < 8:
        raise ValueError("window too small for a three-shell regression (need N >= 8)")
    _, sups, rows = window.shell_sups(rowmax, valid)
    # trailing shells whose sup sits on the window boundary are
    # geometry-capped, not symbol-governed; drop them
    sup_norm = np.max(np.abs(window.points), axis=1)
    while rows and sup_norm[rows[-1]] >= window.N:
        sups, rows = sups[:-1], rows[:-1]
    pos = [s for s in sups if s > 0]
    slope = None
    # spectral differentiation noise floor: relative to the
    # undifferentiated magnitude, an all-noise entry is degenerate
    if max(sups, default=0.0) > 1e-9 * scale + 1e-280 and len(pos) >= 3:
        # an exactly shell-constant profile has slope 0 by convention
        slope = 0.0 if np.ptp(np.log(pos)) < 1e-12 else _fit_slope(
            sups, [float(window.radial_weight[i]) for i in rows])
    return (0.0 if slope is None else slope), slope is None, sups


def estimate_order(sigma: Symbol, window: LatticeWindow, grid: TorusGrid,
                   alpha_max: int = 1, beta_max: int = 1) -> OrderEstimate:
    """Regress shell sups of |D^(beta) Delta^alpha sigma| to estimate the order.

    m_hat is the max over (alpha, beta) of slope + |alpha|; entries whose
    difference vanishes identically, or that are too localized for a
    shell regression, are recorded with slope 0 and flagged degenerate
    (they carry no order information).
    """
    table = []
    candidates = []
    shells_used = sorted(set(window.shell_labels()))
    for alpha, diff, valid in _differences(sigma, window, grid, alpha_max):
        scale = float(np.max(np.abs(diff))) if diff.size else 0.0
        # one forward transform serves every beta
        modes = np.fft.fftn(diff.reshape((window.size,) + grid.shape),
                            axes=tuple(range(1, window.n + 1))) if beta_max else None
        for beta in multiindex_range(window.n, beta_max):
            g = diff if beta.order == 0 else _spectral_shifted_derivative(modes, grid, beta)
            slope, degenerate, sups = _shell_slope(np.max(np.abs(g), axis=1), valid, window, scale)
            table.append(SlopeEntry(tuple(alpha), tuple(beta), slope, degenerate, sups))
            if not degenerate:
                candidates.append(slope + alpha.order)
    return OrderEstimate(float(max(candidates, default=0.0)), table, shells_used)


# -- ellipticity -------------------------------------------------------------


@dataclass
class EllipticityReport:
    elliptic: bool
    C: float
    M_radius: float
    min_ratio_profile: list
    shells: list

    to_dict = asdict


def check_ellipticity(sigma: Symbol, m: float, window: LatticeWindow,
                      grid: TorusGrid) -> EllipticityReport:
    """Scan |sigma(k,x)| / (1+|k|)^m over all samples.

    Declared non-elliptic when shell minima hit exact zero or decay by
    10x from the first shell to the last; otherwise certified with
    C = min ratio over the whole sampled set and M_radius = 0.  A NaN or
    infinite sample raises ValueError.  The row minima of |sigma| come
    from ``_row_minima``, as in ``elliptic.parametrix``.
    """
    return _certificate(_row_minima(sigma, sigma._terms(window, grid), window, grid), m, window)


_BLOCK = 1 << 14  # samples in one row block or slab


def _slabs(count: int, row_size: int) -> list:
    """Rows 0..count-1 of an array with ``row_size`` entries per row, cut
    into slices of about ``_BLOCK`` entries and at least one row each."""
    width = max(1, _BLOCK // row_size)
    return [slice(start, min(start + width, count)) for start in range(0, count, width)]


def _blocks(sigma: Symbol, terms, window: LatticeWindow, grid: TorusGrid):
    """Yield sigma's samples on window x grid as (ids, S, |S|), ``ids``
    the slice of rows that S holds, in blocks of about ``_BLOCK`` samples.

    Without a split (``terms`` None) the blocks are slabs of k_1 rows
    (``Symbol._sample_axes``); from separated factors (a, b) they are row
    blocks a[ids] @ b, where a may hold only its distinct rows
    (``_profiles``).  Each block is written over the last one's buffers,
    so no (P, Q) array is formed here and the caller may overwrite a
    block.  Non-finite factors or samples raise ValueError; under IEEE
    arithmetic a non-finite factor leaves some sample non-finite.
    """
    if terms is None:
        count, width = window.side, window.size // window.side  # a slab row is a k_1 row
    else:
        a, b = terms
        _finite_factors(a, b)
        count, width = len(a), 1
    slabs = _slabs(count, width * grid.size)
    step, zero = slabs[0].stop * width, np.zeros(window.n, dtype=int)
    S, magnitude = np.empty((step, grid.size), dtype=complex), np.empty((step, grid.size))
    for slab in slabs:
        ids = slice(slab.start * width, slab.stop * width)
        block = S[:ids.stop - ids.start]
        with np.errstate(all="ignore"):  # an overflow is refused by _modulus
            if terms is None:
                np.copyto(block.reshape((-1,) + window.shape[1:] + grid.shape),
                          sigma._sample_axes(window, grid, zero, slab))
            else:
                np.matmul(a[ids], b, out=block)
        yield ids, block, _modulus(block, out=magnitude[:len(block)])


def _finite_factors(a: np.ndarray, b: np.ndarray) -> None:
    """Refuse factors that are not all finite with ValueError: under IEEE
    arithmetic a non-finite factor leaves some sample non-finite."""
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError(NON_FINITE_SAMPLES)


def _modulus(S: np.ndarray, out) -> np.ndarray:
    """|S|, written into ``out`` when it is an array; refuses samples that
    are not all finite with ValueError."""
    with np.errstate(all="ignore"):
        magnitude = np.abs(S, out=out)
        finite = np.isfinite(np.sum(magnitude))
    if not finite:
        raise ValueError(NON_FINITE_SAMPLES)
    return magnitude


def _one_term_per_row(terms) -> bool:
    """True when sigma's separated factors ``terms`` (a, b) give each window
    point at most one term: every row of the k-factor a holds at most one
    nonzero entry, so sigma(k, x) = a_r(k) b_r(x) on that row."""
    return terms is not None and (terms[0].shape[1] == 1
                                  or bool(np.all(np.count_nonzero(terms[0], axis=1) <= 1)))


def _profiles(a: np.ndarray):
    """(rows, inverse): the distinct rows of the k-factor a, merged only
    when equal bit for bit, in the order the window first reads them, and
    each point's, a = rows[inverse]: sigma(k, .) = a(k) @ b depends on k
    only through its row, and neighbouring points read alike rows."""
    a = np.ascontiguousarray(a)
    keys = a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return a[first[order]], np.argsort(order)[inverse.reshape(-1)]


def _row_minima(sigma: Symbol, terms, window: LatticeWindow, grid: TorusGrid) -> np.ndarray:
    """min over x of |sigma(k, x)| for each window point k: from factors
    with one term per row (``_one_term_per_row``) sum_r |a_r(k)| min |b_r|,
    else block by block from ``_blocks``, once per distinct row of a
    (``_profiles``).  Refuses non-finite factors or samples, and a term
    whose samples overflow, with ValueError."""
    if _one_term_per_row(terms):
        a, b = np.abs(terms[0]), np.abs(terms[1])
        with np.errstate(all="ignore"):
            if not np.all(np.isfinite(np.max(a, axis=0) * np.max(b, axis=1))):
                raise ValueError(NON_FINITE_SAMPLES)
        return a @ np.min(b, axis=1)
    inverse = slice(None)
    if terms is not None:
        a, inverse = _profiles(terms[0])
        terms = a, terms[1]
    return np.concatenate([np.min(magnitude, axis=1)
                           for _, _, magnitude in _blocks(sigma, terms, window, grid)])[inverse]


def _certificate(row_min: np.ndarray, m: float, window: LatticeWindow) -> EllipticityReport:
    """The certificate of check_ellipticity from the row minima of |sigma|."""
    ratio = row_min / np.power(window.radial_weight, m)
    # per-shell minima as the negated sups of -ratio; negation is exact
    shells, neg_sups, _ = window.shell_sups(-ratio, np.ones(window.size, dtype=bool))
    profile = [-s for s in neg_sups]
    hit_zero = any(p == 0.0 for p in profile)
    # a sampling fluke can make the first shell artificially small, so the
    # decay trigger compares the last shell against the profile peak
    decayed = len(profile) >= 2 and profile[-1] <= max(profile) / 10.0
    if hit_zero or decayed:
        return EllipticityReport(False, 0.0, 0.0, profile, shells)
    return EllipticityReport(True, float(np.min(ratio)), 0.0, profile, shells)


# -- small-symbol (S0) decay diagnostic --------------------------------------

@dataclass
class DecayDiagnostic:
    alpha: tuple
    shell_sups: list
    decaying: bool


def s0_decay_profile(sigma: Symbol, window: LatticeWindow, grid: TorusGrid,
                     alpha_max: int = 2) -> list:
    """Per-shell sups of (1+|k|)^{|alpha|} |Delta^alpha sigma|, |alpha| <= alpha_max.

    ``decaying`` is the rule of ``_decreasing_from_peak``.
    """
    labels = window.shell_labels()
    complete = labels <= int(math.floor(math.log2(window.N + 2))) - 1
    out = []
    for alpha, diff, valid in _differences(sigma, window, grid, alpha_max):
        rowmax = np.max(np.abs(diff), axis=1) * np.power(window.radial_weight, alpha.order)
        _, sups, _ = window.shell_sups(rowmax, valid & complete)
        out.append(DecayDiagnostic(tuple(alpha), sups, _decreasing_from_peak(sups)))
    return out


def _decreasing_from_peak(prof) -> bool:
    """True when a shell profile strictly decreases from its last peak through
    the last shell, where a shell of exact zero may follow another, or is
    identically zero; False with fewer than two shells."""
    if len(prof) < 2:
        return False
    if max(prof) == 0.0:
        return True
    # ties at the top are fine; the decrease is judged from the last peak
    peak = len(prof) - 1 - int(np.argmax(prof[::-1]))
    if peak >= len(prof) - 1:
        return False
    tail = prof[peak:]
    return all(b < a or a == b == 0.0 for a, b in zip(tail, tail[1:]))


# -- symbol file format ------------------------------------------------------

def symbol_to_dict(sigma) -> dict:
    if isinstance(sigma, MultiplierSymbol):
        return {"n": sigma.n, "order": sigma.order, "kind": "builtin",
                "builtin": {"name": "multiplier", "params": {"expr": sigma.text}}}
    if isinstance(sigma, JumpSymbol):
        return {"n": sigma.n, "order": 0.0, "kind": "builtin",
                "builtin": {"name": "jump", "params": {"direction": sigma.direction}}}
    if isinstance(sigma, ExprSymbol):
        return {"n": sigma.n, "order": sigma.order, "kind": "expr", "expr": sigma.text}
    if isinstance(sigma, BesselSymbol):
        return {"n": sigma.n, "order": sigma.order, "kind": "builtin",
                "builtin": {"name": "bessel", "params": {"s": sigma.s}}}
    if isinstance(sigma, GridSymbol):
        vals = np.stack([sigma.values.real.ravel(), sigma.values.imag.ravel()], axis=-1)
        return {"n": sigma.n, "order": sigma.order, "kind": "grid",
                "grid": {"window": {"n": sigma.window.n, "N": sigma.window.N},
                         "grid": {"n": sigma.grid.n, "M": sigma.grid.M},
                         "values": vals.tolist(),
                         "interior_margin": sigma.interior_margin}}
    raise TypeError(f"cannot serialize {type(sigma).__name__}")


def _parsed(convert, value, what):
    """``convert(value)`` for a value read from a symbol file; ParseError if it fails."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ParseError(f"{what} {value!r} is not valid") from None


_REQUIRED = object()


def _field(d, key, what, kind=object, default=_REQUIRED, ok=lambda v: True):
    """Field ``key`` of the JSON object ``d`` of a symbol file, named ``what``.

    A missing or null field gives ``default``; ParseError names the field
    when it is required, when ``d`` is no object, or when its value is not
    a ``kind`` (a JSON boolean counts as no number) or fails ``ok``.
    """
    if not isinstance(d, dict):
        raise ParseError(f"{what} must be a JSON object, not {type(d).__name__}")
    value = d.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ParseError(f"{what} lacks the field {key!r}")
        return default
    if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
        raise ParseError(f"{what} field {key!r} holds {value!r}, which is not valid")
    return value


def _positive(v) -> bool:
    return v >= 1


def symbol_from_dict(d: dict):
    """The symbol a symbol file describes.

    A description of the wrong shape raises ParseError; expression text
    that does not parse raises SymbolSyntaxError with its position.
    """
    kind = _field(d, "kind", "symbol file", str)
    n = _field(d, "n", "symbol file", int, None, _positive)
    order = _field(d, "order", "symbol file", (int, float), None, math.isfinite)
    if kind == "expr":
        return parse_symbol(_field(d, "expr", "symbol file", str), n, order=order)
    if kind == "builtin":
        b = _field(d, "builtin", "symbol file", dict)
        name = _field(b, "name", "builtin", str)
        params = _field(b, "params", "builtin", dict, {})
        if name == "bessel":
            return BesselSymbol(_parsed(float, _field(params, "s", "bessel params"), "bessel s"),
                                n=n)
        if name == "jump":
            direction = _parsed(int, params.get("direction", 1), "jump direction")
            if direction not in (1, -1):
                raise ParseError(f"jump direction must be +1 or -1, not {direction}")
            return JumpSymbol(direction, n=n or 1)
        if name == "multiplier":
            return MultiplierSymbol(n, _field(params, "expr", "multiplier params", str),
                                    order=order)
        raise ParseError(f"unknown builtin symbol family {name!r}")
    if kind == "grid":
        g = _field(d, "grid", "symbol file", dict)
        w, t = _field(g, "window", "grid", dict), _field(g, "grid", "grid", dict)
        window = LatticeWindow(*(_field(w, key, "grid window", int, ok=_positive)
                                 for key in ("n", "N")))
        grid = TorusGrid(*(_field(t, key, "grid grid", int, ok=_positive) for key in ("n", "M")))
        vals = _parsed(lambda v: np.asarray(v, dtype=float), _field(g, "values", "grid"),
                       "grid values")
        if vals.shape != (window.size * grid.size, 2):
            raise ParseError(f"grid values of shape {vals.shape}; the window and grid "
                             f"need {window.size * grid.size} [re, im] pairs")
        values = vals[:, 0] + 1j * vals[:, 1]
        margin = _field(g, "interior_margin", "grid", int, 0, lambda v: v >= 0)
        return GridSymbol(window, grid, values.reshape(window.size, grid.size),
                          order=order, interior_margin=margin)
    raise ParseError(f"unknown symbol kind {kind!r}")


def write_symbol_json(path, sigma) -> None:
    with open(path, "w") as fh:
        json.dump(symbol_to_dict(sigma), fh)


def read_symbol_json(path):
    with open(path) as fh:
        return symbol_from_dict(json.load(fh))
