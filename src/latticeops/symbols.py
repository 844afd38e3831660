"""Symbols sigma(k,x) on Z^n x T^n and diagnostics on them.

Three backends: a small expression language over k1..kn / x1..xn, builtin
families (Bessel multipliers, plain k-multipliers, jump symbols), and grid
samples on a window x grid.  Sampling lays k_j and x_j on 2n separate
axes, so each expression node is computed only on the axes it reads.
Diagnostics estimate the symbol-class order from dyadic-shell regressions
and certify ellipticity from sampled lower bounds.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass, field

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
            if not _is_constant(exponent):
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


def _is_constant(node) -> bool:
    if isinstance(node, (Num, Const)):
        return True
    if isinstance(node, Var):
        return False
    if isinstance(node, Neg):
        return _is_constant(node.child)
    if isinstance(node, BinOp):
        return _is_constant(node.left) and _is_constant(node.right)
    if isinstance(node, Func):
        return _is_constant(node.arg)
    raise TypeError(node)


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
        return _ARITHMETIC[node.op](a, b)
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
        k = np.atleast_1d(np.asarray(k, dtype=int))
        x = np.atleast_1d(np.asarray(x, dtype=float))
        self._check_dims(k.shape[-1], x.shape[-1])
        return complex(self._values_at(k.reshape(1, -1), x.reshape(1, -1))[0])

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

    def _sample_axes(self, window, grid, shift) -> np.ndarray:
        """sigma(k + shift, x) on the 2n axes k_1..k_n, x_1..x_n.

        Axis j carries k_j = -N..N plus shift_j and axis n+j carries
        x_j = 0..M-1 over M.  Each expression node is computed on the
        product of the axes it reads, so the result has length 1 on every
        axis sigma does not vary on and broadcasts to window.shape +
        grid.shape.  It is fresh, so the caller may overwrite it.
        Non-finite values come back without a numpy warning: apply,
        assemble_matrix, the certificate and estimate_order refuse them.
        """
        self._check_dims(window.n, grid.n)
        n = window.n
        shift = np.asarray(shift, dtype=int)
        kcols = [_along((window.axis + shift[j]).astype(float), j, 2 * n) for j in range(n)]
        xcols = [_along(grid.axis, n + j, 2 * n) for j in range(n)]
        with np.errstate(all="ignore"):
            out = np.asarray(self._eval_cols(kcols, xcols), dtype=complex)
        return out.reshape((1,) * (2 * n)) if out.ndim == 0 else out

    def _values_at(self, K, X) -> np.ndarray:
        kcols = [K[:, j].astype(float) for j in range(K.shape[1])]
        xcols = [X[:, j] for j in range(X.shape[1])]
        out = self._eval_cols(kcols, xcols)
        return np.broadcast_to(np.asarray(out, dtype=complex), (K.shape[0],)).copy()

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
    def __init__(self, n: int, ast, order: float = None, text: str = None):
        self.n = n
        self.ast = ast
        self.min_n = _coordinates_used(ast)
        self.order = order
        self.text = text if text is not None else pretty_print(ast)

    def _eval_cols(self, kcols, xcols):
        return _eval_node(self.ast, kcols, xcols)

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

    def __repr__(self):
        return f"BesselSymbol(s={self.s})"


class MultiplierSymbol(Symbol):
    """x-independent symbol a(k) given by an expression over k1..kn."""

    def __init__(self, n: int, text: str, order: float = None):
        self.n = n
        self.text = text
        self.ast = _Parser(text, n).parse()
        if _uses_x(self.ast):
            raise SymbolSyntaxError("multiplier expression must not use x variables", 0)
        self.min_n = _coordinates_used(self.ast)
        self.order = order

    def _eval_cols(self, kcols, xcols):
        return _eval_node(self.ast, kcols, xcols)

    def __repr__(self):
        return f"MultiplierSymbol({self.text!r}, n={self.n})"


class JumpSymbol(Symbol):
    """step(k1)*exp(i*d*twopi*x1) + (1 - step(k1)) with d = +1 or -1.

    Order 0; the quantized operator shifts by d on k1 >= 0 and is the
    identity on k1 < 0, the basic index +/-1 construction.
    """

    def __init__(self, direction: int, n: int = 1):
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        self.direction = int(direction)
        self.n = n
        self.order = 0.0

    def _eval_cols(self, kcols, xcols):
        s = np.where(np.real(kcols[0]) >= 0, 1.0, 0.0)
        return s * np.exp(1j * self.direction * TWO_PI * xcols[0]) + (1.0 - s)

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
        self._coeffs = None

    def _fourier_coeffs(self):
        # the shift form, row by row; integer frequencies via fftfreq*M
        if self._coeffs is None:
            c = shift_coefficients(self.values, self.window, self.grid)
            freqs = np.rint(np.fft.fftfreq(self.grid.M) * self.grid.M).astype(int)
            self._coeffs = (c, freqs)
        return self._coeffs

    def sample_shifted(self, window, grid, shift):
        self._check_dims(window.n, grid.n)
        rows, inside = self._rows(window.points + np.asarray(shift, dtype=int))
        if not np.all(inside):
            raise OutOfWindowError(
                f"shifted evaluation leaves the backing window N={self.window.N}")
        return self._row_samples(rows, grid)

    def _sample_axes(self, window, grid, shift):
        """The stored rows at k + shift, laid on the 2n axes."""
        return self.sample_shifted(window, grid, shift).reshape(window.shape + grid.shape)

    def _rows(self, K):
        """Rows of the points K that lie in the backing window, and the mask of those points."""
        inside = np.all(np.abs(K) <= self.window.N, axis=1)
        return np.ravel_multi_index((K[inside] + self.window.N).T, self.window.shape), inside

    def _row_samples(self, rows, grid):
        """The stored rows on ``grid``: a fresh copy, interpolated when M differs."""
        if grid.M == self.grid.M:
            return self.values[rows]
        return self._interp_rows(rows, grid.nodes)

    def _interp_rows(self, rows, X):
        c, freqs = self._fourier_coeffs()
        n, M = self.n, self.grid.M
        cc = c[rows]  # (R, M^n)
        mgrids = np.meshgrid(*([freqs] * n), indexing="ij")
        Mpts = np.stack([g.ravel() for g in mgrids], axis=-1)  # (M^n, n)
        E = np.exp(1j * TWO_PI * (X @ Mpts.T.astype(float)))  # (Q, M^n)
        return cc @ E.T

    def _values_at(self, K, X):
        K = np.asarray(K, dtype=int)
        out = np.empty(K.shape[0], dtype=complex)
        for i, (k, x) in enumerate(zip(K, X)):
            if not self.window.contains(k):
                raise OutOfWindowError(f"point {k.tolist()} outside backing window")
            row = self.window.index_of(k)
            # exact column when x is a grid node
            jx = x * self.grid.M
            if np.allclose(jx, np.rint(jx), atol=1e-12):
                col = 0
                for j in range(self.n):
                    col = col * self.grid.M + int(np.rint(jx[j])) % self.grid.M
                out[i] = self.values[row, col]
            else:
                out[i] = self._interp_rows(np.array([row]), x.reshape(1, -1))[0, 0]
        return out

    def _eval_cols(self, kcols, xcols):  # pragma: no cover - not used
        raise NotImplementedError("grid symbols sample through their stored values")

    def __repr__(self):
        return (f"GridSymbol(N={self.window.N}, M={self.grid.M}, "
                f"order={self.order}, margin={self.interior_margin})")


class DualToroidalSymbol:
    """Toroidal-side symbol tau(x,k) = conj(sigma(-k,x)), same order."""

    def __init__(self, base: Symbol):
        self.base = base
        self.n = base.n
        self.order = base.order

    def eval(self, x, k) -> complex:
        k = np.asarray(k, dtype=int)
        return complex(np.conj(self.base.eval(-k, x)))

    def sample_toroidal(self, window: LatticeWindow, grid: TorusGrid) -> np.ndarray:
        """(grid.size, window.size) array of tau(x,k)."""
        # the window is symmetric and lexicographic, so -k sits at row P-1-row(k)
        return self.base.sample(window, grid)[::-1].conj().T


def _uses_x(node) -> bool:
    if isinstance(node, Var):
        return node.kind == "x"
    if isinstance(node, Neg):
        return _uses_x(node.child)
    if isinstance(node, BinOp):
        return _uses_x(node.left) or _uses_x(node.right)
    if isinstance(node, Func):
        return _uses_x(node.arg)
    return False


def _coordinates_used(node) -> int:
    """Largest coordinate index among the k and x variables of ``node`` (1 if none)."""
    if isinstance(node, Var):
        return node.index
    if isinstance(node, Neg):
        return _coordinates_used(node.child)
    if isinstance(node, BinOp):
        return max(_coordinates_used(node.left), _coordinates_used(node.right))
    if isinstance(node, Func):
        return _coordinates_used(node.arg)
    return 1


def parse_symbol(text: str, n: int, order: float = None) -> ExprSymbol:
    """Parse an expression-backed symbol; raises SymbolSyntaxError with position.

    With ``n`` None the symbol is dimension-generic: any k_j / x_j, j >= 1,
    parses, and the symbol samples in every dimension n >= max j.
    """
    if not text or not text.strip():
        raise SymbolSyntaxError("empty symbol expression", 0)
    ast = _Parser(text, n).parse()
    return ExprSymbol(n, ast, order=order, text=text)


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
    residual: float
    degenerate: bool
    shell_sups: list


@dataclass
class OrderEstimate:
    m_hat: float
    table: list
    shells: list

    def entry(self, alpha, beta):
        a, b = tuple(alpha), tuple(beta)
        for e in self.table:
            if e.alpha == a and e.beta == b:
                return e
        raise KeyError((a, b))


def _difference_samples(sigma: Symbol, window, grid, alpha: MultiIndex):
    """Closed-form Delta^alpha sigma on window x grid; valid-row mask.

    Refuses samples that are not all finite with ValueError.
    """
    acc = np.zeros((window.size, grid.size), dtype=complex)
    valid = np.ones(window.size, dtype=bool)
    with np.errstate(all="ignore"):  # non-finite samples are refused below
        for beta in multiindices_leq(alpha):
            sign = (-1) ** (alpha.order - beta.order)
            coeff = sign * binomial_multi(alpha, beta)
            if isinstance(sigma, GridSymbol):
                rows, inside = sigma._rows(window.points + np.array(tuple(beta)))
                valid &= inside
                part = np.zeros_like(acc)
                part[inside] = sigma._row_samples(rows, grid)
                acc += coeff * part
            else:
                acc += coeff * sigma.sample_shifted(window, grid, tuple(beta))
    if not np.all(np.isfinite(acc)):
        raise ValueError(NON_FINITE_SAMPLES)
    return acc, valid


def _spectral_shifted_derivative(values: np.ndarray, grid: TorusGrid, beta: MultiIndex):
    """Apply the shifted-derivative product D^(beta) along the x axes.

    On the mode exp(2 pi i m.x) the axis-j factor of order l acts as the
    falling factorial m(m-1)...(m-l+1); order 0 is the identity.
    """
    if beta.order == 0:
        return values
    M, n = grid.M, grid.n
    P = values.shape[0]
    arr = values.reshape((P,) + (M,) * n)
    c = np.fft.fftn(arr, axes=tuple(range(1, n + 1)))
    freqs = np.rint(np.fft.fftfreq(M) * M).astype(int)
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
    return out.reshape(P, -1)


def _fit_slope(sups, args):
    """Slope of log sup against log(1+|k|) at the per-shell argmax.

    Consecutive-shell slopes converge geometrically in the shell index
    as the class constant settles, so when the last two agree the
    extrapolated value 2*d_last - d_prev is used; otherwise a plain
    least-squares fit.  Returns (slope, rms residual of the LSQ fit).
    """
    pts = [(a, s) for a, s in zip(args, sups) if s > 0 and a > 1.0]
    if len(pts) < 3:
        return None, None
    lx = np.log([a for a, _ in pts])
    ly = np.log([s for _, s in pts])
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    rms = float(np.sqrt(np.mean((A @ coef - ly) ** 2)))
    slope = float(coef[0])
    diffs = []
    for i in range(len(pts) - 1):
        if lx[i + 1] > lx[i] + 1e-9:
            diffs.append((ly[i + 1] - ly[i]) / (lx[i + 1] - lx[i]))
    if len(diffs) >= 2 and abs(diffs[-1] - diffs[-2]) <= 0.75:
        slope = float(2.0 * diffs[-1] - diffs[-2])
    return slope, rms


def estimate_order(sigma: Symbol, window: LatticeWindow, grid: TorusGrid,
                   alpha_max: int = 1, beta_max: int = 1) -> OrderEstimate:
    """Regress shell sups of |D^(beta) Delta^alpha sigma| to estimate the order.

    m_hat is the max over (alpha, beta) of slope + |alpha|; entries whose
    difference vanishes identically are recorded with slope 0 and flagged
    degenerate (they carry no order information).
    """
    if window.N < 8:
        raise ValueError("window too small for a three-shell regression (need N >= 8)")
    sup_norm = np.max(np.abs(window.points), axis=1)
    table = []
    m_hat = None
    shells_used = sorted(set(window.shell_labels()))
    for alpha in multiindex_range(window.n, alpha_max):
        diff, valid = _difference_samples(sigma, window, grid, alpha)
        scale = float(np.max(np.abs(diff))) if diff.size else 0.0
        for beta in multiindex_range(window.n, beta_max):
            g = _spectral_shifted_derivative(diff, grid, beta)
            rowmax = np.max(np.abs(g), axis=1)
            _, sups, rows = window.shell_sups(rowmax, valid)
            # trailing shells whose sup sits on the window boundary are
            # geometry-capped, not symbol-governed; drop them
            while rows and sup_norm[rows[-1]] >= window.N:
                sups, rows = sups[:-1], rows[:-1]
            # spectral differentiation noise floor: relative to the
            # undifferentiated magnitude, an all-noise entry is degenerate
            if max(sups, default=0.0) <= 1e-9 * scale + 1e-280:
                table.append(SlopeEntry(tuple(alpha), tuple(beta), 0.0, 0.0, True, sups))
                continue
            pos = [s for s in sups if s > 0]
            if len(pos) < 3:
                # too localized for a shell regression
                table.append(SlopeEntry(tuple(alpha), tuple(beta), 0.0, 0.0, True, sups))
                continue
            if np.ptp(np.log(pos)) < 1e-12:
                # exactly shell-constant profile: slope 0 by convention
                table.append(SlopeEntry(tuple(alpha), tuple(beta), 0.0, 0.0, False, sups))
                m_hat = alpha.order if m_hat is None else max(m_hat, alpha.order)
                continue
            slope, resid = _fit_slope(sups, [float(window.radial_weight[i]) for i in rows])
            if slope is None:
                table.append(SlopeEntry(tuple(alpha), tuple(beta), 0.0, 0.0, True, sups))
                continue
            table.append(SlopeEntry(tuple(alpha), tuple(beta), slope, resid, False, sups))
            cand = slope + alpha.order
            m_hat = cand if m_hat is None else max(m_hat, cand)
    return OrderEstimate(0.0 if m_hat is None else float(m_hat), table, shells_used)


# -- ellipticity -------------------------------------------------------------


@dataclass
class EllipticityReport:
    elliptic: bool
    C: float
    M_radius: float
    min_ratio_profile: list
    shells: list

    def to_dict(self):
        return {
            "elliptic": self.elliptic,
            "C": self.C,
            "M_radius": self.M_radius,
            "min_ratio_profile": self.min_ratio_profile,
            "shells": self.shells,
        }


def check_ellipticity(sigma: Symbol, m: float, window: LatticeWindow,
                      grid: TorusGrid) -> EllipticityReport:
    """Scan |sigma(k,x)| / (1+|k|)^m over all samples.

    Declared non-elliptic when shell minima hit exact zero or decay by
    10x from the first shell to the last; otherwise certified with
    C = min ratio over the whole sampled set and M_radius = 0.  A NaN or
    infinite sample raises ValueError.
    """
    magnitude = np.abs(sigma.sample(window, grid))
    return _certificate(magnitude, np.min(magnitude, axis=1), m, window)


def _certificate(magnitude: np.ndarray, row_min: np.ndarray, m: float,
                 window: LatticeWindow) -> EllipticityReport:
    """The certificate of check_ellipticity from |sigma| on window x grid and
    its row minima; refuses samples that are not all finite."""
    if not np.isfinite(np.sum(magnitude)):
        raise ValueError(NON_FINITE_SAMPLES)
    ratio = row_min / np.power(window.radial_weight, m)
    labels = window.shell_labels()
    shells = sorted(set(labels))
    profile = [float(np.min(ratio[labels == j])) for j in shells]
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

    ``decaying`` requires the shell profile to decrease from its peak on
    and end strictly below its maximum.
    """
    labels = window.shell_labels()
    complete = labels <= int(math.floor(math.log2(window.N + 2))) - 1
    out = []
    for alpha in multiindex_range(window.n, alpha_max):
        diff, valid = _difference_samples(sigma, window, grid, alpha)
        rowmax = np.max(np.abs(diff), axis=1) * np.power(window.radial_weight, alpha.order)
        _, sups, _ = window.shell_sups(rowmax, valid & complete)
        out.append(DecayDiagnostic(tuple(alpha), sups, _tail_decreasing(sups)))
    return out


def _tail_decreasing(sups) -> bool:
    """True when the profile strictly decreases from its peak to the end."""
    if len(sups) < 2:
        return False
    peak = int(np.argmax(sups))
    if peak >= len(sups) - 1:
        return False
    tail = sups[peak:]
    return all(b < a for a, b in zip(tail, tail[1:]))


def dual_toroidal_symbol(sigma: Symbol) -> DualToroidalSymbol:
    return DualToroidalSymbol(sigma)


# -- symbol file format ------------------------------------------------------

def symbol_to_dict(sigma) -> dict:
    if isinstance(sigma, ExprSymbol):
        return {"n": sigma.n, "order": sigma.order, "kind": "expr", "expr": sigma.text}
    if isinstance(sigma, BesselSymbol):
        return {"n": sigma.n, "order": sigma.order, "kind": "builtin",
                "builtin": {"name": "bessel", "params": {"s": sigma.s}}}
    if isinstance(sigma, JumpSymbol):
        return {"n": sigma.n, "order": 0.0, "kind": "builtin",
                "builtin": {"name": "jump", "params": {"direction": sigma.direction}}}
    if isinstance(sigma, MultiplierSymbol):
        return {"n": sigma.n, "order": sigma.order, "kind": "builtin",
                "builtin": {"name": "multiplier", "params": {"expr": sigma.text}}}
    if isinstance(sigma, GridSymbol):
        vals = np.stack([sigma.values.real.ravel(), sigma.values.imag.ravel()], axis=-1)
        return {"n": sigma.n, "order": sigma.order, "kind": "grid",
                "grid": {"window": {"n": sigma.window.n, "N": sigma.window.N},
                         "grid": {"n": sigma.grid.n, "M": sigma.grid.M},
                         "values": vals.tolist(),
                         "interior_margin": sigma.interior_margin}}
    raise TypeError(f"cannot serialize {type(sigma).__name__}")


def symbol_from_dict(d: dict):
    kind = d["kind"]
    n = d.get("n")
    order = d.get("order")
    if kind == "expr":
        return parse_symbol(d["expr"], n, order=order)
    if kind == "builtin":
        b = d["builtin"]
        name, params = b["name"], b.get("params", {})
        if name == "bessel":
            return BesselSymbol(params["s"], n=n)
        if name == "jump":
            return JumpSymbol(int(params.get("direction", 1)), n=n or 1)
        if name == "multiplier":
            return MultiplierSymbol(n, params["expr"], order=order)
        raise ValueError(f"unknown builtin symbol family {name!r}")
    if kind == "grid":
        g = d["grid"]
        window = LatticeWindow(g["window"]["n"], g["window"]["N"])
        grid = TorusGrid(g["grid"]["n"], g["grid"]["M"])
        vals = np.asarray(g["values"], dtype=float)
        values = vals[:, 0] + 1j * vals[:, 1]
        return GridSymbol(window, grid, values.reshape(window.size, grid.size),
                          order=order, interior_margin=g.get("interior_margin", 0))
    raise ValueError(f"unknown symbol kind {kind!r}")


def write_symbol_json(path, sigma) -> None:
    with open(path, "w") as fh:
        json.dump(symbol_to_dict(sigma), fh)


def read_symbol_json(path):
    with open(path) as fh:
        return symbol_from_dict(json.load(fh))
