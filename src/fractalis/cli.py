"""Command line front end.

Subcommands: ``surface`` samples a construction on a uniform grid to CSV,
``eval`` evaluates at explicit points, ``verify`` runs the bound and
consistency battery and reports one CHECK line per item, ``approx`` runs
the perturbed-polynomial procedure, ``norms`` prints the constants of the
construction (the scale sup and the base gap are certified upper bounds
for polynomial fields and a constant alpha, and grid estimates for other
fields; see ``fractal_core.make_config``). Configuration is a JSON file;
all output is deterministic for a fixed config and seed. Exit codes: 0
success, 1 a check or tolerance failed, 2 usage or configuration error.

Grid samples (``surface``, the checks) take the exact orbit path on a
net-compatible grid and the open-mesh chain elsewhere, for either
construction (``fractal_core._samples``); ``eval`` evaluates its points in
slices of ``_SLAB_POINTS`` (``fractal_core._eval_chunked``). A resolution
may ask for at most MAX_GRID_POINTS grid points.

CSV numbers are ``'%.17g' % v`` (``_format``), which reads back as the same
double. ``surface`` and ``eval`` write their rows with one writer,
``_row_blocks``, which formats whole arrays at once (``_texts``): exactly,
by integer and double-double arithmetic, not by an approximation, so its
text is ``_format``'s byte for byte; the values outside its range go
through ``_format``. ``verify``, ``norms`` and ``approx`` load
``lp_space`` or ``approx`` when they run, so ``surface`` and ``eval``
import neither.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys

import numpy as np

from ._bernstein import _veltkamp
from ._fields import (
    MAX_GRID_POINTS,
    ConstantField,
    NetInterpolant,
    box_axes,
    grid_sup_norm,
    mesh_eval,
)
from .field_expr import FieldDomainError, FieldParseError, parse_field
from .fractal_core import (
    AdmissibilityError,
    ApproximationError,
    CheckReport,
    DeltaFifField,
    FractalField,
    IterationError,
    ToleranceError,
    _eval_chunked,
    boundary_consistency_check,
    interpolation_check,
    make_config,
    make_delta_fif,
    sample_grid,
)
from .net import build_net, jacobian_sum, node_arrays
from .operator_props import (
    OperatorSpec,
    _inverse_norm_bound,
    _rate_bound,
    _sup_gap,
    alpha_sequence_convergence,
    blend_operator,
    bounded_below_check,
    fixed_point_check,
    fractal_operator,
    identity_operator,
    linearity_check,
    multiplication_operator,
    neumann_inverse,
    operator_norm_check,
    operator_sequence_convergence,
    vanishing_invariance_check,
)

__all__ = ["main"]


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 2."""


class PointOutsideBoxError(Exception):
    """Evaluation point not in the domain box; maps to exit code 1."""


def _positive(raw, what: str) -> float:
    """``raw`` as a positive finite float, else a UsageError."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if isinstance(raw, bool) or not (math.isfinite(value) and value > 0.0):
        raise UsageError(f"{what} must be a positive finite number, got {raw!r}")
    return value


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config root must be an object")
    return cfg


def _build_net(cfg: dict):
    try:
        box = cfg["box"]["bounds"]
        knots = cfg["net"]["knots"]
    except (KeyError, TypeError) as exc:
        raise UsageError("config needs box.bounds and net.knots") from exc
    try:
        return build_net(box, knots)
    except (TypeError, ValueError) as exc:  # TypeError: not lists of numbers
        raise UsageError(f"bad net: {exc}") from exc


def _field_from(spec, arity: int, what: str):
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        if not math.isfinite(spec):
            raise UsageError(f"{what} must be finite, got {spec!r}")
        return ConstantField(float(spec))
    if isinstance(spec, str):
        try:
            return parse_field(spec, arity)
        except FieldParseError as exc:
            raise UsageError(f"bad expression for {what}: {exc}") from exc
    raise UsageError(f"{what} must be a number or an expression string")


def _operator_from(cfg: dict, net) -> OperatorSpec | None:
    spec = cfg.get("operator")
    if spec is None:
        return None
    if not isinstance(spec, dict) or "kind" not in spec:
        raise UsageError("operator must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "identity":
        return identity_operator()
    if kind == "blend":
        if "t" not in spec:
            raise UsageError("blend operator needs 't'")
        try:
            return blend_operator(float(spec["t"]))
        except (TypeError, ValueError) as exc:
            raise UsageError(str(exc)) from exc
    if kind == "multiplication":
        if "b" not in spec:
            raise UsageError("multiplication operator needs 'b'")
        return multiplication_operator(_field_from(spec["b"], net.dim, "operator.b"))
    raise UsageError(f"unknown operator kind {kind!r}")


class _Problem:
    """Parsed configuration: net plus either a scale-field construction
    (explicit base or operator) or node data for the delta construction."""

    def __init__(self, cfg: dict):
        self.net = _build_net(cfg)
        run = cfg.get("run", {})
        if not isinstance(run, dict):
            raise UsageError("run section must be an object")
        self.run = run
        verify = cfg.get("verify", {})
        if not isinstance(verify, dict):
            raise UsageError("verify section must be an object")
        self.verify = verify

        fields = cfg.get("fields") or {}
        if not isinstance(fields, dict):
            raise UsageError("fields section must be an object")
        self.f = self.alpha = self.s = None
        if fields:
            if "f" not in fields or "alpha" not in fields:
                raise UsageError("fields section needs f and alpha")
            self.f = _field_from(fields["f"], self.net.dim, "fields.f")
            self.alpha = _field_from(fields["alpha"], self.net.dim, "fields.alpha")
            if "s" in fields:
                self.s = _field_from(fields["s"], self.net.dim, "fields.s")
        self.op = _operator_from(cfg, self.net)
        if self.s is not None and self.op is not None:
            raise UsageError("give either fields.s or an operator section, not both")

        self.fif = None
        fif = cfg.get("fif")
        if fif is not None:
            if not isinstance(fif, dict) or "delta" not in fif or "values" not in fif:
                raise UsageError("fif section must be an object with delta and values")
            try:
                self.fif = make_delta_fif(self.net, fif["values"], float(fif["delta"]))
            except (TypeError, ValueError) as exc:  # TypeError: not numbers
                raise UsageError(f"bad fif section: {exc}") from exc

        construction = run.get("construction")
        if construction is None:
            construction = "delta" if self.fif is not None else "alpha"
        if construction not in ("alpha", "delta"):
            raise UsageError("run.construction must be 'alpha' or 'delta'")
        if construction == "delta" and self.fif is None:
            raise UsageError("run.construction is 'delta' but there is no fif section")
        if construction == "alpha" and self.f is None:
            raise UsageError("the scale-field construction needs a fields section")
        self.construction = construction

    def resolution(self, args):
        """Grid resolution: a single count or one per axis, at most
        MAX_GRID_POINTS points in all."""
        raw = getattr(args, "resolution", None)
        if raw:
            parts = str(raw).split(",")
        elif "resolution" in self.run:
            got = self.run["resolution"]
            parts = got if isinstance(got, list) else [got]
        else:
            return {1: 257, 2: 129}.get(self.net.dim, 33)
        try:
            values = [int(t) for t in parts]
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"bad resolution {raw or self.run['resolution']!r}: "
                             f"{exc}") from exc
        if any(v < 2 for v in values):
            raise UsageError("resolution must be >= 2 per axis")
        if len(values) == 1:
            return self._capped(values[0])
        if len(values) != self.net.dim:
            raise UsageError(f"resolution needs 1 or {self.net.dim} values, "
                             f"got {len(values)}")
        return self._capped(tuple(values))

    def scalar_resolution(self, args) -> int:
        """Finest axis count; checks and quadrature use one shared grid."""
        res = self.resolution(args)
        return self._capped(max(res)) if isinstance(res, tuple) else res

    def _capped(self, res):
        """``res`` if its grid has at most MAX_GRID_POINTS points."""
        counts = res if isinstance(res, tuple) else (res,) * self.net.dim
        total = math.prod(counts)
        if total > MAX_GRID_POINTS:
            raise UsageError(f"resolution {','.join(map(str, counts))} asks for "
                             f"{total} grid points, more than {MAX_GRID_POINTS}")
        return res

    def positive(self, args, name: str, default: float | None = None) -> float:
        """``--name``, else ``run.name``, else ``default``: positive and finite."""
        if getattr(args, name, None) is not None:
            return _positive(getattr(args, name), f"--{name}")
        if name in self.run:
            return _positive(self.run[name], f"run.{name}")
        if default is None:
            raise UsageError(f"no {name} given (--{name} or run.{name})")
        return default

    def seed(self, args) -> int:
        raw = getattr(args, "seed", None)
        if raw is None:
            raw = self.run.get("seed", 0)
        try:
            value = int(raw)
        except (TypeError, ValueError, OverflowError):
            value = -1
        if value < 0:
            raise UsageError(f"seed must be a non-negative integer, got {raw!r}")
        return value

    def p_values(self, args) -> list:
        raw = getattr(args, "p", None)
        if raw:
            parts = str(raw).split(",")
        else:
            got = self.run.get("p", 2)
            parts = got if isinstance(got, list) else [got]
        try:
            values = [float(t) for t in parts]
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad integral-norm exponent list: {exc}") from exc
        for v in values:
            if not (math.isfinite(v) and v >= 1):
                raise UsageError(f"integral-norm exponent must be finite and >= 1, "
                                 f"got {v:g}")
        return values

    @functools.cached_property
    def F(self):
        """The fractal operator of the operator section, built on first read."""
        return fractal_operator(self.net, self.alpha, self.op)

    def evaluator(self, tol: float):
        if self.construction == "delta":
            return DeltaFifField(self.fif, tol=tol)
        if self.op is not None:
            return self.F(self.f, tol=tol)
        if self.s is None:
            raise UsageError("fields section needs s or an operator section")
        return FractalField(make_config(self.net, self.f, self.alpha, self.s), tol=tol)


def _format(v: float) -> str:
    return format(float(v), ".17g")


# Bytes of the longest '%.17g' text, such as -2.2250738585072014e-308.
_TEXT_WIDTH = 24

# Rows per block of the CSV writer: a block's padded rows and the
# formatting temporaries of its values stay within a few MB.
_BLOCK_ROWS = 2**13

_U8, _U24, _U40, _U56, _U64 = (np.uint64(b) for b in (8, 24, 40, 56, 64))


@functools.cache
def _text_tables():
    """The constant tables of ``_texts``, built on first use.

    - 10**k for k in 0..22, exact doubles, and their Veltkamp halves;
    - per 4-digit group, its four characters as one little-endian word,
      and how many of them are trailing zeros;
    - per exponent E in -5..15, the number of digits before the point
      (E + 1 in fixed notation, 0 for E < 0, 1 in exponent notation);
    - per layout code ((E + 5) * 18 + kept digits) * 2 + sign, nine words:
      the byte masks of the integer digits (two words) and of the kept
      fraction digits (three), the bytes that are not digits (three: the
      sign, the point or ``0.000`` inserted after the integer digits, and
      the exponent), and how many bits the fraction moves up.
    """
    pow10 = np.array([float(10**k) for k in range(23)])
    groups = [f"{g:04d}" for g in range(10**4)]
    chars = np.frombuffer("".join(groups).encode(), dtype="<u4").astype(np.uint64)
    zeros = np.array([4 - len(g.rstrip("0")) for g in groups])
    point = np.array([e + 1 if e >= 0 else int(e == -5) for e in range(-5, 16)])
    masks = np.zeros((21 * 18 * 2, 3, _TEXT_WIDTH), dtype=np.uint8)
    shift = np.zeros(len(masks), dtype=np.uint64)
    for e, p in zip(range(-5, 16), point.tolist()):
        for keep in range(p, 18):
            insert = "0." + "0" * (-e - 1) if -4 <= e < 0 else "." * (keep > p)
            exponent = "e-05" * (e == -5)
            for neg in (0, 1):
                code = ((e + 5) * 18 + keep) * 2 + neg
                integer, fraction, other = masks[code]
                integer[:p] = 255
                fraction[p:keep] = 255
                other[0] = ord("-") * neg
                other[1 + p:1 + p + len(insert)] = list(insert.encode())
                at = 1 + keep + len(insert)
                other[at:at + len(exponent)] = list(exponent.encode())
                shift[code] = 8 * (1 + len(insert))
    words = masks.view("<u8")  # (codes, 3, 3)
    layout = np.vstack([words[:, 0, :2].T, words[:, 1].T, words[:, 2].T, shift])
    return (pow10, *_veltkamp(pow10), chars, zeros, point, np.ascontiguousarray(layout))


def _scaled(a, k):
    """Doubles hi, lo with hi + lo == a * 10**k exactly: Dekker's two-product."""
    pow10, pow10_big, pow10_small = _text_tables()[:3]
    hi = a * pow10.take(k)
    a_big, a_small = _veltkamp(a)
    b_big, b_small = pow10_big.take(k), pow10_small.take(k)
    lo = ((a_big * b_big - hi) + a_big * b_small + a_small * b_big) + a_small * b_small
    return hi, lo


def _divmod(n, m: int):
    # numpy's floor division by a scalar has a fast path; np.divmod has not
    q = n // m
    return q, n - q * m


def _texts(x) -> np.ndarray:
    """``'%.17g' % v`` for each value v of the 1-d array ``x``, as the rows
    of an (n, _TEXT_WIDTH) uint8 array: a row holds the text's bytes in
    order, with zero bytes before, among or after them that a reader of
    the row drops. Read that way, a row is byte for byte ``_format(v)``.

    Values with 1e-5 <= |v| < 1e16 are formatted by array arithmetic
    (``_scaled_texts``). Every other value (zeros, subnormals, |v| < 1e-5,
    |v| >= 1e16, infinities and NaN) goes through ``_format``, once per
    distinct bit pattern.
    """
    a = np.abs(x)
    slow = np.flatnonzero(~((a >= 1e-5) & (a < 1e16)))
    if slow.size:
        a[slow] = 2.0  # formatted below; 2.0 keeps the arithmetic in range
    out = _scaled_texts(x, a)
    if slow.size:
        bits, inverse = np.unique(x[slow].view(np.int64), return_inverse=True)
        table = np.zeros((bits.size, _TEXT_WIDTH), dtype=np.uint8)
        for row, v in zip(table, bits.view(float)):
            text = _format(v).encode()
            row[:len(text)] = np.frombuffer(text, dtype=np.uint8)
        out[slow] = table.view("<u8")[inverse.ravel()]
    return out.view(np.uint8)


def _scaled_texts(x, a) -> np.ndarray:
    """The texts of ``_texts`` for values 1e-5 <= |v| < 1e16 (``a`` = |x|),
    as three little-endian words per value.

    '%.17g' prints D * 10**(E - 16) with 10**16 <= D < 10**17 the integer
    nearest to |v| * 10**(16 - E), ties to even (Gay's correctly rounded
    conversion), and E the decimal exponent of |v| after that rounding.
    The steps below give the same D and E exactly:

    1. E starts as floor(log10|v|), which is within one of the exponent of
       |v|, so k = 16 - E lies in 0..22 and 10**k is an exact double.
    2. ``_scaled`` (Dekker's two-product on Veltkamp halves) gives doubles
       hi + lo == |v| * 10**k exactly: no product overflows, and every
       partial product is far above the subnormal range.
    3. E is right when 10**16 <= hi + lo < 10**17. Both bounds are
       doubles and hi is hi + lo rounded, so this reads off hi and the sign
       of lo. Where it fails, E moves by one and step 2 is redone.
    4. hi >= 10**16 > 2**53 is an even integer and |lo| <= ulp(hi)/2 <= 8,
       so D = hi + rint(lo), summed in int64, is the nearest integer; on a
       tie it is the even one, since hi is even and rint ties to even.
       D never rounds up to 10**17, which would move E: for each power of
       ten 10**-4 ... 10**16, the largest double below it gives
       hi + lo <= 10**17 - 8.
    5. The text follows '%g': fixed notation for -4 <= E < 17, otherwise
       ``d.ddd...e-05`` (E is -5 here); the fraction loses its trailing
       zeros, and a point with no digits after it goes.

    The 17 digit characters of D come from the table of 4-digit groups,
    packed into three words (byte i of the text is byte i % 8 of word
    i // 8). The text is then one shift-and-mask: the integer digits move
    up one byte (byte 0 holds the sign, or a zero byte), the kept fraction
    digits move up past the point or ``0.000`` inserted after them, and the
    sign, the insert and the exponent are or-ed in; the masks, the inserts
    and the shift are looked up by E, the number of digits kept and the
    sign (``_text_tables``).
    """
    chars, zeros, point, layout = _text_tables()[3:]
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 16 - e)
    off = ~((hi > 1e16) & (hi < 1e17))
    if off.any():  # hi + lo may be out of [1e16, 1e17): check it exactly
        j = np.flatnonzero(off)
        h, l = hi[j], lo[j]
        below = (h < 1e16) | ((h == 1e16) & (l < 0))
        above = (h > 1e17) | ((h == 1e17) & (l >= 0))
        e[j] += above.astype(np.int64) - below
        hi[j], lo[j] = _scaled(a[j], 16 - e[j])
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)

    lead, rest = _divmod(d, 10**16)
    g12, g34 = _divmod(rest, 10**8)
    (g1, g2), (g3, g4) = _divmod(g12, 10**4), _divmod(g34, 10**4)
    trailing = zeros.take(g4)
    for level, g in enumerate((g3, g2, g1), start=1):
        j = np.flatnonzero(trailing == 4 * level)  # the groups after g are all zeros
        if not j.size:
            break
        trailing[j] += zeros.take(g[j])
    e += 5
    kept = np.maximum(17 - trailing, point.take(e))
    code = (e * 18 + kept) * 2 + np.signbit(x)

    w2, w4 = chars.take(g2), chars.take(g4)
    lead += ord("0")
    v0 = lead.view(np.uint64) | (chars.take(g1) << _U8) | (w2 << _U40)
    v1 = (w2 >> _U24) | (chars.take(g3) << _U8) | (w4 << _U40)
    v2 = w4 >> _U24
    int0, int1, frac0, frac1, frac2, other0, other1, other2, up = (
        row.take(code) for row in layout)
    int0 &= v0
    int1 &= v1
    frac0 &= v0
    frac1 &= v1
    frac2 &= v2
    down = _U64 - up
    out = np.empty((x.size, 3), dtype="<u8")
    out[:, 0] = (int0 << _U8) | (frac0 << up) | other0
    out[:, 1] = (int1 << _U8) | (int0 >> _U56) | (frac1 << up) | (frac0 >> down) | other1
    out[:, 2] = (int1 >> _U56) | (frac2 << up) | (frac1 >> down) | other2
    return out


def _row_blocks(columns, bound, rows: int = _BLOCK_ROWS):
    """CSV rows ``c1,...,cm,bound`` as blocks of at most ``rows`` rows, each
    a 1-d uint8 array of the rows' bytes. Numbers read as ``_format``
    writes them (``_texts``).

    ``columns`` holds one ``(values, stride)`` pair per column: row r shows
    ``values[(r // stride) % len(values)]``. A column with one value per
    row has stride 1 and sets the number of rows; a grid axis has fewer
    values, and the stride of the axes that run faster. A grid axis is
    formatted once and its texts gathered for each block; the other columns
    are formatted a block at a time.

    A block is built as a (rows, width) uint8 array: each column in a slot
    of fixed width, zero bytes padding its text, then a comma; the bound
    and the newline close the row. The commas and the bound are written
    once, and one boolean compress per block drops the padding.
    """
    n = len(columns[-1][0])
    slots, width = [], 0
    for values, stride in columns:
        table = None
        if len(values) < n:
            table = _texts(values)
            table = table[:, :np.flatnonzero(table.any(axis=0))[-1] + 1]
        slots.append((width, values, stride, table))
        width += (_TEXT_WIDTH if table is None else table.shape[1]) + 1
    tail = np.frombuffer((_format(bound) + "\n").encode(), dtype=np.uint8)
    buf = np.zeros((min(rows, n), width + tail.size), dtype=np.uint8)
    buf[:, [off - 1 for off, *_ in slots[1:]] + [width - 1]] = ord(",")
    buf[:, width:] = tail
    for start in range(0, n, rows):
        block = buf[:min(rows, n - start)]
        r = np.arange(start, start + len(block))
        for off, values, stride, table in slots:
            if table is None:
                block[:, off:off + _TEXT_WIDTH] = _texts(values[start:start + len(block)])
            else:
                _, i = _divmod(r // stride, len(table))
                block[:, off:off + table.shape[1]] = table.take(i, axis=0)
        flat = block.reshape(-1)
        yield flat[flat != 0]


def _write_csv(out_path, header, blocks) -> None:
    """Write the header line, then each block of complete rows as it is
    produced, as bytes to ``out_path`` or to stdout: through its byte
    buffer when it has one (a text stream such as ``io.StringIO`` has
    none, and gets the same text)."""
    if not out_path:
        sys.stdout.flush()
    fh = open(out_path, "wb") if out_path else getattr(sys.stdout, "buffer", None)
    write = fh.write if fh is not None else lambda data: sys.stdout.write(bytes(data).decode())
    try:
        write((",".join(header) + "\n").encode())
        for block in blocks:
            write(block)
    finally:
        if out_path:
            fh.close()
        else:
            (fh or sys.stdout).flush()


def _header(dim: int) -> list:
    return [f"x{q + 1}" for q in range(dim)] + ["value", "error_bound"]


def _write_surface(out_path, field, resolution) -> None:
    axes, values = sample_grid(field, resolution)
    strides = np.cumprod([1] + [a.size for a in axes[:-1]])
    columns = [*zip(axes, strides), (values.ravel(order="F"), 1)]
    _write_csv(out_path, _header(len(axes)), _row_blocks(columns, field.error_bound))


def cmd_surface(args) -> int:
    problem = _Problem(_load_config(args.config))
    resolution = problem.resolution(args)
    field = problem.evaluator(problem.positive(args, "tol", 1e-8))
    _write_surface(args.out, field, resolution)
    return 0


def _parse_points(args, problem) -> np.ndarray:
    k = problem.net.dim
    raw = []
    if args.points:
        for text in args.points:
            parts = text.split(",")
            if len(parts) != k:
                raise UsageError(f"point {text!r} must have {k} coordinates")
            try:
                raw.append([float(t) for t in parts])
            except ValueError as exc:
                raise UsageError(f"bad point {text!r}: {exc}") from exc
    elif "points" in problem.run:
        raw = _config_points(problem.run["points"], k)
    else:
        raise UsageError("no points given (positional arguments or run.points)")
    pts = np.asarray(raw, dtype=float)
    bad = problem.net.box.first_outside(pts)
    if bad is not None:
        where = tuple(float(v) for v in pts[bad])
        raise PointOutsideBoxError(
            f"point {where} outside box {problem.net.box.bounds}"
        )
    return pts


def _config_points(entries, k: int) -> np.ndarray:
    """``run.points`` as an (n, k) array: a non-empty list whose entries
    are lists of k JSON numbers."""
    try:
        pts = np.array(entries) if isinstance(entries, list) else None
    except ValueError:  # ragged nesting
        pts = None
    if pts is None or pts.ndim != 2 or pts.shape[1:] != (k,) or pts.dtype.kind not in "iuf":
        for entry in entries if isinstance(entries, list) else ():
            if not (isinstance(entry, list) and len(entry) == k and all(
                    isinstance(t, (int, float)) and not isinstance(t, bool)
                    for t in entry)):
                raise UsageError(f"config point {entry!r} must be a list of "
                                 f"{k} numbers")
        raise UsageError(f"run.points must be a non-empty list of points, "
                         f"each a list of {k} numbers")
    return pts


def cmd_eval(args) -> int:
    problem = _Problem(_load_config(args.config))
    tol = problem.positive(args, "tol", 1e-10)
    pts = _parse_points(args, problem)
    field = problem.evaluator(tol)
    coords = [pts[:, q] for q in range(problem.net.dim)]
    values = _eval_chunked(field, coords)
    columns = [(c, 1) for c in coords] + [(values, 1)]
    _write_csv(args.out, _header(problem.net.dim), _row_blocks(columns, field.error_bound))
    return 0


def _sample_polynomials(net, rng, count: int):
    """Seeded low-degree tensor polynomials used as generic test fields."""
    out = []
    axes_vars = [f"x{q + 1}" for q in range(net.dim)]
    for _ in range(count):
        c = rng.uniform(-1.0, 1.0, size=3)
        parts = [f"{c[0]:.6f}"]
        for v in axes_vars:
            parts.append(f"{c[1]:.6f}*{v}")
            parts.append(f"{c[2]:.6f}*{v}^2")
        out.append(parse_field(" + ".join(parts), net.dim))
    return out


def _knot_product(net):
    """Product over axes and knots of (x_q - knot), divided by its max on a
    65-point grid: zero at every net node."""
    raw = " * ".join(f"(x{q + 1} - {float(t)!r})"
                     for q, part in enumerate(net.axes) for t in part.knots)
    scale = max(1e-12, grid_sup_norm(parse_field(raw, net.dim), net.box, 65))
    return parse_field(f"({raw}) / {scale!r}", net.dim)


class _Battery:
    """What one ``verify`` or ``norms`` run reads, all checked before the
    first output line: the seed (``verify``), the tolerance, the shared
    grid and the exponents, and for the scale-field construction the
    ``verify.inverse`` mode and inverse tolerance (``verify``). The field
    comes last; under an operator section it builds the run's one fractal
    operator, ``problem.F``, which every operator check takes."""

    def __init__(self, problem, args, tol_default: float):
        from .lp_space import quadrature_rule

        self.problem = problem
        verify = args.command == "verify"
        if verify:
            self.seed = problem.seed(args)
            self.rng = np.random.default_rng(self.seed)
        self.eval_tol = problem.positive(args, "tol", tol_default)
        self.res = problem.scalar_resolution(args)
        self.ps = problem.p_values(args)
        if problem.construction == "alpha":
            self.q_res = self.res if self.res % 2 == 1 else self.res + 1
            self.rule = quadrature_rule(problem.net.box, self.q_res)
            if verify:
                self.inverse = problem.verify.get("inverse", "auto")
                if self.inverse not in ("auto", "require", "skip"):
                    raise UsageError("verify.inverse must be auto, require or skip")
                self.inverse_tol = problem.positive(args, "tol", 1e-6)
        self.field = problem.evaluator(self.eval_tol)


def _checks(b: _Battery):
    """The verify battery in print order: ``(name, outcome)`` with outcome
    a ``CheckReport``, a SKIP reason or the exception the check failed
    with. The node-data construction stops after ``jacobian_sum``; without
    an operator section the operator checks are skipped."""
    from .lp_space import (
        ComplexFieldPair,
        complex_l2_identity_check,
        complex_perturbation_gap,
        complexify_apply,
        lp_perturbation_gap,
    )

    net, field, op, cfg = b.problem.net, b.field, b.problem.op, b.field.config
    delta = b.problem.construction == "delta"
    yield "interpolation", interpolation_check(field, net, cfg.f, tol=1e-9)
    yield "boundary_consistency", boundary_consistency_check(cfg, seed=b.seed)
    if not delta:
        # the gap-form perturbation bounds work for explicit bases and operators alike
        yield "perturbation_gap", _sup_gap(field, box_axes(net.box, b.res))
    jac = abs(jacobian_sum(net) - 1.0)
    yield "jacobian_sum", CheckReport("jacobian_sum", jac, 1e-12, jac <= 1e-12, {})
    if delta:
        return

    res, eval_tol = b.res, b.eval_tol
    base = op if op is not None else cfg.s
    yield "scale_sequence", alpha_sequence_convergence(
        net, cfg.f, base, [0.5 / n for n in range(1, 7)], resolution=res, eval_tol=eval_tol)
    for p in b.ps:
        yield f"lp_gap_p{p:g}", lp_perturbation_gap(field, b.rule, p)
    if op is None:
        for name in ("operator_norm", "bounded_below", "linearity", "fixed_point",
                     "inverse", "operator_sequence", "vanishing_invariance",
                     "complex_gap", "complex_l2_identity"):
            yield name, "needs an operator section"
        return

    F = b.problem.F
    a = F.alpha_sup
    samples = _sample_polynomials(net, b.rng, 4) + [cfg.f]
    yield "operator_norm", operator_norm_check(F, samples, resolution=res, eval_tol=eval_tol)

    norm_d, norm_idd = F.norms
    if a * norm_d < 1.0:
        yield "bounded_below", bounded_below_check(F, cfg.f, resolution=res,
                                                   eval_tol=eval_tol)
    else:
        yield "bounded_below", "needs sup|alpha|*||D|| < 1"

    g1, g2 = _sample_polynomials(net, b.rng, 2)
    c1, c2 = float(b.rng.uniform(-2, 2)), float(b.rng.uniform(-2, 2))
    yield "linearity", linearity_check(F, g1, g2, c1, c2, seed=b.seed, eval_tol=eval_tol)

    if op.kind == "multiplication":
        yield "fixed_point", "multiplication base maps fix only the zero field"
    else:
        nodes = node_arrays(net)
        interp = NetInterpolant(nodes, mesh_eval(cfg.f, nodes))
        yield "fixed_point", fixed_point_check(F, interp, resolution=res, eval_tol=eval_tol)

    rate = _rate_bound(a, norm_idd)
    if b.inverse == "skip":
        yield "inverse", "disabled in config"
    elif rate >= 1.0 and b.inverse == "auto":
        yield "inverse", f"contraction bound {rate:.6g} >= 1"
    else:
        try:
            inv = neumann_inverse(F, cfg.f, resolution=res, tol=b.inverse_tol,
                                  require_precondition=(b.inverse == "require"))
        except (AdmissibilityError, IterationError) as exc:
            yield "inverse_residual", exc
        else:
            # the three verdicts on the inversion, read off its result
            residual = inv.residuals[-1]
            yield "inverse_residual", CheckReport("inverse_residual", residual, b.inverse_tol,
                                                  residual <= b.inverse_tol, {})
            yield "inverse_norm", CheckReport(
                "inverse_norm", inv.recovered_norm, inv.inverse_norm_bound * inv.target_norm,
                inv.norm_bound_ok, {})
            if math.isfinite(inv.measured_rate):
                limit = 1.1 * inv.rate_bound
                yield "inverse_rate", CheckReport("inverse_rate", inv.measured_rate, limit,
                                                  inv.measured_rate <= limit, {})
            else:
                yield "inverse_rate", "too few iterations to estimate"

    yield "operator_sequence", operator_sequence_convergence(
        F, cfg.f, [1.0 / n for n in range(1, 7)], resolution=res, eval_tol=eval_tol)

    # two nesting levels keep the cost near depth^2 while still exercising
    # a genuinely nested application
    yield "vanishing_invariance", vanishing_invariance_check(F, _knot_product(net), r_max=2,
                                                             eval_tol=eval_tol)

    pair = ComplexFieldPair(real=cfg.f, imag=_sample_polynomials(net, b.rng, 1)[0])
    # F of the pair's parts, held through the complex checks: the operator
    # hands the same fields to each of them only while they are held
    shared = complexify_apply(F, pair, tol=eval_tol)
    for p in b.ps:
        yield f"complex_gap_p{p:g}", complex_perturbation_gap(F, pair, p, resolution=b.q_res,
                                                              eval_tol=eval_tol)
    yield "complex_l2_identity", complex_l2_identity_check(F, pair, resolution=b.q_res,
                                                           eval_tol=eval_tol)
    del shared


def cmd_verify(args) -> int:
    ok = True
    for name, outcome in _checks(_Battery(_Problem(_load_config(args.config)), args, 1e-9)):
        if isinstance(outcome, str):
            print(f"CHECK {name} SKIP {outcome}")
        elif isinstance(outcome, Exception):
            print(f"CHECK {name} lhs=nan rhs=nan FAIL ({outcome})")
            ok = False
        else:
            print(f"CHECK {name} lhs={outcome.lhs:.9e} rhs={outcome.rhs:.9e} "
                  f"{'PASS' if outcome.passed else 'FAIL'}")
            ok &= outcome.passed
    print(f"VERIFY {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_approx(args) -> int:
    from .approx import epsilon_approximate

    problem = _Problem(_load_config(args.config))
    if problem.construction != "alpha" or problem.f is None:
        raise UsageError("approx needs the scale-field construction")
    if problem.op is None:
        raise UsageError("approx needs an operator section")
    epsilon = problem.positive(args, "epsilon")
    result = epsilon_approximate(problem.net, problem.f, problem.op, epsilon,
                                 resolution=problem.scalar_resolution(args))
    print(f"APPROX degree {','.join(str(d) for d in result.poly.degrees)}")
    print(f"APPROX alpha {_format(result.alpha)}")
    print(f"APPROX fit_error {_format(result.components['fit_error'])}")
    print(f"APPROX perturbation_error "
          f"{_format(result.components['perturbation_error'])}")
    print(f"APPROX total_error {_format(result.error)}")
    print(f"APPROX epsilon {_format(result.epsilon)}")
    print(f"APPROX {'PASS' if result.passed else 'FAIL'}")
    if args.out:
        _write_surface(args.out, result.fractal, problem.resolution(args))
    return 0 if result.passed else 1


def cmd_norms(args) -> int:
    from .lp_space import lp_perturbation_gap

    problem = _Problem(_load_config(args.config))
    b = _Battery(problem, args, 1e-8)
    if problem.construction == "delta":
        fif = problem.fif
        print(f"NORM delta {_format(fif.delta)}")
        print(f"NORM data_sup {_format(float(np.max(np.abs(fif.values))))}")
        print(f"NORM jacobian_sum {_format(jacobian_sum(problem.net))}")
        return 0
    field = b.field
    a = field.config.alpha_sup
    print(f"NORM alpha_sup {_format(a)}")
    print(f"NORM base_gap_sup {_format(field.config.fs_gap)}")
    print(f"NORM tail_constant {_format(field.tail_constant)}")
    print(f"NORM chain_depth {field.depth}")
    print(f"NORM truncation_bound {_format(field.error_bound)}")
    print(f"NORM jacobian_sum {_format(jacobian_sum(problem.net))}")
    if problem.op is not None:
        norm_d, norm_idd = problem.F.norms
        print(f"NORM operator_norm_d {_format(norm_d)}")
        print(f"NORM operator_norm_id_minus_d {_format(norm_idd)}")
        rate = _rate_bound(a, norm_idd)
        print(f"NORM operator_norm_upper {_format(1.0 + rate)}")
        print(f"NORM inverse_rate_bound {_format(rate)}")
        print(f"NORM inverse_precondition {'1' if rate < 1.0 else '0'}")
        if a * norm_d < 1.0:
            print(f"NORM inverse_norm_bound {_format(_inverse_norm_bound(a, norm_d))}")

    # integral norms of the germ, the perturbation and their gap, with the
    # gap bound and verify's lp_gap verdict, one block per requested exponent
    for p in b.ps:
        rep = lp_perturbation_gap(field, b.rule, p)
        print(f"NORM lp_f_p{p:g} {_format(rep.details['lp_f'])}")
        print(f"NORM lp_perturbed_p{p:g} {_format(rep.details['lp_perturbed'])}")
        print(f"NORM lp_base_gap_p{p:g} {_format(rep.details['base_gap'])}")
        print(f"NORM lp_gap_p{p:g} {_format(rep.lhs)}")
        print(f"NORM lp_gap_bound_p{p:g} {_format(rep.details['bound'])}")
        print(f"NORM lp_gap_ok_p{p:g} {'1' if rep.passed else '0'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    import re

    parser = argparse.ArgumentParser(
        prog="fractalis",
        description="Build, evaluate and verify fractal interpolants on a box.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--resolution": dict(help="grid resolution: a single count or one per axis, "
                                  "comma separated (e.g. 129 or 65,33)"),
        "--tol": dict(type=float, help="evaluation / check tolerance"),
        "--seed": dict(type=int, help="seed for sampled checks"),
        "--p": dict(help="integral-norm exponent(s), comma separated"),
        "--epsilon": dict(type=float, help="target sup-norm accuracy"),
        "--out": dict(help="output CSV path (default stdout)"),
    }
    # each subcommand takes only the flags it reads
    for name, func, text, names in (
            ("surface", cmd_surface, "sample the interpolant on a uniform grid",
             ("--resolution", "--tol", "--out")),
            ("eval", cmd_eval, "evaluate at explicit points", ("--tol", "--out")),
            ("verify", cmd_verify, "run the bound and consistency battery",
             ("--resolution", "--tol", "--seed", "--p")),
            ("approx", cmd_approx, "perturbed-polynomial approximation",
             ("--resolution", "--out", "--epsilon")),
            ("norms", cmd_norms, "print the constants of the construction",
             ("--resolution", "--tol", "--p"))):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON configuration file")
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)

    p = sub.choices["eval"]
    # argparse's own matcher misses exponents and commas, so it would take
    # points such as -2e-12 or -0.5,0.5 for unknown options
    number = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
    p._negative_number_matcher = re.compile(rf"^-{number}(?:,-?{number})*$")
    p.add_argument("points", nargs="*",
                   help="points as comma-separated coordinates, e.g. 0.25,0.5")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, FieldParseError, FieldDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AdmissibilityError, ApproximationError, IterationError,
            PointOutsideBoxError, ToleranceError) as exc:
        # analytic failures: the request was well formed but the
        # construction or a certified bound cannot satisfy it
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    status = main()
    # the process frees what is left at exit: move it out of the collector's
    # reach, so that the interpreter's teardown does not walk it first
    gc.freeze()
    sys.exit(status)
