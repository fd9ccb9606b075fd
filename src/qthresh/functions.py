"""Functions on [q]^n: explicit tables, the tribes family, orders, monotonicity.

A function is either a fully materialized lookup table in lexicographic
order (coordinate 0 most significant) or a structured family member that can
be evaluated pointwise without ever writing the table down.  Everything that
must enumerate [q]^n goes through a size cap so structured functions stay
usable at n far beyond enumeration range.  The value and level rules
(:func:`tribes_values`, :func:`level_symbol`, :func:`level_rises`) are the
ones every route of :mod:`qthresh.evaluate` reads.
"""
from __future__ import annotations

import codecs
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Hard ceiling on q**n for any operation that materializes a table.
DEFAULT_CAP = 2**24

BATCH_CELLS = 4_000_000  # rough element budget per vectorized chunk
_SHOWN_DIGITS = 100  # a longer q^n is printed in error messages as "q^n"

KIND_FULL = "full"
KIND_INDICATOR = "indicator"


class CapExceededError(ValueError):
    """Raised when an input is past a size limit: the table cap, or the closed form's float range."""


def check_cap(q: int, n: int) -> int:
    """Return q**n if it fits under ``DEFAULT_CAP``, else raise.

    From ``n >= DEFAULT_CAP.bit_length()`` on, even 2**n exceeds the cap, so
    q**n is never built there: at large n it has too many digits to format.
    """
    if q >= 2 and n >= DEFAULT_CAP.bit_length():
        raise CapExceededError(f"q^n = {q}^{n} exceeds the enumeration cap {DEFAULT_CAP}")
    size = q**n
    if size > DEFAULT_CAP:
        raise CapExceededError(f"q^n = {q}^{n} = {size} exceeds the enumeration cap {DEFAULT_CAP}")
    return size


@dataclass(frozen=True)
class TribesVariant:
    """Parameters of a tribes-style function on [q]^n.

    Coordinates are split into ``m`` contiguous blocks: ``m - 1`` blocks of
    size ``r`` starting at ``r * j``, then one block of size ``last`` with
    ``r <= last < 2r`` that takes the remainder.  The function reports
    symbol 0 when some block is entirely zero, and otherwise the first
    nonzero coordinate value.  The blocks alone fix the function, so the
    design point that sized them (:func:`build_tribes`) is not kept.
    """

    r: int
    m: int
    last: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.m < 1:
            raise ValueError(f"need r >= 1 and m >= 1 blocks, got r={self.r} m={self.m}")
        if not self.r <= self.last < 2 * self.r:
            raise ValueError(f"last block size {self.last} must lie in [r, 2r) for r={self.r}")

    @property
    def n(self) -> int:
        return (self.m - 1) * self.r + self.last


@dataclass(frozen=True, eq=False)
class FunctionSpec:
    """A function on [q]^n, as an explicit table or a structured family.

    Exactly one of ``table`` and ``family`` is set.  Tables are stored in
    lexicographic order with coordinate 0 most significant.  ``kind`` is
    ``"full"`` for [q]-valued functions and ``"indicator"`` for {0,1}-valued
    ones.  An indicator view made by :func:`indicator` records the tracked
    output symbol in ``indicator_of``; a family view needs it, and an
    indicator table read from a file has none.
    """

    q: int
    n: int
    kind: str
    table: np.ndarray | None = None
    family: TribesVariant | None = None
    indicator_of: int | None = None

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError("q must be at least 2")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.kind not in (KIND_FULL, KIND_INDICATOR):
            raise ValueError(f"kind must be 'full' or 'indicator', got {self.kind!r}")
        if (self.table is None) == (self.family is None):
            raise ValueError("exactly one of table and family must be given")
        if self.table is not None:
            # Copy before freezing so the caller's array is never locked.
            tbl = np.array(self.table, dtype=np.int32, copy=True).reshape(-1)
            if tbl.shape[0] != self.q**self.n:
                raise ValueError(f"table has {tbl.shape[0]} entries, expected q^n = {self.q ** self.n}")
            if tbl.size and (tbl.min() < 0 or tbl.max() >= self.outputs):
                raise ValueError(f"table values must lie in [0, {self.outputs})")
            tbl.setflags(write=False)
            object.__setattr__(self, "table", tbl)
        else:
            if self.family.n != self.n:
                raise ValueError(f"family covers {self.family.n} coordinates, expected n={self.n}")
            if self.kind == KIND_INDICATOR and self.indicator_of is None:
                raise ValueError("family-backed indicator needs indicator_of")
        if self.indicator_of is not None:
            if self.kind != KIND_INDICATOR:
                raise ValueError("indicator_of only applies to kind='indicator'")
            if not 0 <= self.indicator_of < self.q:
                raise ValueError(f"indicator_of={self.indicator_of} out of range for q={self.q}")

    @property
    def size(self) -> int:
        return self.q**self.n

    @property
    def outputs(self) -> int:
        """Number of output symbols: q for a [q]-valued f, 2 for an indicator."""
        return self.q if self.kind == KIND_FULL else 2


def check_output(f: FunctionSpec, a: int) -> None:
    """Raise unless ``a`` is an output symbol of f, one of 0..outputs-1."""
    if not 0 <= a < f.outputs:
        raise ValueError(f"a={a} is not an output of f, whose outputs are 0..{f.outputs - 1}")


def check_measure_q(f: FunctionSpec, q: int) -> None:
    """Raise unless a measure with ``q`` atoms lives on the alphabet [f.q] that f reads."""
    if q != f.q:
        raise ValueError(f"measure has q={q}, function has q={f.q}")


def from_table(q: int, n: int, values, kind: str = KIND_FULL) -> FunctionSpec:
    return FunctionSpec(q=q, n=n, kind=kind, table=np.asarray(values))


def _fold_blocks(fam: TribesVariant, A: np.ndarray, op: np.ufunc):
    """``op`` folded over the columns of every tribes block, for each row of A.

    Returns ``(full, last)``: one column per full block, and the last block.
    A full block's j-th columns, j < r, are one strided slice, so r slices
    fold every full block at once; a reshape would copy A first.
    """
    r, full = fam.r, (fam.m - 1) * fam.r
    blocks = A[:, 0:full:r].copy()
    for j in range(1, r):
        op(blocks, A[:, j:full:r], out=blocks)
    return blocks, op.reduce(A[:, full:], axis=1)


def tribes_values(f: FunctionSpec, zero: np.ndarray, symbol_at) -> np.ndarray:
    """Values of a tribes family at every row, read off the rows' zero pattern.

    ``zero`` is the (m, n) mask of the zero coordinates, and
    ``symbol_at(rows, cols)`` returns the symbol at each (row, col) pair.
    It is asked once, for each row's first nonzero coordinate (column 0 on
    an all-zero row, which is dead anyway), so a caller holding uniforms
    instead of symbols inverts one per row.  A row is 0 when some block is
    all zero and its first nonzero symbol otherwise; an indicator view then
    compares that with its symbol.  :func:`evaluate_batch` on symbols and
    Monte Carlo on uniforms both take their values from here.
    """
    full_dead, last_dead = _fold_blocks(f.family, zero, np.logical_and)
    tribe_dead = last_dead | full_dead.any(axis=1)
    first_nz = np.argmin(zero, axis=1)  # the first False; 0 on an all-zero row
    vals = symbol_at(np.arange(zero.shape[0]), first_nz).astype(np.int32)
    out = np.where(tribe_dead, np.int32(0), vals)
    if f.kind == KIND_INDICATOR:
        out = (out == f.indicator_of).astype(np.int32)
    return out


def evaluate_batch(f: FunctionSpec, X: np.ndarray) -> np.ndarray:
    """Evaluate at every row of an (m, n) matrix of symbols.

    A table is indexed by each row's lexicographic rank.  A tribes family
    hands ``X == 0`` and a reader of X to :func:`tribes_values`.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != f.n:
        raise ValueError(f"expected an (m, {f.n}) matrix, got shape {X.shape}")
    if f.table is not None:
        strides = f.q ** np.arange(f.n - 1, -1, -1, dtype=np.int64)
        idx = X.astype(np.int64) @ strides
        return f.table[idx].astype(np.int32)
    return tribes_values(f, X == 0, lambda rows, cols: X[rows, cols])


def materialize_table(f: FunctionSpec) -> np.ndarray:
    """Full lexicographic value table, enumerating family-backed functions."""
    if f.table is not None:
        return f.table
    size = check_cap(f.q, f.n)
    strides = f.q ** np.arange(f.n - 1, -1, -1, dtype=np.int64)
    out = np.empty(size, dtype=np.int32)
    chunk = max(1, BATCH_CELLS // f.n)
    for lo in range(0, size, chunk):
        ids = np.arange(lo, min(lo + chunk, size), dtype=np.int64)
        X = (ids[:, None] // strides[None, :]) % f.q
        out[lo : lo + len(ids)] = evaluate_batch(f, X)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Partial orders and monotonicity


def leq_a(x, y, a: int) -> bool:
    """Whether y is reachable from x by rewriting coordinates to the symbol a.

    Equivalent characterization: positions holding a in x still hold a in y,
    and wherever y differs from a it agrees with x.
    """
    if len(x) != len(y):
        raise ValueError(f"points have different lengths {len(x)} and {len(y)}")
    return all(yv == a or xv == yv for xv, yv in zip(x, y))


def _rewrite_monotone(cube: np.ndarray, a: int) -> bool:
    """Whether a {0,1} array with one axis per coordinate never drops when
    one coordinate is rewritten to a.  The covering relations generate the
    rewrite-to-a order, so this is monotonicity for that order."""
    for k in range(cube.ndim):
        rewritten = np.expand_dims(np.take(cube, a, axis=k), axis=k)
        if not np.all(cube <= rewritten):
            return False
    return True


def level_symbol(f: FunctionSpec, a: int) -> tuple[int, bool]:
    """The level 1[f = a] read as ``(b, complement)``: 1[f = b], or 1[f != b] when ``complement`` is set.

    An indicator view of b (:func:`indicator`) is 1[f = b] at a = 1 and
    1[f != b] at a = 0; any other f names its own level 1[f = a].
    """
    if f.indicator_of is None:
        return a, False
    return f.indicator_of, a == 0


def level_rises(f: FunctionSpec, a: int, toward: int) -> bool:
    """Whether 1[f = a] never drops when a coordinate is rewritten to ``toward``.

    f is monotone in the paper's sense when every level a rises toward a.
    A table, and a family toward a nonzero symbol, is checked over every
    covering relation of its table (so a family must fit under the cap).
    A tribes family toward 0 is decided from its definition, never from a
    table (it may be past the cap).  An all-zero block stays all zero when
    more coordinates turn to 0, so the zero event f = 0 only rises, and
    every level f = b, b >= 1, can drop to f = 0.  The level f != b,
    b >= 1, only rises when q = 2 (it is f = 0) or when the blocks have
    size 1: then f = 0 once any coordinate is 0 and f = x_0 before, so
    f != b holds from the first zero on.  With larger blocks and q >= 3,
    zeroing the first nonzero coordinate can expose b behind it in the
    same block.
    """
    check_output(f, a)
    if not 0 <= toward < f.q:
        raise ValueError(f"symbol toward={toward} out of range for q={f.q}")
    if f.family is None or toward != 0:
        return _rewrite_monotone(materialize_table(f).reshape((f.q,) * f.n) == a, toward)
    b, complement = level_symbol(f, a)
    return b != 0 and (f.q == 2 or f.family.r == 1) if complement else b == 0


def level_name(f: FunctionSpec, a: int) -> str:
    """The level 1[f = a] named by the function it was taken from (:func:`level_symbol`)."""
    b, complement = level_symbol(f, a)
    return f"1[f {'!=' if complement else '='} {b}]"


# ---------------------------------------------------------------------------
# Families and constructions


def _check_p0(p0) -> None:
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"p0 must lie strictly inside (0, 1), got {p0!r}")


def tribes_block_size(n: int, p0: float) -> int:
    """Nominal block size floor[(ln n - ln ln n + ln ln(1/p0)) / ln(1/p0)]."""
    if n < 3:
        raise ValueError("block-size formula needs n >= 3 (ln ln n degenerates below that)")
    _check_p0(p0)
    b = math.log(1.0 / p0)
    return math.floor((math.log(n) - math.log(math.log(n)) + math.log(b)) / b)


def build_tribes(q: int, n: int, p0: float, r: int | None = None) -> FunctionSpec:
    """Tribes-style function on [q]^n.

    Coordinates split into m = floor(n/r) contiguous blocks: m - 1 of size r,
    and a last one of size n - (m-1) r that takes the remainder.  The output
    is 0 when some block is all zero and otherwise the first nonzero
    coordinate value.  When ``r`` is not given it comes from
    :func:`tribes_block_size` at the design point ``p0``, clamped into [1, n].
    An explicit ``r`` still needs a valid ``p0``, checked after ``r``.  The
    blocks alone fix the function, so ``p0`` is not kept.

    Parameters
    ----------
    q, n : alphabet size and coordinate count (q >= 2; n >= 3 unless ``r``
        is given explicitly, in which case n >= 1 suffices).
    p0 : design point in (0, 1) controlling the block-size formula.
    r : explicit block size, bypassing the formula.
    """
    if n < 1:  # before the block-size formula, which would report n >= 3
        raise ValueError("n must be at least 1")
    if r is None:
        r = min(n, max(1, tribes_block_size(n, p0)))
    elif not 1 <= r <= n:
        raise ValueError(f"explicit r={r} must lie in 1..{n}")
    _check_p0(float(p0))  # the formula has checked it already; an explicit r has not
    return FunctionSpec(q=q, n=n, kind=KIND_FULL, family=TribesVariant(r=r, m=n // r, last=r + n % r))


def indicator(f: FunctionSpec, a: int) -> FunctionSpec:
    """The {0,1}-valued level function 1[f = a]."""
    if f.kind != KIND_FULL:
        raise ValueError("indicator expects a [q]-valued function")
    check_output(f, a)
    table = None if f.table is None else (f.table == a).astype(np.int32)
    return FunctionSpec(q=f.q, n=f.n, kind=KIND_INDICATOR, table=table, family=f.family, indicator_of=a)


def random_zero_monotone(q: int, n: int, density: float, seed) -> FunctionSpec:
    """Random monotone indicator for the rewrite-to-0 order.

    Seeds round(density * q^n) distinct points and takes the upward closure:
    every point reachable by rewriting coordinates of a seed to 0 joins the
    set.  The result is 0-monotone by construction.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    size = check_cap(q, n)
    rng = np.random.default_rng(seed)
    count = min(size, max(0, round(density * size)))
    hit = np.zeros(size, dtype=bool)
    if count:
        hit[rng.choice(size, size=count, replace=False)] = True
    nd = hit.reshape((q,) * n)
    # One pass per axis closes upward: rewriting coordinate k to 0 lands in
    # the axis-k zero slab, so OR each slab over its axis in turn.
    for k in range(n):
        sel: list = [slice(None)] * n
        sel[k] = 0
        nd[tuple(sel)] = nd.any(axis=k)
    return FunctionSpec(q=q, n=n, kind=KIND_INDICATOR, table=nd.reshape(size).astype(np.int32))


# ---------------------------------------------------------------------------
# Plain-text function files


class FunctionFileError(ValueError):
    """Malformed function file; carries the offending 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_tokens(lineno: int, line: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    fields: dict[str, str] = {}
    for tok in line.split():
        key, sep, val = tok.partition("=")
        if not sep or not key or not val:
            raise FunctionFileError(lineno, f"expected key=value tokens, got {tok!r}")
        if key not in required + optional:
            raise FunctionFileError(lineno, f"unknown key {key!r}")
        if key in fields:
            raise FunctionFileError(lineno, f"duplicate key {key!r}")
        fields[key] = val
    for key in required:
        if key not in fields:
            raise FunctionFileError(lineno, f"missing key {key!r}")
    return fields


def _parse_int(lineno: int, key: str, val: str) -> int:
    try:
        return int(val)
    except ValueError:
        raise FunctionFileError(lineno, f"{key} must be an integer, got {val!r}") from None


def _line_end(data: bytes, start: int) -> int:
    """The end of the line of ``data`` that starts at ``start``: its newline, or the end of ``data``."""
    end = data.find(b"\n", start)
    return len(data) if end < 0 else end


def _decode(data, lineno: int) -> str:
    """``data``, which starts on file line ``lineno``, as UTF-8 text.

    A byte that does not decode is an error at the line that holds it.  An
    encoded surrogate reads as the lone surrogate that a text stream may
    hold, so a stream's text comes back as it was; no entry, key or value
    accepts one, so it is refused at its line all the same.
    """
    try:
        return str(data, "utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        bad = lineno + bytes(data[: exc.start]).count(b"\n")
        byte = data[exc.start]
        raise FunctionFileError(bad, f"byte 0x{byte:02x} is not UTF-8 text ({exc.reason})") from None


def _clean_table_values(body, q: int, n: int, hi: int) -> np.ndarray | None:
    """The q^n entries of a clean table body, or None for any other body.

    A body is clean when it holds only ASCII digits and newlines, no line
    has more than nine digits, q^n lines are nonempty and every value is
    below ``hi``.  Its lines are decoded together by Horner's rule, one
    vectorised step per digit position.  This pass raises no error.
    """
    # A closing newline ends the last line too, so no line reads past it.
    buf = np.append(np.frombuffer(body, dtype=np.uint8), np.uint8(10))
    digit = buf - np.uint8(48)  # other bytes wrap past 9
    newline = buf == 10
    if not np.all((digit < 10) | newline):
        return None
    # Nonempty lines start at a digit that opens the body or follows a newline.
    starts = np.flatnonzero(np.concatenate(([True], newline[:-1])) & ~newline)
    # Past 2^n > count, q^n is not built: it is larger than count anyway.
    if n >= len(starts).bit_length() or len(starts) != q**n:
        return None
    values = np.zeros(len(starts), dtype=np.int32)
    live = np.ones(len(starts), dtype=bool)  # lines not yet at their newline
    for j in range(10):
        d = digit[j:].take(starts, mode="clip")  # byte j of every line
        live &= d < 10
        if not live.any():
            return values if values.max() < hi else None
        np.multiply(values, 10, out=values, where=live)
        np.add(values, d, out=values, where=live)
    return None  # a line of ten or more digits


def _read_table_lines(body, q: int, n: int, hi: int) -> np.ndarray:
    """The q^n entries of a table body, read line by line.

    A line is ``str.strip()``-ed, skipped if that leaves nothing, and else
    read as one entry by ``int()``; body line i is file line i + 2.  Every
    table error is raised here, at the first line that breaks a rule: too
    many lines, then not an integer, then out of range.  A body that is not
    UTF-8 is refused first, at the line of its first undecodable byte.
    """
    lines = _decode(body, 2).split("\n")
    # Past 2^n > line count no count reaches q^n, so q^n is not built (at
    # large n it has too many digits to format): any larger number will do.
    small = n < len(lines).bit_length()
    expected = q**n if small else len(lines) + 1
    values = []
    for lineno, line in enumerate(lines, start=2):
        text = line.strip()
        if not text:
            continue
        if len(values) >= expected:
            raise FunctionFileError(lineno, f"too many table lines; expected {expected}")
        v = _parse_int(lineno, "table entry", text)
        if not 0 <= v < hi:
            raise FunctionFileError(lineno, f"value {v} out of range [0, {hi})")
        values.append(v)
    if len(values) != expected:
        shown = q**n if small or n * math.log10(q) < _SHOWN_DIGITS else f"{q}^{n}"
        # As a text stream yields lines: a final newline opens no new line.
        lineno = len(lines) - (lines[-1] == "") + 2
        raise FunctionFileError(lineno, f"expected {shown} table lines, found {len(values)}")
    return np.array(values, dtype=np.int32)


def _read_table(body, q: int, n: int, hi: int) -> np.ndarray:
    """The q^n entries of a table body given as bytes.

    The common body, q^n lines of one ASCII digit below ``hi``, each ending
    in a newline (the last one may not), is checked and read by two strided
    views: no per-line index is built.  Any other clean body is read by
    :func:`_clean_table_values`, and the rest by :func:`_read_table_lines`,
    which raises every table error.
    """
    buf = np.frombuffer(body, dtype=np.uint8)
    # Past 2^n > line count q^n is not built: it is larger than the count anyway.
    lines = (len(buf) + 1) // 2
    if n < lines.bit_length() and lines == q**n:
        digits, newlines = buf[0::2] - np.uint8(48), buf[1::2]  # other bytes wrap past 9
        # Reductions, not masks: a mask would be one more array to allocate.
        if digits.max() < min(hi, 10) and newlines.min() == 10 == newlines.max():
            return digits
    values = _clean_table_values(body, q, n, hi)
    return _read_table_lines(body, q, n, hi) if values is None else values


def parse_function_file(source) -> FunctionSpec:
    """Read a function from a path or an open text stream.

    Line 1 holds ``q=<int> n=<int> kind=<full|indicator>``.  A structured
    family follows as a single line ``family=tribes r=<int> p0=<real>`` (plus
    ``a=<symbol>`` for indicator views); otherwise q^n table lines follow,
    one integer per line in lexicographic point order.  A line may carry
    whitespace around its entry, and blank lines are skipped.  A path is
    read as bytes, with its line endings translated as text mode would; a
    byte that is not UTF-8 is an error at its line.  A table body is read
    by :func:`_read_table`: one-digit bodies by stride, other clean bodies
    in one vectorised pass, and any other body, and any malformed one, line
    by line, which is where every table error is raised.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            data = fh.read()
        if b"\r" in data:  # \r\n and a lone \r end a line, as in text mode
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    else:
        data = source.read().encode("utf-8", "surrogatepass")
    # A byte-order mark some editors write is not part of the header.
    data = data.removeprefix(codecs.BOM_UTF8)
    eol = _line_end(data, 0)
    header = _decode(data[:eol], 1)
    body = memoryview(data)[eol + 1 :]  # a view: the body is most of the file
    if not header.strip():
        raise FunctionFileError(1, "empty file; expected a header line")
    head = _parse_tokens(1, header, required=("q", "n", "kind"))
    q = _parse_int(1, "q", head["q"])
    n = _parse_int(1, "n", head["n"])
    kind = head["kind"]
    if kind not in (KIND_FULL, KIND_INDICATOR):
        raise FunctionFileError(1, f"kind must be full or indicator, got {kind!r}")
    if q < 2 or n < 1:
        raise FunctionFileError(1, f"need q >= 2 and n >= 1, got q={q} n={n}")

    first = _decode(data[eol + 1 : _line_end(data, eol + 1)], 2)
    if first.lstrip().startswith("family="):
        fields = _parse_tokens(2, first, required=("family", "r", "p0"), optional=("a",))
        if fields["family"] != "tribes":
            raise FunctionFileError(2, f"unknown family {fields['family']!r}")
        r = _parse_int(2, "r", fields["r"])
        try:
            p0 = float(fields["p0"])
        except ValueError:
            raise FunctionFileError(2, f"p0 must be a real number, got {fields['p0']!r}") from None
        for extra_no, extra in enumerate(_decode(body, 2).split("\n")[1:], start=3):
            if extra.strip():
                raise FunctionFileError(extra_no, "unexpected content after family line")
        try:
            f = build_tribes(q, n, p0, r=r)
        except ValueError as exc:
            raise FunctionFileError(2, str(exc)) from None
        if kind == KIND_INDICATOR:
            if "a" not in fields:
                raise FunctionFileError(2, "indicator family needs a=<symbol>")
            a = _parse_int(2, "a", fields["a"])
            if not 0 <= a < q:
                raise FunctionFileError(2, f"a={a} out of range for q={q}")
            return indicator(f, a)
        if "a" in fields:
            raise FunctionFileError(2, "a=<symbol> only applies to indicator kind")
        return f

    hi = q if kind == KIND_FULL else 2
    return FunctionSpec(q=q, n=n, kind=kind, table=_read_table(body, q, n, hi))

