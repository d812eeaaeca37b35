"""Python's float `repr`, for whole float64 arrays, in numpy integer
arithmetic, and the one opener of the package's output files.

`float_texts(values)` returns `list(map(repr, values.tolist()))`. The values
`repr` writes in fixed notation, 1e-4 <= |x| < 1e16, take a vectorised path:
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020) finds
each value's shortest decimal d 10^k that reads back as the value, the one
closest to it where several are shortest and the even one on a tie, which
are the digits `repr` writes (as Ryu's are, U. Adams, PLDI 2018). The
digits and the fixed notation are assembled in uint8 matrices and split
into strings once per chunk of at most `CHUNK` values. Zeros, subnormals,
inf and nan and the values `repr` writes in exponent notation go through
`repr` itself, and so does an array of fewer than `REPR_BELOW` values,
below which the fast path's fixed cost per call is more than `repr`'s.

`row_reprs(values)` renders each row of an array as one string, its
numbers' texts joined by commas: the commas are laid into the fast path's
padded text rows and a block of rows is compacted in one pass.
`row_texts(values)` gives the same rows as JSON writes them (`NaN`,
`Infinity`). `RowTexts` keeps such rows with the array they render, so a
writer that has rendered an array once can hand its rows to the next
writer of the same array, which compares the bits before it uses them.

`open_output(path, newline=None)` is the one way the package opens a file
to write: the trace CSV, scenario files, JSON artifacts and reports all go
through it. It opens as `open(path, "w")` does, but without `O_TRUNC`: a
file that exists is overwritten in place, and on every exit, normal or by
an exception, a regular file is cut at the last byte the system took. On a
rewrite of a large file, truncating it to zero first makes the filesystem
free its blocks and then write into fresh ones, which costs more than the
write itself. Before it writes, the opener puts `STALE_MARK`, a NUL, over
an existing file's last byte. New bytes that reach that far overwrite it,
and the cut removes it otherwise, so a file that still ends in it was not
written to its end (the process was killed mid-write) and holds an older
file's tail after its new bytes; `ends_unfinished(path)` tells, and the
readers of traces, scenario files and JSON artifacts refuse such a file,
in the words of `UNFINISHED`. A FIFO, a tty or `/dev/null` is written and
never marked or cut.
"""

from __future__ import annotations

import math
import os
import stat
from contextlib import contextmanager
from typing import Iterator, NamedTuple, TextIO

import numpy as np

#: values formatted per pass of the fast path; bounds its uint8 matrices
CHUNK = 2048
#: arrays and chunks of fewer values go to `repr` one by one: the fast
#: path's fixed cost per call, about 0.13 ms, is `repr`'s for 256 to 320
#: values on a 2-CPU x86-64 host with AVX-512 (Python 3.11, numpy 2.4)
REPR_BELOW = 256

_U64 = np.uint64
_MANTISSA = _U64((1 << 52) - 1)
_LOW26, _LOW52 = _U64((1 << 26) - 1), _U64((1 << 52) - 1)
#: the biased exponents of the values the fast path takes: 2^-14 < 1e-4
#: and 1e16 < 2^54
_E_MIN, _E_MAX = 1023 - 14, 1023 + 53


def _floor_log10(num: int, den: int) -> int:
    k = 0
    while num < den:
        num, k = num * 10, k - 1
    while num >= 10 * den:
        den, k = den * 10, k + 1
    return k


def _exponent_table() -> np.ndarray:
    """Schubfach's constants for a value c 2^q, one column per biased
    exponent E = q + 1075 from `_E_MIN`; `shortest_decimals` names the
    rows."""
    columns = []
    for biased in range(_E_MIN, _E_MAX + 1):
        q = biased - 1075
        # j = -k for k = floor(log10(2^q))
        j = -_floor_log10(1 << max(q, 0), 1 << max(-q, 0))
        five, shift = 5**j, 1 - j - q
        below = (1 << shift) - 1
        half = 4 * five
        columns.append([
            j, five & 0x3FFFFFF, five >> 26, shift, 55 - shift, below,
            half >> shift, half & below,
        ])
    return np.array(columns, dtype=_U64).T.copy()


_EXPONENTS = _exponent_table()

#: the four digits of 0 .. 9999 as ASCII in a little-endian uint32, so that
#: an array of them viewed as bytes reads the digits in order, and the
#: number of zeros each four-digit rendering ends with
_QUAD = np.arange(10_000, dtype=np.uint16)
_GROUPS = (
    np.stack([_QUAD // 1000, _QUAD // 100 % 10, _QUAD // 10 % 10, _QUAD % 10], axis=1)
    .astype(np.uint8)
    + np.uint8(ord("0"))
).view("<u4").ravel()
_TRAILING = np.zeros(10_000, dtype=np.uint8)
for _i in range(1, 5):
    _TRAILING += _QUAD % 10**_i == 0
del _QUAD, _i

#: per number j of fraction digits of d 10^-j, 0 <= j <= 20: 10^j (0 past
#: 16, where d < 10^17 leaves no integer part), and the divisor and the
#: factors that split j digits into the first 8 and the last 12 of 20
#: places (with j <= 8 digits the last 12 are zeros)
_POW10_J, _HEAD_DIV, _HEAD_MUL, _TAIL_MUL = np.array(
    [[10**j if j <= 16 else 0, 10 ** max(j - 8, 0), 10 ** max(8 - j, 0),
      10 ** (20 - j) if j > 8 else 0]
     for j in range(21)],
    dtype=_U64,
).T.copy()

#: the text matrix of a chunk has a column per place 16 .. 0, the point,
#: and a column per place -1 .. -21: a value below 1e16 has at most 16
#: integer digits and a sign, and one of at least 1e-4 at most 3 + 17
#: fraction digits, so place -21 is always a pad
_POINT_COL, _N_COLS = 17, 39


def _text_masks() -> tuple[np.ndarray, np.ndarray]:
    """Per (sign, W, F), a row over the text columns, at row (17 sign + W)
    22 + F: `keep` is 0xFF where a digit shows, at places W - 1 .. -F, and
    `fill` holds the other columns: the point, the sign at place W of a
    negative value and a space elsewhere."""
    places = np.concatenate((np.arange(16, -1, -1), np.arange(-1, -22, -1))).astype(np.int8)
    sign = np.arange(2, dtype=np.int8)[:, None, None, None]
    n_int = np.arange(17, dtype=np.int8)[None, :, None, None]
    n_frac = np.arange(22, dtype=np.int8)[None, None, :, None]
    shown = np.broadcast_to((places < n_int) & (places >= -n_frac), (2, 17, 22, places.size))
    keep = np.where(shown, np.uint8(0xFF), np.uint8(0))
    pad = np.where((places == n_int) & (sign == 1), np.uint8(ord("-")), np.uint8(ord(" ")))
    fill = np.where(shown, np.uint8(0), pad)
    keep = np.insert(keep, _POINT_COL, 0, axis=-1)
    fill = np.insert(fill, _POINT_COL, ord("."), axis=-1)
    return keep.reshape(-1, _N_COLS), fill.reshape(-1, _N_COLS)


_KEEP, _FILL = _text_masks()


def float_texts(values) -> list[str]:
    """`repr` of every value of the float64 array `values`, in order."""
    x = np.asarray(values, dtype=np.float64).ravel()
    texts: list[str] = []
    for start in range(0, x.size, CHUNK):
        texts += _chunk_texts(x[start : start + CHUNK])
    return texts


def _repr_texts(x: np.ndarray) -> list[str]:
    return list(map(repr, x.tolist()))


def _fast(x: np.ndarray) -> np.ndarray:
    """Where `x` holds a value the fast path takes: false for zeros,
    subnormals, inf, nan and the values `repr` writes in exponent
    notation."""
    magnitude = np.abs(x)
    return (magnitude >= 1e-4) & (magnitude < 1e16)


def _chunk_texts(x: np.ndarray) -> list[str]:
    if x.size < REPR_BELOW:
        return _repr_texts(x)
    fast = _fast(x)
    if fast.all():
        return _fixed_texts(x)
    if not fast.any():
        return _repr_texts(x)
    texts = np.empty(x.size, dtype=object)
    texts[fast] = _object_array(_fixed_texts(x[fast]))
    texts[~fast] = _object_array(_repr_texts(x[~fast]))
    return texts.tolist()


def _object_array(items: list) -> np.ndarray:
    arr = np.empty(len(items), dtype=object)
    arr[:] = items
    return arr


#: the texts `float_texts` gives the non-finite floats, as JSON writes them
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def row_texts(values) -> list[str]:
    """Each row (along the last axis) of the float64 array `values` as its
    numbers' texts joined by commas, as JSON writes them: the rows of
    `row_reprs` with nan and the infinities as `NaN` and `Infinity`."""
    return json_rows(row_reprs(values))


def row_reprs(values) -> list[str]:
    """Each row (along the last axis) of the float64 array `values` as
    `",".join(float_texts(row))`.

    The rows are rendered a block of at most about `CHUNK` values at a
    time. A block that the fast path takes whole is laid out as one uint8
    matrix: the pad column after each value's text becomes the comma, or
    a line break after a row's last value, and the spaces are dropped from
    the whole block at once, so a row comes out as one string. Any other
    block goes number by number, through `float_texts`."""
    values = np.asarray(values, dtype=np.float64)
    width = values.shape[-1]
    rows = values.reshape(math.prod(values.shape[:-1]), width)
    if not width:
        return [""] * len(rows)
    step = max(1, CHUNK // width)
    texts = []
    for start in range(0, len(rows), step):
        block = rows[start : start + step].ravel()
        if block.size < REPR_BELOW or not _fast(block).all():
            numbers = float_texts(block)
            texts += [",".join(numbers[i : i + width]) for i in range(0, block.size, width)]
            continue
        text = _text_matrix(block)
        text[:, -1] = ord(",")
        text[width - 1 :: width, -1] = ord("\n")
        texts += text.tobytes().translate(None, b" ").decode("ascii").split("\n")[:-1]
    return texts


def json_rows(texts: list[str]) -> list[str]:
    """The rows `texts`, each `float_texts` joined by commas, with nan
    and the infinities written as JSON writes them."""
    # "nan" and "inf" are the only number texts with an "n"
    return [
        ",".join(_NON_FINITE.get(t, t) for t in text.split(",")) if "n" in text else text
        for text in texts
    ]


class RowTexts(NamedTuple):
    """The rows of the float64 array `values` as `row_texts` renders them,
    kept with the array so that a later writer of an array can tell
    whether they are its rows."""

    values: np.ndarray
    texts: list[str]

    def render(self, values) -> bool:
        """Whether `texts` are the rows of `values`: it has the shape and
        the bits of `self.values` (bits, so that -0.0 is not 0.0)."""
        values = np.asarray(values)
        return (
            values.dtype == np.float64
            and values.shape == self.values.shape
            and np.array_equal(values.view(_U64), self.values.view(_U64))
        )


#: the rows of `_EXPONENTS`
_J, _FIVE_LOW, _FIVE_HIGH, _SHIFT, _LEFT, _BELOW, _HALF_WHOLE, _HALF_PART = range(8)


def shortest_decimals(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, k) with d 10^k the shortest decimal that reads back as each
    float64 of `magnitude`, 1e-4 <= magnitude < 1e16, closest to it among
    the shortest and even on a tie; 10^15 <= d < 10^17 and -20 <= k <= 0.

    Schubfach scales the value v = c 2^q and the bounds of its rounding
    interval by 4 10^-k, for k = floor(log10(2^q)), and compares them with
    the scaled candidates. Here 10^-k = 5^j 2^j, j = -k, is an integer, so
    the scaled value is 8 c 5^j 2^-shift exactly, 0 <= shift <= 47: it is
    kept as its whole part and its fraction's numerator over 2^shift, and
    the bounds lie the half-width 4 5^j 2^-shift from it.

    Two cases of the general algorithm cannot change a result here, so
    they are left out. A bound is (2c +- 1) 2^(q-1), and for q <= 0 no
    multiple of 10^k is one, so whether the interval holds its bounds never
    matters; for q = 1 (k = 0) a bound is an odd integer beside the integer
    value, never the nearer candidate. And the interval below a power of
    two is half as wide, but the 67 powers of two in this range all give
    their `repr` with the full width, which the tests check one by one.
    The arrays are updated in place where they can be, to keep a chunk's
    working set small.
    """
    bits = magnitude.view(_U64)
    column = (bits >> _U64(52)).astype(np.intp)
    column -= _E_MIN

    def const(row: int) -> np.ndarray:
        return _EXPONENTS[row].take(column)

    # c 5^j = high 2^52 + low, from products of 26-bit halves
    c = bits & _MANTISSA
    c |= _U64(1 << 52)
    c_low = c & _LOW26
    c >>= _U64(26)
    five_low, five_high = const(_FIVE_LOW), const(_FIVE_HIGH)
    cross = c_low * five_high
    cross += c * five_low
    low = c_low * five_low
    low += (cross & _LOW26) << _U64(26)
    high = c * five_high
    high += cross >> _U64(26)
    high += low >> _U64(52)
    del c, c_low, five_low, five_high, cross
    low &= _LOW52
    low <<= _U64(3)
    # the scaled value: 8 c 5^j 2^-shift = whole + part 2^-shift
    shift = const(_SHIFT)
    whole = high << const(_LEFT)
    whole |= low >> shift
    part = low
    part &= const(_BELOW)
    del high, low
    # the least and the greatest integer inside the interval
    half_whole, half_part = const(_HALF_WHOLE), const(_HALF_PART)
    upper = part + half_part
    upper >>= shift
    upper += whole
    upper += half_whole
    lower = whole - half_whole
    lower -= part < half_part
    lower += _U64(1)
    del shift, half_whole, half_part
    # one digit fewer: at most one of s', t' = s' + 10 lies in the interval
    s = whole >> _U64(2)
    sp = s // _U64(10)
    sp *= _U64(10)
    sp4 = sp << _U64(2)
    short = lower <= sp4
    tp_in = sp4 + _U64(40) <= upper
    short ^= tp_in
    sp += tp_in * _U64(10)
    del sp4, tp_in
    # else one of s, t = s + 1 does or both do: the one inside, or the
    # nearer, s on a tie where s is even
    s4 = whole & ~_U64(3)
    s_in = lower <= s4
    t_in = s4 + _U64(4) <= upper
    t_nearer = (whole & _U64(2)) != 0
    t_nearer &= ((whole & _U64(7)) != 2) | (part != 0)
    s += np.where(s_in != t_in, t_in, t_nearer)
    return np.where(short, sp, s), -const(_J).astype(np.int64)


def _fixed_texts(x: np.ndarray) -> list[str]:
    """`repr` of each value of `x`, all with 1e-4 <= |x| < 1e16."""
    data = _text_matrix(x).tobytes().decode("ascii")
    return data.split()


def _text_matrix(x: np.ndarray) -> np.ndarray:
    """One row of ASCII per value of `x`, its `repr` padded with spaces."""
    n = x.size
    negative = np.signbit(x)
    magnitude = np.abs(x)
    d, k = shortest_decimals(magnitude)
    j = -k
    # no integer lies between a value and a decimal that reads back as it
    # (integers below 2^53 are values), except where the value is one and
    # then it is its own shortest decimal: the decimal's integer part is
    # the value's
    whole = np.floor(magnitude).astype(_U64)
    fraction = d - whole * _POW10_J.take(j)
    # the j fraction digits as 20 places: head 10^12 + tail
    head, tail = np.divmod(fraction, _HEAD_DIV.take(j))
    head *= _HEAD_MUL.take(j)
    tail *= _TAIL_MUL.take(j)
    del fraction
    # groups of four digits, one row each: places 15 .. 0, then -1 .. -20
    groups = np.empty((9, n), dtype=np.uint32)
    high, low = (part.astype(np.uint32) for part in np.divmod(whole, _U64(10**8)))
    np.divmod(high, 10**4, out=(groups[0], groups[1]))
    np.divmod(low, 10**4, out=(groups[2], groups[3]))
    np.divmod(head.astype(np.uint32), 10**4, out=(groups[4], groups[5]))
    high, low = (part.astype(np.uint32) for part in np.divmod(tail, _U64(10**8)))
    groups[6] = high
    np.divmod(low, 10**4, out=(groups[7], groups[8]))
    del whole, head, tail, high, low
    # the fraction's trailing zeros, 20 where it is 0: left to right, each
    # group's count, plus the count so far where the group is all zeros
    trailing = _TRAILING.take(groups[4])
    for row in groups[5:]:
        zeros = _TRAILING.take(row)
        trailing = zeros + (zeros == 4) * trailing
    # places shown: integer digits at W - 1 .. 0, fraction digits at -1 .. -F
    n_int = np.maximum(16 + (d >= _U64(10**16)) + k, 1)
    n_frac = np.maximum(20 - trailing.astype(np.intp), 1)
    top, bottom = int((n_int + negative).max()), int(n_frac.max())
    digits = _GROUPS.take(groups.T).view(np.uint8)
    text = np.empty((n, top + bottom + 2), dtype=np.uint8)
    shown = min(top, 16)
    text[:, top - shown : top] = digits[:, 16 - shown : 16]
    text[:, top + 1 : top + 1 + bottom] = digits[:, 16 : 16 + bottom]
    cols = slice(_POINT_COL - top, _POINT_COL + bottom + 2)
    mask = (negative * 17 + n_int) * 22 + n_frac
    text &= _KEEP[:, cols].take(mask, axis=0)
    text |= _FILL[:, cols].take(mask, axis=0)
    return text


#: what `open_output` writes over an existing file's last byte before any
#: new byte; no output of the package ends in it
STALE_MARK = b"\0"


@contextmanager
def open_output(path, newline: str | None = None) -> Iterator[TextIO]:
    """A UTF-8 text file open for writing at `path`, as `open(path, "w",
    newline=newline)` gives, except that an existing file keeps its bytes
    until they are overwritten, its last byte is `STALE_MARK` until the new
    bytes reach it, and it is cut to the written length on exit. Hard
    links, symlinks and the file's permissions are kept as `open` keeps
    them."""
    with open(
        path, "w", encoding="utf-8", newline=newline,
        opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666),
    ) as fh:
        fd = fh.fileno()
        st = os.fstat(fd)
        regular = stat.S_ISREG(st.st_mode)
        if regular and st.st_size:
            os.pwrite(fd, STALE_MARK, st.st_size - 1)
        try:
            yield fh
        finally:
            if regular:
                try:
                    fh.flush()
                finally:
                    # at the descriptor's offset, which counts the bytes the
                    # system took even where the flush failed partway
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


#: why a reader refuses a file that `ends_unfinished`, after its path
UNFINISHED = (
    "was not written to its end: it ends in the NUL byte that an overwrite "
    "stopped midway leaves, after an older file's tail"
)


def ends_unfinished(path) -> bool:
    """Whether the file at `path` ends in `STALE_MARK`: an overwrite by
    `open_output` stopped before its end and left an older file's tail.
    Anything but a regular file, which the opener never marks, is not
    opened, so that a FIFO's one reader is not used up."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return False
    with open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        if not size:
            return False
        fh.seek(size - 1)
        return fh.read(1) == STALE_MARK
