"""CSV rows as bytes, from a structured array, with no Python string per cell.

block_rows lays out the rows of a table for cli.write_csv, which adds the
"# " header lines and writes the file. A number cell holds the bytes of
%.17g. Where %.17g prints fixed notation (finite |x| in [1e-4, 1e17)),
numpy computes them: with k the decimal exponent, the 17 digits are
|x|·10**(16-k) rounded half to even, and that product is exact as a sum of
two doubles (Dekker's TwoProduct), so correctly rounded IEEE arithmetic
yields the digits %.17g prints, on any CPU (see _number_cells). %.17g
itself formats every other cell (zeros, subnormals, exponent notation, inf,
nan), an int cell is formatted as the float %.17g converts it to, and a
string cell is bytes (a str column UTF-8 encoded once, into a numpy bytes
array), so it cannot end in NUL, which numpy's bytes arrays drop. Each
cell is one run of bytes in a fixed-width slot, its separator then its
text, so a chunk of rows comes out of one boolean compress that copies one
run per cell. Repeated cells are formatted once (see block_rows): a column
whose blocks are bit-identical (m, il_traditional) for all blocks, and one
that changes at few rows (n, the epochs table's epoch, a flat DRS series)
once per run.
"""

import numpy as np


# %.17g prints a finite x in fixed notation when its decimal exponent k is in
# [-4, 16], which holds for |x| in [1e-4, 1e17): the double 1e-4 lies above
# 10**-4 and the double below it under, and 1e17 is exact. 10**p is an exact
# double for 0 <= p <= 22, so |x|·10**(16-k) is exactly hi + lo (Dekker's
# TwoProduct).
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter


def _halves(v):
    """(hi, lo): v split exactly into two doubles of at most 26 significant bits."""
    c = _SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


_POW10 = np.array([float(10**p) for p in range(21)])
_POW10_HI, _POW10_LO = _halves(_POW10)
# for doubles of one sign, the order of the bit patterns is the order of the values
_FIXED_BITS = np.array([1e-4, 1e17]).view(np.uint64)
_MAGNITUDE = np.uint64(2**63 - 1)
_ONE_BITS = np.array(1.0).view(np.uint64)


def _scaled(a, k):
    """(hi, lo) with hi = fl(a·10**(16-k)) and hi + lo equal to the product exactly."""
    p = 16 - k
    a_hi, a_lo = _halves(a)
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    hi = a * _POW10[p]
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _below(hi, lo):
    return (hi < 1e16) | ((hi == 1e16) & (lo < 0))


def _above(hi, lo):
    return (hi > 1e17) | ((hi == 1e17) & (lo >= 0))


# A cell's kept bytes are one run: its separator, then its text. A number
# cell is a slot of 32 bytes with d0, its first significant digit, at byte 7
# and d1..d16 as four words of _QUAD at bytes 8-23. Bytes 0-6 hold the
# prefix, right-aligned against d0: the separator, "-" for a negative x and
# for k < 0 "0." and -k-1 zeros. For k >= 0 the point goes after dk, at byte
# 8+k, and the digits after it move up one byte. A row of _KEEP, picked by
# (sign, k, significant digits), marks the run. Words are read as
# little-endian on any CPU.
_SLOT = 32
_WORD, _LONG = np.dtype("<u4"), np.dtype("<u8")
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUAD_BYTES = np.stack(np.meshgrid(_DIGIT, _DIGIT, _DIGIT, _DIGIT, indexing="ij"), axis=-1).reshape(-1, 4)
_QUAD = _QUAD_BYTES.view(_WORD)[:, 0]  # the four digits of 0..9999 as one word
_ZERO = (_QUAD_BYTES == ord("0")).view(np.uint8)
_TRAILING_ZEROS = _ZERO[:, 3] * (1 + _ZERO[:, 2] * (1 + _ZERO[:, 1] * (1 + _ZERO[:, 0])))


def _prefix(negative: int, k: int, d0: int) -> bytes:
    """Bytes 0-7 of a number slot: its prefix, right-aligned against d0."""
    return (b"," + b"-" * negative + (b"0." + b"0" * (-k - 1) if k < 0 else b"") + b"%d" % d0).rjust(8)


_PREFIX = np.frombuffer(  # indexed by (negative, k + 4, d0)
    b"".join(_prefix(negative, k, d0) for negative in range(2) for k in range(-4, 17) for d0 in range(10)), _LONG
)


def _keep_table() -> np.ndarray:
    """_KEEP indexed by (negative, k + 4, significant digits), flattened."""
    p = np.arange(_SLOT)
    negative = np.arange(2)[:, None, None, None]
    k = np.arange(-4, 17)[:, None, None]
    digits = np.arange(18)[:, None]
    first = np.where(k < 0, 5 + k, 6) - negative
    end = np.where(k < 0, 7 + digits, np.where(digits > k + 1, 8 + digits, 8 + k))
    return ((first <= p) & (p < end)).reshape(-1, _SLOT)


_KEEP = _keep_table()
# For k >= 0, bytes 8-31 as three words: the digits before the point, the
# point, and the digits after it (moved up one byte), indexed by k.
_AT = np.arange(_SLOT - 8) - np.arange(17)[:, None]  # bytes 8-31 less the point's byte 8+k, per k
_BEFORE = np.where(_AT[:, :16] < 0, 255, 0).astype(np.uint8).view(_LONG)  # bytes 24-31 are never before it
_AFTER = np.where(_AT > 0, 255, 0).astype(np.uint8).view(_LONG)
_POINT = np.where(_AT == 0, ord("."), 0).astype(np.uint8).view(_LONG)


def _text_cells(texts: np.ndarray):
    """(bytes, keep) of a 1-D numpy bytes (S) array: row i of the uint8
    cells is a separator, then texts[i], padded to a width of whole long
    words, and keep marks those bytes (numpy drops a cell's trailing NULs,
    so str_len is its length)."""
    size = texts.itemsize
    cells = np.zeros((texts.size, (size + 8) // 8 * 8), np.uint8)
    cells[:, 0] = ord(",")
    cells[:, 1 : size + 1] = np.ascontiguousarray(texts).view(np.uint8).reshape(texts.size, size)
    return cells, np.arange(cells.shape[1]) <= np.strings.str_len(texts)[:, None]


def _formatted_numbers(values: np.ndarray):
    """(cells, keep) of a column of numbers, as _number_cells fills them."""
    cells, keep = np.empty((values.size, _SLOT), np.uint8), np.empty((values.size, _SLOT), bool)
    _number_cells(values, cells, keep)
    return cells, keep


def _newline_separators(cells: np.ndarray, keep: np.ndarray):
    """Make the separator of each cell, the first byte of its run, a newline
    (the run starts in bytes 0-7)."""
    kept = keep.view(_LONG)[:, 0]
    cells.view(_LONG)[:, 0] ^= (kept & ~(kept << 8)) * (ord(",") ^ ord("\n"))


def _fixed_digits(x: np.ndarray):
    """(fixed, k, digits) of a float array: where fixed is True, %.17g
    prints x in fixed notation with decimal exponent k, and its 17
    significant digits are those of the int64 digits, in [1e16, 1e17).

    k = floor(log10|x|) is only an estimate, moved by one where the exact
    product |x|·10**(16-k) = hi + lo falls outside [1e16, 1e17). In that
    range hi is an even integer, so hi + rint(lo) rounds half to even as
    %.17g does. No double rounds up to 10**17 there: the nearest one below
    each power of ten from 1e-3 to 1e17 lies more than 8e-17 below it,
    relatively, and a carry would need 5e-18. Only correctly rounded IEEE
    operations decide the digits, so they do not depend on how np.log10
    rounds.
    """
    magnitude = x.view(np.uint64) & _MAGNITUDE
    fixed = (magnitude >= _FIXED_BITS[0]) & (magnitude < _FIXED_BITS[1])
    a = np.where(fixed, magnitude, _ONE_BITS).view(np.float64)  # other cells take 1.0
    k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    hi, lo = _scaled(a, k)
    step = _above(hi, lo).astype(np.intp) - _below(hi, lo)
    moved = np.flatnonzero(step)
    if moved.size:  # near a power of ten
        k[moved] = np.clip(k[moved] + step[moved], -4, 16)
        hi[moved], lo[moved] = _scaled(a[moved], k[moved])
        missed = moved[_below(hi[moved], lo[moved]) | _above(hi[moved], lo[moved])]
        fixed[missed] = False
        hi[missed], lo[missed] = 1e16, 0.0
    return fixed, k, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _number_cells(values: np.ndarray, cells: np.ndarray, keep: np.ndarray):
    """Write a separator and the %.17g text of each of values into the same
    row of cells (n, _SLOT) uint8, and mark those bytes, one run, in that
    row of keep (n, _SLOT) bool.

    An int column is formatted as float, which is how %.17g converts an int.
    A cell in fixed notation gets its digits from _fixed_digits; every other
    cell (zeros, subnormals, |x| < 1e-4 or >= 1e17, inf, nan, and any cell
    the exact path leaves over) is formatted by %.17g itself.
    """
    x = values.astype(float, copy=False)
    fixed, k, digits = _fixed_digits(x)
    lead, tail = np.divmod(digits, 10**16)
    high, low = np.divmod(tail, 10**8)
    quads = np.empty((x.size, 4), np.int64)
    quads[:, 0], quads[:, 1] = np.divmod(high, 10**4)
    quads[:, 2], quads[:, 3] = np.divmod(low, 10**4)
    form = np.signbit(x) * 21 + k + 4  # (negative, k + 4)
    longs = cells.view(_LONG)
    longs[:, 0] = _PREFIX.take(form * 10 + lead)
    cells.view(_WORD)[:, 2:6] = _QUAD.take(quads)
    zeros, last = _TRAILING_ZEROS.take(quads), quads == 0  # per quad, of the 16 digits after d0
    zeros = zeros[:, 3] + last[:, 3] * (zeros[:, 2] + last[:, 2] * (zeros[:, 1] + last[:, 1] * zeros[:, 0]))
    keep[:] = _KEEP.take(form * 18 + 17 - zeros, axis=0)
    at = np.flatnonzero(k >= 0)  # the cells whose point goes after dk
    if at.size:
        at = slice(None) if at.size == x.size else at  # no gather where every cell has one
        longs[at, 1:] = _point_after(longs[at, :3], k[at])
    rest = np.flatnonzero(~fixed)
    if rest.size:
        cells[rest], keep[rest] = _text_cells(np.array([b"%.17g" % v for v in x[rest].tolist()], f"S{_SLOT - 1}"))


def _point_after(longs: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Bytes 8-31, as three words, of slots whose bytes 0-23 are longs and
    whose point goes after dk."""
    after = longs >> 56  # each word's bytes one up, the top byte of the word below first
    after[:, :2] |= longs[:, 1:] << 8
    after &= _AFTER.take(k, axis=0)
    after |= _POINT.take(k, axis=0)
    after[:, :2] |= longs[:, 1:] & _BEFORE.take(k, axis=0)
    return after


_CHUNK_BYTES = 1 << 18  # slot bytes laid out at once, which bounds the writer's buffers


def block_rows(table: np.ndarray) -> list[np.ndarray]:
    """The CSV rows of a structured array of 8-byte numbers and strings (a
    bytes, numpy str or object-of-str column), as uint8 arrays whose
    concatenation is the rows' bytes: %.17g for a number (see _number_cells),
    the UTF-8 bytes for a string. A 2-D table is read as blocks of rows (a
    sweep: one block of m-grid rows per exponent), a 1-D one as one block.

    The rows are laid out a chunk at a time: each column's cells go into a
    (rows, columns, width) buffer, each cell one run of bytes, its separator
    then its text, and one boolean compress copies the runs. A row's newline
    is its first cell's separator, so a chunk drops its first row's and
    keeps one after its last row: each piece ends a row. A string column is
    laid out once, a separator before each cell. A number column whose blocks
    are bit-identical is formatted for the first block only; one whose value
    changes at under a quarter of its rows (row-major) once per run of equal
    cells, which each chunk gathers. Cells are compared on their bits, never
    with ==, because -0.0 and 0.0 print differently.
    """
    table = np.atleast_2d(table)
    blocks, size = table.shape
    names = table.dtype.names
    reused = {}  # column name -> (cells, keep, index of each row's cell given the row numbers)
    values = {}  # column name -> its cells in row order, formatted a chunk at a time
    for name in names:
        column = table[name]
        if column.dtype.kind in "OUS":
            texts = column.reshape(-1)
            if texts.dtype.kind != "S":
                texts = np.array([v.encode() for v in texts.tolist()], dtype="S")
            reused[name] = (*_text_cells(texts), lambda rows: rows)
            continue
        bits = column.view(np.uint64)
        if size and blocks > 1 and (bits == bits[0]).all():
            reused[name] = (*_formatted_numbers(column[0]), lambda rows: rows % size)
            continue
        column, bits = column.reshape(-1), bits.reshape(-1)
        changed = bits[1:] != bits[:-1]
        # Runs where under 1/4 of the rows change: 160k rows took 6.5-8 ms by runs with 1/64-1/8 changing,
        # 10 at 1/4, 14 at 3/8, 17 at 1/2, and 15-16 ms cell by cell (x86-64 Xeon, numpy 2.4, best of 15)
        if 4 * np.count_nonzero(changed) < bits.size:
            starts = np.flatnonzero(changed) + 1
            cells = _formatted_numbers(column[np.r_[0, starts]])
            reused[name] = (*cells, lambda rows, starts=starts: starts.searchsorted(rows, "right"))
        else:
            values[name] = column
    if names[0] in reused:  # its cells start rows
        _newline_separators(*reused[names[0]][:2])
    # a width of whole long words, so that a number slot can be written as words
    width = max([_SLOT, *(cells.shape[1] for cells, _, _ in reused.values())])
    chunk = max(1, min(blocks * size, _CHUNK_BYTES // (len(names) * width)))
    # and one byte more, for the newline after a full chunk's last row
    room = chunk * len(names) * width + 1
    buffer, keep = np.empty(room, np.uint8), np.zeros(room, bool)
    texts = []
    for start in range(0, blocks * size, chunk):
        rows = np.arange(start, min(start + chunk, blocks * size))
        end = rows.size * len(names) * width
        out, out_keep = (a[:end].reshape(rows.size, len(names), width) for a in (buffer, keep))
        for j, name in enumerate(names):
            if name in reused:
                cells, kept, index = reused[name]
                picked, w = index(rows), cells.shape[1]
                out[:, j, :w], out_keep[:, j, :w] = cells.take(picked, axis=0), kept.take(picked, axis=0)
            else:
                _number_cells(values[name][start : start + rows.size], out[:, j, :_SLOT], out_keep[:, j, :_SLOT])
                if j == 0:
                    _newline_separators(out[:, 0, :_SLOT], out_keep[:, 0, :_SLOT])
        # each row's newline is its first cell's separator: the chunk drops its first and ends its last row
        out_keep[0, 0, out_keep[0, 0].argmax()] = False
        buffer[end], keep[end] = ord("\n"), True
        texts.append(buffer[: end + 1][keep[: end + 1]])
    return texts
