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
array), so it cannot end in NUL, which numpy's bytes arrays drop. Repeated
cells are formatted once (see block_rows): a column whose blocks are
bit-identical (m, il_traditional) for all blocks, and one that changes at
few rows (n, the epochs table's epoch, a flat DRS series) once per run.
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


# A number cell is a slot of 11 words, 44 bytes, that holds every byte its
# fixed notation can use: " -0.000", the 17 digits d0..d16, then ".   " and
# d1..d16 again. A row of _KEEP, picked by (sign, k, significant digits),
# marks the bytes the text uses: "-" for a negative x; for k >= 0 the digits
# d0..dk, then, while digits remain, "." and the rest from the second copy;
# for k < 0 "0.", -k-1 zeros and the significant digits.
_SLOT = 44
_SIGN_ZERO_POINT = np.frombuffer(b" -0.", np.uint32)[0]
_POINT = np.frombuffer(b".   ", np.uint32)[0]
_ZEROS_LEAD = np.array([b"000%d" % d for d in range(10)]).view(np.uint32)  # "000" + d0
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUAD_BYTES = np.stack(np.meshgrid(_DIGIT, _DIGIT, _DIGIT, _DIGIT, indexing="ij"), axis=-1).reshape(-1, 4)
_QUAD = _QUAD_BYTES.view(np.uint32)[:, 0]  # the four digits of 0..9999 as one word
_ZERO = (_QUAD_BYTES == ord("0")).view(np.uint8)
_TRAILING_ZEROS = _ZERO[:, 3] * (1 + _ZERO[:, 2] * (1 + _ZERO[:, 1] * (1 + _ZERO[:, 0])))


def _keep_table() -> np.ndarray:
    """_KEEP indexed by (negative, k + 4, significant digits), flattened."""
    p = np.arange(_SLOT)
    negative = np.arange(2)[:, None, None, None]
    k = np.arange(-4, 17)[:, None, None]
    digits = np.arange(18)[:, None]
    fraction = (digits > k + 1) & ((p == 24) | ((28 + k <= p) & (p < 27 + digits)))
    fixed_point = (k >= 0) & (((7 <= p) & (p < 8 + k)) | fraction)
    below_one = (k < 0) & (((2 <= p) & (p < 3 - k)) | ((7 <= p) & (p < 7 + digits)))
    return ((negative == 1) & (p == 1) | fixed_point | below_one).reshape(-1, _SLOT)


_KEEP = _keep_table()


def _text_cells(texts: np.ndarray):
    """(bytes, keep) of a 1-D numpy bytes (S) array: row i of the uint8
    cells is texts[i] padded with NULs to the itemsize, and keep marks its
    bytes (numpy drops a cell's trailing NULs, so str_len is its length)."""
    cells = np.ascontiguousarray(texts).view(np.uint8).reshape(texts.size, texts.itemsize)
    return cells, np.arange(texts.itemsize) < np.strings.str_len(texts)[:, None]


def _formatted_numbers(values: np.ndarray):
    """(cells, keep) of a column of numbers, as _number_cells fills them."""
    cells, keep = np.empty((values.size, _SLOT), np.uint8), np.empty((values.size, _SLOT), bool)
    _number_cells(values, cells, keep)
    return cells, keep


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
    """Write the %.17g text of each of values into the same row of cells
    (n, _SLOT) uint8, and mark its bytes in that row of keep (n, _SLOT) bool.

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
    words = cells.view(np.uint32)
    words[:, 0] = _SIGN_ZERO_POINT
    words[:, 1] = _ZEROS_LEAD.take(lead)
    words[:, 2:6] = words[:, 7:11] = _QUAD.take(quads)
    words[:, 6] = _POINT
    zeros, last = _TRAILING_ZEROS.take(quads), quads == 0  # per quad, of the 16 digits after d0
    zeros = zeros[:, 3] + last[:, 3] * (zeros[:, 2] + last[:, 2] * (zeros[:, 1] + last[:, 1] * zeros[:, 0]))
    keep[:] = _KEEP.take((np.signbit(x) * 21 + k + 4) * 18 + 17 - zeros, axis=0)
    rest = np.flatnonzero(~fixed)
    if rest.size:
        cells[rest], keep[rest] = _text_cells(np.array([b"%.17g" % v for v in x[rest].tolist()], f"S{_SLOT}"))


_CHUNK_BYTES = 1 << 18  # slot bytes laid out at once, which bounds the writer's buffers


def block_rows(table: np.ndarray) -> list[np.ndarray]:
    """The CSV rows of a structured array of 8-byte numbers and strings (a
    bytes, numpy str or object-of-str column), as uint8 arrays whose
    concatenation is the rows' bytes: %.17g for a number (see _number_cells),
    the UTF-8 bytes for a string. A 2-D table is read as blocks of rows (a
    sweep: one block of m-grid rows per exponent), a 1-D one as one block.

    The rows are laid out a chunk at a time: each column's cells go into a
    (rows, columns, width) buffer, a separator after each cell, and one
    boolean compress keeps the bytes the cells use. A string column is laid
    out once, as its bytes array's uint8 view. A number column whose blocks
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
        # Runs where under 1/4 of the rows change: 160k rows took 14-15 ms by runs with 1/64-1/8 changing,
        # 21 at 1/4, 25 at 3/8, 31 at 1/2, and 23-25 ms cell by cell (x86-64 Xeon, numpy 2.4, best of 15)
        if 4 * np.count_nonzero(changed) < bits.size:
            starts = np.flatnonzero(changed) + 1
            cells = _formatted_numbers(column[np.r_[0, starts]])
            reused[name] = (*cells, lambda rows, starts=starts: starts.searchsorted(rows, "right"))
        else:
            values[name] = column
    # a width of whole words, so that a number slot can be written as words
    width = -(-(max([_SLOT, *(cells.shape[1] for cells, _, _ in reused.values())]) + 1) // 4) * 4
    chunk = max(1, min(blocks * size, _CHUNK_BYTES // (len(names) * width)))
    buffer = np.empty((chunk, len(names), width), np.uint8)
    keep = np.zeros(buffer.shape, bool)  # bytes past a cell's slot stay False
    buffer[:, :, -1] = np.frombuffer(b"," * (len(names) - 1) + b"\n", np.uint8)
    keep[:, :, -1] = True
    texts = []
    for start in range(0, blocks * size, chunk):
        rows = np.arange(start, min(start + chunk, blocks * size))
        out, out_keep = buffer[: rows.size], keep[: rows.size]
        for j, name in enumerate(names):
            if name in reused:
                cells, kept, index = reused[name]
                picked, w = index(rows), cells.shape[1]
                out[:, j, :w], out_keep[:, j, :w] = cells.take(picked, axis=0), kept.take(picked, axis=0)
            else:
                _number_cells(values[name][start : start + rows.size], out[:, j, :_SLOT], out_keep[:, j, :_SLOT])
        texts.append(out[out_keep])
    return texts
