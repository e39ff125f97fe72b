"""Lossless PGM (portable graymap) reader and writer.

Supports the 8-bit P2 (ASCII) and P5 (binary) variants with `#` comments in
the header. Encoding and decoding are bit-exact: the P2 and P5 encodings of
the same raster decode to identical arrays, and save -> load is the identity.
"""

import contextlib
import os
import re

import numpy as np

from .validation import check_image_u8


_WHITESPACE = b" \t\r\n\x0b\x0c"  # the bytes that bytes.split() splits on

# One header token after any whitespace and `#` comments. A comment is pinned
# to the end of its line (or of the data), so every repeated piece starts with
# a byte no other piece can start with: a failing match backtracks in linear
# time instead of trying every way to split a run of comments.
_TOKEN = re.compile(rb"(?:[ \t\r\n\x0b\x0c]|#[^\n]*(?![^\n]))*([^ \t\r\n\x0b\x0c#]+)")
_COMMENT = re.compile(rb"#[^\n]*")


class PgmError(ValueError):
    """Raised for any malformed or unsupported PGM stream."""


def load_pgm(data: bytes) -> np.ndarray:
    """Decode a P2 or P5 PGM byte stream into a uint8 (height, width) array.

    Raises PgmError with a distinct message for: unsupported magic number,
    zero dimensions, maxval out of range, a P5 maxval not followed by one
    whitespace byte, samples above maxval, truncated sample data, and data
    left over after the raster (for P2, anything but whitespace and comments).
    """
    end = 0

    def field(what):
        nonlocal end
        match = _TOKEN.match(data, end)
        if match is None:
            raise PgmError(f"truncated header: missing {what}")
        end = match.end()
        return match[1]

    def int_field(what):
        token = field(what)
        try:
            return int(token)
        except ValueError:
            raise PgmError(f"invalid {what}: {token!r}") from None

    magic = field("magic number")
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"unsupported magic number {magic!r}; expected P2 or P5")
    width = int_field("width")
    height = int_field("height")
    if width < 1 or height < 1:
        raise PgmError(f"zero or negative dimension: {width}x{height}")
    maxval = int_field("maxval")
    if maxval < 1 or maxval > 255:
        raise PgmError(f"maxval {maxval} out of supported range [1, 255]")

    if magic == b"P5":
        # Exactly one whitespace byte separates the maxval from the raster.
        separator = data[end:end + 1]
        if len(separator) != 1 or separator not in _WHITESPACE:
            raise PgmError(f"maxval must be followed by one whitespace byte, got {separator!r}")
        body = data[end + 1:]
    else:
        body = _COMMENT.sub(b"", data[end:]).split()
    count = width * height
    if len(body) < count:
        raise PgmError(f"truncated sample data: expected {count} samples, got {len(body)}")
    # Only whitespace and comments may follow the last P2 sample. A CRLF after
    # a P5 maxval leaves its LF as one byte too many; decoding it would shift
    # the whole raster by one sample.
    if len(body) > count:
        raise PgmError(f"trailing data: expected {count} samples, got {len(body)}")
    if magic == b"P5":
        samples = np.frombuffer(body, dtype=np.uint8)
    else:
        try:
            samples = np.array(list(map(int, body)))
        except ValueError as exc:
            raise PgmError(f"invalid ASCII sample: {exc}") from None
    # Ints too large for int64 make an object array, which fails here too.
    low, high = samples.min(), samples.max()
    if low < 0 or high > maxval:
        raise PgmError(f"sample {low if low < 0 else high} out of range [0, {maxval}]")
    return samples.astype(np.uint8, copy=False).reshape(height, width)


def save_pgm(img: np.ndarray, binary: bool = True) -> bytes:
    """Encode a uint8 raster as a PGM byte stream (P5 if binary, else P2)."""
    arr = check_image_u8(img)
    height, width = arr.shape
    if binary:
        return b"P5\n%d %d\n255\n" % (width, height) + arr.tobytes()
    lines = [b"P2", b"%d %d" % (width, height), b"255"]
    lines.extend(b" ".join(b"%d" % v for v in row) for row in arr)
    return b"\n".join(lines) + b"\n"


def read_pgm(path) -> np.ndarray:
    """Load a PGM file from disk."""
    with open(path, "rb") as fh:
        return load_pgm(fh.read())


def write_pgm(path, img: np.ndarray, binary: bool = True):
    """Write a raster to disk as PGM, replacing any file at `path` whole."""
    write_atomically(path, save_pgm(img, binary=binary))


def write_atomically(path, data: bytes):
    """Write `data` to `<path>.<pid>.tmp` in the target directory, then
    rename it over `path`, so a failed write leaves any previous file intact.

    The temp file is opened like `path` would be, so it gets the umask's
    mode, and it is deleted on failure. Its name never ends in `.pgm`, so
    pair discovery ignores one that a killed process left behind. There is
    no fsync: this guards against a crashing process, not a power cut. An
    OSError about the temp file names `path` instead.
    """
    target = os.fsdecode(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, target) from exc
        raise
