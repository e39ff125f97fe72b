"""Lossless PGM (portable graymap) reader and writer.

Supports the 8-bit P2 (ASCII) and P5 (binary) variants with `#` comments in
the header. Encoding and decoding are bit-exact: the P2 and P5 encodings of
the same raster decode to identical arrays, and save -> load is the identity.
"""

import contextlib
import os

import numpy as np

from .validation import check_image_u8


_WHITESPACE = b" \t\r\n\x0b\x0c"


class PgmError(ValueError):
    """Raised for any malformed or unsupported PGM stream."""


def _tokens(data: bytes):
    """Yield (token, end_offset) over whitespace-separated header tokens,
    skipping `#` comments that run to end of line."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i:i + 1]
        if c in _WHITESPACE:
            i += 1
        elif c == b"#":
            j = data.find(b"\n", i)
            i = n if j < 0 else j + 1
        else:
            j = i
            while j < n and data[j:j + 1] not in _WHITESPACE + b"#":
                j += 1
            yield data[i:j], j
            i = j


def load_pgm(data: bytes) -> np.ndarray:
    """Decode a P2 or P5 PGM byte stream into a uint8 (height, width) array.

    Raises PgmError with a distinct message for: unsupported magic number,
    zero dimensions, maxval out of range, a P5 maxval not followed by one
    whitespace byte, samples above maxval, truncated sample data, and bytes
    left over after a P5 raster.
    """
    toks = _tokens(data)

    def next_token(what):
        try:
            return next(toks)
        except StopIteration:
            raise PgmError(f"truncated header: missing {what}") from None

    def next_int(what):
        tok, end = next_token(what)
        try:
            return int(tok), end
        except ValueError:
            raise PgmError(f"invalid {what}: {tok!r}") from None

    magic, _ = next_token("magic number")
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"unsupported magic number {magic!r}; expected P2 or P5")
    width, _ = next_int("width")
    height, _ = next_int("height")
    if width < 1 or height < 1:
        raise PgmError(f"zero or negative dimension: {width}x{height}")
    maxval, header_end = next_int("maxval")
    if maxval < 1 or maxval > 255:
        raise PgmError(f"maxval {maxval} out of supported range [1, 255]")

    count = width * height
    if magic == b"P5":
        # Exactly one whitespace byte separates the maxval from the raster.
        separator = data[header_end:header_end + 1]
        if len(separator) != 1 or separator not in _WHITESPACE:
            raise PgmError(f"maxval must be followed by one whitespace byte, got {separator!r}")
        raster = data[header_end + 1:]
        if len(raster) < count:
            raise PgmError(
                f"truncated sample data: expected {count} bytes, got {len(raster)}"
            )
        # A CRLF after the maxval leaves its LF here as one byte too many;
        # decoding it would shift the whole raster by one sample.
        if len(raster) > count:
            raise PgmError(
                f"trailing data: expected {count} raster bytes, got {len(raster)}"
            )
        samples = np.frombuffer(raster, dtype=np.uint8)
        if samples.max() > maxval:
            raise PgmError(f"sample {samples.max()} out of range [0, {maxval}]")
    else:
        values = []
        for tok, _ in toks:
            if len(values) == count:
                break
            try:
                v = int(tok)
            except ValueError:
                raise PgmError(f"invalid ASCII sample {tok!r}") from None
            if v < 0 or v > maxval:
                raise PgmError(f"ASCII sample {v} out of range [0, {maxval}]")
            values.append(v)
        if len(values) < count:
            raise PgmError(
                f"truncated sample data: expected {count} samples, got {len(values)}"
            )
        samples = np.array(values, dtype=np.uint8)

    return samples.reshape(height, width)


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
    no fsync: this guards against a crashing process, not a power cut.
    """
    tmp = f"{os.fsdecode(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
