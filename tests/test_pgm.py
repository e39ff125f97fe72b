"""PGM codec tests: bit-exact decoding, round-trips, and distinct errors."""

import os
import stat
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import momentfuse
from momentfuse.pgm import _WHITESPACE, PgmError, load_pgm, read_pgm, save_pgm, write_pgm


def test_decode_p5_minimal():
    data = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])
    img = load_pgm(data)
    assert img.dtype == np.uint8
    assert img.shape == (2, 2)
    assert img.tolist() == [[0, 255], [128, 64]]


def test_decode_p2_equals_p5():
    p5 = load_pgm(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    p2 = load_pgm(b"P2\n2 2\n255\n0 255\n128 64\n")
    assert np.array_equal(p5, p2)


def test_header_comments_allowed():
    data = b"P5\n# a comment\n2 # trailing\n2\n# another\n255\n" + bytes([1, 2, 3, 4])
    img = load_pgm(data)
    assert img.tolist() == [[1, 2], [3, 4]]


def test_p2_comments_between_samples():
    data = b"P2\n2 2\n255\n1 2 # comment\n3 4\n"
    assert load_pgm(data).tolist() == [[1, 2], [3, 4]]


def test_maxval_below_255_used_as_is():
    img = load_pgm(b"P5\n2 1\n100\n" + bytes([0, 100]))
    assert img.tolist() == [[0, 100]]


def test_reject_samples_above_maxval():
    with pytest.raises(PgmError, match="range"):
        load_pgm(b"P5\n2 1\n100\n" + bytes([200, 1]))
    with pytest.raises(PgmError, match="range"):
        load_pgm(b"P2\n2 1\n100\n200 1\n")


def test_reject_p5_maxval_without_single_whitespace():
    # The comment bytes must not be decoded as the raster.
    with pytest.raises(PgmError, match="whitespace"):
        load_pgm(b"P5\n2 1\n255#c\n\x01\x02")


def test_reject_p5_bytes_after_raster():
    # After a CRLF the CR is the single separator, so the LF would be decoded
    # as the first sample and the raster shifted: [[10, 1]], not [[1, 2]].
    with pytest.raises(PgmError, match="trailing"):
        load_pgm(b"P5\n2 1\n255\r\n\x01\x02")
    with pytest.raises(PgmError, match="trailing"):
        load_pgm(b"P5\n2 1\n255\n\x01\x02\n")


def test_reject_p2_samples_after_raster():
    # Only whitespace and comments may follow the last ASCII sample; extra
    # samples or junk must not be dropped silently.
    for data in (b"P2\n2 2\n255\n1 2 3 4 5 6\n", b"P2\n2 1\n255\n1 2 junk\n",
                 b"P2\n2 1\n255\n1 2 # end\n3\n"):
        with pytest.raises(PgmError, match="trailing"):
            load_pgm(data)
    assert np.array_equal(load_pgm(b"P2\n2 1\n255\n1 2 \n# end\n\t\n"), [[1, 2]])


def test_reject_p6_magic():
    with pytest.raises(PgmError, match="magic"):
        load_pgm(b"P6\n1 1\n255\n" + bytes([1, 2, 3]))


def test_reject_maxval_over_255():
    with pytest.raises(PgmError, match="maxval"):
        load_pgm(b"P5\n1 1\n65535\n" + bytes([0, 0]))


def test_reject_truncated_raster():
    with pytest.raises(PgmError, match="truncated"):
        load_pgm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
    with pytest.raises(PgmError, match="truncated"):
        load_pgm(b"P2\n2 2\n255\n1 2 3\n")


def test_reject_zero_dimension():
    with pytest.raises(PgmError, match="dimension"):
        load_pgm(b"P5\n0 2\n255\n")
    with pytest.raises(PgmError, match="dimension"):
        load_pgm(b"P2\n2 0\n255\n")


def test_reject_bad_ascii_sample():
    with pytest.raises(PgmError, match="sample"):
        load_pgm(b"P2\n1 1\n255\nxyz\n")
    with pytest.raises(PgmError, match="range"):
        load_pgm(b"P2\n1 1\n255\n300\n")


def _decoded(data):
    try:
        return load_pgm(data).tolist()
    except PgmError:
        return None


def test_whitespace_is_what_bytes_split_splits_on():
    # The header regex and the P2 body's bytes.split() must separate tokens
    # on exactly the same bytes.
    assert {b for b in range(256) if len((b"1%c1" % b).split()) == 2} == set(_WHITESPACE)
    for b in range(256):
        separates = b in _WHITESPACE
        assert _decoded(b"P2%c1 1 1 1" % b) == ([[1]] if separates else None)
        assert _decoded(b"P2 2 1 1 1%c1" % b) == ([[1, 1]] if separates else None)


# Exit 0 if the PGM stream on stdin raises PgmError, else 1.
_DECODE_STDIN = textwrap.dedent("""
    import sys
    from momentfuse.pgm import PgmError, load_pgm
    try:
        load_pgm(sys.stdin.buffer.read())
    except PgmError:
        sys.exit(0)
    sys.exit(1)
""")


@pytest.mark.parametrize("data", [
    b"P2" + b"# " * 5000,
    b"P2 1 1" + b" " * 10**6,
    b"P5 " + b"#\n" * 10**5,
    b"P2 1 1 255 " + b"#" * 10**6,
], ids=["comment-run", "space-run", "comment-lines", "comment-body"])
def test_adversarial_streams_fail_in_linear_time(data):
    # A regex that backtracks exponentially hangs rather than fails, so each
    # stream is decoded in a subprocess that the timeout ends.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(momentfuse.__file__)))
    proc = subprocess.run([sys.executable, "-c", _DECODE_STDIN], input=data, env=env,
                          capture_output=True, timeout=10)
    assert proc.returncode == 0, proc.stderr


def test_roundtrip_1x1():
    img = np.array([[7]], dtype=np.uint8)
    assert np.array_equal(load_pgm(save_pgm(img)), img)


def test_roundtrip_p2_ascii():
    img = np.array([[0, 255], [128, 64]], dtype=np.uint8)
    encoded = save_pgm(img, binary=False)
    assert encoded.startswith(b"P2")
    assert np.array_equal(load_pgm(encoded), img)


def test_roundtrip_random_images():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = int(rng.integers(1, 40))
        w = int(rng.integers(1, 40))
        img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        assert np.array_equal(load_pgm(save_pgm(img, binary=True)), img)
        assert np.array_equal(load_pgm(save_pgm(img, binary=False)), img)
    big = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
    assert np.array_equal(load_pgm(save_pgm(big)), big)


def test_p5_raster_bytes_may_look_like_whitespace():
    # Sample values 10 and 35 are '\n' and '#': the binary raster must not be
    # tokenized like the header.
    img = np.array([[10, 35], [32, 13]], dtype=np.uint8)
    assert np.array_equal(load_pgm(save_pgm(img)), img)


def test_file_roundtrip(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_write_pgm_replaces_whole_file_with_umask_mode(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.zeros((2, 2), dtype=np.uint8))
    write_pgm(path, np.ones((1, 3), dtype=np.uint8))
    assert np.array_equal(read_pgm(path), np.ones((1, 3)))
    assert os.listdir(tmp_path) == ["img.pgm"]  # no temp file left behind
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("target", ["missing/img.pgm", "taken"])
def test_failed_write_pgm_names_its_target(tmp_path, target):
    # The temp file cannot be opened in a missing directory, and cannot
    # replace a directory.
    (tmp_path / "taken").mkdir()
    path = str(tmp_path / target)
    with pytest.raises(OSError) as raised:
        write_pgm(path, np.zeros((2, 2), dtype=np.uint8))
    assert raised.value.filename == path and raised.value.filename2 is None
    assert str(raised.value).endswith(f": {path!r}")
    assert sorted(os.listdir(tmp_path)) == ["taken"]
    assert os.listdir(tmp_path / "taken") == []


# The decoder as it was before the token regex: a byte-at-a-time tokenizer
# and a per-sample P2 loop, kept verbatim as the oracle for the fuzz test.
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


def reference_load_pgm(data: bytes) -> np.ndarray:
    """Decode a P2 or P5 PGM byte stream into a uint8 (height, width) array.

    Raises PgmError with a distinct message for: unsupported magic number,
    zero dimensions, maxval out of range, a P5 maxval not followed by one
    whitespace byte, samples above maxval, truncated sample data, and data
    left over after the raster (for P2, anything but whitespace and comments).
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
            # Only whitespace and comments may follow the last sample.
            if len(values) == count:
                raise PgmError(f"trailing data: expected {count} ASCII samples, got more: {tok!r}")
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


_rasters = st.tuples(st.integers(1, 20), st.integers(1, 20)).flatmap(
    lambda shape: arrays(np.uint8, shape))


def _edit(data, position, chunk, action):
    """`data` kept, cut at, or with `chunk` inserted at or written over `position`."""
    i = position % (len(data) + 1)
    if action == "cut":
        return data[:i]
    if action == "insert":
        return data[:i] + chunk + data[i:]
    if action == "overwrite":
        return data[:i] + chunk + data[i + len(chunk):]
    return data


# Valid P5 and P2 streams, some with one edit anywhere: header or raster.
_edited = st.builds(_edit, st.builds(save_pgm, _rasters, st.booleans()),
                    st.integers(0, 1 << 12), st.binary(min_size=1, max_size=3),
                    st.sampled_from(["keep", "cut", "insert", "overwrite"]))
# Header-shaped streams: a P5 or P2 magic, up to three fields that are mostly
# small numbers, each after a separator, then an arbitrary or ASCII body.
_fields = st.one_of(st.integers(-1, 6), st.sampled_from([0, 1, 254, 255, 256])).map(
    lambda v: b"%d" % v) | st.binary(max_size=3)
_separators = st.sampled_from([b" ", b"\n", b"\r\n", b"\t", b"\n#c\n", b""])
_bodies = st.binary(max_size=48) | st.lists(
    st.integers(0, 300).map(lambda v: b"%d" % v), max_size=40).map(b" ".join)
_headed = st.builds(
    lambda magic, fields, separators, body: magic + b"".join(
        sep + field for sep, field in zip(separators, fields)) + body,
    st.sampled_from([b"P5", b"P2"]), st.lists(_fields, max_size=3),
    st.lists(_separators, min_size=3, max_size=3), _separators.flatmap(
        lambda sep: _bodies.map(lambda body: sep + body)))


@settings(max_examples=1000, deadline=None)
@given(data=st.binary(max_size=64) | _headed | _edited)
@example(data=b"P5 2 1 255 \x01\x02")
@example(data=b"P2 2 1 3 0 3")
@example(data=b"P5 2 1 255\r\n\x01\x02")
@example(data=b"P2 2 1 255 1#c\n2")
@example(data=b"P2 2 1 255 -1 +5")
@example(data=b"P2 1 1 255 x 5")
@example(data=b"P2 2 1 255 99999999999999999999 007")
def test_decoder_yields_uint8_raster_or_pgm_error(data):
    # The first fault named may differ from the reference's, but the decoder
    # fails exactly when it does and otherwise returns the same raster.
    try:
        expected = reference_load_pgm(data)
    except PgmError:
        with pytest.raises(PgmError):
            load_pgm(data)
        return
    img = load_pgm(data)
    assert isinstance(img, np.ndarray)
    assert img.dtype == np.uint8 and img.ndim == 2 and img.size >= 1
    assert np.array_equal(img, expected)


@settings(max_examples=200, deadline=None)
@given(img=_rasters, binary=st.booleans())
def test_save_then_load_is_the_identity(img, binary):
    decoded = load_pgm(save_pgm(img, binary=binary))
    assert decoded.dtype == np.uint8 and np.array_equal(decoded, img)
