"""PGM codec tests: bit-exact decoding, round-trips, and distinct errors."""

import numpy as np
import pytest

from momentfuse.pgm import PgmError, load_pgm, read_pgm, save_pgm, write_pgm


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
