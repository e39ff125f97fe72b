"""Input validation helpers shared by every module.

Images are plain numpy arrays: 8-bit rasters are 2-D ``uint8`` arrays,
floating intermediates are 2-D ``float64`` arrays (unbounded, but always
finite). The helpers below enforce those contracts at API boundaries so the
numeric kernels can assume clean input.
"""

import numbers

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when two rasters that must be registered differ in shape."""


def _check_2d(arr: np.ndarray, name: str) -> np.ndarray:
    """Return arr if it is 2-D with both dims >= 1; raise ValueError if not."""
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (height, width), got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} has a zero dimension: {arr.shape}")
    return arr


def check_image_u8(img, name: str = "image") -> np.ndarray:
    """Validate an 8-bit grayscale raster.

    Accepts any integer array with values in [0, 255] and returns it as a
    contiguous uint8 array of shape (height, width) with both dims >= 1.
    """
    arr = _check_2d(np.asarray(img), name)
    if arr.dtype != np.uint8:
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"{name} must be an integer array, got dtype={arr.dtype}")
        if arr.min() < 0 or arr.max() > 255:
            raise ValueError(f"{name} has samples outside [0, 255]")
        arr = arr.astype(np.uint8)
    return np.ascontiguousarray(arr)


def check_image_float(img, name: str = "image") -> np.ndarray:
    """Validate a floating-point raster: 2-D, nonempty, all samples finite,
    of an integer or float dtype (`check_real_dtype`); return it as float64."""
    arr = check_real_dtype(np.asarray(img), name)
    arr = _check_2d(arr.astype(np.float64, copy=False), name)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite samples")
    return arr


def check_real_dtype(arr: np.ndarray, name: str) -> np.ndarray:
    """Return arr if its dtype is an integer or float one; raise ValueError
    if not. A cast to float64 would turn bool, complex (less its imaginary
    part) and text into numbers."""
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be an integer or float array, got dtype={arr.dtype}")
    return arr


def check_bool(value, name: str):
    """Return value if it is a bool or numpy bool; raise ValueError if not:
    any other value would pick a branch by its truth."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return value


def check_real(value, name: str):
    """Return value if it is a real number and not a bool; raise ValueError
    if not. numpy ints and floats pass; a string would be parsed by numpy."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def check_int(value, name: str):
    """Return value if it is an integer and not a bool; raise ValueError if
    not. numpy integers pass; a float would be truncated or rejected late."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def check_same_shape(a: np.ndarray, b: np.ndarray,
                     name_a: str = "first image", name_b: str = "second image"):
    """Require two rasters to be pixel-registered (identical shape)."""
    if a.shape != b.shape:
        raise ShapeMismatchError(
            f"{name_a} {a.shape} and {name_b} {b.shape} must have identical dimensions"
        )


def check_pair(a, b, name_a: str = "first source", name_b: str = "second source"):
    """Validate two 8-bit rasters of one shape; return each as `check_image_u8` does."""
    a, b = check_image_u8(a, name_a), check_image_u8(b, name_b)
    check_same_shape(a, b, name_a, name_b)
    return a, b
