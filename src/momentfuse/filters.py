"""3x3 masks, their application, and the high-boost preprocessing mask.

The default preprocessing mask is center-weighted with eight -1 neighbors and
a 1/9 scale factor. With the default center weight of 17.9 the mask has a DC
gain of (17.9 - 8) / 9 = 1.1, so it amplifies fine detail while keeping a
scaled copy of the smooth content: flat regions come out multiplied by 1.1.
"""

from dataclasses import dataclass

import numpy as np

from .image import correlate
from .validation import check_image_float, check_image_u8, check_real

DEFAULT_CENTER_WEIGHT = 17.9
# The largest |center| of `high_boost_mask`, far above the 8 to 40 that
# fusion is tried with; it keeps every filtered sample and moment finite.
MAX_CENTER = 1e6


@dataclass(frozen=True, eq=False)
class Kernel3:
    """A 3x3 mask with a scalar factor applied after the weighted sum.

    Frozen, with a read-only float64 copy of the coefficients, so no mask
    changes after its checks; the caller's array stays its own. Masks
    compare and hash by identity, as the fusers do: a field-wise == would
    take the truth of an array comparison.
    """

    coeffs: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=np.float64)
        if coeffs.shape != (3, 3):
            raise ValueError(f"kernel must be 3x3, got {coeffs.shape}")
        check_real(self.scale, "scale")
        if not (np.all(np.isfinite(coeffs)) and np.isfinite(self.scale)):
            raise ValueError("kernel coefficients and scale must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def dc_gain(self) -> float:
        """Response to a constant image: coefficient sum times scale."""
        return float(self.coeffs.sum() * self.scale)


def high_boost_mask(center: float = DEFAULT_CENTER_WEIGHT) -> Kernel3:
    """The default fusion preprocessing mask: -1 neighbors around a boosted
    center, scaled by 1/9.

    A center that is a bool or not a real number, or whose |center| is
    above MAX_CENTER, raises ValueError. Within the bound, a filtered
    uint8 sample is at most (1e6 + 8) * 255 / 9 < 3e7 in magnitude, so a
    local moment of them, below 1e20 times that (see
    `fusion._moment_weights`), is below 3e27: finite by far.
    """
    coeffs = np.full((3, 3), -1.0)
    coeffs[1, 1] = check_real(center, "center")
    if abs(coeffs[1, 1]) > MAX_CENTER:  # a NaN goes on to Kernel3's finiteness check
        raise ValueError(f"center must be in [-{MAX_CENTER}, {MAX_CENTER}], got {center}")
    return Kernel3(coeffs, scale=1.0 / 9.0)


def identity_kernel() -> Kernel3:
    """Kernel whose response equals its input exactly."""
    coeffs = np.zeros((3, 3))
    coeffs[1, 1] = 1.0
    return Kernel3(coeffs, scale=1.0)


def convolve3(img: np.ndarray, kernel: Kernel3) -> np.ndarray:
    """Apply a 3x3 mask to a float raster under replicate padding.

    out(r, c) = scale * sum_{dr,dc in {-1,0,1}} coeffs(dr, dc) * padded(r+dr, c+dc)

    The mask is applied as written (correlation); output has the input's
    shape and is not clamped, so samples may be negative or exceed 255.
    """
    out = correlate(check_image_float(img), kernel.coeffs)
    out *= kernel.scale
    return out


def preprocess(img: np.ndarray, center: float = DEFAULT_CENTER_WEIGHT) -> np.ndarray:
    """Widen an 8-bit source to float and apply the high-boost mask.

    The result is the unclamped filtered raster every downstream saliency
    computation works on.
    """
    # The uint8 samples widen as they are copied into the padded buffer,
    # and a widened uint8 raster is finite, so the mask skips convolve3's scan.
    mask = high_boost_mask(center)
    out = correlate(check_image_u8(img), mask.coeffs)
    out *= mask.scale
    return out
