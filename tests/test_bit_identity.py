"""Bit-identity guard: SHA-256 digests of every stencil output, and of the
`run_pair` metric records, on one fixed non-square synthetic pair.

The oracle tests elsewhere compare against tolerances, so a change in
summation order would pass them. These digests pin the exact bytes; a
refactor that changes any last bit of a filtered raster, moment map, Sobel
map, blur, fused result or metric record fails here.
"""

import hashlib

import numpy as np
import pytest

from momentfuse.batch import run_pair
from momentfuse.filters import preprocess
from momentfuse.fusion import MomentFuser, local_moment_map
from momentfuse.image import widen
from momentfuse.metrics import sobel_edges
from momentfuse.synthetic import gaussian_blur_float, synthesize_pairs

EXPECTED = {
    "preprocess":
        "9cc442eeaa88b97836e40a97d1f6f60273d9b02dc192fe511f4c7848ee65b2a5",
    "moment_p1_q1_w3_abs":
        "635bc0ad1b27b2edc01acba7ab228fb4cdf7b1cd2f9001c49e82866101a4578d",
    "moment_p1_q1_w3_signed":
        "996bc5fb1ddcfd8d7f4bb3de9cf47f7c1e9b2599d6e23e5a314c7f6188cc5ef9",
    "moment_p0_q0_w3_abs":
        "2dc0bc2ab704c19597fa0cc8bd468525db1ae572412a355a2aca6735207676d2",
    "moment_p0_q0_w3_signed":
        "0d7dffcd90d79696e2577c6f9cd0c23eabc16df23f7230d4dd5cefa4ba703508",
    "moment_p2_q3_w5_abs":
        "45a7334c38e3eef0eb07e8387db2f8daf2ffda7d67631498cd0244b73ee4df9d",
    "moment_p2_q3_w5_signed":
        "c64081f89383e9727d423dc4af97a565fa0500b397fc75a802dd84ac7fec88d2",
    "sobel_strength":
        "643451781506cee341801a29177c223fe16ee8d6a77ef80cc6e14730ba8b80de",
    "sobel_orientation":
        "622d3fd35d937011105cdea2e413aa1004cad3c5cf9803f731fcaf9f0a416c35",
    "gaussian_blur_1.3":
        "1c6eb1a5b687c0c1277c1cd92bd12624a4d0c347fb56dfe4c92b1cd8fb596900",
    "fuse_fused_f":
        "fee7cd5d5cd356a77c05c33c8187ac47373d28ca8381053f7a3331ad162f643e",
    "fuse_decision":
        "89246e20b2d6f3555708d14e25f8a6455f8f13c2b6922e6c96318769e9f20f08",
}

# SHA-256 of repr([(method, record) for every run_pair outcome]).
RUN_PAIR_RECORDS = "afafcc649fa3edcb26846a354525143550dc4c900aa2df148bf0a0527a2e550f"


def _digest(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    header = f"{arr.dtype.str}{arr.shape}".encode()
    return hashlib.sha256(header + arr.tobytes()).hexdigest()


def _pair():
    _, pair = synthesize_pairs(1, sigma=2.0, seed=11, height=67, width=70)[0]
    return pair.a, pair.b


def _records_digest() -> str:
    records = repr([(o.method, o.record) for o in run_pair(*_pair())])
    return hashlib.sha256(records.encode()).hexdigest()


def _outputs() -> dict:
    a, b = _pair()
    filtered = preprocess(a)
    out = {"preprocess": filtered}
    for p, q, window in ((1, 1, 3), (0, 0, 3), (2, 3, 5)):
        for magnitude, tag in ((True, "abs"), (False, "signed")):
            out[f"moment_p{p}_q{q}_w{window}_{tag}"] = local_moment_map(
                filtered, p, q, window, magnitude)
    edges = sobel_edges(a)
    out["sobel_strength"] = edges.strength
    out["sobel_orientation"] = edges.orientation
    out["gaussian_blur_1.3"] = gaussian_blur_float(widen(a), 1.3)
    result = MomentFuser().fuse(a, b)
    out["fuse_fused_f"] = result.fused_f
    out["fuse_decision"] = result.decision
    return out


@pytest.fixture(scope="module")
def outputs():
    return _outputs()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_bytes_unchanged(outputs, name):
    assert _digest(outputs[name]) == EXPECTED[name]


def test_run_pair_records_unchanged():
    assert _records_digest() == RUN_PAIR_RECORDS


if __name__ == "__main__":
    for key, value in _outputs().items():
        print(f'    "{key}": "{_digest(value)}",')
    print(f'RUN_PAIR_RECORDS = "{_records_digest()}"')
