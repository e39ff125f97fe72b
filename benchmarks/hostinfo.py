"""The environment recorded next to every result. Reads /sys, writes nothing."""

import glob
import os
import platform

import numpy as np

BANDWIDTH_NOTE = ("memory bandwidth not measured: the last-level cache is large enough "
                  "that an array of 4x its size would not fit the run's time budget")


def _read(path):
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_caches():
    """{'L1d': '48K', 'L2': '2048K', ...} for cpu0, from sysfs."""
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(index, f)) for f in ("level", "type", "size"))
        if level and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[f"L{level}{suffix}"] = size
    return caches


def cache_bytes(text):
    if not text:
        return None
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def _blas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except (TypeError, KeyError):
        return None


def environment(workload=None):
    caches = cpu_caches()
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "memory_bandwidth": BANDWIDTH_NOTE,
    }
    if workload is not None:
        l2 = cache_bytes(caches.get("L2"))
        side = workload.size
        env["arrays"] = {
            "u8_bytes": side * side,
            "float64_bytes": 8 * side * side,
            "l2_bytes": l2,
            "float64_over_l2": 8 * side * side / l2 if l2 else None,
        }
    return env
