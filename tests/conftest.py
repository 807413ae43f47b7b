"""Session hooks: the report header names the BLAS kernel the tests ran on.

The exact golden digests hold on one OpenBLAS kernel only (ROADMAP item 13),
so a run that fails them should say which kernel it used.  The header reads
numpy's build record and asks the OpenBLAS library that numpy loaded for its
core; it imports no scipy.
"""

import ctypes

import numpy as np

CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename")


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its build record
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def openblas_core() -> str:
    try:
        with open("/proc/self/maps") as maps:  # the libraries this process has mapped
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in CORENAME_SYMBOLS:
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def pytest_report_header(config):
    return f"numpy BLAS: {blas_build()}; OpenBLAS core: {openblas_core()}"
