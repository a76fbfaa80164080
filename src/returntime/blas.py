"""The OpenBLAS that numpy links, reached through ctypes.

Training holds OpenBLAS at one thread (`one_thread`), so that a trained model
does not depend on the host's thread count, and records which BLAS it ran on.
Where no OpenBLAS entry point is found, nothing is pinned and the record says
so. A different CPU can still select another OpenBLAS kernel (`core`), which
the record makes visible.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy as np

# (prefix, suffix) of the OpenBLAS symbols: the scipy-openblas build of numpy 2
# wheels, then the 64-bit-integer and plain builds of numpy 1.x wheels
_NAMINGS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


@functools.cache
def _openblas() -> tuple[ctypes.CDLL, str, str] | None:
    """numpy's bundled OpenBLAS with its symbol prefix and suffix, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix, suffix in _NAMINGS:
            if hasattr(handle, f"{prefix}set_num_threads{suffix}"):
                return handle, prefix, suffix
    return None


def _symbol(name: str, restype, argtypes=()):
    """The OpenBLAS function `name` (unprefixed), or None."""
    found = _openblas()
    if found is None:
        return None
    handle, prefix, suffix = found
    function = getattr(handle, f"{prefix}{name}{suffix}", None)
    if function is not None:
        function.restype, function.argtypes = restype, list(argtypes)
    return function


def threads() -> int | None:
    """OpenBLAS's current thread count, or None when it cannot be read."""
    getter = _symbol("get_num_threads", ctypes.c_int)
    return None if getter is None else getter()


def set_threads(count: int) -> None:
    """Set OpenBLAS's thread count; no effect where no OpenBLAS is found."""
    setter = _symbol("set_num_threads", None, [ctypes.c_int])
    if setter is not None:
        setter(count)


def _build() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        info = {}
    return {"name": info.get("name"), "version": info.get("version")}


@contextlib.contextmanager
def one_thread():
    """Hold OpenBLAS at one thread for the body, then restore the previous
    count. Yields the record of the BLAS the body runs on: name, version,
    core type, thread count and whether it was pinned."""
    previous = threads()
    pinned = previous is not None  # _openblas() requires the setter
    if pinned:
        set_threads(1)
    corename = _symbol("get_corename", ctypes.c_char_p)
    try:
        yield {
            **_build(),
            "core": corename().decode() if corename is not None else None,
            "threads": threads() if pinned else None,
            "pinned": pinned,
        }
    finally:
        if pinned:
            set_threads(previous)
