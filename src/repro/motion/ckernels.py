"""Build, cache and call the compiled kernels of ``_ckernels.c``.

The library holds the frame path's hot loops: motion search on 8-bit
frames (:func:`estimate_u8`), the denoise blend (:func:`blend`) and the
extrapolator's ROI statistics (:func:`roi_stats`), each bit-identical to
its numpy counterpart.

:func:`load` compiles ``_ckernels.c`` with the system C compiler the first
time a process asks for it, caches the shared library in the
``__pycache__`` directory next to the source and loads it through
``ctypes``.  The file name hashes the source, the flags, the compiler's
``--version`` line and the machine type, so an edit, a new compiler or
another architecture sharing the cache builds a new library.  The
build writes to a temporary name and renames it into place, so processes
that start on a cold cache never load a half-written file.

When no library can be had -- no compiler, a compile error, a library that
will not load, a cache directory anyone may write to -- :func:`load`
returns ``None`` after one warning naming the reason, and the ``c`` kernel
backend resolves to ``numpy``
(:func:`repro.motion.kernels.resolve_kernel_backend`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import stat
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

SOURCE = Path(__file__).with_name("_ckernels.c")
#: Where the built library is cached (``.gitignore`` covers it).
CACHE_DIR = SOURCE.parent / "__pycache__"
COMPILER = "cc"
#: No ``-march=native``: the cache may be shared between hosts, and SSE2 is
#: the x86-64 baseline.  ``-ffp-contract=off`` keeps the float64 multiplies
#: and adds of the blend and the ROI statistics from fusing (GCC fuses them
#: by default on aarch64).
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: ``(library or None, why it is None)`` once :func:`load` has run.
_loaded: Optional[Tuple[Optional[ctypes.CDLL], str]] = None

_P, _L, _D = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
_SIGNATURES = {
    "euph_tss_u8": (ctypes.c_int, [_P, _P, _L, _L, _L, _L, _P, _P]),
    "euph_es_u8": (ctypes.c_int, [_P, _P, _L, _L, _L, _L, _P, _P, _L, _P, _P, _P]),
    "euph_blend": (None, [_P, ctypes.c_int, _P, _L, _L, _P, _P, _L, _D, _D, _P]),
    "euph_roi_stats": (ctypes.c_int, [_P, _P, _L, _L, _L, _P, _L, _P]),
}


def _build() -> Path:
    """Path of the cached library for this source, compiling it if absent."""
    version = subprocess.run(
        [COMPILER, "--version"], capture_output=True, text=True, check=True, timeout=60
    ).stdout.splitlines()[0]
    identity = [" ".join(FLAGS), version, platform.machine()]
    key = hashlib.sha256(
        b"\0".join([SOURCE.read_bytes(), *(part.encode() for part in identity)])
    ).hexdigest()[:16]
    CACHE_DIR.mkdir(mode=0o755, exist_ok=True)
    if CACHE_DIR.stat().st_mode & stat.S_IWOTH:
        raise OSError(f"{CACHE_DIR} is world-writable; refusing to load a library from it")
    library = CACHE_DIR / f"_ckernels.{key}.so"
    if library.exists():
        return library
    handle, partial = tempfile.mkstemp(prefix="_ckernels.", suffix=".tmp", dir=CACHE_DIR)
    os.close(handle)
    try:
        result = subprocess.run(
            [COMPILER, *FLAGS, "-o", partial, str(SOURCE)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if result.returncode:
            raise OSError(f"{COMPILER} failed: {result.stderr.strip()}")
        os.chmod(partial, 0o644)
        os.replace(partial, library)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return library


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernels, or ``None`` (warning once with the reason)."""
    global _loaded
    if _loaded is None:
        try:
            library = ctypes.CDLL(str(_build()))
            for name, (restype, argtypes) in _SIGNATURES.items():
                getattr(library, name).restype = restype
                getattr(library, name).argtypes = argtypes
            _loaded = (library, "")
        except (OSError, subprocess.SubprocessError, AttributeError, IndexError) as error:
            _loaded = (None, str(error) or type(error).__name__)
            warnings.warn(
                f"C kernels unavailable, using numpy: {_loaded[1]}", RuntimeWarning, stacklevel=2
            )
    return _loaded[0]


def estimate_u8(
    current: np.ndarray,
    previous: np.ndarray,
    block_size: int,
    search_range: int,
    offsets: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[Tuple[int, int, int]]]:
    """Block matching of two uint8 frames in one C call.

    ``offsets`` is ``None`` for the three-step search, else the exhaustive
    search's candidates: a C-contiguous ``(2, n)`` int64 array, rows ``dy``
    and ``dx``, in spiral order.
    Returns ``(vectors, sad, stats)`` as
    :class:`~repro.motion.motion_field.MotionField` takes them, with
    ``stats = (evaluated, lower_bound_checks, offsets_skipped)`` for
    exhaustive search and ``None`` for TSS.
    """
    current = np.ascontiguousarray(current)
    previous = np.ascontiguousarray(previous)
    height, width = current.shape
    grid = (-(-height // block_size), -(-width // block_size))
    vectors = np.empty(grid + (2,), dtype=np.float64)
    sad = np.empty(grid, dtype=np.float64)
    frames = (current.ctypes.data, previous.ctypes.data, height, width, block_size, search_range)
    stats = None if offsets is None else np.empty(3, dtype=np.int64)
    if stats is None:
        status = load().euph_tss_u8(*frames, vectors.ctypes.data, sad.ctypes.data)
    else:
        status = load().euph_es_u8(
            *frames,
            offsets[0].ctypes.data,
            offsets[1].ctypes.data,
            offsets.shape[1],
            vectors.ctypes.data,
            sad.ctypes.data,
            stats.ctypes.data,
        )
    if status:
        raise MemoryError("C kernel could not allocate its scratch buffers")
    return vectors, sad, None if stats is None else tuple(int(value) for value in stats)


def blend(current, previous, vectors, sad, block_size, max_sad, strength, out) -> bool:
    """Motion-compensated blend into ``out``; ``False``, with nothing
    written, unless ``current`` is uint8 or float64, ``previous`` and
    ``out`` are float64, all three are C-contiguous frames of one shape,
    and ``sad`` covers that frame's macroblock grid."""
    height, width = current.shape
    if (
        current.dtype not in (np.uint8, np.float64)
        or previous.dtype != np.float64
        or out.dtype != np.float64
        or not all(array.flags.c_contiguous for array in (current, previous, out))
        or previous.shape != current.shape
        or out.shape != current.shape
        or sad.shape != (-(-height // block_size), -(-width // block_size))
    ):
        return False
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    sad = np.ascontiguousarray(sad, dtype=np.float64)
    load().euph_blend(
        current.ctypes.data, current.dtype == np.uint8, previous.ctypes.data, height, width,
        vectors.ctypes.data, sad.ctypes.data, block_size, max_sad, strength, out.ctypes.data,
    )
    return True


def roi_stats(vectors, sad, height, width, block_size, rois) -> Optional[List[Tuple[float, ...]]]:
    """Eqs. 1 and 2 for every ``(x, y, width, height)`` box of ``rois``.

    ``vectors`` (``rows x cols x 2``) and ``sad`` (``rows x cols``) are a
    motion field over a ``height x width`` frame tiled by ``block_size``
    blocks.  Returns one ``(u, v, confidence)`` per box, each value
    bit-identical to
    :meth:`~repro.motion.motion_field.MotionField.roi_statistics`, or
    ``None`` when a box needs the block of a coordinate that is not finite
    (where the numpy path raises).
    """
    grid = (-(-height // block_size), -(-width // block_size))
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    sad = np.ascontiguousarray(sad, dtype=np.float64)
    corners = [value for box in rois for value in box]
    if vectors.shape != grid + (2,) or sad.shape != grid or len(corners) != 4 * len(rois):
        raise ValueError(
            f"vectors {vectors.shape} and SADs {sad.shape} must cover the {grid} block "
            f"grid, and each box must be (x, y, width, height)"
        )
    out = (ctypes.c_double * (3 * len(rois)))()
    status = load().euph_roi_stats(
        vectors.ctypes.data, sad.ctypes.data, height, width, block_size,
        (ctypes.c_double * len(corners))(*corners), len(rois), out,
    )
    if status:
        return None
    values = out[:]
    return [tuple(values[index : index + 3]) for index in range(0, len(values), 3)]
