"""The environment block recorded with every benchmark result.

`cap_blas_threads` must run before numpy is first imported, because
OpenBLAS reads its thread count once, when it loads.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
from pathlib import Path
from typing import Optional

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Limit BLAS threads to the cores this process may run on."""
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cap:
            os.environ[var] = str(cap)
    return cap


def _blas_threads() -> Optional[int]:
    """Threads the OpenBLAS bundled with numpy will use, if it can be asked."""
    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_sha(root: Path) -> Optional[str]:
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_sha256(src: Path) -> str:
    """Hash of the qcs sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((src / "qcs").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    blas = (np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas") or {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_cap": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc(),
        "git_sha": git_sha(root),
        "src_sha256": source_sha256(root / "src"),
        "workload_seed": seed,
    }
