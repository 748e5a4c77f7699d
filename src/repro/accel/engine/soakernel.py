"""Build and load the compiled SoA march kernel (``_soa_march.c``).

The kernel ships as C source next to this module and is compiled on
first use with the system C compiler — no build step, no new runtime
dependency.  The shared object is cached under a content hash of the
source, so editing the kernel transparently rebuilds and stale caches
can never be loaded; the cache write is an atomic rename so concurrent
sweep workers race benignly.  A cached object that will not load (a
truncated write, a corrupt disk block) is unlinked and rebuilt once.

Everything here degrades gracefully: no compiler, a failed compile, a
failed dlopen or an ABI mismatch all yield ``None`` from
:func:`load_kernel`, and the ``soa`` engine then runs as the
(BYTE-IDENTICAL) batched engine.  ``REPRO_SOA_KERNEL=off`` is the
explicit kill-switch for the same fallback.  The fallback is loud: the
reason is kept, and :func:`warn_kernel_unavailable` reports it once
per process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

#: Environment kill-switch: ``off``/``0``/``no`` disables the compiled
#: kernel (the soa engine still runs, as the batched engine).
KERNEL_ENV_VAR = "REPRO_SOA_KERNEL"

#: Environment override for the compiled-kernel cache directory.
CACHE_ENV_VAR = "REPRO_SOA_CACHE"

_SOURCE = Path(__file__).with_name("_soa_march.c")

#: memoized load result; ``False`` = not attempted yet
_LIB: ctypes.CDLL | None | bool = False

#: why the memoized load came back ``None``
_FAILURE = "not attempted"

#: set once the per-process fallback warning has been emitted
_WARNED = False


def kernel_disabled() -> bool:
    return os.environ.get(KERNEL_ENV_VAR, "").strip().lower() in (
        "off", "0", "no", "false")


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "soa"


def _cached_path(source: str) -> Path:
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    return _cache_dir() / f"soa_march-{digest}.so"


def _find_compiler() -> str | None:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _expected_abi(source: str) -> int | None:
    m = re.search(r"#define\s+SOA_ABI_VERSION\s+(\d+)", source)
    return int(m.group(1)) if m else None


def _build(source_path: Path, out_path: Path) -> str | None:
    """Compile ``source_path`` to ``out_path``; the failure reason, or
    ``None`` on success."""
    cc = _find_compiler()
    if cc is None:
        return "no C compiler found ($CC, cc, gcc, clang)"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(out_path.parent), suffix=".so")
    os.close(fd)
    try:
        # -O2, no -ffast-math: bit-exact IEEE float semantics are the
        # whole differential contract
        proc = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(source_path)],
            capture_output=True, timeout=120)
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip()
            tail = " | ".join(tail.splitlines()[-3:]) or "no output"
            return f"{cc} exited {proc.returncode}: {tail}"
        os.replace(tmp, out_path)       # atomic: racing workers converge
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        return f"{cc} could not run: {exc}"
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _open(so_path: Path, expected_abi: int) -> ctypes.CDLL | str:
    """dlopen ``so_path`` and check its ABI; the library, or the reason
    it cannot be used."""
    try:
        lib = ctypes.CDLL(str(so_path))
        lib.soa_abi_version.restype = ctypes.c_longlong
        lib.soa_abi_version.argtypes = ()
        abi = int(lib.soa_abi_version())
        lib.soa_march.restype = ctypes.c_longlong
        lib.soa_march.argtypes = (ctypes.c_void_p,)
    except (OSError, AttributeError) as exc:
        return f"cannot load {so_path}: {exc}"
    if abi != expected_abi:
        return (f"ABI mismatch: {so_path} reports {abi}, "
                f"the source declares {expected_abi}")
    return lib


def _load() -> ctypes.CDLL | str:
    if kernel_disabled():
        return f"${KERNEL_ENV_VAR} switches it off"
    try:
        source = _SOURCE.read_text()
    except OSError as exc:
        return f"cannot read {_SOURCE.name}: {exc}"
    expected_abi = _expected_abi(source)
    if expected_abi is None:
        return f"{_SOURCE.name} declares no ABI version"
    so_path = _cached_path(source)
    cached = so_path.exists()
    if not cached:
        reason = _build(_SOURCE, so_path)
        if reason is not None:
            return reason
    lib = _open(so_path, expected_abi)
    if isinstance(lib, str) and cached:
        # a cached object that will not load would fail the same way on
        # every run: quarantine it and rebuild once
        try:
            so_path.unlink()
        except OSError:
            pass
        reason = _build(_SOURCE, so_path)
        if reason is not None:
            return f"{lib}; rebuild failed: {reason}"
        lib = _open(so_path, expected_abi)
    return lib


def load_kernel() -> ctypes.CDLL | None:
    """Compile (once, content-hashed) and load the march kernel.

    Returns the loaded library with ``soa_march`` ready to call, or
    ``None`` when the kernel is disabled or unavailable — callers fall
    back to the batched march, never error.
    """
    global _LIB, _FAILURE
    if _LIB is not False:
        return _LIB
    lib = _load()
    if isinstance(lib, str):
        _LIB, _FAILURE = None, lib
    else:
        _LIB, _FAILURE = lib, ""
    return _LIB


def warn_kernel_unavailable() -> None:
    """Say, once per process, that ``soa`` runs without its kernel."""
    global _WARNED
    if _WARNED:
        return
    _WARNED = True
    warnings.warn(
        f"soa engine: compiled march kernel unavailable ({_FAILURE}); "
        f"running the batched engine instead (same results, slower)",
        RuntimeWarning, stacklevel=3)
