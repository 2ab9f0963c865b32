"""Kernel selection for the delta engine.

The neighbourhood arithmetic behind the
:class:`~repro.steady_state.delta.DeltaAnalyzer` API runs on one of two
engines, picked once per analyzer:

``python``
    The scalar reference kernel — pure-Python loops over the compiled
    CSR arrays (:mod:`.compiled`).  The semantics oracle: the fast
    engine must reproduce its results bit for bit on integer-valued
    cost graphs (and within one ulp otherwise, where summation order
    differs).
``auto`` (the default)
    The fast engine.  Each analyzer holds one numpy dense kernel
    (:mod:`.backend_numpy`), built on first use.  In the default buffer
    model it scores whole neighbourhoods and swap-pair sets in matrix
    passes; in every buffer model it ranks the two-phase selections and
    scores GA populations.  When the compiled extension
    (``repro.steady_state._ckernel``, built from ``_ckernel.c``)
    imports, the analyzer calls it directly for the scalar hot paths
    the dense kernels leave to Python, at four chokepoints: the
    per-candidate verdict, the mapping-dependent target sweep
    (including the incremental ``firstPeriod`` worklist), the commit
    path and the mapping-dependent population pass; plus the resync
    rebuild.

A selection resolves to a label that names the engine that ran:
``python``, ``numpy`` (fast engine without the extension) or ``cython``
(fast engine with it).  Reports, ``/stats`` and benchmark records carry
the label.

Selection precedence (highest first):

1. ``DeltaAnalyzer``'s ``backend`` argument, when given;
2. the ``REPRO_KERNEL_BACKEND`` environment variable (``python`` |
   ``auto``);
3. ``auto``.

Setting ``REPRO_NO_EXTENSION=1`` makes the process behave as if the
extension were never built, so ``auto`` resolves to ``numpy``.  The
labels ``numpy`` and ``cython`` are not selections: requesting either
raises :class:`~repro.errors.KernelBackendError` naming ``auto`` and
``REPRO_NO_EXTENSION``.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from ..errors import KernelBackendError

__all__ = [
    "BACKEND_ENV_VAR",
    "KERNEL_BACKENDS",
    "NO_EXTENSION_ENV_VAR",
    "available_backends",
    "cython_available",
    "resolve_backend",
]

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: When set (to anything non-empty), the compiled extension is treated
#: as unavailable even if built — the CI no-extension leg sets this.
NO_EXTENSION_ENV_VAR = "REPRO_NO_EXTENSION"

#: The selectable kernel names.
KERNEL_BACKENDS: Tuple[str, ...] = ("python", "auto")

_CYTHON_OK: Optional[bool] = None


def cython_available() -> bool:
    """Whether the compiled kernel extension can be used in this process.

    False when the extension was never built (pure-python install, no
    C compiler) and when ``REPRO_NO_EXTENSION`` is set.
    """
    global _CYTHON_OK
    if os.environ.get(NO_EXTENSION_ENV_VAR):
        return False
    if _CYTHON_OK is None:
        try:
            from . import _ckernel  # noqa: F401

            _CYTHON_OK = True
        except ImportError:  # pragma: no cover - exercised via stubbing
            _CYTHON_OK = False
    return _CYTHON_OK


def available_backends() -> Tuple[str, ...]:
    """The labels ``python`` and ``auto`` resolve to in this process."""
    return ("python", resolve_backend("auto"))


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a kernel selection to the label of the engine that runs.

    ``backend`` is the explicit argument (wins when given); ``None``
    defers to ``REPRO_KERNEL_BACKEND``, and an unset/``auto`` selection
    auto-detects.  Returns ``"python"``, ``"numpy"`` or ``"cython"``.
    """
    source = "backend argument"
    choice = backend
    if choice is None:
        choice = os.environ.get(BACKEND_ENV_VAR) or "auto"
        source = f"{BACKEND_ENV_VAR} environment variable"
    names = ", ".join(KERNEL_BACKENDS)
    if not isinstance(choice, str):
        raise KernelBackendError(
            f"kernel backend must be a string, got {choice!r} "
            f"(from {source}); pick from {names}"
        )
    choice = choice.strip().lower()
    if choice == "python":
        return "python"
    if choice == "auto":
        return "cython" if cython_available() else "numpy"
    if choice in ("numpy", "cython"):
        raise KernelBackendError(
            f"kernel backend {choice!r} (from {source}) is a label, not a "
            "selection; pick 'auto', which uses numpy's dense kernels and "
            "the compiled extension whenever it is built (`pip install .` "
            "or `python setup.py build_ext --inplace`), and set "
            f"{NO_EXTENSION_ENV_VAR}=1 to run without the extension"
        )
    raise KernelBackendError(
        f"unknown kernel backend {choice!r} (from {source}); "
        f"pick from {names}"
    )
