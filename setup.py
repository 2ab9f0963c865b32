"""Build hooks for the optional compiled kernel extension.

All package metadata lives in ``pyproject.toml``; this file exists only
to attach ``repro.steady_state._ckernel`` (the native kernel backend,
see ``src/repro/steady_state/_ckernel.c``) to the setuptools build — and
to make that attachment *optional*:

* no C compiler / broken toolchain → the build logs a notice and
  produces a pure-python install (the backend registry then reports
  ``cython`` as unavailable and ``auto`` falls back to numpy/python);
* ``REPRO_NO_EXTENSION=1`` in the environment → the extension is
  skipped up front (CI's forced no-extension leg, and an escape hatch
  for exotic platforms);
* the checked-in C file is the source of truth — building needs no
  Cython, only a C compiler (``python setup.py build_ext --inplace``
  for a source tree, or just ``pip install .``).

The failure-tolerant ``build_ext`` pattern is the standard one used by
projects shipping optional accelerators (cf. coverage.py, msgpack).
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

try:  # distutils lives inside setuptools on modern pythons
    from setuptools.errors import BaseError as _BuildError
except ImportError:  # pragma: no cover - very old setuptools
    _BuildError = Exception


class optional_build_ext(build_ext):
    """``build_ext`` that degrades to a pure-python build on failure."""

    def run(self):
        try:
            super().run()
        except (_BuildError, OSError) as exc:
            self._skip(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except (_BuildError, OSError, ValueError) as exc:
            self._skip(exc)

    def _skip(self, exc):
        print(
            "\n*** Building the compiled kernel extension failed "
            f"({exc!r}).\n*** Installing pure-python: the 'auto' kernel "
            "runs on numpy's dense kernels alone;\n*** results are "
            "unaffected.\n"
        )


ext_modules = []
if not os.environ.get("REPRO_NO_EXTENSION"):
    ext_modules.append(
        Extension(
            "repro.steady_state._ckernel",
            sources=["src/repro/steady_state/_ckernel.c"],
            optional=True,
        )
    )

setup(
    ext_modules=ext_modules,
    cmdclass={"build_ext": optional_build_ext},
)
