"""Compiled-extension kernel: native hot paths for the scalar work the
dense numpy kernels cannot vectorize.

The extension module (``repro.steady_state._ckernel``, built from
``_ckernel.c`` by ``setup.py``) operates directly on the analyzer's own
Python containers — it mirrors the exact float-accumulation order of
``DeltaAnalyzer._deltas_ids`` / ``_buffer_model`` / ``_buffer_d_buf`` /
``_judge`` / ``_apply`` / ``_rebuild``, so every verdict and every piece
of committed state is bit-identical to the scalar kernel (the one
documented ordering liberty, iterating the dirty-task footprint in
discovery order, permutes only commutative additions and is exact on
integer-cost graphs, the same caveat :mod:`backend_numpy` carries).
Because the extension holds no mirrored state there is nothing to
invalidate: every call re-reads the analyzer.

Covered paths.  ``DeltaAnalyzer`` dispatches here at four
chokepoints, for objectives that need no per-application periods:

* the per-candidate verdict of a move, swap or change set, in every
  buffer model (``_verdict`` → :meth:`CKernel.score_ids`);
* the target sweep of the mapping-dependent buffer modes, including the
  incremental ``firstPeriod`` worklist (``_target_sweep`` →
  :meth:`CKernel.sweep`);
* the commit path every strategy step and every online commit goes
  through (``_commit`` → :meth:`CKernel.apply_ids`,
  :meth:`CKernel.try_apply_ids`);
* the population pass, which in the mapping-dependent modes scores
  each candidate through the per-candidate verdict above instead of
  the dense kernel (``_population_kernel``).

Besides these, the from-scratch ``resync`` rebuild
(:meth:`CKernel.rebuild`) and array-based clone pooling for the GA
(:meth:`CKernel.copy_state`, used by :meth:`DeltaAnalyzer.copy_from` /
:class:`ClonePool`) run natively.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

try:  # pragma: no cover - exercised via both CI matrix legs
    from . import _ckernel as _ext
except ImportError:  # pragma: no cover
    _ext = None

#: Bit flags understood by ``_ckernel.eval_changes``.
MODE_SCORE = 1
MODE_APPLY = 2
MODE_APPLY_IF_FEASIBLE = 4


def extension_available() -> bool:
    """True when the compiled extension imported successfully."""

    return _ext is not None


class CKernel:
    """Thin facade over the compiled extension for one analyzer.

    Stateless apart from the back-reference: safe to share across
    clones is *not* attempted — each analyzer owns one instance, and
    :meth:`DeltaAnalyzer.clone` builds a fresh facade for the copy.
    """

    __slots__ = ("_az",)

    def __init__(self, analyzer) -> None:
        if _ext is None:  # defensive; resolve_backend() gates earlier
            raise RuntimeError("compiled kernel extension is not built")
        self._az = analyzer

    # -- scoring ----------------------------------------------------

    def sweep(self, tid: int, pes: Sequence[int]) -> List[Tuple[float, int]]:
        """Per-candidate move sweep of ``tid`` over ``pes``; entries for
        the task's current PE hold the unchanged state's verdict."""

        return _ext.sweep(self._az, tid, pes)

    def score_ids(self, moved: Dict[int, int]) -> Tuple[float, int]:
        """Score a non-empty ``{tid: new_pe}`` change set (every entry
        must actually change PE — the caller filters no-ops)."""

        period, nviol, _ = _ext.eval_changes(self._az, moved, MODE_SCORE)
        return period, nviol

    # -- committing -------------------------------------------------

    def apply_ids(self, moved: Dict[int, int]) -> None:
        """Commit a change set unconditionally (no period computed)."""

        _ext.eval_changes(self._az, moved, MODE_APPLY)

    def try_apply_ids(self, moved: Dict[int, int]) -> Tuple[float, int, bool]:
        """Score and commit iff feasible; returns (period, nviol, applied)."""

        return _ext.eval_changes(
            self._az, moved, MODE_SCORE | MODE_APPLY_IF_FEASIBLE
        )

    # -- bulk state -------------------------------------------------

    def rebuild(self) -> None:
        """Recompute every cached aggregate from the current mapping
        (the buffer-model arrays must already be derived)."""

        _ext.rebuild(self._az)

    def copy_state(self, src) -> None:
        """Overwrite this analyzer's cached state in place from ``src``
        (same compiled graph + platform + flags; caller checks)."""

        _ext.copy_state(self._az, src)
