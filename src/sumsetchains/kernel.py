"""Kernel selection: the compiled extension when it can be imported, the
pure-Python twin otherwise (with a warning)."""

from __future__ import annotations

import warnings

from . import _kernel_py as _py

try:
    from . import _kernel as _c  # type: ignore[attr-defined]
except ImportError:
    _c = None
    warnings.warn(
        "compiled kernel unavailable, using the pure-Python fallback "
        "(searches will be slower)",
        RuntimeWarning,
        stacklevel=2,
    )

BACKEND = "c" if _c is not None else "python"

# The compiled kernel works in int64 on elements in the IntSet range
# (|e| <= 2**60). Past the caps below it raises, so route that input to the
# pure implementation: rank work takes at most 12 elements (Bareiss minors
# stay under 2**63), the slice sweeps size their bitsets from m up to
# m = 511 (8 mask words, 16 accumulator words), and doubling_size allocates
# spans up to 2**20.
_RANK_K_CAP = 12
_SLICE_M_CAP = 511
_DOUBLING_SPAN_CAP = 1 << 20


def doubling_size(elements):
    if _c is not None and elements[-1] - elements[0] <= _DOUBLING_SPAN_CAP:
        return _c.doubling_size(elements)
    return _py.doubling_size(elements)


def lambda_rank(elements):
    if _c is not None and len(elements) <= _RANK_K_CAP:
        return _c.lambda_rank(elements)
    return _py.lambda_rank(elements)


def is_one_dimensional(elements):
    if _c is not None and 2 < len(elements) <= _RANK_K_CAP:
        return _c.is_one_dimensional(elements)
    return _py.is_one_dimensional(elements)


def sweep_slice(k, m, t_max):
    if _c is not None and k <= _RANK_K_CAP and m <= _SLICE_M_CAP:
        return _c.sweep_slice(k, m, t_max)
    return _py.sweep_slice(k, m, t_max)


def collect_slice(k, m, ts):
    if _c is not None and k <= _RANK_K_CAP and m <= _SLICE_M_CAP:
        return _c.collect_slice(k, m, ts)
    return _py.collect_slice(k, m, ts)
