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
    )

BACKEND = "c" if _c is not None else "python"


def _call(name, *args):
    # The compiled kernel raises OverflowError past the limits it states
    # (element magnitude, rank size, slice maximum, and the span of 2**20
    # that its one mask reader checks for doubling_size, right_extensions
    # and chain_children), so such input goes to the pure twin, which bounds
    # only the span of those three, at 2**24 (MAX_MASK_SPAN).
    if _c is not None:
        try:
            return getattr(_c, name)(*args)
        except OverflowError:
            pass
    return getattr(_py, name)(*args)


# The four set primitives take a set as any iterable of ints; a one-shot iterator
# becomes a tuple first (so do chain_children's floors), or the compiled twin
# would use it up before an OverflowError sends it on to the pure twin. Both
# twins reject a non-set alike (see _kernel_py). is_one_dimensional is read off
# lambda_rank, so it rejects what lambda_rank rejects, with its message.
def doubling_size(elements):
    return _call("doubling_size", tuple(elements))


def lambda_rank(elements):
    return _call("lambda_rank", tuple(elements))


def is_one_dimensional(elements):
    # rank |A| - 2: every 2-set (rank 0, no relation), no 1-set
    elements = tuple(elements)
    return _call("lambda_rank", elements) == len(elements) - 2


def right_extensions(elements):
    return _call("right_extensions", tuple(elements))


def chain_children(elements, t_max, floors=()):
    return _call("chain_children", tuple(elements), t_max, tuple(floors))


def sweep_slice(k, m, t_max):
    return _call("sweep_slice", k, m, t_max)


def census_slice(k, m, listing):
    return _call("census_slice", k, m, listing)

