"""Read-only array fields for frozen dataclasses.

A dataclass that compares such a field is declared ``eq=False``: numpy
arrays have no single truth value under ``==`` and no hash, so the
generated ``__eq__`` would raise and the generated ``__hash__`` fail.
Those objects compare and hash by identity instead."""

import numpy as np


def freeze(obj, dtype, *names):
    """Replace each named field of the frozen dataclass ``obj`` with a
    read-only ``dtype`` array copy of its value."""
    for name in names:
        arr = np.array(getattr(obj, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
