"""Read-only array fields for frozen dataclasses."""

import numpy as np


def freeze(obj, dtype, *names):
    """Replace each named field of the frozen dataclass ``obj`` with a
    read-only ``dtype`` array copy of its value."""
    for name in names:
        arr = np.array(getattr(obj, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
