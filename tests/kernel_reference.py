"""The difference-form kernel value, the tests' reference for the kernel
columns and Gram matrices that ``corectron.lifting`` computes in the
expanded form ``|z|^2 + |z'|^2 - 2 z . z'``."""

import numpy as np


def kernel_value(kernel, za: np.ndarray, zb: np.ndarray) -> float:
    """``k(za, zb)`` of a :class:`corectron.lifting.KernelSpec`: the dot
    product, or ``exp(-|za - zb|^2 / (2 bandwidth^2))``."""
    if kernel.kind == "linear":
        return float(np.dot(za, zb))
    d = za - zb
    return float(np.exp(-d.dot(d) / (2.0 * kernel.bandwidth**2)))
