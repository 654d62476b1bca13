"""IMP001 false positives: imports that run only where they are used."""

from typing import TYPE_CHECKING

import numpy as np
import scipy
from scipy import __version__

if TYPE_CHECKING:
    from scipy.sparse import csc_matrix


def noise(uniform: np.ndarray) -> np.ndarray:
    from scipy.special import ndtri

    return ndtri(uniform)


def version() -> str:
    import scipy.optimize

    return scipy.__version__ + scipy.optimize.__name__ + __version__


def matrix() -> "csc_matrix":
    raise NotImplementedError
