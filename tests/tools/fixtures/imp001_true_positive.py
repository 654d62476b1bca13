"""IMP001 true positives: SciPy subpackages imported with the module."""

import scipy.sparse  # line 3: plain import
import scipy.sparse.linalg as spla  # line 4: a module under the package
from scipy import optimize, special  # line 5: packages from scipy
from scipy.stats import norm  # line 6: a name from the package
from scipy.interpolate import interp1d  # line 7: it imports linalg and sparse

try:
    from scipy.linalg import lu  # line 10: module level inside try
except ImportError:
    lu = None


class Solver:
    from scipy.optimize import linprog  # line 16: class bodies run at import


def uses():
    return scipy.sparse, spla, optimize, special, norm, interp1d, lu, Solver
