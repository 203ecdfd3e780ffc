"""The central-difference Jacobian that tests compare closed derivatives
with; the solver's own Jacobian, ``numerics.fd_jacobian``, is one-sided."""
import numpy as np

from matchdyn.numerics import fd_columns


def central_jacobian(F, x):
    """(F(x + h e_j) - F(x - h e_j)) / 2h for every coordinate j, through
    the one central-difference loop; one row when F is scalar."""
    return np.atleast_2d(fd_columns(F, x, np.eye(np.size(x))))
