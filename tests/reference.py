"""References that tests compare the package with, and that no command runs.

- ``central_jacobian``: the central-difference Jacobian; the solver's own,
  ``numerics.fd_jacobian``, is one-sided.
- The matrix pictures of the Iwasawa factorization that ``Su2K`` works
  around in chart coordinates: SU(2) as 2x2 unitary matrices, K as 2x2
  lower-triangular complex matrices with a positive diagonal and as 3x3 real
  matrices, with their algebras, and SL(2, C) as the product of the two 2x2
  factors.
- ``compose``: the arrow product of a descriptor, checked for
  composability.
"""
import numpy as np

from matchdyn.errors import NotComposable
from matchdyn.groupoids import COMPOSE_TOL
from matchdyn.groups import KGroup
from matchdyn.numerics import fd_columns

K = KGroup()


def central_jacobian(F, x):
    """(F(x + h e_j) - F(x - h e_j)) / 2h for every coordinate j, through
    the one central-difference loop; one row when F is scalar."""
    return np.atleast_2d(fd_columns(F, x, np.eye(np.size(x))))


def compose(desc, x, y, tol=COMPOSE_TOL):
    """Product of two arrows, rejecting pairs whose target/source gap
    exceeds tol."""
    if desc.composability_gap(x, y) > tol:
        raise NotComposable(desc.beta(x), desc.alpha(y))
    return desc.mul(x, y)


# -- SU(2): the unit quaternion (w, x, y, z) as a 2x2 unitary matrix ---------

def su2_mat2(q):
    w, x, y, z = q
    return np.array([
        [w - 1j * z, -y - 1j * x],
        [y - 1j * x, w + 1j * z],
    ])


def su2_from_mat2(U):
    q = np.array([
        U[0, 0].real, -U[0, 1].imag, -U[0, 1].real, -U[0, 0].imag,
    ])
    return q / np.linalg.norm(q)


def su2_alg_mat2(xi):
    """r e1 + s e2 + t e3 in the traceless skew-hermitian basis."""
    r, s, t = xi
    return np.array([
        [-0.5j * t, -0.5 * s - 0.5j * r],
        [0.5 * s - 0.5j * r, 0.5j * t],
    ])


def su2_alg_from_mat2(X):
    return np.array([-2.0 * X[1, 0].imag, 2.0 * X[1, 0].real,
                     2.0 * X[1, 1].imag])


# -- K: the (a, b, c) chart as 2x2 complex and 3x3 real matrices -------------

def k_mat2(B):
    a, b, c = K.check(B)
    s = np.sqrt(1.0 + c)
    return np.array([
        [s, 0.0],
        [(a + 1j * b) / s, 1.0 / s],
    ])


def k_from_mat2(M):
    c = abs(M[0, 0]) ** 2 - 1.0
    w = M[1, 0] * np.sqrt(1.0 + c)
    return np.array([w.real, w.imag, c])


def k_alg_mat2(xi):
    a, b, c = xi
    return np.array([
        [0.5 * c, 0.0],
        [a + 1j * b, -0.5 * c],
    ])


def k_from_mat3(M):
    """Inverse of ``KGroup.mat3``."""
    return np.array([-M[2, 0], -M[2, 1], M[0, 0] - 1.0])


def k_alg_mat3(xi):
    a, b, c = xi
    return np.array([
        [c, 0.0, 0.0],
        [0.0, c, 0.0],
        [-a, -b, 0.0],
    ])


def k_alg_from_mat3(N):
    return np.array([-N[2, 0], -N[2, 1], N[0, 0]])


# -- SL(2, C) = SU(2) K -------------------------------------------------------

def sl2c_compose(g, h):
    """su2_mat2(g) @ k_mat2(h) in SL(2, C); inverse of sl2c_decompose."""
    return su2_mat2(g) @ k_mat2(h)


def sl2c_decompose(M):
    """Split M in SL(2, C) as (SU(2) chart point, K chart point) with
    M = su2_mat2(g) @ k_mat2(h)."""
    P = M.conj().T @ M
    r = np.sqrt(P[1, 1].real)
    q = P[1, 0] / r
    p = np.sqrt(max(P[0, 0].real - abs(q) ** 2, 0.0))
    L = np.array([[p, 0.0], [q, r]])
    U = M @ np.linalg.inv(L)
    return su2_from_mat2(U), k_from_mat2(L)
