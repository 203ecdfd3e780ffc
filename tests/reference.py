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
- ``reduced_momentum_residual``: the paper's semidirect and decoupled
  momentum residuals of the three degenerate pairs, written by hand.
"""
import numpy as np

from matchdyn.dynamics import matched_group_momenta
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


def k_mat3(g):
    """The 3x3 real matrix view of the K point g = (a, b, c), the action
    of ``Su2K.g_fiber_actions``."""
    a, b, c = g
    return np.array([
        [1.0 + c, 0.0, 0.0],
        [0.0, 1.0 + c, 0.0],
        [-a, -b, 1.0],
    ])


def k_from_mat3(M):
    """Inverse of ``k_mat3``."""
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


# -- the paper's momentum residual of a pair with a trivial action ------------
#
# Written from each pair's ``actions``, not through its induced-action
# blocks: (left half at u_k, right half at u_{k+1}) of an arrow u = (g, h)
# with the record (d, mu, nu), d_G = d[:n] and d_H = d[n:].

def _r3_rtimes_so3_halves(mp, g, h, d, mu, nu):
    # h |> x = R_h x, and G acts trivially on H
    return (np.concatenate([np.reshape(h, (3, 3)).T @ mu, mp.H.coAd(h, nu)]),
            np.concatenate([mu, nu + np.cross(g, d[:mp.G.coord_dim])]))


def _so3_ltimes_r3_halves(mp, g, h, d, mu, nu):
    # h <| g = R_g^T h, and H acts trivially on G
    return (np.concatenate([mp.G.coAd(g, mu)
                            + np.cross(d[mp.G.coord_dim:], h), nu]),
            np.concatenate([mu, np.reshape(g, (3, 3)) @ nu]))


def _so3_times_so3_halves(mp, g, h, d, mu, nu):
    # both actions trivial: two decoupled Ad*-transport recursions
    return (np.concatenate([mp.G.coAd(g, mu), mp.H.coAd(h, nu)]),
            np.concatenate([mu, nu]))


REDUCED_HALVES = {"r3_rtimes_so3": _r3_rtimes_so3_halves,
                  "so3_ltimes_r3": _so3_ltimes_r3_halves,
                  "so3_times_so3": _so3_times_so3_halves}


def reduced_momentum_residual(mp, L, uk, uk1):
    """The semidirect or decoupled momentum residual of the degenerate pair
    ``mp`` at the junction of u_k and u_{k+1}, from each arrow's record."""
    halves = REDUCED_HALVES[mp.name]
    left, _ = halves(mp, *mp.split(uk), *matched_group_momenta(mp, L, uk))
    _, right = halves(mp, *mp.split(uk1), *matched_group_momenta(mp, L, uk1))
    return left - right
