"""Brute-force commuting-space computation, independent of any structure.

Solves AX = XA as a linear system in the n^2 entries of X using plain
elimination.  Column-stacking convention: entry (i, j) of X sits at
coordinate i + j*n of the stacked vector.  Deliberately knows nothing
about canonical forms so it can serve as an oracle for them; the size
cap keeps the n^4-entry system from being built by accident.
"""

import os

from .errors import NotSquareError, ParseError, ShapeMismatchError, TooLargeError
from .matrices import Matrix

DEFAULT_MAX_N = 40
MAX_N_ENV = "CENTRA_MAX_N"


def _resolve_cap(max_n):
    if max_n is not None:
        return max_n
    text = os.environ.get(MAX_N_ENV)
    if text is not None:
        try:
            return int(text)
        except ValueError:
            raise ParseError(
                f"{MAX_N_ENV} must be an integer, got {text!r}") from None
    return DEFAULT_MAX_N


def sylvester_system(a):
    """The n^2 x n^2 matrix of X -> AX - XA over stacked coordinates."""
    if not a.is_square():
        raise NotSquareError("commuting space of a nonsquare matrix")
    n = a.rows
    field = a.field
    zero = field._zero_payload
    av = a._rows
    rows = [[zero] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            row = rows[i + j * n]
            for k in range(n):
                if av[i][k] != zero:
                    row[k + j * n] = field._add(row[k + j * n], av[i][k])
                if av[k][j] != zero:
                    row[i + k * n] = field._sub(row[i + k * n], av[k][j])
    return Matrix._from_payloads(field, rows)


def commutant_basis(a, max_n=None):
    """Kernel of the commutator map, reshaped to n x n matrices."""
    cap = _resolve_cap(max_n)
    if a.rows > cap:
        raise TooLargeError(
            f"matrix size {a.rows} exceeds the oracle cap {cap}")
    n = a.rows
    vectors = sylvester_system(a).kernel_basis()
    out = []
    for v in vectors:
        stacked = [r[0] for r in v._rows]
        out.append(Matrix._from_payloads(
            a.field, [stacked[i::n] for i in range(n)]))
    return out


def commutant_dimension(a, max_n=None):
    """dim of the commuting space: n^2 minus the rank of the system."""
    cap = _resolve_cap(max_n)
    if a.rows > cap:
        raise TooLargeError(
            f"matrix size {a.rows} exceeds the oracle cap {cap}")
    n = a.rows
    return n * n - sylvester_system(a).rank()


def commutes(a, x):
    """Whether AX equals XA."""
    if not a.is_square():
        raise NotSquareError("commutation against a nonsquare matrix")
    if a.rows != x.rows or a.cols != x.cols:
        raise ShapeMismatchError(
            f"shapes {a.rows}x{a.cols} and {x.rows}x{x.cols} differ")
    return a * x == x * a
