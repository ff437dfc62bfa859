"""Property-based tests: hypothesis draws the inputs, deterministically.

derandomize=True fixes the draws and database=None keeps no example
database, so a run is reproducible.  hypothesis also caches constants it
reads from local source files, at collection time; that cache goes to
the system temporary directory, so a run writes no .hypothesis/
directory.  The suite is skipped where hypothesis is not installed (it
is a dev dependency only).
"""

import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from test_elimination import _check  # noqa: E402

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "centra-hypothesis")

_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6 + 3))


@st.composite
def _q_matrices(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    row = st.lists(_ENTRIES, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_q_matrices())
def test_q_elimination_matches_reference(rows):
    """rank, determinant, kernel_basis and inverse over Q."""
    _check(rows, 0)
