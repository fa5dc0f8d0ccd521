"""Shared fixtures."""

import pytest
from numpy.linalg import lapack_lite


@pytest.fixture
def factored(monkeypatch):
    """The systems LAPACK's geqrf factors from here on, in call order, each
    as the column-major array it overwrites; workspace queries are left out."""
    systems = []

    def recorded(routine):
        def geqrf(m, n, a, lda, tau, work, lwork, info):
            if lwork != -1:
                systems.append(a.T)  # lapack_lite takes the C-order transpose
            return routine(m, n, a, lda, tau, work, lwork, info)
        return geqrf

    for name in ("dgeqrf", "zgeqrf"):
        monkeypatch.setattr(lapack_lite, name, recorded(getattr(lapack_lite, name)))
    return systems
