"""Peak memory of one call, for the tests that bound a path's temporaries."""

import tracemalloc


def traced_peak(fn) -> int:
    """Peak bytes allocated through Python (``tracemalloc``) while ``fn()`` runs.

    LAPACK's and OpenBLAS's own workspaces are not allocated through Python
    and do not count.
    """
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
