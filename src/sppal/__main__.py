"""Command-line entry point: ``python -m sppal`` and the ``sppal`` script.

Sets ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS``
to 1 where they are unset, before numpy loads its BLAS, then runs
:func:`sppal.cli.main`.  The last digits of the audio outputs depend on
the BLAS thread count, so a run writes the same bytes whatever the
machine's default thread count; a variable the caller has set is kept.
"""

import os
import sys

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
