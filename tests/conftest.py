"""Test-session set-up.

The library is Python over small numpy arrays; only ``edge_scores``
spreads its blocks over threads of its own, one pinned per CPU, which block
on a queue while idle. A multi-threaded BLAS adds nothing to its speed, and
on a busy machine its spinning worker threads compete with the test process
for the same cores: a short training run took twice as long next to one
other busy process.
So the suite asks for one BLAS thread, unless the environment already says
otherwise. This must run before numpy is first imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
