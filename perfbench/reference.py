"""Fixed reference job that gauges the host's current speed.

    python3 perfbench/reference.py

It does the kinds of work a tghnet command does, at a fixed size and on
one thread: interpreter start and the numpy/scipy import, 512-row matrix
products and normal CDFs, elementwise transforms of a 50k-row vector, and
formatting and parsing floats as CSV I/O does.  It reads no file and
imports nothing from tghnet, so a change to the program cannot change it.
`run.py` runs it just before each timed command and scales the command's
wall time by how long it took.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from scipy.special import ndtr  # noqa: E402

rng = np.random.default_rng(0)
z = rng.standard_normal(50000)
w = rng.standard_normal((64, 64))
x = rng.standard_normal((512, 64))
acc = 0.0
for _ in range(60):
    t = np.expm1(0.3 * z) / 0.3 * np.exp(0.1 * z * z)
    acc += float(np.sum(np.where(t > 0, t, -t)))
for _ in range(1500):
    h = np.maximum(x @ w, 0.0)
    acc += float(h[0, 0]) + float(ndtr(z[:512]).sum())
text = [repr(float(v)) for v in z]
acc += sum(float(v) for v in text)
print(acc)
