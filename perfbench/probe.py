"""Fixed work that measures how fast the host runs right now.

It shares no code with the program. Like the program it starts an
interpreter, imports numpy, parses text rows and runs many small numpy
kernels from a Python loop, so a host that runs the program slower runs
it slower too. ``run.py`` times it as a fresh process between samples and
scales the timed figures by it (README, "Steadiness and bounds").
"""

import numpy as np

rng = np.random.default_rng(0)
window = rng.standard_normal(100)
acc = 0.0
for i in range(12000):
    d = window - window[i % 100]
    w = np.exp(-0.5 * d * d)
    acc += float(w @ window / w.sum())
text = "\n".join(f"{i},{i * 0.37!r},{i * 1.5!r}" for i in range(40000))
rows = [tuple(float(f) for f in line.split(",")) for line in text.splitlines()]
print(len(rows), repr(acc))
