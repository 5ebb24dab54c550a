"""A fixed task that uses Python and numpy but not odelab.

``run.py`` times it between odelab processes to follow the speed of the
machine, which on a shared host drifts by up to 1.6x for minutes at a
time.  It does the kinds of work an odelab process does, in a fixed
amount: a process start, module imports, an interpreted float loop,
numpy calls on small arrays (as in an RK step), on cache-sized ones and
on one larger than the caches.
Change nothing here without measuring a new baseline: the end-to-end
seconds are scaled by this task's time.
"""

import asyncio, concurrent.futures, decimal, email.mime.multipart, http.client, json  # noqa: E401,F401
import logging.handlers, multiprocessing.pool, sqlite3, tarfile, unittest.mock  # noqa: E401,F401
import urllib.request, xml.dom.minidom, zipfile  # noqa: E401,F401

import numpy as np

x = 0.0
for i in range(700_000):
    x += (i % 7) * 0.5
a = np.zeros(4)
for _ in range(20_000):
    a = a * 0.5 + np.sin(a) + 1.0
b = np.linspace(0.0, 1.0, 200_000)
for _ in range(40):
    b = np.sqrt(b * b + 1.0) - 0.999
# 16 MB, past the caches: streamed as odelab's tube distances stream theirs
c = np.ones(2_000_000)
for _ in range(25):
    np.multiply(c, 1.0000001, out=c)
    np.add(c, 1e-9, out=c)
