"""Reproducible, splittable random number streams.

All randomness in the package flows from a single master seed.  Streams are
derived with ``numpy.random.SeedSequence`` spawn keys, so a replicate's
stream depends only on ``(seed, *stream_ids)`` and never on how the work was
scheduled across threads or processes.  The underlying bit generator is
Philox (counter based), which makes stream construction cheap.

Stream layout.  Every simulated number comes from a fixed stream, so any
replicate can be regenerated on its own and results do not depend on the
thread count of the one replicate loop, :func:`sbergsma.statistic.replicate_values`:

* Monte Carlo null replicate r and theta-sweep replicate r: one
  ``dist.sample((T, R))`` draw from ``stream(seed, r)``.  The sweep reuses
  that noise for every theta (common random numbers), so its theta = 0
  samples equal the Monte Carlo null at the same seed.
* Bootstrap resample b: ``integers(0, T, size=T)`` row indices from
  ``stream(seed, b)``; a resample with a constant column is redrawn from the
  same stream, with at most 10 * n draws over the n (at most 200) resamples
  of each range of the loop.
* Pair-screen cutoff: standard normal pairs in ranges of 2000; the range
  starting at replicate lo is one ``standard_normal((n, T, 2))`` draw from
  ``stream(seed, lo)``.
* The asymptotic null's ``n_draws`` uniforms, mapped by its law's inverse CDF,
  and ``simulate_panel``, which no ``test`` runs: ``stream(seed)``, disjoint
  from every numbered stream.

These draws are not independent of one another within one seed: the Monte
Carlo replicate, the bootstrap resample and the cutoff range numbered r all
read ``stream(seed, r)``.  With a standard normal null, replicate 0's noise is
exactly the first T * R normals of cutoff range 0.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # numpy 2 loads it lazily; load it with the package, not in the first stream()

from .exceptions import InvalidParameterError


def stream(seed: int, *ids: int) -> np.random.Generator:
    """Generator for the stream identified by ``(seed, *ids)``.

    The same arguments always yield the same stream, independent of call
    order and worker count.  Every draw checks its seed here: an integer >= 0.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidParameterError(f"seed must be an integer of at least 0, got {seed!r}")
    ss = np.random.SeedSequence(seed, spawn_key=tuple(ids))
    return np.random.Generator(np.random.Philox(ss))


def fresh_seed() -> int:
    """Draw a new master seed from OS entropy (for CLI runs without --seed)."""
    return int(np.random.SeedSequence().entropy % (2**63))
