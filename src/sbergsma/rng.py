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
  same stream, at most ``_REDRAWS`` draws per resample.
* Pair-screen cutoff: normal pairs in blocks of 2000; the block starting at
  pair lo is drawn from ``stream(seed, lo)`` in budget-sized slices, which
  give the normals of one ``standard_normal((n, T, 2))`` draw.
* The asymptotic null's ``n_draws`` uniforms, mapped by its law's inverse CDF,
  and ``simulate_panel``, which no ``test`` runs: ``stream(seed)``, disjoint
  from every numbered stream.

These draws are not independent of one another within one seed: the Monte
Carlo replicate, the bootstrap resample and the cutoff block starting at pair r
all read ``stream(seed, r)``.  With a standard normal null, replicate 0's noise
is exactly the first T * R normals of cutoff block 0.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # numpy 2 loads it lazily; load it with the package, not in the first stream()

from .bergsma import check_count


def stream(seed: int, *ids: int) -> np.random.Generator:
    """Generator for the stream identified by ``(seed, *ids)``.

    The same arguments always yield the same stream, independent of call
    order and worker count.  Every draw checks its seed here: an integer >= 0,
    and not a bool.
    """
    check_count(seed, "seed", 0)
    ss = np.random.SeedSequence(seed, spawn_key=tuple(ids))
    return np.random.Generator(np.random.Philox(ss))


def fresh_seed() -> int:
    """Draw a new master seed from OS entropy (for CLI runs without --seed)."""
    return int(np.random.SeedSequence().entropy % (2**63))
