"""Deterministic Gaussian noise addressed by position, not by sequence.

Every draw is a pure function of (seed, substream, context, step, path,
component).  A Philox counter generator is keyed per (seed, substream,
context, step); the flat index path*width + component addresses a fixed
position inside that keyed stream.  Because addressing is positional,
any partition of the paths over workers reproduces exactly the same
numbers, which is what makes simulation output independent of thread
count and chunk size.

Gaussians are produced by the inverse normal CDF applied to 53-bit
uniforms in the open interval (0, 1), so each draw depends only on its
own address. The keyed generator imports numpy.random's Philox and
SeedSequence, and normal_block scipy.special's ndtri, on first use, so
importing this module loads neither numpy.random nor scipy. _key derives
each address's key once and caches it read-only: the spans of a step share it.

The ``context`` integer separates streams that must not be correlated,
e.g. grids with different step counts in a refinement study.
"""

from __future__ import annotations

import functools

import numpy as np

# Substream tags. Consumers with independent sampling duties use
# different tags so their draws never collide.
EULER = 0          # path simulation (mc engine)
TERMINAL = 1       # exact terminal samplers
KERNEL = 2         # kernel-based samplers (path-integral route)

_U53 = 2.0 ** -53
_SHIFT = np.uint64(11)
_U_MAX = np.nextafter(1.0, 0.0)  # (2**53 - 0.5) * 2**-53 rounds to 1.0, where ndtri is inf


def validate_seed(seed) -> int:
    """Check that seed is a 64-bit unsigned integer and return it as int."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError("seed must be an integer")
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must satisfy 0 <= seed < 2**64")
    return seed


@functools.lru_cache(maxsize=256)  # every step of a grid of up to 256 steps
def _key(seed: int, substream: int, context: int, step: int) -> np.ndarray:
    from numpy.random import SeedSequence  # loaded on first use, not at import
    key = SeedSequence(entropy=seed,
                       spawn_key=(substream, context, step)).generate_state(2, dtype=np.uint64)
    key.flags.writeable = False
    return key


def _keyed_generator(seed: int, substream: int, context: int, step: int,
                     block: int) -> np.random.Philox:
    from numpy.random import Philox  # loaded on first use, not at import
    # Philox counters advance one 4-draw block per increment.
    return Philox(counter=[block, 0, 0, 0], key=_key(seed, substream, context, step))


def uniform_block(seed: int, substream: int, context: int, step: int,
                  lo: int, hi: int, width: int) -> np.ndarray:
    """Uniforms in (0,1) for paths [lo, hi), each of `width` components.

    Element [p - lo, k] is the draw addressed by flat index p*width + k
    of the stream keyed by (seed, substream, context, step).
    """
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi")
    if width < 1:
        raise ValueError("width must be >= 1")
    a = lo * width
    b = hi * width
    if a == b:
        return np.empty((0, width))
    block = a // 4
    gen = _keyed_generator(seed, substream, context, step, block)
    raw = gen.random_raw(b - 4 * block)[a - 4 * block:]
    # ((raw >> 11) + 0.5) * 2**-53 in raw's own buffer (a 1-D copyto casts in place)
    np.right_shift(raw, _SHIFT, out=raw)
    u = raw.view(np.float64)
    np.copyto(u, raw, casting="unsafe")
    u += 0.5
    u *= _U53
    np.minimum(u, _U_MAX, out=u)
    return u.reshape(hi - lo, width)


def normal_block(seed: int, substream: int, context: int, step: int,
                 lo: int, hi: int, width: int) -> np.ndarray:
    """Standard normal draws for paths [lo, hi); see uniform_block."""
    from scipy.special import ndtri  # loaded on first use, not at import
    u = uniform_block(seed, substream, context, step, lo, hi, width)
    return ndtri(u, out=u)
