"""Seeded random streams.

Every stochastic routine in the package draws from a counter-based Philox
generator keyed by (root seed, stream index).  Independent trials use their
trial index as the stream, so results never depend on execution order and a
run is reproducible from the root seed alone.

Because Philox is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11), draw k of a stream is a pure function of the key and
k, so `stream_uniforms` computes the same draws for many streams at once.
"""

import numpy as np

_MASK64 = (1 << 64) - 1

# Philox4x64-10 multipliers and Weyl key increments (Random123, as in numpy).
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = 0x9E3779B97F4A7C15
_W1 = np.uint64(0xBB67AE8584CAA73B)
_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_11 = np.uint64(11)


def philox_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for one stream of the keyed Philox family."""
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(m: np.uint64, x: np.ndarray):
    """Low and high 64-bit words of the 128-bit product m * x.

    numpy has no 128-bit integers, so the high word is assembled from the
    four 32 x 32 -> 64 partial products; the low word is the wrapping product.
    In-place updates keep a block's temporaries few.
    """
    m_lo, m_hi = m & _LOW32, m >> _32
    lh = x >> _32
    hi = lh * m_hi
    lh *= m_lo
    hl = x & _LOW32
    carry = hl * m_lo
    hl *= m_hi
    carry >>= _32
    carry += lh & _LOW32
    carry += hl & _LOW32
    carry >>= _32
    lh >>= _32
    hl >>= _32
    hi += lh
    hi += hl
    hi += carry
    return m * x, hi


def stream_uniforms(seed: int, streams: np.ndarray, draws: int) -> np.ndarray:
    """The first `draws` uniforms of many streams, one row per stream.

    Row i equals ``philox_generator(seed, streams[i]).random(draws)`` bit for
    bit: numpy's Philox increments its counter before each block of four
    64-bit words, so draw k is word k % 4 of Philox4x64-10 at counter
    [1 + k // 4, 0, 0, 0] under key [seed, stream], and a word w becomes the
    double (w >> 11) * 2**-53.  `streams` holds indices in [0, 2**64).
    """
    keys = np.asarray(streams, dtype=np.uint64).reshape(-1, 1)
    blocks = -(-draws // 4)
    # Broadcasting carries the shapes: the counter varies along blocks, the
    # key along streams, so after two rounds every word is (streams, blocks).
    c0 = np.arange(1, blocks + 1, dtype=np.uint64).reshape(1, -1)
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    k0 = int(seed) & _MASK64
    k1 = keys
    for r in range(_ROUNDS):
        if r:
            k0 = (k0 + _W0) & _MASK64
            k1 = k1 + _W1
        lo0, hi0 = _mulhilo(_M0, c0)
        lo1, hi1 = _mulhilo(_M1, c2)
        hi1 ^= c1
        hi1 ^= np.uint64(k0)
        hi0 = hi0 ^ c3 ^ k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    out = np.empty((keys.shape[0], draws))
    for j, word in enumerate((c0, c1, c2, c3)[:draws]):
        out[:, j::4] = (word[:, : (draws - j + 3) // 4] >> _11) * 2.0**-53
    return out
