import numpy as np
import pytest

from orderctx import philox_generator
from orderctx.rng import stream_uniforms

STREAMS = [0, 1, 2, 7, 4096, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", [0, 1, -3, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("draws", range(1, 10))
def test_rows_equal_per_stream_generators(seed, draws):
    got = stream_uniforms(seed, np.array(STREAMS, dtype=np.uint64), draws)
    assert got.shape == (len(STREAMS), draws)
    assert got.dtype == np.float64
    for row, stream in zip(got, STREAMS):
        assert np.array_equal(row, philox_generator(seed, stream).random(draws))


def test_empty_stream_list():
    assert stream_uniforms(5, np.array([], dtype=np.uint64), 3).shape == (0, 3)
