"""Counter-based noise source: addressability, determinism, distribution."""

import hashlib

import numpy as np
import pytest
from scipy import stats

from stochastica import noise


def test_same_address_same_block():
    a = noise.normal_block(123, noise.EULER, 64, 5, 0, 1000, 2)
    b = noise.normal_block(123, noise.EULER, 64, 5, 0, 1000, 2)
    assert a.shape == (1000, 2)
    np.testing.assert_array_equal(a, b)


def test_subrange_matches_full_block():
    # chunked workers must see the same draws as a single pass
    full = noise.normal_block(7, noise.EULER, 32, 3, 0, 5000, 3)
    lo, hi = 1234, 4321
    part = noise.normal_block(7, noise.EULER, 32, 3, lo, hi, 3)
    np.testing.assert_array_equal(part, full[lo:hi])


def test_uniform_subrange_matches_full_block():
    full = noise.uniform_block(99, noise.KERNEL, 8, 1, 0, 2048, 1)
    part = noise.uniform_block(99, noise.KERNEL, 8, 1, 2000, 2048, 1)
    np.testing.assert_array_equal(part, full[2000:])


@pytest.mark.parametrize("field", ["seed", "substream", "context", "step"])
def test_distinct_keys_decorrelate(field):
    base = dict(seed=5, substream=noise.EULER, context=16, step=2)
    other = dict(base)
    other[field] = base[field] + 1
    a = noise.normal_block(base["seed"], base["substream"], base["context"],
                           base["step"], 0, 256, 1)
    b = noise.normal_block(other["seed"], other["substream"], other["context"],
                           other["step"], 0, 256, 1)
    assert not np.array_equal(a, b)


def test_uniforms_open_interval():
    u = noise.uniform_block(11, noise.TERMINAL, 1, 0, 0, 100000, 1)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 4 * 0.5 / np.sqrt(u.size)


def test_the_top_word_gives_a_uniform_below_one_and_a_finite_normal(monkeypatch):
    # ((2**53 - 1) + 0.5) * 2**-53 rounds to 1.0, whose normal is +inf
    class AllOnes:
        def random_raw(self, n):
            return np.full(n, np.iinfo(np.uint64).max, dtype=np.uint64)

    monkeypatch.setattr(noise, "_keyed_generator", lambda *key: AllOnes())
    u = noise.uniform_block(3, noise.EULER, 0, 0, 1, 9, 2)
    assert u.shape == (8, 2) and np.all(u < 1.0)
    assert np.all(u == np.nextafter(1.0, 0.0))
    assert np.all(np.isfinite(noise.normal_block(3, noise.EULER, 0, 0, 1, 9, 2)))


def test_normals_pass_ks():
    z = noise.normal_block(2024, noise.EULER, 4, 0, 0, 100000, 1)[:, 0]
    d, p = stats.kstest(z, "norm")
    assert p > 0.01, f"KS statistic {d}, p={p}"


def test_component_columns_differ():
    z = noise.normal_block(3, noise.EULER, 4, 0, 0, 4096, 3)
    corr = np.corrcoef(z.T)
    off = corr[np.triu_indices(3, 1)]
    assert np.all(np.abs(off) < 4 / np.sqrt(4096))


def test_validate_seed():
    assert noise.validate_seed(0) == 0
    assert noise.validate_seed(2**63) == 2**63
    with pytest.raises(ValueError):
        noise.validate_seed(-1)
    with pytest.raises(ValueError):
        noise.validate_seed(1.5)


def test_step_blocks_do_not_overlap():
    # consecutive steps must address disjoint counter ranges
    a = noise.normal_block(42, noise.EULER, 128, 0, 0, 333, 2)
    b = noise.normal_block(42, noise.EULER, 128, 1, 0, 333, 2)
    assert not np.any(np.all(a == b, axis=1))


# sha256 of the little-endian bytes of fixed blocks: the draws and the
# (0, 1) -> normal transform must never change, whatever the buffering
_DIGESTS = [
    ((2024, noise.EULER, 64, 5, 0, 1000, 1),
     "b1ceb28c05514dabce0aebca61f8c5a66708bb6cd737733a22e8c7cc39953da4",
     "c83f8cfbcf5156f8a47912aa6f163382ff7a71b4c9408b61d032f046a4c94e79"),
    ((7, noise.TERMINAL, 1, 0, 1233, 5001, 3),
     "78d3b19c50b835e9d6fa8f860c664f2ea59ffe0cee6048721b3b1ac427359b3e",
     "a0bafc37b7ae7f105d32352bd1ec3caf648930f0e53ac121d71e3fade32ab6f8"),
    ((2**64 - 1, noise.KERNEL, 256, 255, 65535, 65539, 2),
     "044d7707d6af74c3a24edadfedfb63a634029e5c1c31077ab9e4adf59dec9626",
     "e115876f31ce2895dbf5cf5844ac9b114ad11ac1a8edcca4402c04e18a0c8c01"),
]


@pytest.mark.parametrize("address,normal,uniform", _DIGESTS)
def test_pinned_block_digests(address, normal, uniform):
    def digest(a):
        return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()

    assert digest(noise.normal_block(*address)) == normal
    assert digest(noise.uniform_block(*address)) == uniform


def test_the_key_is_derived_once_per_address_and_read_only():
    from numpy.random import SeedSequence
    key = noise._key(7, noise.EULER, 64, 5)
    want = SeedSequence(entropy=7, spawn_key=(noise.EULER, 64, 5)).generate_state(2, np.uint64)
    assert key.dtype == np.uint64 and key.tobytes() == want.tobytes()
    assert noise._key(7, noise.EULER, 64, 5) is key    # every span shares it
    assert not key.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        key[0] = 0
