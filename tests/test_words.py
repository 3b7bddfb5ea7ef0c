"""Seeded draws read off 32-bit Mersenne Twister words.

``groups._random_product`` reads transversal picks off an iterator of
words, and ``groups._sample_size`` replays the words that
``rng.sample(range(k), rng.randint(0, k))`` reads.  Both must read the same
words as the ``random.Random`` calls they stand for, and leave a shared rng
where those calls would, or every seeded witness and report byte moves.
"""

import random
from functools import partial
from itertools import islice

import pytest

from permdeg import catalog
from permdeg.groups import _CHUNK, ChainLevel, _bulk_words, _random_product, _sample_size

from brute import mobius_group, random_images_by_choice


def test_words_are_successive_getrandbits_words():
    # 2,500 words cross two chunk boundaries
    assert _CHUNK < 1250
    reference = random.Random(5)
    expected = [reference.getrandbits(32) for _ in range(2500)]
    assert list(islice(_bulk_words(random.Random(5)), 2500)) == expected
    shared = random.Random(5)
    assert list(islice(iter(partial(shared.getrandbits, 32), None), 2500)) == expected
    assert shared.getstate() == reference.getstate()


def _group(name):
    if name == "PGL2_257":
        return mobius_group(257)
    m24 = catalog.parse_group_name("M24")
    return m24 if name == "M24" else m24.pointwise_stabilizer([0, 1])


@pytest.mark.parametrize("name", ["M24", "M24_(0,1)", "PGL2_257"])
def test_random_element_is_a_choice_walk(name):
    group = _group(name)
    levels = group.chain().levels
    for seed in (0, 1, 7):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(40):
            assert (group.random_element(ours).images
                    == random_images_by_choice(levels, group.degree, theirs)), seed
            # a caller's own draws between two elements read the same words
            assert ours.randrange(1000) == theirs.randrange(1000)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("name", ["M24", "M24_(0,1)", "PGL2_257"])
def test_bulk_words_draw_the_choice_walk(name):
    group = _group(name)
    levels = group.chain().levels
    words, theirs = _bulk_words(random.Random(3)), random.Random(3)
    # 500 draws read past the first chunk on each group
    for _ in range(500):
        assert (tuple(_random_product(levels, group.degree, words))
                == random_images_by_choice(levels, group.degree, theirs))
    assert next(words) == theirs.getrandbits(32)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_size_replays_sample(seed):
    # four draws per k reach both of sample's branches and, at k = 21, 85
    # and 277, pools exactly as long as its set threshold
    for k in range(301):
        words, theirs = _bulk_words(random.Random(1000 * seed + k)), random.Random(1000 * seed + k)
        for _ in range(4):
            assert _sample_size(words, k) == len(theirs.sample(range(k), theirs.randint(0, k))), k
        assert next(words) == theirs.getrandbits(32), k


def test_an_orbit_past_32_bits_raises():
    with pytest.raises(ValueError, match="32-bit words"):
        _random_product([ChainLevel(0, {}, range(2 ** 32))], 1, iter([0]))
    # one point less fits: the whole word is read, and 2**32 - 1 is redrawn
    level = ChainLevel(0, {5: b"\x00"}, range(2 ** 32 - 1))
    assert _random_product([level], 1, iter([2 ** 32 - 1, 5])) == b"\x00"
