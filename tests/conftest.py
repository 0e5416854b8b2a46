"""Shared builders for micro models used across the test suite."""
import numpy as np
import pytest

from protostudent.encoder import Encoder, EncoderConfig
from protostudent.heads import HEAD_KINDS, StudentModel, make_head
from protostudent.replacement import PrototypeStore


MICRO_CONFIG = EncoderConfig(in_channels=2, blocks=((3, 2, 1),), input_size=(4, 4))
# a 16x16 two-block encoder: big enough that BLAS sums a batched product's
# row in another order than a one-row product
ROWS_CONFIG = EncoderConfig(in_channels=3, blocks=((8, 3, 2), (16, 3, 2)), input_size=(16, 16))


def micro_student(kind: str, seed: int = 0, k: int = 4, classes: int = 2,
                  config: EncoderConfig = MICRO_CONFIG,
                  zero_bias: bool = False) -> StudentModel:
    """Tiny student with randomized parameters (the default classifier
    init is zero, which would make gradient and relevance tests vacuous)."""
    rng = np.random.default_rng([seed, 99])
    enc = Encoder(config, seed=seed)
    if zero_bias:
        for b in enc.biases:
            b.data[...] = 0.0
    c = config.feature_shape()[0]
    head = make_head(kind, k, classes, c, seed=seed)
    head.w.data = rng.uniform(0.2, 1.0, size=head.w.shape)
    if zero_bias:
        head.b.data[...] = 0.0
    else:
        head.b.data = rng.uniform(-0.1, 0.1, size=head.b.shape)
    images = rng.random((k, config.in_channels, *config.input_size))
    labels = np.arange(k) % classes
    # distinct birth stamps in shuffled slot order, so the ranking is not
    # the slot order
    born = rng.permutation(k)
    store = PrototypeStore(ids=np.arange(k), images=images,
                           labels=labels.astype(np.int64), born=born)
    student = StudentModel(encoder=enc, head=head, store=store, class_count=classes)
    student.refresh_store_features()
    return student


@pytest.fixture(params=HEAD_KINDS)
def head_kind(request):
    return request.param
