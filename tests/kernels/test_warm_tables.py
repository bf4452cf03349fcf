"""``warm_line_tables`` leaves nothing for a forked worker to derive.

Serve's ``start`` and the sharded runner call it before forking, so a
job or shard worker inherits the stock codec's check and encode tables
and the numpy backend's check tables.  A child that still derived the
check-vector columns would pay for it in its first interval.
"""

import multiprocessing

import pytest

from repro.core import linecodec
from repro.core.layout import LineLayout
from repro.core.linecodec import LineCodec
from repro.kernels import get_backend, warm_line_tables
from repro.kernels import numpy_backend

LAYOUT = LineLayout()


def _child(queue):
    """Use every table of LAYOUT with the column derivation disabled."""
    derived = []

    def no_derivation(*args, **kwargs):
        derived.append(args)
        raise AssertionError("check-vector columns derived in the child")

    linecodec.affine_columns = no_derivation
    try:
        cached = (
            LAYOUT in linecodec._LINE_TABLES
            and LAYOUT in numpy_backend._TABLE_CACHE
        )
        codec = LineCodec(LAYOUT)
        word = codec.encode_many([0x1234])[0]
        codec.decode(word ^ 1)
        get_backend("numpy").batch_check(codec, [word, word ^ 2])
        queue.put((cached, len(derived), None))
    except Exception as error:  # reported to the parent
        queue.put((False, len(derived), repr(error)))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_forked_child_derives_no_columns():
    # Start from a clean cache, so the tables the child finds are the
    # ones warm_line_tables built.
    linecodec._LINE_TABLES.pop(LAYOUT, None)
    numpy_backend._TABLE_CACHE.pop(LAYOUT, None)
    warm_line_tables()
    assert LAYOUT in linecodec._LINE_TABLES
    assert LAYOUT in numpy_backend._TABLE_CACHE
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    process = context.Process(target=_child, args=(queue,))
    process.start()
    try:
        cached, derivations, error = queue.get(timeout=60)
    finally:
        process.join(timeout=60)
    assert error is None
    assert cached
    assert derivations == 0
    assert process.exitcode == 0
