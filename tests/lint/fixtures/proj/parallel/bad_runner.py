"""RPR002 TP: an unseeded RNG crosses two call hops into a draw.

The generator is constructed in ``proj.core.make_unseeded`` (hop 1,
reached through the ``proj.api`` re-export), passed through
``proj.helpers.wrap`` (hop 2), and consumed here -- no single module
looks wrong.
"""

from proj.api import make_unseeded
from proj.helpers import wrap


def run_campaign():
    gen = wrap(make_unseeded())
    return gen.integers(0, 10)
