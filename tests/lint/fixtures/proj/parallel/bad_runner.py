"""RPR002 TP: an unseeded RNG crosses two call hops into a draw.

The generator is constructed in ``proj.core.make_unseeded`` (hop 1,
reached through the ``proj.api`` re-export), passed through
``proj.helpers.wrap`` (hop 2), and consumed here.  The rule flags the
chain where it starts, at the unseeded constructor in ``proj.core``;
nothing in this module looks wrong.
"""

from proj.api import make_unseeded
from proj.helpers import wrap


def run_campaign():
    gen = wrap(make_unseeded())
    return gen.integers(0, 10)
