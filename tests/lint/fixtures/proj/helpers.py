"""Pass-through helpers shared by seeded and unseeded callers.

Both the TP and the TN runner route their generator through ``wrap``,
so a flag on the seed-rooted runner would mean one caller's provenance
leaked into another's.
"""

from proj import core as c


def wrap(gen):
    return gen


def fresh(seed):
    return c.make_generator(seed)
