"""RPR002 TN: the same two-hop shape rooted in the SeedSequence tree.

Shares ``wrap`` with the TP fixture, so flagging this module means the
analysis leaked one caller's taint into another's chain.
"""

import numpy as np

from proj.helpers import wrap


def run_campaign(root_seed):
    tree = np.random.SeedSequence(root_seed)
    child = tree.spawn(1)[0]
    gen = wrap(np.random.default_rng(child))
    return gen.integers(0, 10)
