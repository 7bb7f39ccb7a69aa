"""Clean for SL802: a numpy-importing module reduces with math.fsum."""
import math

import numpy as np


def mean_power(samples_mw: list) -> float:
    total_mw = math.fsum(samples_mw)
    return total_mw / np.float64(len(samples_mw))
