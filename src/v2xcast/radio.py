"""The sectored antenna pattern that every link budget in the package uses.

The rate model and the audit compute their link budgets with numpy from it;
a desired link is beam-aligned, so it sees the mainlobe gain at both ends.
"""

from __future__ import annotations

import math

from .params import RadioParams


def antenna_gain(theta: float, beamwidth: float, sidelobe: float) -> float:
    """Sectored pattern: flat mainlobe inside the half-power beamwidth, flat
    sidelobe outside. theta is the alignment error angle in [0, pi]; the
    boundary theta == beamwidth/2 takes the mainlobe value."""
    if theta <= beamwidth / 2.0:
        return (2.0 * math.pi - (2.0 * math.pi - beamwidth) * sidelobe) / beamwidth
    return sidelobe


def mainlobe_gain(radio: RadioParams) -> float:
    return antenna_gain(0.0, radio.beamwidth, radio.sidelobe_gain)
