"""Compare the CHSH maximization modes and the bound 2*sqrt(2)*F.

The searched settings keep each party's pair of analyzers orthogonal and
rotate the two frames (either handedness), or hold the canonical settings
and rotate the state by local unitaries; neither exceeds 2*sqrt(2)*F.

Run:  python3 demos/bell_search_modes.py
"""

import numpy as np

from entfrac import bell_canonical, bell_max, fully_entangled_fraction, random_density, werner
from entfrac.applications import TSIRELSON

states = [
    ("werner p=0.9", werner(0.9)),
    ("random (seed 1, index 2)", random_density(1, 2)),
    ("|01><01| product", np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)),
]

for name, rho in states:
    f = fully_entangled_fraction(rho).f
    b_can = bell_canonical(rho)
    b_ang = bell_max(rho, mode="angles")
    b_uni = bell_max(rho, mode="local_unitaries")
    print(f"\n{name}:  F = {f:.6f}, bound 2*sqrt(2)*F = {TSIRELSON * f:.6f}")
    print(f"  canonical settings      {b_can:.6f}")
    print(f"  best orthogonal frames  {b_ang:.6f}   normalized {b_ang / TSIRELSON:.6f}")
    print(f"  best local unitaries    {b_uni:.6f}   normalized {b_uni / TSIRELSON:.6f}")
