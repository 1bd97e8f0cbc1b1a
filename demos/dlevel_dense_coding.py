"""Dense coding beyond qubits: the d x d story for d = 3.

The d^2 clock-and-shift encodings carry log2(d^2) bits through one shared
pair, with average fidelity again equal to the base overlap.  The numeric
FEF search takes over where the two-qubit closed form stops.

Run:  python3 demos/dlevel_dense_coding.py
"""

import numpy as np

from entfrac import clock_shift_unitaries, dense_coding_fidelity_d, fef_numeric_d
from entfrac.ddim import haar_unitary, phi1_d

d = 3
phi = phi1_d(d)
perfect = np.outer(phi, phi.conj())

print(f"d = {d}: {d * d} encodings, capacity {np.log2(d * d):.3f} bits")
print(f"perfect pair fidelity    {dense_coding_fidelity_d(perfect):.9f}")

# a noisy pair: mix the perfect state with white noise
noisy = 0.7 * perfect + 0.3 * np.eye(d * d) / (d * d)
v = (phi.conj() @ noisy @ phi).real
print(f"noisy pair fidelity      {dense_coding_fidelity_d(noisy):.9f}  (base overlap {v:.9f})")

sep = np.zeros((d * d, d * d), dtype=complex)
sep[0, 0] = 1.0
print(f"separable |00> fidelity  {dense_coding_fidelity_d(sep):.9f}  (= 1/d)")

# FEF by search: a locally rotated perfect pair still scores 1
u = haar_unitary(np.random.default_rng(17), d)
ket = np.kron(np.eye(d), u) @ phi
rotated = np.outer(ket, ket.conj())
print(f"\nnumeric FEF, rotated perfect pair  {fef_numeric_d(rotated):.9f}")
print(f"numeric FEF, maximally mixed       {fef_numeric_d(np.eye(d * d) / (d * d)):.9f}  (= 1/d^2)")
