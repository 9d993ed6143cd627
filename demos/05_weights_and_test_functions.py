"""The smooth box weight and the Fejer test-function pair.

The family weight is a tensor product of scaled bump profiles
exp(-1/(t(1-t))), giving a compactly supported smooth weight whose
Fourier transform decays fast enough for the dual path.  The test pair is
the Fejer kernel: a triangle on the transform side with half-width nu,
a squared sinc on the zero side.
"""

import numpy as np

from ecdensity import (
    DEFAULT_BOX,
    SmoothWeight,
    bump,
    fejer_pair,
    verify_fourier_pair,
)

print(f"bump(1/2) = {bump(0.5):.6f} = e^-4 = {np.exp(-4.0):.6f}")
print(f"bump at the edges: {bump(0.0)}, {bump(1.0)} (vanishes to all orders)")

pair = fejer_pair("7/10")
print()
print(f"nu = {pair.nu}: phi(0) = {pair.phi0}, phihat(0) = {pair.phihat0}, "
      f"transform support |u| <= {pair.phihat_support}")
worst = verify_fourier_pair(pair, np.linspace(-3.0, 3.0, 25))
print(f"numeric transform check on a grid: worst error {worst:.2e}")

w = SmoothWeight(DEFAULT_BOX)
print()
print(f"box {DEFAULT_BOX}: center weight w(0.75, 0.75) = {w.w(0.75, 0.75):.6f}")
print(f"mass = {w.mass:.8f}")
r = w.radius(0, 1e-8)
print(f"first-axis transform drops below 1e-8 outside radius {r:.1f}")
ys = np.abs(w.axis_transform(0, np.array([r + 1.0, r + 5.0])) * w.axis_transform(1, 0.0))
print(f"  |what| just past it: {ys[0]:.2e}, {ys[1]:.2e}")
