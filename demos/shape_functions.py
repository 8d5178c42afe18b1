"""The 1d mode set: two hat ends plus integrated Legendre bubbles.

The bubbles vanish at both endpoints and their derivatives are mutually
orthonormal, which is what keeps high-order stiffness matrices from
degenerating.  This script checks the Gram matrix of the derivatives
numerically and, if matplotlib is importable, draws the first modes.
"""

import numpy as np

from overlayfem.basis import shape_tables
from overlayfem.quadrature import gauss_rule_1d

JMAX = 8

x, w = gauss_rule_1d(JMAX + 2)
_, dphi = shape_tables(JMAX, x)
gram = (dphi * w) @ dphi.T

print(f"derivative Gram matrix for modes 3..{JMAX} (should be identity):")
bubbles = gram[2:, 2:]
for row in bubbles:
    print("  " + " ".join(f"{v:+8.1e}" for v in row))
off = bubbles - np.eye(JMAX - 2)
print(f"max deviation from identity: {np.abs(off).max():.2e}")

ends, _ = shape_tables(JMAX, np.array([-1.0, 1.0]))
print(f"\nbubble endpoint values (max abs): {np.abs(ends[2:]).max():.2e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    xs = np.linspace(-1.0, 1.0, 400)
    vals, _ = shape_tables(6, xs)
    fig, ax = plt.subplots(figsize=(6, 4))
    for j in range(6):
        ax.plot(xs, vals[j], label=f"mode {j + 1}")
    ax.legend(fontsize=8)
    ax.set_xlabel("reference coordinate")
    ax.set_title("1d modes: linear ends and integrated Legendre bubbles")
    fig.tight_layout()
    fig.savefig("modes_1d.png", dpi=120)
    print("wrote modes_1d.png")
